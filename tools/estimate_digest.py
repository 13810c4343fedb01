"""Print one line per Monte Carlo estimate, exact output and sampled cell batch of the benchmark's workloads and tests.

    python3 tools/estimate_digest.py --root DIR --seeds 9101 9102 9103

Imports the package from ``DIR/src`` and the workloads from ``DIR/sphbench``,
builds the operations of ``acceptance-mc`` and ``large-arrangements`` for each
seed and runs them in order.  Then it runs every operation of
``exact-reproduction`` once (none of its inputs depends on the seed), renders
every appendix table at n = 4..12, past every printed range, which reaches
``computed`` verdicts and appE's n x m grid beyond the print, and the figures
at arguments the workload does not use (``statdim_fig6`` at d = 3, k = 1, and
each l-indexed figure at d = 4, n in {6, 9}), dumps the A and B tables
of ``sphtess coeffs --max-m 60``, parses and formats again
(``sp_format(sp_parse(s))``) every printed value in ``appendix_data``, in name order, which checks the text grammar directly and
not only through table verdicts, formats the result of every ``SqrtPiPoly``
operator on the parsed appE d = 2 values and on monomials of both signs and
odd and negative exponents (division by a negative monomial and reflected
``-`` among them, which no workload reaches), and formats the weighted ef, U, v, v_{-1}
and statdim at every d <= 8, d < n <= d + 7, k and l, which reach A and B
entries and weighted sums that the workloads do not.  It formats the values
derived from E v_0..E v_d at the same d and n: isect of both flavors at every
pair n, m in d + 1..d + 7, off-diagonal pairs included (the tables and
Fig. 8's diagonal reach only some, and none with n != m at d >= 4);
``hk_typical_mean``, ``hk_weighted_mean`` and statdim of both flavors at
every k; ``isect_prob_fixed`` of both flavors' [E v_0..E v_d] at m = n, of
the full sphere (0, ..., 0, 1) and of a point (1/2, 0, ..., 0); and
``euclid_v`` of both flavors at d = 1..11, every k and l, and gamma in
{gamma_star, 1, 3/7}.  The ``eval`` lines give ``sp_eval(v, D)`` rounded to
D significant digits, D in EVAL_DIGITS, for the values of ``_eval_values``:
the weighted E f_l at d = k = 30, n = 200, l in {0, 15, 29}, and B{200, c},
c in {2, 31, 100}, whose terms cancel 130-280 digits, and E f_29 less a
33-digit rational near it, whose cancellation reaches ``sp_eval``'s second
pass; they show the read-out contract directly,
not only through 15-digit CSV text.  Then it runs the d = 4 comparisons of
``test_compare_isect_d4`` and ``test_compare_d4`` (cells in R^5, reps 4096,
seed 3), which reach the kernels at dim 5 that the workloads do not, isect
at d = 5, n = m = 6, both flavors (reps 2048, seed 3), which reaches the
intersection certificates at dim 6, weighted isect at d = 2, n = m = 40
(reps 4096, seed 3), whose undecided pairs reach ``_meets`` on 80 stacked
rows, two words of side masks, two
typical cells with k < d at pole:4 (reps 4096, seed 3), which reach the
cutter path of the kappa sampler that no workload runs, and one plain and
one isect cell at reps 2500 (seed 3), whose last batch is short, so the
concatenation of replications across it is compared too: the workloads
run one batch per estimate.  Last come the
two consistency checks, each part of ``consistency_checks`` on its own,
at (n, d, k) = (4, 2, 2) and (5, 3, 3), isotropic and at pole:4 (same reps
and seed), each law followed by the typical H^k of that cell (a
``skeleton`` line, ``compare`` at the same reps and seed): no workload
runs part (b), nor part (a) beyond ``acceptance-mc``'s one size-bias
cell, nor H^k at pole:4.  Each Monte Carlo line holds the
workload (``d4``, ``d5``, ``wide``, ``kappa``, ``remainder``, ``consistency`` or ``skeleton`` for those), the seed, the
operation's label, ``repr`` of the mean and of the stderr, the reps and the
redraws, tab-separated; a ``consistency`` line adds ``repr`` of the
report's z, its verdict and its exact value.  The ``cells`` lines come
last, one per (sampler, m, dim, law) of CELL_SHAPES: the sha256 of ``repr``
of one batch of BATCH cells from a fixed ``batch_rng``, its ``CellBatch``
arrays (normals, cell, subset, rays: dtype, shape and bytes) and redraw
count, which shows sampler identity directly and not only through the
estimates, the shapes (m, dim) = (4, 3) and (5, 4), where most candidate
rays are vertices, and (9, 6), past the dims of the workloads, the typical
cells at pole:4 (k = d and k < d) and at m = 40,
past 32-bit side masks, and the weighted cells at m = 70, past one 64-bit
word, included.  The ``solid`` lines follow, one per (m, dim) of
SOLID_SHAPES: the sha256 of ``repr`` of the dtype, shape and bytes of
``solid_fractions`` over the normals of one batch of BATCH typical cells,
both from one fixed ``batch_rng``, at the estimators' ``subspace_reps``
points per cell, which shows the sign tests of the solid fraction
directly.  Each ``exact`` line holds
the operation's label and the sha256 of ``repr`` of its output (tables, figure CSV text,
identity-suite results, limit-sweep gaps; the CSV text of one table or
figure at non-default arguments; one coefficient family's CSV
lines; the appendix values, each with its table name and key; the operators'
results; one weighted
formula's or one derived family's strings at one d, with the message of each call that raises).  An operation that raises prints its
error instead.

A change meant to keep every estimate and every exact output bit-identical
is checked by running this on a checkout of the parent commit (``git
clone``) and on the change, and diffing the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

WORKLOADS = ("acceptance-mc", "large-arrangements")
D4_SEED = 3
# (quantity, flavor, n, d, k, l, m) of the d = 4 comparisons in tests/test_simulate.py
D4_CELLS = [
    ("isect", "weighted", 5, 4, 4, None, 5),
    ("U", "weighted", 6, 4, 4, 1, None),
    ("v", "weighted", 6, 4, 4, 1, None),
    ("statdim", "weighted", 6, 4, 4, None, None),
    ("vminus1", "weighted", 7, 4, 4, None, None),
    ("hk", "typical", 7, 4, 4, None, None),
    ("statdim", "typical", 7, 4, 4, None, None),
    ("U", "typical", 7, 4, 4, 2, None),
] + [("f", flavor, 6, 4, 4, l, None) for flavor in ("weighted", "typical") for l in range(4)]
# isect at d = 5, whose cells in R^6 reach the vertex certificates at dim 6 (reps D5_REPS)
D5_CELLS = [("isect", flavor, 6, 5, 5, None, 6) for flavor in ("weighted", "typical")]
D5_REPS = 2048
# a plain and an isect cell at reps REMAINDER_REPS = 2 * BATCH + 452: the last batch is short
REMAINDER_CELLS = [("f", "typical", 6, 3, 3, 1, None), ("isect", "weighted", 5, 3, 3, None, 5)]
REMAINDER_REPS = 2500
# weighted isect at d = 2, n = m = 40: the pairs the certificates leave reach _meets on 80 stacked rows,
# two 64-bit words of side masks (at d = 1 the certificates decide every pair)
WIDE_CELLS = [("isect", "weighted", 40, 2, 2, None, 40)]
# typical cells with k < d under the pole-concentrated law, beta = 4
KAPPA_CELLS = [("f", "typical", 5, 3, 2, 0, None), ("U", "typical", 6, 3, 2, 1, None)]
# (n, d, k) of the consistency checks and skeleton lines, each run isotropic and at this pole beta
CONSISTENCY_CELLS = [(4, 2, 2), (5, 3, 3)]
CONSISTENCY_BETA = 4.0
# (sampler, m, dim, law) of the cells lines: law "iso", or "pole4-k=d" / "pole4-k<d" for the
# typical cells of (n, d, k) = (m, dim - 1, dim - 1) / (m + 1, dim, dim - 1) at pole:4
CELL_SHAPES = [
    (sampler, m, dim, "iso")
    for m, dim in ((5, 2), (4, 3), (6, 3), (5, 4), (8, 4), (12, 4), (10, 5), (9, 6))
    for sampler in ("typical", "weighted")
] + [
    ("typical", 6, 4, "pole4-k=d"), ("typical", 6, 3, "pole4-k<d"), ("typical", 40, 2, "iso"), ("weighted", 70, 2, "iso")
]
# (m, dim) of the solid lines: the dim-4 v_4 of ivol_vector, and the U_{dim-1} of ivol_values at dim 5
SOLID_SHAPES = [(4, 4), (8, 4), (12, 4), (6, 5)]
COEFFS_MAX_M = 60
# a table range past every printed one: computed verdicts, and appE's n x m grid beyond the print
TABLE_N_RANGE = (4, 12)
# figures at non-default arguments: (which, keyword arguments of figure_csv)
FIGURE_CASES = [("statdim_fig6", dict(d=3, k=1))] + [
    (which, dict(d=4, ns=[6, 9])) for which in ("fvec_fig3", "quermass_fig4", "intvol_fig5")
]
WEIGHTED_MAX_D = 8
EUCLID_MAX_D = 11
EUCLID_GAMMAS = ("gamma_star", 1, "3/7")
# divisors of the arith line: a negative one with an odd s-exponent, a negative power of pi, a negative rational
ARITH_MONOMIALS = ("-3/2*sqrtpi^3", "pi^-1", "-1/7")
# significant digits of the eval lines
EVAL_DIGITS = (25, 40)
EVAL_F29_NEAR = "171.884276456106648875796912899657"  # E f_29 at d = k = 30, n = 200, to 33 digits


def _estimate(out):
    return [repr(out["mean"]), repr(out["stderr"]), str(out["reps"]), str(out["redraws"])]


def _sha256(out):
    return [hashlib.sha256(repr(out).encode()).hexdigest()]


def _fields(run, show=_estimate):
    try:
        out = run()
    except Exception as exc:  # a failing operation is part of the digest
        return [f"error {type(exc).__name__}: {exc}"]
    return show(out)


def _compare(cell, beta=0.0, reps=4096):
    from sphtess.geom import KappaFamily
    from sphtess.moments import ExpectationQuery
    from sphtess.simulate import ExperimentConfig, compare

    kappa = KappaFamily("pole_concentrated", beta) if beta else KappaFamily()
    est = compare(ExpectationQuery(*cell), ExperimentConfig(reps=reps, seed=D4_SEED, kappa=kappa)).estimate
    return {"mean": est.mean, "stderr": est.stderr, "reps": est.reps, "redraws": est.degenerate_redraws}


def _consistency(cell, part, beta):
    from sphtess.exactnum import sp_format
    from sphtess.geom import KappaFamily
    from sphtess.simulate import ExperimentConfig, consistency_checks

    kappa = KappaFamily("pole_concentrated", beta) if beta else KappaFamily()
    (rep,) = consistency_checks(*cell, ExperimentConfig(reps=4096, seed=D4_SEED, kappa=kappa), parts=(part,))
    est = rep.estimate
    return {"mean": est.mean, "stderr": est.stderr, "reps": est.reps, "redraws": est.degenerate_redraws,
            "report": [repr(rep.z_score), rep.verdict, sp_format(rep.exact)]}


def _cells(sampler, m, dim, law):
    """(dtype, shape, bytes) of the ``CellBatch`` arrays and the redraws of one batch of BATCH cells.

    The batch draws from ``batch_rng(D4_SEED, stream_id("cells", sampler, m, dim, law), 0)``.
    """
    from sphtess import mckernels as mk
    from sphtess.geom import KappaFamily

    rng = mk.batch_rng(D4_SEED, mk.stream_id("cells", sampler, m, dim, law), 0)
    if sampler == "weighted":
        cells = mk.sample_weighted_cells(rng, mk.BATCH, m, dim)
    else:
        k = dim - 1
        n, d = (m, k) if law != "pole4-k<d" else (m + 1, dim)
        raw = None if law == "iso" else mk._kappa_sampler(KappaFamily("pole_concentrated", 4.0), n, d, k)
        cells = mk.sample_typical_cells(rng, mk.BATCH, m, dim, raw_sampler=raw)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (cells.normals, cells.cell, cells.subset, cells.rays)] + [
        cells.degenerate
    ]


def _solid(m, dim):
    """(dtype, shape, bytes) of ``solid_fractions`` over one batch of BATCH typical cells.

    Cells and points draw from ``batch_rng(D4_SEED, stream_id("solid", m, dim), 0)``.
    """
    from sphtess import mckernels as mk
    from sphtess.simulate import ExperimentConfig

    rng = mk.batch_rng(D4_SEED, mk.stream_id("solid", m, dim), 0)
    cells = mk.sample_typical_cells(rng, mk.BATCH, m, dim)
    frac = mk.solid_fractions(cells.normals, rng, ExperimentConfig().subspace_reps)
    return (frac.dtype.str, frac.shape, frac.tobytes())


def _coeff_tables():
    """{family: its CSV lines} of ``sphtess coeffs --max-m COEFFS_MAX_M``."""
    import contextlib
    import io

    from sphtess import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["coeffs", "--max-m", str(COEFFS_MAX_M)])
    tables = {}
    for line in buf.getvalue().splitlines()[1:]:
        tables.setdefault(line.split(",", 1)[0], []).append(line)
    return tables


def _weighted_formats(name, d):
    """``sp_format`` of one weighted formula at every n, k (and l) for this d."""
    from sphtess import moments as mo

    fn, takes_l = {
        "ef": (mo.ef_weighted, True),
        "U": (mo.u_weighted, True),
        "v": (mo.v_weighted, True),
        "vminus1": (mo.v_minus1_weighted, False),
        "statdim": (lambda n, d, k: mo.statdim("weighted", n, d, k), False),
    }[name]
    return _formats(
        (fn, args)
        for n in range(d + 1, d + 8)
        for k in range(d + 1)
        for args in ([(n, d, k, l) for l in range(k + 1)] if takes_l else [(n, d, k)])
    )


def _formats(calls):
    """``args: sp_format(fn(*args))`` for each (fn, args), or the message of a call that raises."""
    from sphtess.exactnum import sp_format

    out = []
    for fn, args in calls:
        try:
            text = sp_format(fn(*args))
        except ValueError as exc:
            text = f"error {exc}"
        out.append(f"{args}: {text}")
    return out


def _derived_formats(name, d):
    """``sp_format`` of one family of values derived from E v at this d (see the module docstring)."""
    from fractions import Fraction

    from sphtess import moments as mo
    from sphtess.exactnum import ONE, ZERO, SqrtPiPoly

    ns = range(d + 1, d + 8)
    if name == "isect":
        calls = [(fn, (n, m, d)) for fn in (mo.isect_prob_typical, mo.isect_prob_weighted) for n in ns for m in ns]
    elif name == "hk":
        calls = [(fn, (n, d, k)) for fn in (mo.hk_typical_mean, mo.hk_weighted_mean) for n in ns for k in range(d + 1)]
    elif name == "statdim":
        calls = [(mo.statdim, (flavor, n, d, k)) for flavor in mo.FLAVORS for n in ns for k in range(d + 1)]
    elif name == "isect-fixed":
        shapes = [[ZERO] * d + [ONE], [SqrtPiPoly.rational(Fraction(1, 2))] + [ZERO] * d]
        calls = [
            (mo.isect_prob_fixed, (v, n, d))
            for n in ns
            for v in [[vf(n, d, d, i) for i in range(d + 1)] for vf in (mo.v_typical, mo.v_weighted)] + shapes
        ]
    else:  # euclid-v
        gammas = [g if g == mo.GAMMA_STAR else Fraction(g) for g in EUCLID_GAMMAS]
        calls = [
            (mo.euclid_v, (flavor, mo.EuclidQuery(d, k, l, g)))
            for flavor in mo.FLAVORS for g in gammas for k in range(d + 1) for l in range(k + 1)
        ]
    return _formats(calls)


def _appendix_round_trips():
    """``sp_format(sp_parse(s))`` of every printed value in ``appendix_data``, in name order."""
    from sphtess import appendix_data
    from sphtess.exactnum import sp_format, sp_parse

    out = []
    for name in sorted(n for n in vars(appendix_data) if n.startswith("APP_")):
        table = getattr(appendix_data, name)
        for key, text in table.items() if isinstance(table, dict) else enumerate(table):
            out.append(f"{name}[{key!r}]: {sp_format(sp_parse(text))}")
    return out


def _arith():
    """``sp_format`` of a + b, 3 - a, -a, a * b, SqrtPiPoly(a.terms) and a / mono over the parsed
    ``APP_E_D2`` values a, each with the next one as b, after mono ** -2 of each monomial."""
    from sphtess.appendix_data import APP_E_D2
    from sphtess.exactnum import SqrtPiPoly, sp_format, sp_parse

    values = [sp_parse(text) for text in APP_E_D2.values()]
    monos = [sp_parse(text) for text in ARITH_MONOMIALS]
    out = [sp_format(mono**-2) for mono in monos]
    for a, b in zip(values, values[1:] + values[:1]):
        out += [sp_format(x) for x in (a + b, 3 - a, -a, a * b, SqrtPiPoly(a.terms))]
        out += [sp_format(a / mono) for mono in monos]
    return out


def _eval_values():
    """(label, value) of the eval lines: see the module docstring."""
    from fractions import Fraction

    from sphtess.combinat import coeff_B
    from sphtess.moments import ef_weighted

    out = [(f"ef-weighted-n200-d30-k30-l{l}", ef_weighted(200, 30, 30, l)) for l in (0, 15, 29)]
    out += [(f"B-200-{c}", coeff_B(200, c)) for c in (2, 31, 100)]
    out.append(("ef-weighted-n200-d30-k30-l29-minus-near", out[2][1] - Fraction(EVAL_F29_NEAR)))
    return out


def _eval_line(v, digits):
    """``sp_eval(v, digits)`` rounded half-even to ``digits`` significant digits."""
    from decimal import ROUND_HALF_EVEN, localcontext

    from sphtess.exactnum import sp_eval

    x = sp_eval(v, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(+x)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", required=True, help="root of the source tree to digest")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "sphbench")]
    import workloads
    from sphtess import figures, tables

    for workload in WORKLOADS:
        for seed in args.seeds:
            for op in workloads.build_ops(workload, seed):
                fields = _fields(lambda: workloads.run_op(op))
                print("\t".join([workload, str(seed), op.label] + fields), flush=True)
    for op in workloads.build_ops("exact-reproduction", args.seeds[0]):
        print("\t".join(["exact", op.label] + _fields(lambda: workloads.run_op(op), _sha256)), flush=True)
    for which in tables.TABLE_NAMES:
        label = "table {} n={}..{}".format(which, *TABLE_N_RANGE)
        csv = lambda: tables.rows_to_csv(tables.render_table(tables.TableSpec(which, TABLE_N_RANGE)))
        print("\t".join(["exact", label] + _fields(csv, _sha256)), flush=True)
    for which, kwargs in FIGURE_CASES:
        label = " ".join([f"figure {which}"] + [f"{k}={v}" for k, v in kwargs.items()])
        csv = lambda: figures.figure_csv(which, **kwargs)
        print("\t".join(["exact", label] + _fields(csv, _sha256)), flush=True)
    for family, lines in _coeff_tables().items():
        print("\t".join(["exact", f"coeffs-{family}-max-m{COEFFS_MAX_M}"] + _sha256(lines)), flush=True)
    print("\t".join(["exact", "appendix-parse-format"] + _fields(_appendix_round_trips, _sha256)), flush=True)
    print("\t".join(["exact", "arith"] + _fields(_arith, _sha256)), flush=True)
    for name in ("ef", "U", "v", "vminus1", "statdim"):
        for d in range(1, WEIGHTED_MAX_D + 1):
            label = f"weighted-{name}-d{d}"
            print("\t".join(["exact", label] + _fields(lambda: _weighted_formats(name, d), _sha256)), flush=True)
    for name in ("isect", "hk", "statdim", "isect-fixed", "euclid-v"):
        for d in range(1, (EUCLID_MAX_D if name == "euclid-v" else WEIGHTED_MAX_D) + 1):
            label = f"derived-{name}-d{d}"
            print("\t".join(["exact", label] + _fields(lambda: _derived_formats(name, d), _sha256)), flush=True)
    for label, v in _eval_values():
        for digits in EVAL_DIGITS:
            fields = _fields(lambda: _eval_line(v, digits), lambda text: [text])
            print("\t".join(["eval", label, str(digits)] + fields), flush=True)
    for name, cells, beta, reps in (
        ("d4", D4_CELLS, 0.0, 4096), ("d5", D5_CELLS, 0.0, D5_REPS), ("wide", WIDE_CELLS, 0.0, 4096),
        ("kappa", KAPPA_CELLS, 4.0, 4096),
        ("remainder", REMAINDER_CELLS, 0.0, REMAINDER_REPS),
    ):
        for cell in cells:
            label = "{}-{}-n{}-d{}-k{}-l{}-m{}".format(*cell)
            print("\t".join([name, str(D4_SEED), label] + _fields(lambda: _compare(cell, beta, reps))), flush=True)
    for cell in CONSISTENCY_CELLS:
        for beta in (0.0, CONSISTENCY_BETA):
            law = f"pole{beta:g}" if beta else "iso"
            for part in "ab":
                label = "{}-n{}-d{}-k{}-".format(part, *cell) + law
                run = lambda: _consistency(cell, part, beta)
                fields = _fields(run, lambda out: _estimate(out) + out["report"])
                print("\t".join(["consistency", str(D4_SEED), label] + fields), flush=True)
            hk = ("hk", "typical", *cell, None, None)
            label = "{}-{}-n{}-d{}-k{}-l{}-m{}-".format(*hk) + law
            print("\t".join(["skeleton", str(D4_SEED), label] + _fields(lambda: _compare(hk, beta))), flush=True)
    for shape in CELL_SHAPES:
        label = "{}-m{}-dim{}-{}".format(*shape)
        print("\t".join(["cells", str(D4_SEED), label] + _fields(lambda: _cells(*shape), _sha256)), flush=True)
    for shape in SOLID_SHAPES:
        label = "m{}-dim{}".format(*shape)
        print("\t".join(["solid", str(D4_SEED), label] + _fields(lambda: _solid(*shape), _sha256)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
