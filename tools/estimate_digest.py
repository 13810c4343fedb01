"""Print one line per Monte Carlo estimate and per exact output of the benchmark's workloads, d = 4 tests and kappa cells.

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
not only through table verdicts, and formats the weighted ef, U, v, v_{-1}
and statdim at every d <= 8, d < n <= d + 7, k and l, which reach A and B
entries and weighted sums that the workloads do not.  Then it runs the d = 4 comparisons of
``test_compare_isect_d4`` and ``test_compare_d4`` (cells in R^5, reps 4096,
seed 3), which reach the kernels at dim 5 that the workloads do not, and two
typical cells with k < d at pole:4 (reps 4096, seed 3), which reach the
cutter path of the kappa sampler that no workload runs.  Last come the
three consistency checks, each part of ``consistency_checks`` on its own,
at (n, d, k) = (4, 2, 2) and (5, 3, 3), isotropic and at pole:4 (same reps
and seed): no workload runs parts (b) and (c), nor part (a) beyond
``acceptance-mc``'s one size-bias cell.  Each Monte Carlo line holds the
workload (``d4``, ``kappa`` or ``consistency`` for those), the seed, the
operation's label, ``repr`` of the mean and of the stderr, the reps and the
redraws, tab-separated; a ``consistency`` line adds ``repr`` of the
report's z, its verdict and its exact value.  Each ``exact`` line holds
the operation's label and the sha256 of ``repr`` of its output (tables, figure CSV text,
identity-suite results, limit-sweep gaps; the CSV text of one table or
figure at non-default arguments; one coefficient family's CSV
lines; the appendix values, each with its table name and key; one weighted
formula's strings at one d, with the message of each call that raises).  An operation that raises prints its
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
# typical cells with k < d under the pole-concentrated law, beta = 4
KAPPA_CELLS = [("f", "typical", 5, 3, 2, 0, None), ("U", "typical", 6, 3, 2, 1, None)]
# (n, d, k) of the consistency checks, each run isotropic and at this pole beta
CONSISTENCY_CELLS = [(4, 2, 2), (5, 3, 3)]
CONSISTENCY_BETA = 4.0
COEFFS_MAX_M = 60
# a table range past every printed one: computed verdicts, and appE's n x m grid beyond the print
TABLE_N_RANGE = (4, 12)
# figures at non-default arguments: (which, keyword arguments of figure_csv)
FIGURE_CASES = [("statdim_fig6", dict(d=3, k=1))] + [
    (which, dict(d=4, ns=[6, 9])) for which in ("fvec_fig3", "quermass_fig4", "intvol_fig5")
]
WEIGHTED_MAX_D = 8


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


def _compare(cell, beta=0.0):
    from sphtess.geom import KappaFamily
    from sphtess.moments import ExpectationQuery
    from sphtess.simulate import ExperimentConfig, compare

    kappa = KappaFamily("pole_concentrated", beta) if beta else KappaFamily()
    est = compare(ExpectationQuery(*cell), ExperimentConfig(reps=4096, seed=D4_SEED, kappa=kappa)).estimate
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
    from sphtess.exactnum import sp_format

    fn, takes_l = {
        "ef": (mo.ef_weighted, True),
        "U": (mo.u_weighted, True),
        "v": (mo.v_weighted, True),
        "vminus1": (mo.v_minus1_weighted, False),
        "statdim": (lambda n, d, k: mo.statdim("weighted", n, d, k), False),
    }[name]
    out = []
    for n in range(d + 1, d + 8):
        for k in range(d + 1):
            for args in [(n, d, k, l) for l in range(k + 1)] if takes_l else [(n, d, k)]:
                try:
                    text = sp_format(fn(*args))
                except ValueError as exc:
                    text = f"error {exc}"
                out.append(f"{args}: {text}")
    return out


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
    for name in ("ef", "U", "v", "vminus1", "statdim"):
        for d in range(1, WEIGHTED_MAX_D + 1):
            label = f"weighted-{name}-d{d}"
            print("\t".join(["exact", label] + _fields(lambda: _weighted_formats(name, d), _sha256)), flush=True)
    for name, cells, beta in (("d4", D4_CELLS, 0.0), ("kappa", KAPPA_CELLS, 4.0)):
        for cell in cells:
            label = "{}-{}-n{}-d{}-k{}-l{}-m{}".format(*cell)
            print("\t".join([name, str(D4_SEED), label] + _fields(lambda: _compare(cell, beta))), flush=True)
    for cell in CONSISTENCY_CELLS:
        for beta in (0.0, CONSISTENCY_BETA):
            for part in "abc":
                label = "{}-n{}-d{}-k{}-".format(part, *cell) + (f"pole{beta:g}" if beta else "iso")
                run = lambda: _consistency(cell, part, beta)
                fields = _fields(run, lambda out: _estimate(out) + out["report"])
                print("\t".join(["consistency", str(D4_SEED), label] + fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
