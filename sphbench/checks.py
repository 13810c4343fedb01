"""Output checks for the benchmark, each against a route separate from the
one under test.

Monte Carlo estimates are judged against the exact engine's closed forms
with the acceptance criteria's own gates.  Exact outputs are judged against
the paper's printed values (through ``appendix_data``), against properties
every correct answer has (the Euler relation, closure sums, monotonicity),
or against the printed closed forms kept as oracles in ``moments``.

Every check returns a list of problem strings; an empty list means the
output passed.  The checks parse the program's outputs (CSV text, table
rows, estimates) rather than re-running the code path that produced them.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from sphtess import appendix_data
from sphtess.exactnum import ONE, ZERO, SqrtPiPoly, sp_eval, sp_parse
from sphtess.moments import statdim_closed

# Criterion 8's gates: every cell within |z| <= 6, at least 95% of the cells
# within |z| <= 4, and at most one degenerate redraw per thousand replications.
Z_FAIL = 6.0
Z_WARN = 4.0
WITHIN_WARN_SHARE = 0.95
REDRAW_RATE = 1e-3
# Criteria 9 (kappa invariance) and 10 (size bias) gate each cell at |z| <= 4.
Z_CONSISTENCY = 4.0
# Criterion 7: the relative pre-limit gap at the largest n stays below 5%.
LIMIT_REL_GAP = 0.05


def z_score(mean: float, stderr: float, exact: float) -> float:
    """(mean - exact) / stderr; an exact hit with zero spread scores 0."""
    if stderr == 0.0:
        return 0.0 if mean == exact else math.inf
    return (mean - exact) / stderr


def exact_float(value: SqrtPiPoly) -> float:
    return float(sp_eval(value, 20))


def check_estimate(
    mean: float, stderr: float, reps: int, redraws: int, exact: float, z_max: float = Z_FAIL
) -> List[str]:
    """One Monte Carlo cell: |z| within ``z_max`` and redraws within rate."""
    problems = []
    z = z_score(mean, stderr, exact)
    if not abs(z) <= z_max:
        problems.append(f"|z| = {abs(z):.2f} > {z_max} (estimate {mean!r}, exact {exact!r})")
    if redraws > reps * REDRAW_RATE:
        problems.append(f"{redraws} degenerate redraws in {reps} replications")
    return problems


def check_grid(zs: Sequence[float]) -> List[str]:
    """Criterion 8's aggregate gate over a whole grid of cells."""
    if not zs:
        return ["empty grid"]
    within = sum(1 for z in zs if abs(z) <= Z_WARN)
    if within < WITHIN_WARN_SHARE * len(zs):
        return [f"only {within} of {len(zs)} cells within |z| <= {Z_WARN}"]
    return []


# ---------------------------------------------------------------------------
# Exact outputs.
# ---------------------------------------------------------------------------


def _row_key(row) -> Tuple:
    return (row.flavor, row.l, row.n) if row.m is None else (row.n, row.m)


def check_table(table: str, rows, known=None) -> List[str]:
    """Re-derive every verdict from the printed value.

    A row whose printed value differs from the engine's exact value must be
    listed in ``appendix_data.KNOWN_DISCREPANCIES`` and carry the verdict
    ``known-discrepancy``; every listed cell of this table must differ; no
    row may carry ``fail``.
    """
    known = appendix_data.KNOWN_DISCREPANCIES if known is None else known
    listed = {key for t, key in known if t == table}
    problems = []
    differing = set()
    for row in rows:
        if row.table != table:
            problems.append(f"row of table {row.table} in {table}")
            continue
        if row.verdict == "fail":
            problems.append(f"{table} {_row_key(row)}: verdict fail")
        if row.printed is None:
            continue
        same = sp_parse(row.printed) == sp_parse(row.exact)
        expect = "match" if same else "known-discrepancy"
        if not same:
            differing.add(_row_key(row))
        if row.verdict != expect:
            problems.append(f"{table} {_row_key(row)}: verdict {row.verdict}, printed value says {expect}")
    for key in sorted(differing - listed, key=str):
        problems.append(f"{table} {key}: differs from the printed value but is not a known discrepancy")
    for key in sorted(listed - differing, key=str):
        problems.append(f"{table} {key}: listed as a known discrepancy but not reproduced")
    return problems


def _csv_rows(text: str) -> List[Dict[str, str]]:
    csv.field_size_limit(sys.maxsize)  # exact values at d = 30 run to megabytes
    return list(csv.DictReader(io.StringIO(text)))


def _nonneg(x: SqrtPiPoly) -> bool:
    return x.is_zero() or sp_eval(x, 30) >= Decimal(0)


def check_euler(text: str) -> List[str]:
    """Every f-vector of an ``fvec_fig3`` CSV satisfies, exactly,
    sum_{l<k} (-1)^l E f_l = 1 - (-1)^k (k = d in the figure)."""
    groups: Dict[Tuple[str, int, int], Dict[int, SqrtPiPoly]] = {}
    for r in _csv_rows(text):
        key = (r["flavor"], int(r["d"]), int(r["n"]))
        groups.setdefault(key, {})[int(r["l"])] = sp_parse(r["exact"])
    if not groups:
        return ["no f-vectors in the figure"]
    problems = []
    for (flavor, d, n), fv in sorted(groups.items()):
        if sorted(fv) != list(range(d)):
            problems.append(f"{flavor} d={d} n={n}: face dimensions {sorted(fv)}")
            continue
        total = ZERO
        for l, f in fv.items():
            total = total + (f if l % 2 == 0 else -f)
        if total != SqrtPiPoly.rational(1 - (-1) ** d):
            problems.append(f"{flavor} d={d} n={n}: Euler sum {total!r} != {1 - (-1) ** d}")
    return problems


def check_quermass(text: str) -> List[str]:
    """U_0 = 1/2 exactly and U_l is non-increasing in l."""
    groups: Dict[Tuple[str, int], Dict[int, SqrtPiPoly]] = {}
    for r in _csv_rows(text):
        groups.setdefault((r["flavor"], int(r["n"])), {})[int(r["l"])] = sp_parse(r["exact"])
    problems = [] if groups else ["no Quermass integrals in the figure"]
    for (flavor, n), u in sorted(groups.items()):
        if u.get(0) != SqrtPiPoly.rational(Fraction(1, 2)):
            problems.append(f"{flavor} n={n}: U_0 = {u.get(0)!r} != 1/2")
        ls = sorted(u)
        for a, b in zip(ls, ls[1:]):
            if not _nonneg(u[a] - u[b]):
                problems.append(f"{flavor} n={n}: U_{a} < U_{b}")
    return problems


def check_intvol(text: str) -> List[str]:
    """v_l >= 0; the typical closure sum_l v_l = 1 - binom(n-1,k)/C(n,k)
    (k = d), with C(n,k) = 2 sum_{r<=k} binom(n-1,r); the weighted sum
    over l >= 0 stays <= 1 (the missing v_{-1} is nonnegative)."""
    groups: Dict[Tuple[str, int, int], Dict[int, SqrtPiPoly]] = {}
    for r in _csv_rows(text):
        key = (r["flavor"], int(r["d"]), int(r["n"]))
        groups.setdefault(key, {})[int(r["l"])] = sp_parse(r["exact"])
    problems = [] if groups else ["no intrinsic volumes in the figure"]
    for (flavor, d, n), v in sorted(groups.items()):
        total = ZERO
        for l, x in v.items():
            if not _nonneg(x):
                problems.append(f"{flavor} d={d} n={n}: v_{l} < 0")
            total = total + x
        if flavor == "Z":
            cells = 2 * sum(math.comb(n - 1, r) for r in range(d + 1))
            expect = SqrtPiPoly.rational(1 - Fraction(math.comb(n - 1, d), cells))
            if total != expect:
                problems.append(f"Z d={d} n={n}: sum v_l = {total!r} != {expect!r}")
        elif not _nonneg(ONE - total):
            problems.append(f"W d={d} n={n}: sum v_l > 1")
    return problems


def check_statdim(text: str) -> List[str]:
    """Each value equals the printed closed form of the statistical dimension."""
    problems = []
    rows = _csv_rows(text)
    for r in rows:
        d, k, n = int(r["d"]), int(r["k"]), int(r["n"])
        if k != d:
            problems.append(f"{r['flavor']} d={d} k={k}: no printed closed form")
            continue
        if sp_parse(r["exact"]) != statdim_closed(r["flavor"], d, n):
            problems.append(f"{r['flavor']} d={d} n={n}: differs from the printed closed form")
    return problems if rows else ["no statistical dimensions in the figure"]


def check_isect(text: str) -> List[str]:
    """Probabilities lie in (0, 1] and weighted >= typical at each n."""
    by_n: Dict[Tuple[int, int], Dict[str, SqrtPiPoly]] = {}
    for r in _csv_rows(text):
        by_n.setdefault((int(r["d"]), int(r["n"])), {})[r["flavor"]] = sp_parse(r["exact"])
    problems = [] if by_n else ["no intersection probabilities in the figure"]
    for (d, n), p in sorted(by_n.items()):
        if set(p) != {"typical", "weighted"}:
            problems.append(f"d={d} n={n}: flavors {sorted(p)}")
            continue
        for flavor, x in p.items():
            if x.is_zero() or not _nonneg(x) or not _nonneg(ONE - x):
                problems.append(f"{flavor} d={d} n={n}: probability outside (0, 1]")
        if not _nonneg(p["weighted"] - p["typical"]):
            problems.append(f"d={d} n={n}: weighted < typical")
    return problems


FIGURE_CHECKS = {
    "fvec_fig3": check_euler,
    "quermass_fig4": check_quermass,
    "intvol_fig5": check_intvol,
    "statdim_fig6": check_statdim,
    "isect_fig8": check_isect,
}


def check_identities(results: Iterable) -> List[str]:
    results = list(results)
    bad = [f"{r.name}{r.params}" for r in results if not r.ok]
    if not results:
        return ["empty identity suite"]
    return [f"identity failed: {b}" for b in bad]


def check_limit_sweep(gaps: Sequence[float], limit: float) -> List[str]:
    """Criterion 7: |gap| strictly decreasing in n and below 5% at the last n,
    unless the pre-limit value equals the limit identically."""
    if all(g == 0.0 for g in gaps):
        return []
    problems = []
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps not decreasing: {list(gaps)}")
    rel = gaps[-1] / abs(limit) if limit else math.inf
    if not rel < LIMIT_REL_GAP:
        problems.append(f"relative gap {rel:.4f} >= {LIMIT_REL_GAP}")
    return problems
