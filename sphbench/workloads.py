"""The benchmark's workloads: what each round runs and how its outputs are checked.

A round is one pass over a workload's operations in a fresh interpreter.
An operation is one estimate or comparison (Monte Carlo workloads), or one
table, figure, sweep or suite (exact workload).  ``run_op`` returns the raw
output; ``check_op`` and ``check_round`` judge it afterwards, outside the
timed region and with tracing removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from sphtess import appendix_data, exactnum, figures, mckernels, moments, simulate, tables
from sphtess.geom import KappaFamily
from sphtess.moments import EuclidQuery, ExpectationQuery
from sphtess.simulate import ExperimentConfig

import checks

# One batch of the production batch shape per estimate.
REPS = mckernels.BATCH
# With one batch per estimate a worker pool has a single task and overlaps
# nothing; two workers only added a thread start per estimate and made peak
# RSS vary from run to run (per-thread malloc arenas), so both Monte Carlo
# workloads run with one worker.
THREADS = 1
SUBSPACE_REPS = 16
LARGE_NS = (9, 12)
LIMIT_NS = (25, 50, 100, 200)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    args: Tuple


def _label(q: ExpectationQuery) -> str:
    parts = [q.quantity, q.flavor, f"n={q.n}", f"d={q.d}", f"k={q.k}"]
    if q.l is not None:
        parts.append(f"l={q.l}")
    if q.m is not None:
        parts.append(f"m={q.m}")
    return " ".join(parts)


def criterion8_grid() -> List[ExpectationQuery]:
    """Every quantity and flavor for d in {2, 3}, all k, n = d+1 .. d+5.

    The same 490 cells as ``_criterion8_grid`` in tests/test_acceptance.py,
    which the benchmark does not import (it would load pytest).
    """
    cells = []
    for d in (2, 3):
        for k in range(1, d + 1):
            for n in range(d + 1, d + 6):
                for l in range(0, k):
                    cells.append(ExpectationQuery("f", "typical", n, d, k, l))
                    cells.append(ExpectationQuery("f", "weighted", n, d, k, l))
                for l in range(0, k + 1):
                    for quantity in ("U", "v"):
                        cells.append(ExpectationQuery(quantity, "typical", n, d, k, l))
                        cells.append(ExpectationQuery(quantity, "weighted", n, d, k, l))
                cells.append(ExpectationQuery("vminus1", "weighted", n, d, k))
                cells.append(ExpectationQuery("statdim", "typical", n, d, k))
                cells.append(ExpectationQuery("statdim", "weighted", n, d, k))
                cells.append(ExpectationQuery("hk", "typical", n, d, k))
        for n in range(d + 1, d + 6):
            cells.append(ExpectationQuery("isect", "typical", n, d, d, m=n))
            cells.append(ExpectationQuery("isect", "weighted", n, d, d, m=n))
    return cells


def large_cells(n: int) -> List[ExpectationQuery]:
    """d = k = 3 at one n, one cell per distinct kernel path.

    f at l = 1 (vertex-plane incidences and the Euler check), U at l = 1
    (3-dim subspace hits), v at l = 0 (paired 4-dim/2-dim hits), vminus1
    (polar membership), statdim (cone projection), hk (solid fractions) and
    isect with m = n, each in both flavors where the engine has one.
    """
    d = k = 3
    cells = []
    for flavor in ("typical", "weighted"):
        cells.append(ExpectationQuery("f", flavor, n, d, k, 1))
        cells.append(ExpectationQuery("U", flavor, n, d, k, 1))
        cells.append(ExpectationQuery("v", flavor, n, d, k, 0))
        cells.append(ExpectationQuery("statdim", flavor, n, d, k))
        cells.append(ExpectationQuery("isect", flavor, n, d, d, m=n))
    cells.append(ExpectationQuery("vminus1", "weighted", n, d, k))
    cells.append(ExpectationQuery("hk", "typical", n, d, k))
    return cells


def _limit_sweeps() -> List[Tuple[str, int, int, int]]:
    """Criterion 7's sweeps: one `sphtess limit` call per (flavor, d, k, l), d <= 3."""
    return [
        (flavor, d, k, l)
        for flavor in ("typical", "weighted")
        for d in (1, 2, 3)
        for k in range(0, d + 1)
        for l in range(0, k + 1)
    ]


def identity_grid() -> List[Tuple[int, int, int, int]]:
    return [
        (n, d, k, l)
        for d in range(1, 5)
        for k in range(0, d + 1)
        for l in range(0, k + 1)
        for n in range(d + 1, d + 9)
    ]


def build_ops(workload: str, seed: int) -> List[Op]:
    """The operations of one round; Monte Carlo seeds derive from ``seed``."""
    if workload == "acceptance-mc":
        grid_cfg = ExperimentConfig(reps=REPS, seed=seed, subspace_reps=SUBSPACE_REPS, threads=THREADS)
        ops = [Op("compare", _label(q), (q, grid_cfg)) for q in criterion8_grid()]
        kappa_cfg = ExperimentConfig(
            reps=REPS, seed=seed + 1, kappa=KappaFamily("pole_concentrated", 4.0),
            subspace_reps=8, threads=THREADS,
        )
        # criterion 9's two cells, judged against the printed typical f_0
        for (n, d, k), printed in (
            ((4, 2, 2), appendix_data.APP_A_D2_Z_SEQUENCE[4 - 3]),
            ((5, 3, 3), appendix_data.APP_A_D3_Z_l0[5]),
        ):
            q = ExpectationQuery("f", "typical", n, d, k, 0)
            ops.append(Op("kappa", "kappa " + _label(q), (q, kappa_cfg, printed)))
        size_cfg = ExperimentConfig(reps=REPS, seed=seed + 2, subspace_reps=8, threads=THREADS)
        ops.append(Op("sizebias", "sizebias n=4 d=2 k=2", (4, 2, 2, size_cfg, appendix_data.APP_A_D2_W[4])))
        return ops
    if workload == "large-arrangements":
        cfg = ExperimentConfig(reps=REPS, seed=seed, subspace_reps=SUBSPACE_REPS, threads=THREADS)
        return [Op("compare", _label(q), (q, cfg)) for n in LARGE_NS for q in large_cells(n)]
    if workload == "exact-reproduction":
        # The paper's published tables and figures: no input depends on the seed.
        ops = [Op("table", f"table {w}", (w,)) for w in tables.TABLE_NAMES]
        ops += [Op("figure", f"figure {w}", (w, None, None)) for w in figures.FIGURES]
        ops.append(Op("suite", "identity suite", (identity_grid(),)))
        ops += [Op("sweep", f"limit {f} d={d} k={k} l={l}", (f, d, k, l)) for f, d, k, l in _limit_sweeps()]
        ops.append(Op("figure", "figure fvec_fig3 d=30 n=100,200", ("fvec_fig3", 30, [100, 200])))
        ops.append(Op("figure", "figure isect_fig8 d=8 n=9..40", ("isect_fig8", 8, list(range(9, 41)))))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running one operation (the timed part).
# ---------------------------------------------------------------------------


def _estimate_fields(est) -> Dict[str, Any]:
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "reps": est.reps,
        "redraws": est.degenerate_redraws,
    }


def run_op(op: Op) -> Dict[str, Any]:
    """Run one operation; ``work`` counts replications or exact values."""
    if op.kind == "compare":
        q, cfg = op.args
        report = simulate.compare(q, cfg)
        out = _estimate_fields(report.estimate)
        out.update(exact=report.exact, work=report.estimate.reps)
        return out
    if op.kind == "kappa":
        q, cfg, _ = op.args
        out = _estimate_fields(simulate.estimate(q, cfg))
        out["work"] = out["reps"]
        return out
    if op.kind == "sizebias":
        n, d, k, cfg, _ = op.args
        (report,) = simulate.consistency_checks(n, d, k, cfg, parts=("a",))
        out = _estimate_fields(report.estimate)
        # the ratio estimate and the weighted estimate it is compared with
        out["work"] = 2 * report.estimate.reps
        return out
    if op.kind == "table":
        rows = tables.render_table(tables.TableSpec(op.args[0]))
        tables.rows_to_csv(rows)
        return {"rows": rows, "work": len(rows)}
    if op.kind == "figure":
        which, d, ns = op.args
        text = figures.figure_csv(which, d=d, ns=ns)
        return {"text": text, "work": text.count("\n") - 1}
    if op.kind == "suite":
        results = moments.identity_suite(op.args[0], mono_n_max_offset=9)
        return {"results": results, "work": len(results)}
    if op.kind == "sweep":
        # the work of `sphtess limit`: pre-limit value, exact gap, float gap
        flavor, d, k, l = op.args
        limit = moments.euclid_v(flavor, EuclidQuery(d=d, k=k, l=l))
        gaps = []
        for n in LIMIT_NS:
            gap = moments.euclid_limit_gap(d, k, l, flavor, n)
            tables.format_float15(gap + limit)
            exactnum.sp_format(gap)
            gaps.append(abs(float(exactnum.sp_eval(gap, 20))))
        return {"gaps": gaps, "limit": float(exactnum.sp_eval(limit, 20)), "work": len(LIMIT_NS)}
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# Checking (untimed, untraced).
# ---------------------------------------------------------------------------


def check_op(op: Op, out: Dict[str, Any]) -> Tuple[List[str], float]:
    """Problems found in one operation's output, and its z-score (0 if none)."""
    if op.kind == "compare":
        q, _ = op.args
        exact = moments.evaluate_query(q)
        problems = [] if out["exact"] == exact else ["reported exact value differs from the closed form"]
        ref = checks.exact_float(exact)
        problems += checks.check_estimate(out["mean"], out["stderr"], out["reps"], out["redraws"], ref)
        return problems, checks.z_score(out["mean"], out["stderr"], ref)
    if op.kind in ("kappa", "sizebias"):
        ref = checks.exact_float(exactnum.sp_parse(op.args[-1]))
        problems = checks.check_estimate(
            out["mean"], out["stderr"], out["reps"], out["redraws"], ref, z_max=checks.Z_CONSISTENCY
        )
        return problems, checks.z_score(out["mean"], out["stderr"], ref)
    if op.kind == "table":
        return checks.check_table(op.args[0], out["rows"]), 0.0
    if op.kind == "figure":
        return checks.FIGURE_CHECKS[op.args[0]](out["text"]), 0.0
    if op.kind == "suite":
        return checks.check_identities(out["results"]), 0.0
    if op.kind == "sweep":
        return checks.check_limit_sweep(out["gaps"], out["limit"]), 0.0
    raise ValueError(f"unknown operation kind {op.kind!r}")


def check_round(ops: List[Op], zs: List[float]) -> List[str]:
    """Round-level gates: criterion 8's share of |z| <= 4 over the grid cells."""
    grid = [z for op, z in zip(ops, zs) if op.kind == "compare"]
    return checks.check_grid(grid) if grid else []
