"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime bounds are pinned from the project requirements:
symbolic golden comparisons are exact ring equality; Monte Carlo cells use
2e4 replications with the |z| <= 4 / |z| <= 6 thresholds; the full-grid
Monte Carlo budget of 15 minutes is stated for a 4-core desktop and is
pro-rated by the cores actually available.  The per-sample structural
assertions (cell count = C(m,k), face-count/Euler relations, Moreau
orthogonality <= 1e-8) are enforced inside the sampling kernels and abort
the run if ever violated.
"""

import math
import time

import pytest

from sphtess import appendix_data as app
from sphtess.combinat import (
    b_closed_form,
    cells_count,
    coeff_A,
    coeff_A_dd_closed,
    coeff_B,
    coeff_B_oracle,
)
from sphtess.exactnum import ZERO, sp_eval, sp_parse
from sphtess.moments import (
    EuclidQuery,
    ExpectationQuery,
    ef_typical,
    euclid_limit_gap,
    euclid_v,
    evaluate_query,
    identity_suite,
    isect_prob_typical,
    isect_prob_typical_printed,
    isect_prob_weighted,
    statdim,
    statdim_closed,
    u_typical,
    u_weighted,
    v_typical,
    v_weighted,
)
from sphtess.simulate import (
    ExperimentConfig,
    compare,
    consistency_checks,
    estimate,
    estimate_isect,
)
from sphtess.tables import TableSpec, render_table


def report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def table_verdicts(which):
    rows = render_table(TableSpec(which))
    return rows


def test_criterion_1_appendix_A():
    t0 = time.time()
    rows = table_verdicts("appA_d2") + table_verdicts("appA_d3")
    ok = all(r.verdict == "match" for r in rows if r.flavor == "W")
    # typical rows: formula-consistent sequence, printed shift reported not failed
    seq_ok = all(
        ef_typical(n, 2, 2, 0) == sp_parse(app.APP_A_D2_Z_SEQUENCE[i])
        for i, n in enumerate(range(3, 10))
    )
    z_rows = [r for r in rows if r.flavor == "Z"]
    no_fail = all(r.verdict in ("match", "known-discrepancy") for r in z_rows)
    shift_reported = all(
        r.verdict == "known-discrepancy"
        for r in z_rows
        if r.table == "appA_d2" and r.n >= 4
    )
    elapsed = time.time() - t0
    detail = (
        f"{sum(r.verdict == 'match' for r in rows)} matches, "
        f"{sum(r.verdict == 'known-discrepancy' for r in rows)} reported discrepancies"
    )
    report(1, ok and seq_ok and no_fail and shift_reported and elapsed < 1.0, detail, elapsed)


def test_criterion_2_appendix_B():
    t0 = time.time()
    rows = table_verdicts("appB_d2") + table_verdicts("appB_d3")
    ok = all(r.verdict == "match" for r in rows) and len(rows) == 28 + 36
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0, f"{len(rows)} Quermass entries match symbolically", elapsed)


def test_criterion_3_appendix_C():
    t0 = time.time()
    rows = table_verdicts("appC_d2") + table_verdicts("appC_d3")
    typical_ok = all(r.verdict == "match" for r in rows if r.flavor == "Z")
    w0_ok = all(r.verdict == "match" for r in rows if r.flavor == "W" and r.l == 0)
    disc = [r for r in rows if r.flavor == "W" and r.l >= 1]
    disc_ok = all(r.verdict == "known-discrepancy" for r in disc)
    # the engine column holds the U-consistent value alongside the printed one
    uv_ok = True
    for r in disc:
        d = 2 if r.table.endswith("d2") else 3
        u_hi = u_weighted(r.n, d, d, r.l + 2) if r.l + 2 <= d else None
        expect = u_weighted(r.n, d, d, r.l) - (u_hi if u_hi is not None else 0)
        if sp_parse(r.exact) != expect or r.printed is None:
            uv_ok = False
    elapsed = time.time() - t0
    detail = f"{len(disc)} weighted v-rows reported as known discrepancies with U-consistent values"
    report(3, typical_ok and w0_ok and disc_ok and uv_ok and elapsed < 1.0, detail, elapsed)


def test_criterion_4_appendix_D_and_closed_forms():
    t0 = time.time()
    rows = table_verdicts("appD")
    ok = all(r.verdict == "match" for r in rows)
    closed_ok = all(
        statdim_closed("typical", d, n) == statdim("typical", n, d, d)
        for d in (2, 3, 4, 5)
        for n in range(d + 1, d + 21)
    ) and all(
        statdim_closed("weighted", d, n) == statdim("weighted", n, d, d)
        for d in (2, 3)
        for n in range(d + 1, d + 13)
    )
    elapsed = time.time() - t0
    report(4, ok and closed_ok and elapsed < 5.0, f"{len(rows)} entries + closed forms", elapsed)


def test_criterion_5_appendix_E():
    t0 = time.time()
    rows = table_verdicts("appE_d2") + table_verdicts("appE_d3")
    ok = all(r.verdict == "match" for r in rows) and len(rows) == 36 + 25
    recomp_ok = True
    for d, lo, hi in ((2, 3, 8), (3, 4, 8)):
        for n in range(lo, hi + 1):
            for m in range(lo, hi + 1):
                # full kinematic recomposition
                total = ZERO
                for kk in range(d // 2 + 1):
                    for i in range(2 * kk, d + 1):
                        total = total + v_weighted(n, d, d, d - i + 2 * kk) * v_weighted(m, d, d, i)
                if total.scale(2) != isect_prob_weighted(n, m, d):
                    recomp_ok = False
    printed_ok = all(
        isect_prob_typical(n, m, 2) == isect_prob_typical_printed(n, m, 2)
        for n in range(3, 13)
        for m in range(3, 13)
    ) and all(
        isect_prob_typical(n, m, 3) == isect_prob_typical_printed(n, m, 3)
        for n in range(4, 13)
        for m in range(4, 13)
    )
    elapsed = time.time() - t0
    report(5, ok and recomp_ok and printed_ok and elapsed < 10.0,
           f"{len(rows)} intersection entries + kinematic recomposition + printed rational functions",
           elapsed)


def test_criterion_6_algebraic_identities():
    t0 = time.time()
    rec_a = all(
        coeff_A(m + 2, l) - coeff_A(m, l) == coeff_A(m, l - 2).scale((m + 1) ** 2)
        for m in range(0, 13)
        for l in range(1, 15)
    )
    rec_b = all(
        coeff_B(n, k - 2) - coeff_B(n, k) == coeff_B(n + 2, k).scale((k - 1) ** 2)
        for n, k in [(n, k) for n in range(1, 13) for k in range(2, 9)]
        + [(n, k) for n in (100, 199, 200) for k in range(2, 32)]
    )
    b_oracle = all(
        coeff_B(m, l) == coeff_B_oracle(m, l) for m in range(1, 13) for l in range(1, m + 1)
    )
    b_closed = all(b_closed_form(n, "k2") == coeff_B(n, 2) for n in range(2, 15)) and all(
        b_closed_form(n, "k3") == coeff_B(n, 3) for n in range(3, 15)
    )
    add = all(coeff_A(d, d) == coeff_A_dd_closed(d) for d in range(1, 11))
    grid = [
        (n, d, k, l)
        for d in range(1, 5)
        for k in range(0, d + 1)
        for l in range(0, k + 1)
        for n in range(d + 1, d + 9)
    ]
    suite = identity_suite(grid, mono_n_max_offset=9)
    suite_ok = all(r.ok for r in suite)
    elapsed = time.time() - t0
    detail = (
        f"recurrences={rec_a and rec_b} oracle={b_oracle} closed={b_closed} "
        f"A[d,d]={add} suite({len(suite)} checks)={suite_ok}"
    )
    report(6, rec_a and rec_b and b_oracle and b_closed and add and suite_ok and elapsed < 30.0,
           detail, elapsed)


def test_criterion_7_euclidean_limit():
    t0 = time.time()
    worst = 0.0
    ok = True
    for flavor in ("typical", "weighted"):
        for d in (1, 2, 3):
            for k in range(0, d + 1):
                for l in range(0, k + 1):
                    gaps = [
                        abs(float(sp_eval(euclid_limit_gap(d, k, l, flavor, n), 20)))
                        for n in (25, 50, 100, 200)
                    ]
                    if all(g == 0.0 for g in gaps):
                        continue  # prelimit identically equals the limit
                    if not all(gaps[i] > gaps[i + 1] for i in range(3)):
                        ok = False
                    lim = abs(float(sp_eval(euclid_v(flavor, EuclidQuery(d, k, l)), 20)))
                    rel = gaps[-1] / lim
                    worst = max(worst, rel)
                    if rel >= 0.05:
                        ok = False
    elapsed = time.time() - t0
    report(7, ok and elapsed < 10.0, f"worst relative gap at n=200: {worst:.4f} (< 0.05)", elapsed)


def _criterion8_grid():
    cells = []
    for d in (2, 3):
        for k in range(1, d + 1):
            for n in range(d + 1, d + 6):
                for l in range(0, k):
                    cells.append(ExpectationQuery("f", "typical", n, d, k, l))
                    cells.append(ExpectationQuery("f", "weighted", n, d, k, l))
                for l in range(0, k + 1):
                    cells.append(ExpectationQuery("U", "typical", n, d, k, l))
                    cells.append(ExpectationQuery("U", "weighted", n, d, k, l))
                    cells.append(ExpectationQuery("v", "typical", n, d, k, l))
                    cells.append(ExpectationQuery("v", "weighted", n, d, k, l))
                cells.append(ExpectationQuery("vminus1", "weighted", n, d, k))
                cells.append(ExpectationQuery("statdim", "typical", n, d, k))
                cells.append(ExpectationQuery("statdim", "weighted", n, d, k))
                cells.append(ExpectationQuery("hk", "typical", n, d, k))
        for n in range(d + 1, d + 6):
            cells.append(ExpectationQuery("isect", "typical", n, d, d, m=n))
            cells.append(ExpectationQuery("isect", "weighted", n, d, d, m=n))
    return cells


@pytest.mark.slow
def test_criterion_8_monte_carlo_grid():
    t0 = time.time()
    cfg = ExperimentConfig(reps=20000, seed=20240608, subspace_reps=16)
    cells = _criterion8_grid()
    zs = []
    deg_ok = True
    for q in cells:
        rep = compare(q, cfg)
        zs.append((q, rep.z_score))
        if rep.estimate.degenerate_redraws > cfg.reps * 1e-3:
            deg_ok = False
    n_tot = len(zs)
    n_within4 = sum(1 for _, z in zs if abs(z) <= 4)
    worst = max(abs(z) for _, z in zs)
    elapsed = time.time() - t0
    budget = 900.0  # 15 min; estimates run in one thread
    ok = (n_within4 >= 0.95 * n_tot) and worst <= 6.0 and deg_ok and elapsed < budget
    detail = (
        f"{n_tot} cells, {n_within4} with |z|<=4 ({n_within4 / n_tot:.1%}), "
        f"max |z| = {worst:.2f}, degenerate rate ok={deg_ok}, budget {budget:.0f}s"
    )
    if not ok:
        offenders = sorted(zs, key=lambda t: -abs(t[1]))[:5]
        detail += " worst: " + "; ".join(f"{q.quantity}/{q.flavor} n={q.n} d={q.d} k={q.k} l={q.l} z={z:.2f}" for q, z in offenders)
    report(8, ok, detail, elapsed)


@pytest.mark.slow
def test_criterion_9_kappa_invariance():
    from sphtess.geom import KappaFamily

    t0 = time.time()
    cfg = ExperimentConfig(
        reps=50000,
        seed=20240609,
        kappa=KappaFamily("pole_concentrated", 4.0),
        subspace_reps=8,
    )
    oks = []
    details = []
    for (n, d, k), expect in (((4, 2, 2), "24/7"), ((5, 3, 3), "16/3")):
        q = ExpectationQuery("f", "typical", n, d, k, 0)
        est = estimate(q, cfg)
        exact = float(sp_eval(sp_parse(expect), 20))
        z = est.z_score(exact)
        oks.append(abs(z) <= 4)
        details.append(f"f0(Z_{{{n},{d}}}^{{({k})}}) z={z:+.2f}")
    elapsed = time.time() - t0
    report(9, all(oks) and elapsed < 120.0, "; ".join(details), elapsed)


@pytest.mark.slow
def test_criterion_10_size_bias():
    t0 = time.time()
    cfg = ExperimentConfig(reps=50000, seed=20240610, subspace_reps=8)
    (rep,) = consistency_checks(4, 2, 2, cfg, parts=("a",))
    elapsed = time.time() - t0
    ok = abs(rep.z_score) <= 4 and elapsed < 120.0
    detail = (
        f"size-bias ratio={rep.estimate.mean:.4f} (exact weighted f0={rep.exact_float:.4f}), "
        f"z={rep.z_score:+.2f} against the weighted estimate"
    )
    report(10, ok, detail, elapsed)


def test_criterion_figures():
    from sphtess.figures import figure_csv

    t0 = time.time()
    a = figure_csv("fvec_fig3", ns=[80])
    b = figure_csv("fvec_fig3", ns=[80])
    deterministic = a == b
    vals = {}
    for line in a.splitlines()[1:]:
        parts = line.split(",")
        if parts[1] == "W":
            vals[int(parts[4])] = float(parts[-2])
    seq = [vals[l] for l in sorted(vals)]
    finite_positive = all(v > 0 and math.isfinite(v) for v in seq)
    peak = seq.index(max(seq))
    unimodal = all(seq[i] < seq[i + 1] for i in range(peak)) and all(
        seq[i] > seq[i + 1] for i in range(peak, len(seq) - 1)
    )
    elapsed = time.time() - t0
    report("figures", deterministic and finite_positive and unimodal,
           "d=19 n=80 face numbers finite, positive, unimodal; CSV regeneration deterministic",
           elapsed)
