"""Samplers, estimator plumbing, determinism, and cross-validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from lp_oracle import sample_weighted_face_full_skeleton

from sphtess import mckernels
from sphtess.exactnum import sp_eval
from sphtess.geom import KappaFamily
from sphtess.moments import ExpectationQuery, ef_weighted, v_weighted
from sphtess.simulate import (
    ExperimentConfig,
    compare,
    consistency_checks,
    estimate,
    estimate_isect,
)

rng = np.random.default_rng(31415)

FAST = ExperimentConfig(reps=4000, seed=7, subspace_reps=8)


def test_full_skeleton_sampler_cross_validation():
    # weighted 1-faces of T_{4,2}: mean normalized length = E v_1 = 1/4.
    # The skeleton walk in S^2 and the batched sampler's reduced draw in S^1
    # (dimension reduction) must agree with it and with each other.
    exact = float(sp_eval(v_weighted(4, 2, 1, 1), 20))
    draws = 800
    normals = np.stack([sample_weighted_face_full_skeleton(4, 2, 1, rng) for _ in range(draws)])
    skeleton = mckernels.CellBatch(normals, None, None, None)  # solid fractions need only the normals
    slow = mckernels.solid_fractions(skeleton, mckernels.batch_rng(1, 1, 0), 32)
    local = mckernels.batch_rng(1, 2, 0)
    fast = mckernels.solid_fractions(mckernels.sample_weighted_cells(local, draws, 3, 2), local, 32)
    se = [fracs.std() / math.sqrt(draws) for fracs in (slow, fast)]
    assert abs(slow.mean() - exact) < 5 * se[0]
    assert abs(fast.mean() - slow.mean()) < 5 * math.hypot(*se)


def test_sampler_preconditions():
    local = mckernels.batch_rng(0, 0, 0)
    with pytest.raises(ValueError):
        mckernels.sample_typical_cells(local, 8, 2, 3)  # m < k+1: cells not pointed
    with pytest.raises(ValueError):
        mckernels.sample_weighted_cells(local, 8, 2, 3)
    with pytest.raises(ValueError):
        sample_weighted_face_full_skeleton(4, 2, 0, rng)
    with pytest.raises(ValueError):
        sample_weighted_face_full_skeleton(2, 2, 2, rng)


def test_estimate_determinism_and_thread_independence():
    q = ExpectationQuery("v", "weighted", 4, 2, 2, 1)
    cfg = ExperimentConfig(reps=3000, seed=99, subspace_reps=8)
    e1 = estimate(q, cfg)
    e2 = estimate(q, cfg)
    assert e1 == e2
    e4 = estimate(q, replace(cfg, seed=100))
    assert e4.mean != e1.mean
    # estimates run in one thread: threads is not a setting
    with pytest.raises(ValueError):
        estimate(q, replace(cfg, threads=3))


def test_raw_sampler_flags_are_redrawn():
    calls = []

    def raw_sampler(local, nb):
        calls.append(nb)
        normals = mckernels._sample_unit(local, (nb, 5, 3))
        return normals, np.full(nb, len(calls) == 1)

    B = 64
    cells = mckernels.sample_typical_cells(mckernels.batch_rng(3, 3, 0), B, 5, 3, raw_sampler=raw_sampler)
    assert calls[:2] == [B, B]
    assert cells.B == B and cells.degenerate == B
    mckernels.fvec_values(cells, 0)  # the Euler relation holds on every cell


def test_finalize_variance_is_stable_at_large_mean():
    local = np.random.default_rng(5)
    batches = [1e8 + local.standard_normal(1000) for _ in range(4)]
    sums = []
    for values in batches:
        s = mckernels.BatchSums()
        s.add_values(values)
        sums.append(s)
    est = mckernels.finalize(sums, seed=0)
    values = np.concatenate(batches)
    assert est.reps == values.size
    assert math.isclose(est.mean, values.mean(), rel_tol=1e-15)
    expected = values.std(ddof=1) / math.sqrt(values.size)
    assert math.isclose(est.stderr, expected, rel_tol=1e-6)


def test_compare_isect_d4():
    # cells in R^5: the nullspace rays of 4 x 5 subsets expand 4 x 4 minors
    rep = compare(ExpectationQuery("isect", "weighted", 5, 4, 4, m=5), ExperimentConfig(reps=4096, seed=3))
    assert abs(rep.z_score) <= 4
    assert rep.estimate.degenerate_redraws <= 4096 * 1e-3


@pytest.mark.parametrize(
    "query",
    [
        ExpectationQuery("U", "weighted", 6, 4, 4, 1),  # hits of 4-dim subspaces
        ExpectationQuery("v", "weighted", 6, 4, 4, 1),
        ExpectationQuery("statdim", "weighted", 6, 4, 4),
        # m = 7 normals in R^5: every coefficient row at dim 5
        ExpectationQuery("vminus1", "weighted", 7, 4, 4),
        ExpectationQuery("hk", "typical", 7, 4, 4),
        ExpectationQuery("statdim", "typical", 7, 4, 4),
        ExpectationQuery("U", "typical", 7, 4, 4, 2),
    ]
    + [ExpectationQuery("f", flavor, 6, 4, 4, l) for flavor in ("weighted", "typical") for l in range(4)],
    ids=lambda q: f"{q.quantity}-{q.flavor}-l{q.l}",
)
def test_compare_d4(query):
    rep = compare(query, ExperimentConfig(reps=4096, seed=3))
    assert abs(rep.z_score) <= 4, rep.to_dict()
    assert rep.estimate.degenerate_redraws <= 4096 * 1e-3


def test_estimate_unbiased_spot_checks():
    checks = [
        (ExpectationQuery("f", "typical", 4, 2, 2, 0), FAST),
        (ExpectationQuery("U", "weighted", 3, 2, 2, 1), FAST),
        (ExpectationQuery("v", "typical", 5, 3, 3, 2), FAST),
        (ExpectationQuery("vminus1", "weighted", 4, 2, 2), FAST),
        (ExpectationQuery("statdim", "typical", 3, 2, 1), FAST),
        (ExpectationQuery("hk", "typical", 4, 2, 1), FAST),
    ]
    for q, cfg in checks:
        rep = compare(q, cfg)
        assert abs(rep.z_score) < 5, (q, rep.z_score, rep.estimate.mean, rep.exact_float)
        assert rep.estimate.degenerate_redraws <= cfg.reps * 1e-3


@pytest.mark.slow
def test_estimate_u_with_50_subspaces():
    # 2e4 faces x 50 subspaces -> U_1(Z_{3,2}) = 3/8 within 4 SE
    cfg = ExperimentConfig(reps=20000, seed=17, subspace_reps=50)
    est = estimate(ExpectationQuery("U", "typical", 3, 2, 2, 1), cfg)
    assert abs(est.z_score(3 / 8)) <= 4


def test_estimate_k0_constants():
    q = ExpectationQuery("v", "typical", 5, 2, 0, 0)
    est = estimate(q, FAST)
    assert est.mean == 0.5 and est.stderr == 0.0
    q = ExpectationQuery("statdim", "weighted", 5, 2, 0)
    est = estimate(q, FAST)
    assert est.mean == 0.5


def test_estimate_u0_is_exact_without_draws(monkeypatch):
    # U_0 = 1/2 for every face, and v_0 = U_0 at k = 1: exact constants with
    # no cell drawn, at every dim
    def no_draws(*args, **kwargs):
        raise AssertionError("a constant functional drew cells or subspaces")

    for name in ("_hit_fraction", "solid_fractions", "ivol_vector", "sample_typical_cells", "sample_weighted_cells"):
        monkeypatch.setattr(mckernels, name, no_draws)
    queries = [ExpectationQuery("U", flavor, n, d, k, 0) for flavor in ("typical", "weighted")
               for n, d, k in ((3, 2, 1), (4, 2, 2), (5, 3, 3), (6, 4, 4))]
    queries.append(ExpectationQuery("v", "weighted", 4, 2, 1, 0))
    for q in queries:
        est = estimate(q, FAST)
        assert est.mean == 0.5 and est.stderr == 0.0 and est.degenerate_redraws == 0, q


def test_estimate_runs_isect_through_one_route():
    # estimate takes the isect query itself; estimate_isect and compare only reach it
    q = ExpectationQuery("isect", "weighted", 4, 2, 2, m=4)
    est = estimate(q, FAST)
    assert est == estimate_isect("weighted", 4, 4, 2, FAST) == compare(q, FAST).estimate


@pytest.mark.parametrize(
    "query",
    [ExpectationQuery("f", "typical", 5, 2, 2, 1), ExpectationQuery("v", "weighted", 5, 2, 2, 1)],
    ids=["f", "v-dim3"],
)
def test_estimates_that_draw_no_points_ignore_subspace_reps(query):
    # no stream hashes subspace_reps, so only estimates that draw points move with it
    assert estimate(query, replace(FAST, subspace_reps=3)) == estimate(query, replace(FAST, subspace_reps=16))


@pytest.mark.parametrize(
    "query",
    [
        ExpectationQuery("vminus1", "typical", 6, 3, 2),
        ExpectationQuery("vminus1", "typical", 5, 3, 3),
        ExpectationQuery("hk", "weighted", 6, 3, 2),
        ExpectationQuery("hk", "weighted", 5, 3, 3),
    ],
    ids=lambda q: f"{q.quantity}-{q.flavor}-{q.n}{q.d}{q.k}",
)
def test_compare_vminus1_typical_and_hk_weighted(query):
    rep = compare(query, ExperimentConfig(reps=4096, seed=3))
    assert abs(rep.z_score) <= 4, rep.to_dict()
    assert rep.estimate.degenerate_redraws <= 4096 * 1e-3


def test_estimate_isect():
    est = estimate_isect("weighted", 3, 3, 2, FAST)
    exact = 13 / 8 - 9 / math.pi**2
    assert abs(est.z_score(exact)) < 5
    est = estimate_isect("typical", 3, 3, 2, FAST)
    assert abs(est.z_score(0.5)) < 5
    with pytest.raises(ValueError):
        estimate_isect("weighted", 2, 3, 2, FAST)


def test_estimate_rejects_bad_config():
    with pytest.raises(ValueError):
        ExperimentConfig(reps=50).validate()
    with pytest.raises(ValueError):
        estimate(
            ExpectationQuery("v", "weighted", 4, 2, 2, 1),
            ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 2.0)),
        )


def test_weighted_sampler_rejects_nonisotropic_queries():
    cfg = ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 2.0))
    with pytest.raises(ValueError, match="isotropic kappa only"):
        estimate(ExpectationQuery("f", "weighted", 4, 2, 2, 0), cfg)
    with pytest.raises(ValueError, match="isotropic kappa only"):
        estimate(ExpectationQuery("isect", "typical", 4, 2, 2, m=4), cfg)


def test_consistency_checks_small():
    cfg = ExperimentConfig(reps=4000, seed=21, subspace_reps=8)
    reports = consistency_checks(4, 2, 2, cfg)
    assert len(reports) == 3
    for rep in reports:
        assert rep.verdict == "pass", rep.to_dict()
    # (c) is an estimate of the skeleton content, judged by its z
    skeleton = reports[2]
    assert skeleton.estimate.stderr > 0
    assert skeleton.exact_float == pytest.approx(4 * math.pi)  # binom(4, 0) omega_3


def test_consistency_checks_reject_unknown_parts():
    # a part asked for runs or is an error naming it, never silently nothing
    with pytest.raises(ValueError, match=r"\['d', 'x'\]"):
        consistency_checks(4, 2, 2, ExperimentConfig(reps=200), parts=("a", "x", "d"))


def test_sizebias_check_rejects_a_pole_kappa_before_drawing(monkeypatch):
    # the size-bias ratio is drawn from isotropic cells only
    def no_draws(*args):
        raise AssertionError("drew before rejecting")

    monkeypatch.setattr(mckernels, "batch_rng", no_draws)
    cfg = ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 4.0))
    with pytest.raises(ValueError, match="size-bias check"):
        consistency_checks(4, 2, 2, cfg, parts=("a",))


def test_sizebias_report_carries_the_exact_weighted_value():
    cfg = ExperimentConfig(reps=1024, seed=5, subspace_reps=8)
    (rep,) = consistency_checks(4, 2, 2, cfg, parts=("a",))
    assert rep.exact_float == float(sp_eval(ef_weighted(4, 2, 2, 0), 20))
    west = estimate(ExpectationQuery("f", "weighted", 4, 2, 2, 0), cfg)
    # the ratio is still judged against the weighted estimate
    se = math.hypot(rep.estimate.stderr, west.stderr)
    assert math.isclose(rep.z_score, (rep.estimate.mean - west.mean) / se, rel_tol=1e-12)


def test_sizebias_stderr_has_no_cancellation():
    # every spherical triangle has f0 = 3, so the size-biased ratio is
    # exactly 3 and its delta-method stderr must vanish to rounding
    cfg = ExperimentConfig(reps=4096, seed=5, subspace_reps=8)
    (rep,) = consistency_checks(3, 2, 2, cfg, parts=("a",))
    assert abs(rep.estimate.mean - 3) < 1e-12
    assert rep.estimate.stderr <= 1e-12


def test_comparison_report_fields():
    rep = compare(ExpectationQuery("v", "typical", 4, 2, 2, 1), FAST)
    d = rep.to_dict()
    assert set(d) >= {"exact", "estimate", "stderr", "z_score", "verdict", "seed"}
    assert rep.estimate.reps == FAST.reps
