"""Samplers, estimator plumbing, determinism, and cross-validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from lp_oracle import sample_weighted_face_full_skeleton

from sphtess import mckernels
from sphtess.combinat import coeff_A, coeff_B, faces_count, qpoly
from sphtess.exactnum import ONE, ZERO, SqrtPiPoly, sp_eval
from sphtess.geom import KappaFamily
from sphtess.moments import (
    EuclidQuery,
    ExpectationQuery,
    ef_weighted,
    euclid_f_weighted,
    hk_weighted_mean,
    isect_prob_fixed,
    isect_prob_typical,
    statdim,
    v_weighted,
)
from sphtess.simulate import (
    REDRAW_RATE_LIMIT,
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
    slow = mckernels.solid_fractions(normals, mckernels.batch_rng(1, 1, 0), 32)
    local = mckernels.batch_rng(1, 2, 0)
    fast = mckernels.solid_fractions(mckernels.sample_weighted_cells(local, draws, 3, 2).normals, local, 32)
    se = [fracs.std() / math.sqrt(draws) for fracs in (slow, fast)]
    assert abs(slow.mean() - exact) < 5 * se[0]
    assert abs(fast.mean() - slow.mean()) < 5 * math.hypot(*se)


def test_sampler_preconditions():
    local = mckernels.batch_rng(0, 0, 0)
    with pytest.raises(ValueError):
        mckernels.sample_typical_cells(local, 8, 2, 3)  # m < k+1: cells not pointed
    with pytest.raises(ValueError):
        mckernels.sample_weighted_cells(local, 8, 2, 3)
    with pytest.raises(ValueError, match="m <= 63"):
        mckernels.sample_typical_cells(local, 8, 64, 2)  # sides keyed by int64 masks
    with pytest.raises(ValueError):
        sample_weighted_face_full_skeleton(4, 2, 0, rng)
    with pytest.raises(ValueError):
        sample_weighted_face_full_skeleton(2, 2, 2, rng)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: ExperimentConfig(subspace_reps=0).validate(), ValueError, "subspace_reps must be >= 1"),
        (lambda: ExperimentConfig(seed=2**64).validate(), ValueError, "seed must be in 0 <= seed < 2"),
        (lambda: ExperimentConfig(seed=-1).validate(), ValueError, "seed must be in 0 <= seed < 2"),
        (lambda: consistency_checks(4, 2, 0, ExperimentConfig()), ValueError, "need 1 <= k <= d"),
        (lambda: EuclidQuery(2, 3, 1).validate(), ValueError, "need 0 <= l <= k <= d"),
        (lambda: ef_weighted(5, 2, 3, 0), ValueError, "need 0 <= k <= d"),
        (lambda: isect_prob_typical(2, 3, 2), ValueError, "need n, m > d >= 1, got n=2, m=3, d=2"),
        (lambda: isect_prob_fixed([ZERO] * 3, 2, 2), ValueError, r"need n >= d\+1, got n=2"),
        (lambda: euclid_f_weighted(2, 3), ValueError, "need 0 <= l <= k, got l=3, k=2"),
        (lambda: statdim("typical", 4, 2, -1), ValueError, "need 0 <= k <= d"),
        (lambda: statdim("weighted", 4, 2, -1), ValueError, "need 0 <= k <= d"),
        (lambda: isect_prob_fixed([], 3, -1), ValueError, "need 0 <= k <= d"),
        (lambda: hk_weighted_mean(3, 2, -1), ValueError, "need 0 <= k <= d"),
        (lambda: faces_count(0, 3, 1), ValueError, "need n >= d-k"),
        (lambda: qpoly(-1), ValueError, "qpoly index must be >= 0"),
        (lambda: coeff_A(-1, 0), ValueError, "row index must be >= 0"),
        (lambda: coeff_A(2, -2), ValueError, "column index must be >= -1"),
        (lambda: coeff_B(-1, 0), ValueError, "indices must be >= 0"),
        (lambda: coeff_B(0, 1), ValueError, "m >= 1 when l >= 1"),
        (lambda: SqrtPiPoly({0: 0.5}), TypeError, "expected an exact rational"),
        (lambda: ONE**0.5, TypeError, "exponent must be an integer"),
        (lambda: (ONE + SqrtPiPoly.pi_power(1)) ** -1, ValueError, "negative power of a non-monomial"),
        (lambda: sp_eval(ONE, 0), ValueError, "digits must be >= 1"),
        (lambda: KappaFamily("gaussian").validate(), ValueError, "unknown kappa family"),
    ],
    ids=["config-subspace-reps", "config-seed-past-64-bits", "config-seed-negative",
         "consistency-k", "euclid-query", "face-k-past-d",
         "isect-typical-n", "isect-fixed-n", "euclid-f-l-past-k", "statdim-typical-k-negative",
         "statdim-weighted-k-negative", "isect-fixed-d-negative", "hk-weighted-k-negative",
         "faces-count-n", "qpoly-index",
         "coeff-A-row", "coeff-A-column", "coeff-B-indices", "coeff-B-m-zero", "poly-float-coefficient",
         "pow-float-exponent", "pow-negative-non-monomial", "eval-zero-digits", "kappa-family"],
)
def test_input_errors_raise_with_their_message(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
    values = np.concatenate([1e8 + local.standard_normal(1000) for _ in range(4)])
    est = mckernels.finalize(values, None, 0, seed=0)
    assert est.reps == values.size
    assert math.isclose(est.mean, values.mean(), rel_tol=1e-15)
    expected = values.std(ddof=1) / math.sqrt(values.size)
    assert math.isclose(est.stderr, expected, rel_tol=1e-6)
    # a plain mean is the ratio of means with a denominator of 1, bit for bit
    assert mckernels.finalize(values, np.ones_like(values), 0, seed=0) == est


def test_finalize_of_a_ratio_is_the_delta_method():
    local = np.random.default_rng(7)
    den = local.uniform(0.5, 2.0, 3000)
    num = 3 * den + local.standard_normal(3000)
    est = mckernels.finalize(num, den, 0, seed=0)
    assert math.isclose(est.mean, num.mean() / den.mean(), rel_tol=1e-14)
    expected = np.std(num - est.mean * den, ddof=1) / den.mean() / math.sqrt(num.size)
    assert math.isclose(est.stderr, expected, rel_tol=1e-9)


@pytest.mark.parametrize(
    "query", [ExpectationQuery("f", "typical", 6, 3, 3, 1), ExpectationQuery("isect", "weighted", 5, 3, 3, m=5)],
    ids=["f", "isect"],
)
def test_a_short_last_batch_keeps_every_replication_and_redraw(monkeypatch, query):
    # reps = 2 * BATCH + 452: the short last batch's replications join the
    # others', and the estimate's redraws are the sum over all batches
    cfg = ExperimentConfig(reps=2 * mckernels.BATCH + 452, seed=3, subspace_reps=8)
    batches, redraws = [], []

    def batch_rng(seed, stream, j, original=mckernels.batch_rng):
        batches.append(j)
        return original(seed, stream, j)

    def counted(sample):
        def wrapper(*args, **kwargs):
            cells = sample(*args, **kwargs)
            cells.degenerate += 1 + len(redraws) % 3  # tagged redraws, unequal per call
            redraws.append(cells.degenerate)
            return cells

        return wrapper

    def cells_intersect(ca, cb, original=mckernels.cells_intersect):
        hit, near = original(ca, cb)
        redraws.append(int(near.sum()))
        return hit, near

    monkeypatch.setattr(mckernels, "batch_rng", batch_rng)
    monkeypatch.setattr(mckernels, "cells_intersect", cells_intersect)
    for name in ("sample_typical_cells", "sample_weighted_cells"):
        monkeypatch.setattr(mckernels, name, counted(getattr(mckernels, name)))
    est = estimate(query, cfg)
    assert batches == [0, 1, 2]
    assert est.reps == cfg.reps == 2500
    assert est.degenerate_redraws == sum(redraws) > 0


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
    # the weighted closed forms are isotropic, so compare has no exact value to judge this estimate by
    with pytest.raises(ValueError, match="weighted closed forms are isotropic"):
        compare(
            ExpectationQuery("v", "weighted", 4, 2, 2, 1),
            ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 2.0)),
        )


def test_weighted_sampler_takes_any_law_and_isect_only_the_isotropic():
    cfg = ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 2.0))
    # the cells of 4 great circles in S^2 are triangles and quadrilaterals
    est = estimate(ExpectationQuery("f", "weighted", 4, 2, 2, 0), cfg)
    assert est.reps == 200 and 3 <= est.mean <= 4
    with pytest.raises(ValueError, match="isotropic kappa only"):
        estimate(ExpectationQuery("isect", "typical", 4, 2, 2, m=4), cfg)


def test_consistency_checks_small():
    cfg = ExperimentConfig(reps=4000, seed=21, subspace_reps=8)
    reports = consistency_checks(4, 2, 2, cfg)
    assert len(reports) == 2
    for rep in reports:
        assert rep.verdict == "pass", rep.to_dict()


def test_consistency_checks_reject_unknown_parts():
    # a part asked for runs or is an error naming it, never silently nothing
    with pytest.raises(ValueError, match=r"\['d', 'x'\]"):
        consistency_checks(4, 2, 2, ExperimentConfig(reps=200), parts=("a", "x", "d"))
    # the skeleton identity is checked exactly over whole arrangements, not drawn
    with pytest.raises(ValueError, match=r"unknown consistency check parts \['c'\]"):
        consistency_checks(4, 2, 2, ExperimentConfig(reps=200), parts=("c",))


def test_compare_rejects_a_weighted_query_under_a_pole_law_before_drawing(monkeypatch):
    # no weighted exact value is known under a non-isotropic law
    def no_draws(*args):
        raise AssertionError("drew before rejecting")

    monkeypatch.setattr(mckernels, "batch_rng", no_draws)
    cfg = ExperimentConfig(reps=200, kappa=KappaFamily("pole_concentrated", 4.0))
    with pytest.raises(ValueError, match="weighted closed forms are isotropic"):
        compare(ExpectationQuery("f", "weighted", 4, 2, 2, 0), cfg)


@pytest.mark.parametrize("beta", [4.0, 100.0], ids=["pole4", "pole100"])
@pytest.mark.parametrize("n,d,k", [(4, 2, 2), (6, 3, 3), (5, 3, 2), (7, 4, 3)])
def test_sizebias_check_under_pole_laws(n, d, k, beta):
    # E_w[f_0] = E_t[f_0 H^k] / E_t[H^k] holds under every law, so check (a)
    # judges the weighted sampler where no exact value exists: at pole:100
    # and k = d, weighted cells drawn from isotropic normals miss by many
    # standard errors.  Seed and threshold were fixed before the first run.
    cfg = ExperimentConfig(reps=20000, seed=20241020, kappa=KappaFamily("pole_concentrated", beta))
    (rep,) = consistency_checks(n, d, k, cfg, parts=("a",))
    assert abs(rep.z_score) <= 4, rep.to_dict()
    assert rep.exact is None and rep.exact_float is None
    assert rep.to_dict()["exact"] is None and rep.to_dict()["exact_float"] is None
    assert rep.estimate.degenerate_redraws <= cfg.reps * REDRAW_RATE_LIMIT


def test_weighted_sampler_draws_its_normals_from_the_raw_sampler():
    # the weighted cells' normals are the raw sampler's, up to the cells' signs
    drawn = []

    def raw(rng, nb):
        normals = mckernels._sample_unit(rng, (nb, 5, 3)) * [1.0, 1.0, 3.0]
        drawn.append(normals / np.linalg.norm(normals, axis=-1, keepdims=True))
        return drawn[-1], np.zeros(nb, dtype=bool)

    cells = mckernels.sample_weighted_cells(mckernels.batch_rng(4, 5, 6), 64, 5, 3, raw_sampler=raw)
    (normals,) = drawn
    assert np.array_equal(np.abs(cells.normals), np.abs(normals))


def test_kappa_check_at_pole_zero_runs_a_pole_law():
    # pole:0 is uniform, so check (b) falls back to beta = 4 as it does for
    # an isotropic config, and tests a non-isotropic law either way
    cfg = ExperimentConfig(reps=200, seed=8)
    at_zero = replace(cfg, kappa=KappaFamily("pole_concentrated", 0.0))
    assert consistency_checks(4, 2, 2, at_zero, parts=("b",)) == consistency_checks(4, 2, 2, cfg, parts=("b",))


def test_typical_queries_with_cells_that_are_not_pointed_are_rejected_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before rejecting")

    monkeypatch.setattr(mckernels, "batch_rng", no_draws)
    for query in (ExpectationQuery("f", "typical", 3, 4, 4, 1), ExpectationQuery("v", "typical", 4, 4, 4, 1)):
        with pytest.raises(ValueError, match=r"typical faces needs n >= d\+1"):
            estimate(query, FAST)


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
