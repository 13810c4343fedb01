"""Samplers, estimator plumbing, determinism, and cross-validation."""

import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from sphtess import mckernels
from sphtess.exactnum import sp_eval
from sphtess.geom import KappaFamily, solid_angle_mc
from sphtess.moments import (
    ExpectationQuery,
    ef_typical,
    ef_weighted,
    v_weighted,
)
from sphtess.simulate import (
    ComparisonReport,
    ExperimentConfig,
    MCEstimate,
    compare,
    consistency_checks,
    estimate,
    estimate_isect,
    sample_typical_face,
    sample_weighted_face,
    sample_weighted_face_full_skeleton,
)

rng = np.random.default_rng(31415)

FAST = ExperimentConfig(reps=4000, seed=7, subspace_reps=8)


def test_sample_typical_face_triangles():
    for _ in range(40):
        cell = sample_typical_face(3, 2, 2, rng)
        from sphtess.geom import cell_f_vector

        assert cell_f_vector(cell, 1) == [3, 3]
        assert cell.margin() > 1e-9


def test_sample_typical_face_mean_f0():
    vals = []
    for _ in range(1500):
        cell = sample_typical_face(4, 2, 2, rng)
        from sphtess.geom import cell_f_vector

        vals.append(cell_f_vector(cell, 0)[0])
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    exact = float(sp_eval(ef_typical(4, 2, 2, 0), 20))
    assert abs(mean - exact) < 5 * se


def test_sample_typical_face_general_kappa():
    kappa = KappaFamily("pole_concentrated", 3.0)
    vals = []
    for _ in range(600):
        cell = sample_typical_face(5, 3, 2, rng, kappa)
        from sphtess.geom import cell_f_vector

        vals.append(cell_f_vector(cell, 0)[0])
        assert cell.ambient is not None  # sectional pipeline used
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    exact = float(sp_eval(ef_typical(5, 3, 2, 0), 20))  # kappa-independent
    assert abs(mean - exact) < 5 * se


def test_sample_weighted_face_mean_f0():
    vals = []
    for _ in range(1500):
        cell = sample_weighted_face(4, 2, 2, rng)
        vals.append(len(cell.normals))  # polygon: every constraint is a facet?
    # count facets properly through f-vector instead
    from sphtess.geom import cell_f_vector

    vals = []
    for _ in range(1500):
        cell = sample_weighted_face(4, 2, 2, rng)
        vals.append(cell_f_vector(cell, 0)[0])
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    exact = float(sp_eval(ef_weighted(4, 2, 2, 0), 20))
    assert abs(mean - exact) < 5 * se


def test_full_skeleton_sampler_cross_validation():
    # weighted 1-faces of T_{4,2}: mean normalized length = E v_1 = 1/4
    exact = float(sp_eval(v_weighted(4, 2, 1, 1), 20))
    fracs = []
    for _ in range(800):
        cell = sample_weighted_face_full_skeleton(4, 2, 1, rng)
        est = solid_angle_mc(cell, 32, rng)
        fracs.append(est.mean)
    mean = float(np.mean(fracs))
    se = float(np.std(fracs)) / math.sqrt(len(fracs))
    assert abs(mean - exact) < 5 * se
    # and the reduced sampler agrees distributionally
    fracs2 = []
    for _ in range(800):
        cell = sample_weighted_face(4, 2, 1, rng)
        est = solid_angle_mc(cell, 32, rng)
        fracs2.append(est.mean)
    mean2 = float(np.mean(fracs2))
    se2 = float(np.std(fracs2)) / math.sqrt(len(fracs2))
    assert abs(mean2 - mean) < 5 * math.hypot(se, se2)


def test_sampler_preconditions():
    with pytest.raises(ValueError):
        sample_typical_face(4, 2, 0, rng)
    with pytest.raises(ValueError):
        sample_weighted_face(2, 2, 2, rng)
    with pytest.raises(ValueError):
        sample_weighted_face_full_skeleton(4, 2, 0, rng)


def test_estimate_determinism_and_thread_independence(monkeypatch):
    q = ExpectationQuery("v", "weighted", 4, 2, 2, 1)
    cfg1 = ExperimentConfig(reps=3000, seed=99, subspace_reps=8, threads=1)
    cfg2 = ExperimentConfig(reps=3000, seed=99, subspace_reps=8, threads=3)
    e1 = estimate(q, cfg1)
    e2 = estimate(q, cfg1)
    e3 = estimate(q, cfg2)
    assert e1 == e2 == e3
    e4 = estimate(q, ExperimentConfig(reps=3000, seed=100, subspace_reps=8))
    assert e4.mean != e1.mean
    # a single batch runs inline: no thread pool is started for it
    one = ExperimentConfig(reps=mckernels.BATCH, seed=99, subspace_reps=8, threads=1)
    single = estimate(q, one)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    assert estimate(q, replace(one, threads=3)) == single


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
    # cells in R^5: the nullspace rays of 4 x 5 subsets use the cofactor route
    rep = compare(ExpectationQuery("isect", "weighted", 5, 4, 4, m=5), ExperimentConfig(reps=4096, seed=3))
    assert abs(rep.z_score) <= 4
    assert rep.estimate.degenerate_redraws <= 4096 * 1e-3


@pytest.mark.parametrize(
    "query",
    [
        ExpectationQuery("U", "weighted", 6, 4, 4, 1),  # hits of 4-dim subspaces
        ExpectationQuery("v", "weighted", 6, 4, 4, 1),
        ExpectationQuery("statdim", "weighted", 6, 4, 4),
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
    with pytest.raises(ValueError):
        estimate(ExpectationQuery("f", "weighted", 4, 2, 2, 0), cfg)


def test_consistency_checks_small():
    cfg = ExperimentConfig(reps=4000, seed=21, subspace_reps=8)
    reports = consistency_checks(4, 2, 2, cfg)
    assert len(reports) == 3
    for rep in reports:
        assert rep.verdict == "pass", rep.to_dict()


def test_comparison_report_fields():
    rep = compare(ExpectationQuery("v", "typical", 4, 2, 2, 1), FAST)
    d = rep.to_dict()
    assert set(d) >= {"exact", "estimate", "stderr", "z_score", "verdict", "seed"}
    assert rep.estimate.reps == FAST.reps
