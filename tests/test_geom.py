"""The LP oracle's own checks (simplex, arrangements, faces, projections,
hit tests) and the direction and subspace samplers."""

import math

import numpy as np
import pytest
from lp_oracle import (
    FEAS_TOL,
    build_arrangement,
    cell_f_vector,
    cone_meets_subspace,
    cones_intersect,
    intersect_to_subsphere,
    polar_support_margin,
    project_onto_cone,
    signed_rows,
    strict_feasibility,
)
from scipy.optimize import linprog

from sphtess.combinat import cells_count, faces_count
from sphtess.geom import DegenerateInput, KappaFamily, sample_vmf_mixture
from sphtess.mckernels import _sample_unit, batch_rng, solid_fractions

rng = np.random.default_rng(20240607)
OCTANT = np.eye(3)


def unit(v):
    return v / np.linalg.norm(v)


def random_unit(dim):
    return unit(rng.standard_normal(dim))


def random_cell(m, dim):
    """The rows of a nonempty sign cell of m random normals (witness-flipped)."""
    normals = np.stack([random_unit(dim) for _ in range(m)])
    w = random_unit(dim)
    return normals * np.sign(normals @ w)[:, None]


def random_subspace(ambient_dim, j):
    """Orthonormal basis (ambient_dim, j) of a Haar-uniform j-dim subspace."""
    q, r = np.linalg.qr(rng.standard_normal((ambient_dim, j)))
    return q * np.sign(np.diag(r))


# -- simplex / feasibility ---------------------------------------------------


def test_strict_feasibility_trivial():
    t, y = strict_feasibility(np.eye(2))
    assert abs(t - 1.0) < 1e-9 and np.allclose(y, [1, 1], atol=1e-9)
    t, _ = strict_feasibility(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert abs(t) <= 1e-9  # opposing halfspaces: no strict interior


def test_strict_feasibility_against_linprog_oracle():
    hits = 0
    for _ in range(300):
        m, dim = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        M = np.stack([random_unit(dim) for _ in range(m)])
        t, y = strict_feasibility(M)
        # independent oracle: Chebyshev-style margin LP via scipy (highs)
        c = np.zeros(dim + 1)
        c[-1] = -1.0
        A_ub = np.hstack([-M, np.ones((m, 1))])
        bounds = [(-1, 1)] * dim + [(None, None)]
        res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m), bounds=bounds, method="highs")
        assert res.status == 0
        t_oracle = -res.fun
        assert abs(t - t_oracle) < 1e-7, (t, t_oracle)
        if t > 1e-7:
            hits += 1
            assert np.min(M @ y) >= t - 1e-9
    assert 0 < hits < 300  # both outcomes exercised


def test_simplex_rejects_negative_rhs():
    from lp_oracle import simplex_max

    with pytest.raises(ValueError):
        simplex_max(np.ones(2), np.eye(2), np.array([-1.0, 1.0]))


# -- sampling ----------------------------------------------------------------


def test_sample_normal_isotropic_moments():
    draws = _sample_unit(rng, (20000, 3))
    assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-9)
    assert np.linalg.norm(draws.mean(axis=0)) < 0.02
    # coordinate second moment of the uniform sphere = 1/3
    m2 = (draws[:, 2] ** 2).mean()
    assert abs(m2 - 1 / 3) < 4 * 0.3 / math.sqrt(20000)


def test_pole_concentrated_beta0_is_uniform():
    a = sample_vmf_mixture(rng, 2, 0.0, 4000)
    b = _sample_unit(rng, (4000, 3))
    # two-sample KS on the last coordinate
    from scipy.stats import ks_2samp

    assert ks_2samp(a[:, 2], b[:, 2]).pvalue > 1e-3


def test_pole_concentrated_concentrates():
    beta = 6.0
    a = sample_vmf_mixture(rng, 2, beta, 4000)
    assert (np.abs(a[:, 2]) > 0.5).mean() > 0.8
    assert abs((a[:, 2] > 0).mean() - 0.5) < 0.05  # even mixture


@pytest.mark.parametrize("beta", [1e8, 1e12, 1e20])
@pytest.mark.parametrize("dim", [2, 3])
def test_vmf_mixture_at_large_beta(dim, beta):
    x = sample_vmf_mixture(np.random.default_rng(int(math.log10(beta)) + dim), dim, beta, 20000)
    assert np.all(np.isfinite(x))
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    if beta <= 1e12:
        # 1 - w^2 = |tangent part|^2 has mean (p-1)/beta + O(beta^-2)
        q = np.sum(x[:, :-1] ** 2, axis=1) * beta / dim
        assert abs(q.mean() - 1) <= 4 * q.std() / math.sqrt(q.size)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
def test_kappa_family_rejects_bad_beta(beta):
    # a NaN beta once passed and left Wood's loop waiting for an accepted draw
    with pytest.raises(ValueError, match="beta must be finite"):
        KappaFamily("pole_concentrated", beta).validate()


def test_intersect_to_subsphere():
    b = intersect_to_subsphere([np.array([0.0, 0.0, 1.0])], 2)
    assert b.shape == (3, 2)
    assert np.allclose(b.T @ np.array([0.0, 0.0, 1.0]), 0.0, atol=1e-12)
    n1, n2 = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
    b2 = intersect_to_subsphere([n1, n2], 3)
    assert b2.shape == (4, 2)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, d))
        normals = [random_unit(d + 1) for _ in range(r)]
        basis = intersect_to_subsphere(normals, d)
        assert np.allclose(basis.T @ basis, np.eye(d + 1 - r), atol=1e-10)
        for u in normals:
            assert np.max(np.abs(basis.T @ u)) < 1e-10
    with pytest.raises(DegenerateInput):
        intersect_to_subsphere([n1, n1 + 1e-12 * n2], 3)


# -- arrangements ------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (6, 2), (4, 3), (6, 3), (9, 1), (8, 2)])
def test_arrangement_counts(m, k):
    normals = np.stack([random_unit(k + 1) for _ in range(m)])
    masks = build_arrangement(normals, k)
    assert len(masks) == int(cells_count(m, k))  # distinct sign vectors
    for mask in masks:
        assert strict_feasibility(signed_rows(normals, mask))[0] > FEAS_TOL


def test_three_circles_all_triangles():
    normals = np.stack([random_unit(3) for _ in range(3)])
    masks = build_arrangement(normals, 2)
    assert len(masks) == 8
    for mask in masks:
        assert cell_f_vector(signed_rows(normals, mask), 1) == [3, 3]


def test_arrangement_face_count_identity():
    # distinct l-faces of the whole arrangement = binom(m, k-l) C(m-k+l, l),
    # each shared by 2^(k-l) cells.
    for m, k in [(4, 2), (6, 2), (5, 3)]:
        normals = np.stack([random_unit(k + 1) for _ in range(m)])
        cells = [signed_rows(normals, mask) for mask in build_arrangement(normals, k)]
        for l in range(0, k):
            total = sum(cell_f_vector(A, l)[l] for A in cells)
            expected = 2 ** (k - l) * int(faces_count(m, k, l))
            assert total == expected, (m, k, l)


def test_euler_relation_pointed_cells():
    for m, k in [(4, 2), (5, 2), (5, 3)]:
        normals = np.stack([random_unit(k + 1) for _ in range(m)])
        for mask in build_arrangement(normals, k):
            f = cell_f_vector(signed_rows(normals, mask), k - 1)
            euler = sum((-1) ** j * f[j] for j in range(k))
            assert euler == 1 - (-1) ** k, (m, k, f)


def test_special_cells():
    assert cell_f_vector(OCTANT, 1) == [3, 3]
    assert cell_f_vector(np.array([[0.0, 0.0, 1.0]]), 1) == [0, 1]  # hemisphere
    lune_normals = np.stack([random_unit(3) for _ in range(2)])
    for mask in build_arrangement(lune_normals, 2):
        assert cell_f_vector(signed_rows(lune_normals, mask), 1) == [1, 2]


# -- hit tests ---------------------------------------------------------------


def test_cone_meets_subspace_basic():
    witness = unit(np.ones(3))
    V = np.stack([witness, unit(np.array([1.0, -1.0, 0.0]))], axis=1)
    assert cone_meets_subspace(OCTANT, V)
    # a line through the antipode of the witness still passes through the
    # witness itself (linear subspaces are symmetric), so it meets the cone
    assert cone_meets_subspace(OCTANT, (-witness).reshape(3, 1))
    far = np.stack([unit(np.array([-1.0, -1.0, 0.2])), unit(np.array([-1.0, 0.5, -1.0]))], axis=1)
    q, _ = np.linalg.qr(far)
    # may or may not hit; just must not raise
    cone_meets_subspace(OCTANT, q)


def test_cone_meets_subspace_monotone_nested():
    flips = 0
    for _ in range(1000):
        cell = random_cell(int(rng.integers(3, 7)), 3)
        V = random_subspace(3, 2)
        small = V[:, :1]
        try:
            hit_small = cone_meets_subspace(cell, small)
            hit_big = cone_meets_subspace(cell, V)
        except DegenerateInput:
            continue
        if hit_small and not hit_big:
            flips += 1
    assert flips == 0


def test_octant_u1_via_subspace_hits():
    # U_1(octant) = 3/8: fraction of uniform (k-l+1)=2-dim subspaces hitting
    hits = 0
    n = 4000
    for _ in range(n):
        V = random_subspace(3, 2)
        if cone_meets_subspace(OCTANT, V):
            hits += 1
    u1 = 0.5 * hits / n
    se = 0.5 * math.sqrt(0.75 * 0.25 / n)
    assert abs(u1 - 3 / 8) < 4 * se


def test_cones_intersect_cases():
    assert cones_intersect(OCTANT, OCTANT)
    assert not cones_intersect(OCTANT, -OCTANT)


# -- projection --------------------------------------------------------------


def test_projection_basic():
    half = np.array([[1.0, 0.0]])
    assert np.allclose(project_onto_cone(half, np.array([-1.0, 2.0])), [0.0, 2.0])
    p = np.array([0.2, 0.3, 0.4])
    assert np.allclose(project_onto_cone(OCTANT, p), p)


def test_projection_moreau_properties():
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        A = random_cell(int(rng.integers(2, 8)), dim)
        p = rng.standard_normal(dim) * 2
        q = project_onto_cone(A, p)
        scale = 1.0 + float(p @ p)
        assert float((A @ q).min()) >= -1e-9
        # p - q in the polar cone: nonpositive against every cone point,
        # equivalently <=0 against all extreme generators; test via witness
        # cone membership of the residual through the support LP
        assert polar_support_margin(A, p - q) <= 1e-8
        assert abs(float(q @ (p - q))) <= 1e-8 * scale


def test_projection_statdim_orthant():
    # E ||Pi_octant g||^2 = 3/2 (each coordinate contributes 1/2)
    vals = []
    for _ in range(20000):
        g = rng.standard_normal(3)
        q = project_onto_cone(OCTANT, g)
        vals.append(q @ q)
    mean = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(mean - 1.5) < 4 * se


def test_solid_angle_mc():
    # solid fractions of cones that are not pointed: a hemisphere, and a
    # lune between two great circles at dihedral angle theta
    theta = 1.0
    lune = np.array([[0.0, 1.0, 0.0], [math.sin(theta), -math.cos(theta), 0.0]])
    for rows, exact in ((np.array([[0.0, 0.0, 1.0]]), 0.5), (lune, theta / (2 * math.pi))):
        frac = solid_fractions(rows[None], batch_rng(0, 6, 0), 20000)[0]
        assert abs(frac - exact) < 4 * math.sqrt(exact * (1 - exact) / 20000)


def test_polar_support_margin():
    x_in = -unit(np.ones(3))
    x_out = unit(np.array([1.0, -0.2, -0.2]))
    assert polar_support_margin(np.eye(3), x_in) <= 1e-9
    assert polar_support_margin(np.eye(3), x_out) > 1e-3
