"""Certified geometry: simplex, arrangements, faces, projections, hit tests."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from sphtess.combinat import cells_count, faces_count
from sphtess.geom import (
    DegenerateInput,
    KappaFamily,
    SphericalCell,
    SubsphereBasis,
    build_arrangement,
    cell_f_vector,
    cone_meets_subspace,
    cones_intersect,
    intersect_to_subsphere,
    polar_support_margin,
    project_onto_cone,
    sample_normal,
    sample_vmf_mixture,
    solid_angle_mc,
    strict_feasibility,
    uniform_subspace,
    unit,
)

rng = np.random.default_rng(20240607)


def random_unit(dim):
    return unit(rng.standard_normal(dim))


def random_cell(m, dim):
    """A nonempty sign cell of m random normals (witness-flipped)."""
    normals = np.stack([random_unit(dim) for _ in range(m)])
    w = random_unit(dim)
    signed = normals * np.sign(normals @ w)[:, None]
    return SphericalCell(normals=signed, witness=w)


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
    from sphtess.geom import simplex_max

    with pytest.raises(ValueError):
        simplex_max(np.ones(2), np.eye(2), np.array([-1.0, 1.0]))


# -- sampling ----------------------------------------------------------------


def test_sample_normal_isotropic_moments():
    draws = np.stack([sample_normal(rng, 2) for _ in range(20000)])
    assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-9)
    assert np.linalg.norm(draws.mean(axis=0)) < 0.02
    # coordinate second moment of the uniform sphere = 1/3
    m2 = (draws[:, 2] ** 2).mean()
    assert abs(m2 - 1 / 3) < 4 * 0.3 / math.sqrt(20000)


def test_pole_concentrated_beta0_is_uniform():
    a = np.stack([sample_normal(rng, 2, KappaFamily("pole_concentrated", 0.0)) for _ in range(4000)])
    b = np.stack([sample_normal(rng, 2) for _ in range(4000)])
    # two-sample KS on the last coordinate
    from scipy.stats import ks_2samp

    assert ks_2samp(a[:, 2], b[:, 2]).pvalue > 1e-3


def test_pole_concentrated_concentrates():
    beta = 6.0
    a = np.stack([sample_normal(rng, 2, KappaFamily("pole_concentrated", beta)) for _ in range(4000)])
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


def test_intersect_to_subsphere():
    b = intersect_to_subsphere([np.array([0.0, 0.0, 1.0])], 2)
    assert b.subsphere_dim == 1
    assert np.allclose(b.columns.T @ np.array([0.0, 0.0, 1.0]), 0.0, atol=1e-12)
    n1, n2 = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
    b2 = intersect_to_subsphere([n1, n2], 3)
    assert b2.subsphere_dim == 1
    for _ in range(200):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, d))
        normals = [random_unit(d + 1) for _ in range(r)]
        basis = intersect_to_subsphere(normals, d)
        for u in normals:
            assert np.max(np.abs(basis.columns.T @ u)) < 1e-10
    with pytest.raises(DegenerateInput):
        intersect_to_subsphere([n1, n1 + 1e-12 * n2], 3)


def test_uniform_subspace_orthonormal():
    for _ in range(50):
        V = uniform_subspace(rng, 4, 2)
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-10)


# -- arrangements ------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (6, 2), (4, 3), (6, 3), (9, 1), (8, 2)])
def test_arrangement_counts(m, k):
    normals = np.stack([random_unit(k + 1) for _ in range(m)])
    arr = build_arrangement(normals, k)
    assert len(arr.cells) == int(cells_count(m, k))
    signs = {s for s, _ in arr.cells}
    assert len(signs) == len(arr.cells)  # sign-vector uniqueness
    for i in range(len(arr.cells)):
        assert arr.cell(i).margin() > 1e-9


def test_three_circles_all_triangles():
    normals = np.stack([random_unit(3) for _ in range(3)])
    arr = build_arrangement(normals, 2)
    assert len(arr.cells) == 8
    for i in range(8):
        assert cell_f_vector(arr.cell(i), 1) == [3, 3]


def test_arrangement_face_count_identity():
    # distinct l-faces of the whole arrangement = binom(m, k-l) C(m-k+l, l),
    # each shared by 2^(k-l) cells.
    for m, k in [(4, 2), (6, 2), (5, 3)]:
        normals = np.stack([random_unit(k + 1) for _ in range(m)])
        arr = build_arrangement(normals, k)
        for l in range(0, k):
            total = sum(cell_f_vector(arr.cell(i), l)[l] for i in range(len(arr.cells)))
            expected = 2 ** (k - l) * int(faces_count(m, k, l))
            assert total == expected, (m, k, l)


def test_euler_relation_pointed_cells():
    for m, k in [(4, 2), (5, 2), (5, 3)]:
        normals = np.stack([random_unit(k + 1) for _ in range(m)])
        arr = build_arrangement(normals, k)
        for i in range(len(arr.cells)):
            f = cell_f_vector(arr.cell(i), k - 1)
            euler = sum((-1) ** j * f[j] for j in range(k))
            assert euler == 1 - (-1) ** k, (m, k, f)


def test_special_cells():
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    assert cell_f_vector(octant, 1) == [3, 3]
    hemi = SphericalCell(normals=np.array([[0.0, 0.0, 1.0]]), witness=np.array([0.0, 0.0, 1.0]))
    assert cell_f_vector(hemi, 1) == [0, 1]
    lune_normals = np.stack([random_unit(3) for _ in range(2)])
    arr = build_arrangement(lune_normals, 2)
    assert cell_f_vector(arr.cell(0), 1) == [1, 2]


# -- hit tests ---------------------------------------------------------------


def test_cone_meets_subspace_basic():
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    V = np.stack([octant.witness, unit(np.array([1.0, -1.0, 0.0]))], axis=1)
    assert cone_meets_subspace(octant, V)
    # a line through the antipode of the witness still passes through the
    # witness itself (linear subspaces are symmetric), so it meets the cone
    assert cone_meets_subspace(octant, (-octant.witness).reshape(3, 1))
    far = np.stack([unit(np.array([-1.0, -1.0, 0.2])), unit(np.array([-1.0, 0.5, -1.0]))], axis=1)
    q, _ = np.linalg.qr(far)
    # may or may not hit; just must not raise
    cone_meets_subspace(octant, q)


def test_cone_meets_subspace_monotone_nested():
    flips = 0
    for _ in range(1000):
        cell = random_cell(int(rng.integers(3, 7)), 3)
        V = uniform_subspace(rng, 3, 2)
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
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    hits = 0
    n = 4000
    for _ in range(n):
        V = uniform_subspace(rng, 3, 2)
        if cone_meets_subspace(octant, V):
            hits += 1
    u1 = 0.5 * hits / n
    se = 0.5 * math.sqrt(0.75 * 0.25 / n)
    assert abs(u1 - 3 / 8) < 4 * se


def test_cones_intersect_cases():
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    anti = SphericalCell(normals=-np.eye(3), witness=-unit(np.ones(3)))
    assert cones_intersect(octant, octant)
    assert not cones_intersect(octant, anti)


# -- projection --------------------------------------------------------------


def test_projection_basic():
    half = SphericalCell(normals=np.array([[1.0, 0.0]]), witness=np.array([1.0, 0.0]))
    assert np.allclose(project_onto_cone(half, np.array([-1.0, 2.0])), [0.0, 2.0])
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    p = np.array([0.2, 0.3, 0.4])
    assert np.allclose(project_onto_cone(octant, p), p)


def test_projection_moreau_properties():
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        cell = random_cell(int(rng.integers(2, 8)), dim)
        p = rng.standard_normal(dim) * 2
        q = project_onto_cone(cell, p)
        scale = 1.0 + float(p @ p)
        assert float((cell.normals @ q).min()) >= -1e-9
        # p - q in the polar cone: nonpositive against every cone point,
        # equivalently <=0 against all extreme generators; test via witness
        # cone membership of the residual through the support LP
        assert polar_support_margin(cell.normals, p - q) <= 1e-8
        assert abs(float(q @ (p - q))) <= 1e-8 * scale


def test_projection_statdim_orthant():
    # E ||Pi_octant g||^2 = 3/2 (each coordinate contributes 1/2)
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    vals = []
    for _ in range(20000):
        g = rng.standard_normal(3)
        q = project_onto_cone(octant, g)
        vals.append(q @ q)
    mean = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(mean - 1.5) < 4 * se


def test_projection_dykstra_path():
    # force the iterative fallback with > 25 constraints
    m, dim = 30, 3
    cell = random_cell(m, dim)
    p = rng.standard_normal(dim) * 2
    q = project_onto_cone(cell, p)
    assert float((cell.normals @ q).min()) >= -1e-8
    assert abs(float(q @ (p - q))) <= 1e-6


def test_solid_angle_mc():
    octant = SphericalCell(normals=np.eye(3), witness=unit(np.ones(3)))
    est = solid_angle_mc(octant, 20000, rng)
    assert abs(est.mean - 0.125) < 4 * est.stderr
    hemi = SphericalCell(normals=np.array([[0.0, 0.0, 1.0]]), witness=np.array([0.0, 0.0, 1.0]))
    est = solid_angle_mc(hemi, 20000, rng)
    assert abs(est.mean - 0.5) < 4 * est.stderr


def test_polar_support_margin():
    x_in = -unit(np.ones(3))
    x_out = unit(np.array([1.0, -0.2, -0.2]))
    assert polar_support_margin(np.eye(3), x_in) <= 1e-9
    assert polar_support_margin(np.eye(3), x_out) > 1e-3
