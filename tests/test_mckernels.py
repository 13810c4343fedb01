"""Batched kernels against the LP oracle, case by case.

Every fast predicate must agree with the one-instance LP route in
``lp_oracle`` on random instances; the enumeration must reproduce
build_arrangement's cell sets.
"""

import itertools
import math

import lp_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtess import mckernels
from sphtess.combinat import cells_count
from sphtess.mckernels import (
    CellBatch,
    SampleAssertionError,
    _combos,
    _enumerate_and_pick,
    _extreme_rays,
    _nullspace_rays,
    batch_rng,
    cones_intersect_batch,
    fvec_values,
    polar_fractions,
    project_batch,
    sample_typical_cells,
    sample_weighted_cells,
    solid_fractions,
    statdim_values,
    subspace_hits,
    subspace_hits_paired,
)

rng = np.random.default_rng(987)


def _random_signed(B, m, dim):
    normals = rng.standard_normal((B, m, dim))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    w = rng.standard_normal((B, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    dots = np.einsum("bmd,bd->bm", normals, w)
    return normals * np.sign(dots)[..., None], w


def _cell_batch(B, m, dim):
    signed, _ = _random_signed(B, m, dim)
    combos = _combos(m, dim - 1)
    rays, _, sel, grazing = _extreme_rays(signed, combos)
    assert not grazing.any()
    return CellBatch(signed, rays, sel, combos)


# -- enumeration vs build_arrangement ----------------------------------------


@pytest.mark.parametrize("m,k", [(3, 2), (5, 2), (7, 2), (4, 3), (6, 3), (3, 1), (6, 1)])
def test_enumeration_matches_incremental(m, k):
    dim = k + 1
    combos = _combos(m, k)
    n_cells = int(cells_count(m, k))
    for trial in range(8):
        normals = rng.standard_normal((1, m, dim))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        local = batch_rng(trial, 0, 0)
        chosen, bad = _enumerate_and_pick(normals, local, combos, n_cells, np.zeros(1, dtype=bool))
        assert not bad.any()
        lp_masks = lp_oracle.build_arrangement(normals[0], k)
        # recompute the batch mask set, one subset and resolution at a time
        _, S, _, _ = _extreme_rays(normals, combos)
        weights = 1 << np.arange(m, dtype=np.int64)
        masks = set()
        for ci, c in enumerate(combos):
            nd = [j for j in range(m) if j not in c]
            base = int(((S[0, ci, nd] > 0) * weights[nd]).sum())
            nd_mask = int(weights[nd].sum())
            for res in range(1 << k):
                add = sum(int(weights[c[t]]) for t in range(k) if (res >> t) & 1)
                masks.add(base + add)
                masks.add((base ^ nd_mask) + add)
        assert masks == lp_masks
        assert int(chosen[0]) in lp_masks


def test_enumeration_assertion_trips_on_wrong_count():
    normals = rng.standard_normal((1, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    with pytest.raises(SampleAssertionError):
        _enumerate_and_pick(normals, batch_rng(0, 0, 0), _combos(4, 2), 99, np.zeros(1, dtype=bool))


def test_typical_cells_uniform_over_cells():
    # for 3 circles all 8 cells are triangles with equal selection probability
    counts = {}
    B = 4096
    cells = sample_typical_cells(batch_rng(5, 1, 0), B, 3, 3)
    f0 = cells.f0()
    assert np.all(f0 == 3)


# -- vertex machinery ---------------------------------------------------------


def test_vertices_match_cell_f_vector():
    for m, k in [(4, 2), (6, 2), (5, 3), (7, 3), (4, 1), (7, 4)]:
        cells = _cell_batch(6, m, k + 1)
        got = [fvec_values(cells, l) for l in range(k)]
        for b in range(cells.B):
            fv = lp_oracle.cell_f_vector(cells.normals[b], max(k - 1, 0))
            assert cells.f0()[b] == fv[0], (m, k, b)
            assert [g[b] for g in got] == fv, (m, k, b)


def test_fvec_euler_assertion_enforced():
    cells = _cell_batch(64, 6, 4)
    fvec_values(cells, 0)  # must not raise on valid cells


# -- subspace hit predicates vs LP -------------------------------------------


def _check_hit_fraction(dim, m, B, reps, j):
    cells = _cell_batch(B, m, dim)
    local = batch_rng(77, j, dim)
    bases = mckernels._haar_bases(local, cells.B, reps, dim, j)
    frac = mckernels._hit_fraction(cells, bases)
    for b in range(cells.B):
        hits = sum(lp_oracle.cone_meets_subspace(cells.normals[b], bases[b, r]) for r in range(reps))
        assert abs(frac[b] - hits / reps) < 1e-12, (dim, b, j)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_hit_predicates_match_lp(j):
    # (dim, m, cells, subspaces per cell)
    for dim, m, B, reps in ((4, 6, 40, 3), (5, 7, 40, 3)):
        if j < dim:
            _check_hit_fraction(dim, m, B, reps, j)


def test_hit_predicates_match_lp_dim3():
    for j in (1, 2):
        _check_hit_fraction(3, 5, 60, 2, j)


def test_subspace_hits_full_space_is_certain():
    cells = _cell_batch(8, 5, 3)
    assert np.all(subspace_hits(cells, batch_rng(1, 1, 0), 3, 4) == 1.0)
    big, small = subspace_hits_paired(cells, batch_rng(1, 2, 0), 3, 4)
    assert np.all(big == 1.0)


# -- polar membership vs LP ---------------------------------------------------


def test_polar_fraction_matches_lp():
    cells = _cell_batch(50, 5, 3)
    local = batch_rng(3, 9, 0)
    x = local.standard_normal((cells.B, 1, 3))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    verts, valid = cells.vertices_masked()
    dots = np.einsum("bpd,bcd->bpc", x, verts)
    dots = np.where(valid[:, None, :], dots, -np.inf)
    member = dots.max(axis=2) <= 0.0
    for b in range(cells.B):
        lp_member = lp_oracle.polar_support_margin(cells.normals[b], x[b, 0]) <= 1e-9
        assert bool(member[b, 0]) == lp_member, b


# -- projections vs the oracle's Moreau enumeration ----------------------------


def test_project_batch_matches_geom():
    for m, dim in ((6, 2), (6, 3), (6, 4), (9, 4), (12, 4)):
        cells = _cell_batch(40, m, dim)
        pts = rng.standard_normal((cells.B, dim)) * 2
        fast = project_batch(cells.normals, pts)
        for b in range(cells.B):
            slow = lp_oracle.project_onto_cone(cells.normals[b], pts[b])
            assert np.allclose(fast[b], slow, atol=1e-8), (m, dim, b)


def test_project_batch_kkt():
    # Moreau: x = Pi_C g iff x in C, x . (g - x) = 0 and g - x in the polar
    # cone, i.e. (g - x) . r <= 0 for every vertex ray r of the cell
    shapes = ((5, 2), (6, 3), (8, 4), (12, 4))
    for sampler, (m, dim) in itertools.product((sample_typical_cells, sample_weighted_cells), shapes):
        cells = sampler(batch_rng(11, m, dim), 256, m, dim)
        g = rng.standard_normal((cells.B, dim)) * 2
        x = project_batch(cells.normals, g)
        tol = 1e-9 * (1.0 + np.einsum("bd,bd->b", g, g))
        assert np.all(np.einsum("bmd,bd->bm", cells.normals, x).min(axis=1) >= -tol)
        assert np.all(np.abs(np.einsum("bd,bd->b", x, g - x)) <= tol)
        verts, valid = cells.vertices_masked()
        polar = np.einsum("bcd,bd->bc", verts, g - x)
        assert np.all(np.where(valid, polar, -np.inf).max(axis=1) <= tol), (m, dim)


def test_project_batch_duplicated_normal_drops_only_its_replication():
    cells = _cell_batch(64, 8, 4)
    pts = rng.standard_normal((cells.B, 4)) * 2
    base = project_batch(cells.normals, pts)
    dup = cells.normals.copy()
    dup[5, 1] = dup[5, 0]
    pts[5] = -dup[5, 0]  # outside, so the singular Gram systems are solved
    with np.errstate(all="raise"):  # no division by a vanished pivot either
        out = project_batch(dup, pts)
    others = np.arange(cells.B) != 5
    assert np.array_equal(out[others], base[others])
    reduced = project_batch(np.delete(dup[5:6], 1, axis=1), pts[5:6])
    assert np.allclose(out[5], reduced[0], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_nullspace_rays_match_svd(dim):
    rows = rng.standard_normal((200, dim - 1, dim))
    ray = _nullspace_rays(np.moveaxis(rows, 0, -1)).T
    ray /= np.linalg.norm(ray, axis=1, keepdims=True)
    null = np.linalg.svd(rows)[2][:, -1, :]  # unit, sign arbitrary
    assert np.allclose(np.abs(np.einsum("bd,bd->b", ray, null)), 1.0, atol=1e-10)
    assert np.abs(np.einsum("bkd,bd->bk", rows, ray)).max() < 1e-12


def test_statdim_values_moreau_assert():
    cells = _cell_batch(256, 6, 3)
    vals = statdim_values(cells, batch_rng(0, 4, 0))
    assert np.all(vals >= 0)


# -- intersection test vs LP ---------------------------------------------------


def test_cones_intersect_batch_matches_lp():
    for dim, ma, mb in ((3, 4, 4), (4, 4, 4), (5, 5, 5), (3, 3, 6), (4, 7, 4), (5, 5, 8)):
        a, _ = _random_signed(60, ma, dim)
        b, _ = _random_signed(60, mb, dim)
        hit, near = cones_intersect_batch(a, b)
        for i in range(60):
            if near[i]:
                continue
            assert bool(hit[i]) == lp_oracle.cones_intersect(a[i], b[i]), (dim, ma, mb, i)


# -- grazing inputs: flagged and redrawn, never a silent hit --------------------


def _touching_cones(local, dim, m_other):
    """Two cones meeting only along the ray r, plus rows positive on r.

    Cone A has rows u_1..u_{dim-1} spanning the complement of r, cone B the
    rows -u_i, so A and B share only r, a boundary ray of both.
    """
    r = local.standard_normal(dim)
    r /= np.linalg.norm(r)
    u = local.standard_normal((dim - 1, dim))
    u -= np.outer(u @ r, r)

    def others():
        v = local.standard_normal((m_other, dim))
        v -= np.outer(v @ r, r)
        return v + (np.abs(local.standard_normal((m_other, 1))) + 0.5) * r

    return np.vstack([u, others()]), np.vstack([-u, others()])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3))
def test_grazing_cones_are_flagged_near(seed, dim, m_other):
    local = np.random.default_rng(seed)
    a, b = _touching_cones(local, dim, m_other)
    _, near = cones_intersect_batch(a[None], b[None])
    assert near[0]
    # a row shared by two generic cones: its subsets are dependent for
    # dim >= 3; either way the test flags the pair or decides it as the LP
    a, b = local.standard_normal((2, 1, dim + m_other, dim))
    b[0, 0] = a[0, 0]
    hit, near = cones_intersect_batch(a, b)
    assert near[0] or dim == 2
    if not near[0]:
        assert bool(hit[0]) == lp_oracle.cones_intersect(a[0], b[0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from(["duplicate", "span"]),
)
def test_grazing_draws_are_redrawn_and_counted(seed, dim, extra, typical, kind):
    # The first draw of every replication is degenerate: row 1 repeats row 0,
    # or row dim-1 lies in the span of rows 0..dim-2.  Typical sampling
    # enumerates every cell, so it must redraw either; a weighted cell must
    # redraw when dependent rows share a subset or the grazing ray is a
    # vertex for certain (m = dim).
    m = dim + extra
    coef = np.abs(np.random.default_rng(seed).standard_normal(dim - 1)) + 0.1
    sample_unit = mckernels._sample_unit
    first = [True]

    def built(rng, shape):
        x = sample_unit(rng, shape)
        if first[0] and len(shape) == 3:
            first[0] = False
            if kind == "duplicate":
                x[:, 1] = x[:, 0]
            else:
                v = np.einsum("k,bkd->bd", coef, x[:, : dim - 1])
                x[:, dim - 1] = v / np.linalg.norm(v, axis=1, keepdims=True)
        return x

    B = 8
    sampler = sample_typical_cells if typical else sample_weighted_cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mckernels, "_sample_unit", built)
        cells = sampler(batch_rng(seed, dim, 0), B, m, dim)
    fvec_values(cells, 0)  # the Euler hard check holds on whatever was kept
    if typical or m == dim or (kind == "duplicate" and dim >= 3):
        assert cells.degenerate >= B
        smallest = np.linalg.svd(cells.normals[:, :dim], compute_uv=False)[:, -1]
        assert smallest.min() > 1e-9  # no built draw was kept


# -- solid fractions -----------------------------------------------------------


def test_solid_fraction_octant():
    B = 512
    normals = np.broadcast_to(np.eye(3), (B, 3, 3)).copy()
    combos = _combos(3, 2)
    rays, _, sel, _ = _extreme_rays(normals, combos)
    cells = CellBatch(normals, rays, sel, combos)
    frac = solid_fractions(cells, batch_rng(0, 5, 0), 64)
    assert abs(frac.mean() - 0.125) < 4 * 0.33 / math.sqrt(B * 64)


def test_weighted_cells_match_slow_sampler_distribution():
    # mean f0 of weighted cells at (4,2,2) ~ 6 - 24/pi^2
    cells = sample_weighted_cells(batch_rng(123, 6, 0), 8192, 4, 3)
    mean = cells.f0().mean()
    exact = 6 - 24 / math.pi**2
    se = cells.f0().std() / math.sqrt(cells.B)
    assert abs(mean - exact) < 4 * se
