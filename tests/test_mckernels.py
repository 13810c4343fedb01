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
from sphtess.geom import KappaFamily, sample_vmf_mixture
from sphtess.mckernels import (
    CellBatch,
    SampleAssertionError,
    _combos,
    _enumerate_and_pick,
    _extreme_rays,
    _nullspace_rays,
    _sign_classes,
    batch_rng,
    cones_intersect_batch,
    fvec_values,
    ivol_values,
    ivol_vector,
    polar_fractions,
    project_batch,
    sample_typical_cells,
    sample_weighted_cells,
    solid_fractions,
    statdim_values,
    subspace_hits,
    subspace_hits_paired,
)


def _random_signed(rng, B, m, dim):
    normals = rng.standard_normal((B, m, dim))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    w = rng.standard_normal((B, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    dots = np.einsum("bmd,bd->bm", normals, w)
    return normals * np.sign(dots)[..., None], w


def _cell_batch(rng, B, m, dim):
    signed, _ = _random_signed(rng, B, m, dim)
    combos = _combos(m, dim - 1)
    rays, margins, null = _extreme_rays(signed, combos)
    sel, hinged = _sign_classes(margins, m - dim + 1)
    assert not (null | hinged).any()
    return CellBatch(signed, rays, sel, combos)


# -- enumeration vs build_arrangement ----------------------------------------


@pytest.mark.parametrize("m,k", [(3, 2), (5, 2), (7, 2), (4, 3), (6, 3), (3, 1), (6, 1)])
def test_enumeration_matches_incremental(m, k):
    dim = k + 1
    rng = np.random.default_rng(101)
    combos = _combos(m, k)
    n_cells = int(cells_count(m, k))
    for trial in range(8):
        normals = rng.standard_normal((1, m, dim))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        local = batch_rng(trial, 0, 0)
        _, S, _ = _extreme_rays(normals, combos)
        chosen, bad = _enumerate_and_pick(S, k, local, n_cells, np.zeros(1, dtype=bool))
        assert not bad.any()
        lp_masks = lp_oracle.build_arrangement(normals[0], k)
        # recompute the batch mask set, one subset and resolution at a time
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
    normals = np.random.default_rng(102).standard_normal((1, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    margins = _extreme_rays(normals, _combos(4, 2))[1]
    with pytest.raises(SampleAssertionError):
        _enumerate_and_pick(margins, 2, batch_rng(0, 0, 0), 99, np.zeros(1, dtype=bool))


def test_typical_cells_uniform_over_cells():
    # 4 great circles in general position cut S^2 into 8 triangles and 6
    # quadrilaterals; a uniform cell is a triangle with probability 8/14
    # and has 24/7 vertices on average, each within 4 standard errors
    B = 8192
    cells = sample_typical_cells(batch_rng(5, 1, 0), B, 4, 3)
    f0 = np.count_nonzero(cells.vert_sel, axis=1)
    assert set(np.unique(f0)) <= {3, 4}
    p = 8 / 14
    se = math.sqrt(p * (1 - p) / B)  # f0 = 4 - [triangle], so both share it
    assert abs(np.mean(f0 == 3) - p) < 4 * se
    assert abs(f0.mean() - 24 / 7) < 4 * se


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "flavor,cutters,beta",
    [("typical", 0, 0.0), ("typical", 0, 4.0), ("typical", 1, 4.0), ("weighted", 0, 0.0)],
    ids=["iso", "kappa-k=d", "kappa-k<d", "weighted"],
)
def test_cell_vertices_match_a_pass_on_the_cell_normals(dim, flavor, cutters, beta):
    # the samplers read a cell's vertices from the margins of the drawn
    # normals flipped to the cell's sides; a fresh pass on the cell's own
    # (signed) normals must give the same vertex vectors bit for bit
    m, k = dim + 2, dim - 1
    local = batch_rng(7, dim, 0)
    if flavor == "weighted":
        cells = sample_weighted_cells(local, 256, m, dim)
    else:
        # the cells of (n, d, k) = (m + cutters, k + cutters, k)
        raw = mckernels._kappa_sampler(KappaFamily("pole_concentrated", beta), m + cutters, k + cutters, k)
        cells = sample_typical_cells(local, 256, m, dim, raw_sampler=raw)
    rays, margins, null = _extreme_rays(cells.normals, cells.combos)
    sel, hinged = _sign_classes(margins, m - dim + 1)
    assert not (null | hinged).any()
    assert np.array_equal(cells.rays * cells.vert_sel[..., None], rays * sel[..., None])


# -- vertex machinery ---------------------------------------------------------


def test_vertices_match_cell_f_vector():
    rng = np.random.default_rng(103)
    for m, k in [(4, 2), (6, 2), (5, 3), (7, 3), (4, 1), (7, 4)]:
        cells = _cell_batch(rng, 6, m, k + 1)
        got = [fvec_values(cells, l) for l in range(k)]
        for b in range(cells.B):
            fv = lp_oracle.cell_f_vector(cells.normals[b], max(k - 1, 0))
            assert np.count_nonzero(cells.vert_sel[b]) == fv[0], (m, k, b)
            assert [g[b] for g in got] == fv, (m, k, b)


def test_fvec_euler_assertion_enforced():
    rng = np.random.default_rng(104)
    for m, dim in ((5, 3), (6, 4), (7, 5)):
        cells = _cell_batch(rng, 64, m, dim)
        fvec_values(cells, 0)  # must not raise on valid cells
        # a cell that lost one of its f_0 > k vertices keeps every face
        # above it and passes the f_0 >= k check, but breaks Euler
        b = np.flatnonzero(np.count_nonzero(cells.vert_sel, axis=1) > dim - 1)[0]
        cells.vert_sel[b, np.flatnonzero(cells.vert_sel[b])[0]] = 0
        with pytest.raises(SampleAssertionError, match="Euler"):
            fvec_values(cells, 0)


# -- subspace hit predicates vs LP -------------------------------------------


def _check_hit_fraction(rng, dim, m, B, reps, j):
    cells = _cell_batch(rng, B, m, dim)
    frames = batch_rng(77, j, dim).standard_normal((cells.B, reps, dim, j))
    frac = mckernels._hit_fraction(cells, frames, j)
    for b in range(cells.B):
        hits = sum(lp_oracle.cone_meets_subspace(cells.normals[b], frames[b, r]) for r in range(reps))
        assert abs(frac[b] - hits / reps) < 1e-12, (dim, b, j)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_hit_predicates_match_lp(j):
    # (dim, m, cells, subspaces per cell)
    rng = np.random.default_rng(105)
    for dim, m, B, reps in ((4, 6, 40, 3), (5, 7, 40, 3)):
        if j < dim:
            _check_hit_fraction(rng, dim, m, B, reps, j)


def test_hit_predicates_match_lp_dim3():
    rng = np.random.default_rng(106)
    for j in (1, 2):
        _check_hit_fraction(rng, 3, 5, 60, 2, j)


def test_subspace_hits_full_space_is_certain():
    cells = _cell_batch(np.random.default_rng(107), 8, 5, 3)
    assert np.all(subspace_hits(cells, batch_rng(1, 1, 0), 3, 4) == 1.0)
    big, small = subspace_hits_paired(cells, batch_rng(1, 2, 0), 3, 4)
    assert np.all(big == 1.0)


@pytest.mark.parametrize("m,dim,j", [(8, 4, 2), (8, 4, 3), (6, 3, 2), (5, 3, 2), (7, 4, 3), (9, 5, 4)])
def test_hit_fraction_raw_frames_match_orthonormal(m, dim, j):
    # a hit depends only on the span: Gaussian frames as drawn decide every
    # cell as their QR'd orthonormal frames (with the sign fix) do
    cells = _cell_batch(np.random.default_rng(108), 128, m, dim)
    frames = batch_rng(13, m, j).standard_normal((cells.B, 16, dim, j))
    q, r = np.linalg.qr(frames)
    orthonormal = q * np.sign(np.einsum("brii->bri", r))[..., None, :]
    raw = mckernels._hit_fraction(cells, frames, j)
    assert np.array_equal(raw, mckernels._hit_fraction(cells, orthonormal, j))
    assert 0 < raw.mean() < 1


@pytest.mark.parametrize("m,dim,j", [(6, 3, 3), (8, 4, 3), (8, 4, 4), (9, 5, 4), (9, 5, 5)])
def test_subspace_hits_paired_nested(m, dim, j):
    # the small subspace lies inside the big one, so it never hits more often
    cells = _cell_batch(np.random.default_rng(109), 256, m, dim)
    big, small = subspace_hits_paired(cells, batch_rng(21, m, j), j, 16)
    assert np.all(small <= big)
    assert (small < big).any()


# -- polar membership vs LP ---------------------------------------------------


def test_polar_fraction_matches_lp():
    cells = _cell_batch(np.random.default_rng(110), 50, 5, 3)
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
    rng = np.random.default_rng(111)
    for m, dim in ((6, 2), (6, 3), (6, 4), (9, 4), (12, 4)):
        cells = _cell_batch(rng, 40, m, dim)
        pts = rng.standard_normal((cells.B, dim)) * 2
        fast = project_batch(cells.normals, pts)
        for b in range(cells.B):
            slow = lp_oracle.project_onto_cone(cells.normals[b], pts[b])
            assert np.allclose(fast[b], slow, atol=1e-8), (m, dim, b)


def test_project_batch_kkt():
    # Moreau: x = Pi_C g iff x in C, x . (g - x) = 0 and g - x in the polar
    # cone, i.e. (g - x) . r <= 0 for every vertex ray r of the cell
    rng = np.random.default_rng(112)
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
    rng = np.random.default_rng(113)
    cells = _cell_batch(rng, 64, 8, 4)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_nullspace_rays_match_svd(dim):
    rows = np.random.default_rng(114).standard_normal((200, dim - 1, dim))
    ray = _nullspace_rays(np.moveaxis(rows, 0, -1)).T
    if dim == 1:  # the empty subset spans R^1
        assert np.array_equal(ray, np.ones((200, 1)))
        return
    ray /= np.linalg.norm(ray, axis=1, keepdims=True)
    null = np.linalg.svd(rows)[2][:, -1, :]  # unit, sign arbitrary
    assert np.allclose(np.abs(np.einsum("bd,bd->b", ray, null)), 1.0, atol=1e-10)
    assert np.abs(np.einsum("bkd,bd->bk", rows, ray)).max() < 1e-12


def test_statdim_values_moreau_assert():
    cells = _cell_batch(np.random.default_rng(115), 256, 6, 3)
    vals = statdim_values(cells, batch_rng(0, 4, 0))
    assert np.all(vals >= 0)


# -- intersection test vs LP ---------------------------------------------------


def test_cones_intersect_batch_matches_lp():
    rng = np.random.default_rng(116)
    for dim, ma, mb in ((3, 4, 4), (4, 4, 4), (5, 5, 5), (3, 3, 6), (4, 7, 4), (5, 5, 8)):
        a, _ = _random_signed(rng, 60, ma, dim)
        b, _ = _random_signed(rng, 60, mb, dim)
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


# -- intrinsic volume vector vs the sampled routes ------------------------------


def _ivol_cells(m, dim, beta):
    local = batch_rng(41, m, dim)
    if beta is None:
        return sample_weighted_cells(local, 16, m, dim)
    # the kappa cells of (n, d, k) = (m, dim - 1, dim - 1)
    raw = mckernels._kappa_sampler(KappaFamily("pole_concentrated", beta), m, dim - 1, dim - 1)
    return sample_typical_cells(local, 16, m, dim, raw_sampler=raw)


def _assert_share(sampled, share, draws, what):
    # a share of `draws` uniform draws per cell, within 5 binomial standard
    # errors of twice the variance (the vector's v_4 is itself a share at
    # dim 4), floored for shares near 0 or 1
    sigma = np.sqrt(2 * np.maximum(share * (1 - share), 1e-3) / draws)
    assert np.all(np.abs(sampled - share) <= 5 * sigma), (what, sampled - share)


@pytest.mark.parametrize(
    "m,dim,beta",
    [(3, 2, None), (6, 2, None), (4, 3, None), (7, 3, None), (5, 4, None), (8, 4, None), (12, 4, None),
     (4, 3, 4.0), (5, 4, 4.0)],
)
def test_ivol_vector_matches_sampled_routes(m, dim, beta):
    cells = _ivol_cells(m, dim, beta)
    local = batch_rng(43, m, dim)
    vec = ivol_vector(cells, local, 20000)
    assert np.allclose(vec[:, 0::2].sum(axis=1), 0.5) and np.allclose(vec[:, 1::2].sum(axis=1), 0.5)
    S = 3000
    for l in range(dim):
        # Crofton: a uniform (dim-l)-subspace meets the cone with probability 2 U_l
        _assert_share(subspace_hits(cells, local, dim - l, S), 2 * vec[:, l + 1 :: 2].sum(axis=1), S, ("U", l))
    _assert_share(solid_fractions(cells, local, S), vec[:, dim], S, "v_dim")
    _assert_share(polar_fractions(cells, local, S), vec[:, 0], S, "v_0")
    # the definitional statdim: E ||Pi_C g||^2 over Gaussians g, per cell
    # and over all cells
    G = 750
    g = local.standard_normal((cells.B, G, dim))
    proj = project_batch(np.repeat(cells.normals, G, axis=0), g.reshape(-1, dim)).reshape(g.shape)
    sq = np.einsum("bsd,bsd->bs", proj, proj)
    diff, var = sq.mean(axis=1) - vec @ np.arange(dim + 1), sq.var(axis=1, ddof=1) / G
    assert np.all(np.abs(diff) <= 5 * np.sqrt(var)), diff / np.sqrt(var)
    assert abs(diff.sum()) <= 4 * math.sqrt(var.sum())


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("beta", [None, 4.0], ids=["iso", "pole4"])
def test_ivol_vector_sums_over_an_arrangement(dim, beta):
    # Klivans & Swartz (2011): over all cells of m generic central
    # hyperplanes in R^dim, v_j sums to C(m, dim-j) for j >= 1 and v_0 to
    # C(m-1, dim-1).  At dim 4, v_0 and v_4 are sampled, but their sum
    # 1/2 - v_2 is closed form.
    m = dim + 3
    rng = np.random.default_rng(118 + dim)
    if beta is None:
        normals = rng.standard_normal((m, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    else:
        normals = sample_vmf_mixture(rng, dim - 1, beta, m)
    masks = sorted(lp_oracle.build_arrangement(normals, dim - 1))
    signed = np.stack([lp_oracle.signed_rows(normals, mask) for mask in masks])
    combos = _combos(m, dim - 1)
    rays, margins, null = _extreme_rays(signed, combos)
    sel, hinged = _sign_classes(margins, m - dim + 1)
    assert not (null | hinged).any()
    sums = ivol_vector(CellBatch(signed, rays, sel, combos), batch_rng(45, m, dim), 64).sum(axis=0)
    want = [math.comb(m - 1, dim - 1)] + [math.comb(m, dim - j) for j in range(1, dim + 1)]
    if dim == 4:
        sums, want = [sums[0] + sums[4]] + list(sums[1:4]), [want[0] + want[4]] + want[1:4]
    assert np.allclose(sums, want, rtol=0, atol=1e-12), np.subtract(sums, want)


def _share_var(p, draws):
    # binomial variance of a share of `draws` draws, floored for shares near 0 or 1
    p = np.clip(p, 0, 1)
    return np.maximum(p * (1 - p), 1e-3) / draws


@pytest.mark.parametrize("m,dim", [(6, 5), (7, 5), (7, 6)])
@pytest.mark.parametrize("beta", [None, 4.0], ids=["iso", "pole4"])
def test_ivol_values_matches_sampled_routes_at_high_dim(m, dim, beta):
    # beyond IVOL_MAX_DIM every row goes through the Quermass integrals;
    # each check is within 5 standard errors of the difference of two
    # independent per-cell estimates
    cells = _ivol_cells(m, dim, beta)
    local = batch_rng(44, m, dim)
    S = 1000

    def row(quantity, l=None):
        return mckernels._ivol_row(quantity, l, dim)

    U = [ivol_values(cells, local, S, row("U", l)) for l in range(dim)]
    for l in range(dim):
        # Crofton: a uniform (dim-l)-subspace meets the cone with probability
        # 2 U_l; U_{dim-1} is the solid fraction, a share itself
        hits = subspace_hits(cells, local, dim - l, S)
        own = 4 * _share_var(U[l], S) if l == dim - 1 else _share_var(2 * U[l], S)
        diff = hits - 2 * U[l]
        assert np.all(np.abs(diff) <= 5 * np.sqrt(own + _share_var(hits, S))), ("U", l, diff)
    # v_{-1} = 1/2 - U_1
    vm1 = ivol_values(cells, local, S, row("vminus1"))
    polar = polar_fractions(cells, local, S)
    diff = polar - vm1
    assert np.all(np.abs(diff) <= 5 * np.sqrt(_share_var(1 - 2 * vm1, S) / 4 + _share_var(polar, S))), diff
    # statdim = 1/2 + 2 (U_1 + ... + U_{dim-1}) from nested hits, whose
    # standard errors add up, against the definitional E ||Pi_C g||^2 over
    # Gaussians g, per cell and over all cells
    sd = ivol_values(cells, local, S, row("statdim"))
    own = sum(np.sqrt(_share_var(2 * U[l], S)) for l in range(1, dim - 1)) + 2 * np.sqrt(_share_var(U[-1], S))
    G = 400
    g = local.standard_normal((cells.B, G, dim))
    proj = project_batch(np.repeat(cells.normals, G, axis=0), g.reshape(-1, dim)).reshape(g.shape)
    sq = np.einsum("bsd,bsd->bs", proj, proj)
    diff, var = sq.mean(axis=1) - sd, sq.var(axis=1, ddof=1) / G + own**2
    assert np.all(np.abs(diff) <= 5 * np.sqrt(var)), diff / np.sqrt(var)
    assert abs(diff.sum()) <= 4 * math.sqrt(var.sum())


def _cone_share(V):
    # _cone_angle of each cone's generators V (F, r, n), one row per cone;
    # three generators in R^3 get a zero fourth coordinate, as in R^4
    F, r, n = V.shape
    if r == 3 and n == 3:
        V, n = np.pad(V, ((0, 0), (0, 0), (0, 1))), 4
    return mckernels._cone_angle(V.reshape(-1, n), np.arange(F * r).reshape(F, r))


def test_cone_angle_exact_values():
    e = np.eye(4)
    assert _cone_share(np.empty((2, 0, 3))).tolist() == [1.0, 1.0]
    assert _cone_share(e[None, :1, :3]).tolist() == [0.5]
    assert np.allclose(_cone_share(e[None, :2, :3]), 0.25, rtol=0, atol=1e-15)
    assert np.allclose(_cone_share(e[None, 1:3, :]), 0.25, rtol=0, atol=1e-15)
    assert np.allclose(_cone_share(e[None, :3, :3]), 0.125, rtol=0, atol=1e-15)
    assert np.allclose(_cone_share(e[None, 1:, :]), 0.125, rtol=0, atol=1e-15)
    for bad in (e[None, :, :], e[None, :3, :2]):
        with pytest.raises(ValueError):
            mckernels._cone_angle(bad[0], np.arange(len(bad[0]))[None])


def _dihedral(a, b, c):
    # angle at edge a between the planes span(a, b) and span(a, c)
    pb, pc = b - (a @ b) * a, c - (a @ c) * a
    return math.acos(np.clip(pb @ pc / np.linalg.norm(pb) / np.linalg.norm(pc), -1, 1))


def test_cone_angle_obtuse_triple_girard():
    # three rays 120 degrees apart just above the equator span nearly a
    # half-space: 1 + ab + bc + ca < 0, so the solid angle passes pi and
    # only the atan2 branch reads it; Girard gives Omega = A + B + C - pi
    for h in (0.05, 0.2, 0.3):
        t = 2 * np.pi * np.arange(3) / 3 + 0.4
        V = np.stack([math.sqrt(1 - h * h) * np.cos(t), math.sqrt(1 - h * h) * np.sin(t), np.full(3, h)], axis=1)
        assert 1 + V[0] @ V[1] + V[1] @ V[2] + V[2] @ V[0] < 0
        omega = sum(_dihedral(*np.roll(V, -i, axis=0)) for i in range(3)) - np.pi
        assert abs(_cone_share(V[None])[0] - omega / (4 * np.pi)) < 1e-12, h
        assert _cone_share(V[None])[0] > 0.25


def test_cone_angle_random_triples_against_gaussian_share():
    # x lies in the cone of the rows of V iff V^-T x >= 0
    rng = np.random.default_rng(119)
    V = rng.standard_normal((24, 3, 3))
    V /= np.linalg.norm(V, axis=2, keepdims=True)
    N = 20000
    x = rng.standard_normal((24, 3, N))
    share = (np.linalg.solve(np.swapaxes(V, 1, 2), x) >= 0).all(axis=1).mean(axis=1)
    got = _cone_share(V)
    assert np.all(np.abs(share - got) <= 4 * np.sqrt(got * (1 - got) / N)), share - got


def test_ivol_vector_duplicated_vertex_raises():
    # a vertex ray entered a second time, under a subset that is no vertex,
    # leaves some 2-face with one or three vertices
    rng = np.random.default_rng(117)
    for m, dim in ((4, 2), (5, 3), (6, 4)):
        cells = _cell_batch(rng, 4, m, dim)
        ivol_vector(cells, batch_rng(0, 1, 0), 8)
        real, spare = np.flatnonzero(cells.vert_sel[0])[0], np.flatnonzero(cells.vert_sel[0] == 0)[0]
        cells.rays[0, spare], cells.vert_sel[0, spare] = cells.rays[0, real], cells.vert_sel[0, real]
        with pytest.raises(SampleAssertionError):
            ivol_vector(cells, batch_rng(0, 1, 0), 8)


# -- solid fractions -----------------------------------------------------------


def test_solid_fraction_octant():
    B = 512
    normals = np.broadcast_to(np.eye(3), (B, 3, 3)).copy()
    combos = _combos(3, 2)
    rays, margins, _ = _extreme_rays(normals, combos)
    sel, _ = _sign_classes(margins, 1)
    cells = CellBatch(normals, rays, sel, combos)
    frac = solid_fractions(cells, batch_rng(0, 5, 0), 64)
    assert abs(frac.mean() - 0.125) < 4 * 0.33 / math.sqrt(B * 64)


def test_weighted_cells_match_slow_sampler_distribution():
    # mean f0 of weighted cells at (4,2,2) ~ 6 - 24/pi^2
    cells = sample_weighted_cells(batch_rng(123, 6, 0), 8192, 4, 3)
    f0 = np.count_nonzero(cells.vert_sel, axis=1)
    mean = f0.mean()
    exact = 6 - 24 / math.pi**2
    se = f0.std() / math.sqrt(cells.B)
    assert abs(mean - exact) < 4 * se
