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
from scipy.stats import chi2

from sphtess import mckernels
from sphtess.combinat import cells_count
from sphtess.geom import KappaFamily, norm, sample_vmf_mixture
from sphtess.mckernels import (
    CellBatch,
    SampleAssertionError,
    _combos,
    _enumerate_and_pick,
    _extreme_rays,
    _nullspace_rays,
    _vertex_table,
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
from sphtess.moments import QUANTITIES, ExpectationQuery, evaluate_query, l_values


def _random_signed(rng, B, m, dim):
    normals = rng.standard_normal((B, m, dim))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    w = rng.standard_normal((B, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    dots = np.einsum("bmd,bd->bm", normals, w)
    return normals * np.sign(dots)[..., None], w


def _cell_batch(rng, B, m, dim):
    cells = _vertex_table(_random_signed(rng, B, m, dim)[0])
    assert np.bincount(cells.cell, minlength=B).all()  # nothing flagged: a flagged cone keeps no vertex
    return cells


# -- side masks vs the count over margins ----------------------------------------


def _count_sign_classes(margins, others):
    """Sign class and hinge flag of each candidate ray by counting its margins (..., P, M), as an oracle.

    The classes before side masks: +1 (-1) when ``others`` margins lie
    above _TOL (below -_TOL), else 0, and hinged when fewer than ``others``
    lie beyond the band and none on the other side.  It counts every row,
    a subset's own included, whose margins vanish up to rounding.
    """
    pos = np.count_nonzero(margins > mckernels._TOL, axis=-1)
    neg = np.count_nonzero(margins < -mckernels._TOL, axis=-1)
    sign = ((pos == others) & (neg == 0)).astype(np.int8) - ((neg == others) & (pos == 0))
    return sign, (pos + neg < others) & ((pos == 0) | (neg == 0))


def _reference_rays(normals, subsets):
    """Unit rays (..., P, j) of the subsets' rows of ``normals`` (..., M, j), as a reference.

    The arithmetic of the extreme-ray pass when it kept its rays: the
    generalized cross product of the rows, over its norm unless that is
    below 1e-12, for the whole batch at once.
    """
    comps = np.moveaxis(normals, (-2, -1), (0, 1))  # (M, j, ...)
    lines = _nullspace_rays(np.moveaxis(comps[subsets.T], 2, 1))  # (j, P, ...)
    norms = np.sqrt(sum(r * r for r in lines))
    lines /= np.where(norms < 1e-12, 1.0, norms)
    return np.ascontiguousarray(np.moveaxis(lines, (0, 1), (-1, -2)))


def _pass(normals, subsets):
    """``_extreme_rays`` with the reference rays and their margins: (rays, above, below, clear, margins)."""
    above, below, clear = _extreme_rays(normals, subsets)
    rays = _reference_rays(normals, subsets)
    return rays, above, below, clear, rays @ np.swapaxes(normals, -1, -2)


def _words(flags):
    """Side masks of bool flags (..., M) through np.packbits: (..., ceil(M/64)) uint64."""
    M = flags.shape[-1]
    padded = np.zeros(flags.shape[:-1] + (-(-M // 64) * 64,), dtype=bool)
    padded[..., :M] = flags
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _outside_words(m, k):
    """Side masks of the rows outside each k-subset of range(m), in _combos order, as int64 (C(m,k),), m <= 63."""
    return _words((_combos(m, k)[:, :, None] != np.arange(m)).all(axis=1))[:, 0].view(np.int64)


def _unwords(words, M):
    """Bool flags (..., M) of side masks (..., W) uint64 through np.unpackbits, the inverse of ``_words``."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :M].astype(bool)


def _mask_cases():
    """(dim, M, law) of the side-mask comparison: every M = dim..80 across one 64-bit word."""
    return [(dim, M, law) for dim in range(1, 7) for M in range(dim, 81) for law in ("iso", "pole4", "band", "scaled")]


def test_side_masks_match_the_count_oracle():
    # the pass's side masks and clear flags are the margins' sides and band
    # of the rows outside each subset, and the sign and hinge flag read off
    # them equal the count over the margins, at dims 1-6 and M = dim..80
    # rows, and so do the classes with random sides flipped, as the
    # samplers read them; the typical base, the side mask above the band,
    # equals the margins' signs outside the subset where the ray is clear.
    # The mask reader reads the rows outside each subset only, the count
    # every row, which only the scaled rows tell apart.  Rows are
    # isotropic, pole:4 (dims >= 2), isotropic with a quarter placed inside
    # or next to the band of one subset's ray (a random combination of the
    # subset's rows plus up to 2e-9 of noise), or isotropic times 2^30, so
    # that at dims >= 3 a subset's own margins, rounding noise times the
    # row norm, mostly leave the band: the masks must not hold them, and
    # the count reads the outside rows only.  Each case takes 8 cones and
    # up to 24 random (dim-1)-subsets, sorted, so that dim 6 at M = 80
    # stays small
    seen = np.zeros(3, dtype=int)  # hinged rays, rays with an outside row in the band, own margins beyond it
    for dim, M, law in _mask_cases():
        if law == "pole4" and dim == 1:
            continue
        rng = batch_rng(28, dim * 100 + M, len(law))
        if law == "pole4":
            normals = sample_vmf_mixture(rng, dim - 1, 4.0, 8 * M).reshape(8, M, dim)
        else:
            normals = mckernels._sample_unit(rng, (8, M, dim)) * (2.0**30 if law == "scaled" else 1.0)
        P = min(24, math.comb(M, dim - 1))
        subsets = np.sort(np.array([rng.choice(M, dim - 1, replace=False) for _ in range(P)], dtype=np.intp), axis=1)
        if law == "band":
            rows = rng.choice(M, M // 4, replace=False)
            own = subsets[0]
            rows = rows[~np.isin(rows, own)]
            noise = rng.uniform(-2e-9, 2e-9, (8, len(rows), 1)) * mckernels._sample_unit(rng, (8, len(rows), dim))
            normals[:, rows] = rng.standard_normal((8, len(rows), dim - 1)) @ normals[:, own] + noise
        outside = np.ones((P, M), dtype=bool)
        outside[np.arange(P)[:, None], subsets] = False
        rays, above, below, clear, margins = _pass(normals, subsets)
        own_margins = np.take_along_axis(margins, np.broadcast_to(subsets, (8,) + subsets.shape), axis=-1)
        assert above.shape == below.shape == (8, P, -(-M // 64)) and clear.shape == (8, P)
        assert np.array_equal(above, _words((margins > mckernels._TOL) & outside))
        assert np.array_equal(below, _words((margins < -mckernels._TOL) & outside))
        assert np.array_equal(clear, ~((np.abs(margins) <= mckernels._TOL) & outside).any(axis=-1))
        sign, hinged = mckernels._sign_classes(above, below, clear)
        if law == "scaled":
            margins = np.where(outside, margins, 0.0)
        want_sign, want_hinged = _count_sign_classes(margins, M - dim + 1)
        assert np.array_equal(sign, want_sign) and np.array_equal(hinged, want_hinged), (dim, M, law)
        # the flip: the classes of each cone with the rows off its sides negated
        signs = np.where(rng.random((8, M)) < 0.5, -1.0, 1.0)
        flipped = mckernels._sign_classes(above, below, clear, _words(signs > 0))
        want = _count_sign_classes(margins * signs[:, None, :], M - dim + 1)
        assert all(np.array_equal(a, b) for a, b in zip(flipped, want)), (dim, M, law)
        assert np.array_equal(above[clear], _words((margins > 0) & outside)[clear])
        seen += hinged.sum(), (~clear).sum(), (np.abs(own_margins) > mckernels._TOL).sum()
    assert seen.all()


# -- enumeration vs build_arrangement ----------------------------------------


def _full_sort_pick(margins, k, rng, n_cells, bad):
    """The pick before antipodal pairing, as an oracle: sort all C(m,k) 2^(k+1) masks, draw one distinct.

    Returns (chosen bitmask (B,), bad (B,)), with the same draw from ``rng``
    and the same band flag as ``_enumerate_and_pick``.
    """
    B, nC, m = margins.shape
    outside, offsets = _outside_words(m, k), mckernels._mask_offsets(m, k)
    weights = 1 << np.arange(m, dtype=np.int64)
    base = ((margins > 0) @ weights) & outside
    banded = ((np.abs(margins) <= mckernels._TOL) @ weights) & outside
    masks = np.empty((B, nC, 2, len(offsets[0])), dtype=np.int64)
    np.add(base[..., None], offsets, out=masks[:, :, 0])
    np.add((outside - base)[..., None], offsets, out=masks[:, :, 1])
    masks = masks.reshape(B, -1)
    masks.sort(axis=1)
    new = np.ones_like(masks, dtype=bool)
    new[:, 1:] = masks[:, 1:] != masks[:, :-1]
    bad = bad | (banded != 0).any(axis=1)
    assert np.all(new.sum(axis=1)[~bad] == n_cells)
    distinct = masks[new & ~bad[:, None]]
    chosen = np.zeros(B, dtype=np.int64)
    if (~bad).any():
        distinct = distinct.reshape(-1, n_cells)
        pick = rng.integers(0, n_cells, size=distinct.shape[0])
        chosen[~bad] = distinct[np.arange(distinct.shape[0]), pick]
    return chosen, bad


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
        _, above, _, clear, S = _pass(normals, combos)
        chosen, bad = _enumerate_and_pick(above, clear, m, k, local, n_cells, np.zeros(1, dtype=bool))
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
    # C(4, 2) = 14 cells: an odd count, and an even one on either side
    normals = np.random.default_rng(102).standard_normal((1, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    above, _, clear = _extreme_rays(normals, _combos(4, 2))
    for n_cells in (99, 12, 16):
        with pytest.raises(SampleAssertionError):
            _enumerate_and_pick(above, clear, 4, 2, batch_rng(0, 0, 0), n_cells, np.zeros(1, dtype=bool))


def _pick_cases():
    """(m, dim, law) of the pick comparison: law "iso", "k=d" or "k<d" (pole:4)."""
    cases = [(m, dim, "iso") for dim in (2, 3, 4, 5) for m in range(dim, 13)]
    cases += [(m, dim, law) for dim in (3, 4) for m in (dim + 2, dim + 4) for law in ("k=d", "k<d")]
    return cases + [(m, 2, "iso") for m in (32, 33, 40, 63)]


@pytest.mark.parametrize("m,dim,law", _pick_cases())
def test_pick_matches_full_sort(m, dim, law):
    # the pick over one mask per antipodal pair, read off the side masks,
    # takes the same cell as the full sort over the margins from the same
    # draw and flags the same draws; the classes read off the side masks on
    # the chosen mask, as the sampler reads them, are the counted sign
    # classes of the margins flipped to the cell's sides; m = 32 sorts
    # uint32 masks, m = 33 and 40 int64 ones, and m = 63 uses the top bit
    k, B = dim - 1, 256
    local = batch_rng(27, m * 8 + dim, len(law))
    if law == "iso":
        normals = mckernels._sample_unit(local, (B, m, dim))
        bad = local.random(B) < 0.1
    else:
        n, d = (m, k) if law == "k=d" else (m + 1, dim)
        normals, bad = mckernels._kappa_sampler(KappaFamily("pole_concentrated", 4.0), n, d, k)(local, B)
    _, above, below, clear, margins = _pass(normals, _combos(m, k))
    n_cells = int(cells_count(m, k))
    chosen, flagged = _enumerate_and_pick(above, clear, m, k, batch_rng(1, 2, 3), n_cells, bad)
    want, want_flagged = _full_sort_pick(margins, k, batch_rng(1, 2, 3), n_cells, bad)
    assert np.array_equal(flagged, want_flagged) and flagged[bad].all()
    assert np.array_equal(chosen, want)
    signs = np.where((chosen[:, None] >> np.arange(m)) & 1, 1.0, -1.0)
    classes, hinged = _count_sign_classes(margins * signs[:, None, :], m - k)
    sel, sel_hinged = mckernels._sign_classes(above, below, clear, chosen.view(np.uint64)[:, None])
    good = ~flagged
    assert not hinged[good].any() and not sel_hinged[good].any() and np.array_equal(sel[good], classes[good])
    assert (np.abs(sel[good]).sum(axis=1) >= dim).all()  # a pointed cell has at least k + 1 vertices


def _rejection_cells(margins, k, rng, draws):
    """The sign masks among ``draws`` uniform ones that are cells of the arrangement of ``margins`` (1, C(m,k), m).

    A uniform sign vector, redrawn until it is a cell, is a uniform cell: it
    is one iff the ray of some k-subset, of either sign, agrees with it off
    the subset, so its sides off the subset are the ray's or their opposites.
    """
    m = margins.shape[-1]
    outside = _outside_words(m, k)
    base = ((margins[0] > 0) @ (1 << np.arange(m, dtype=np.int64))) & outside
    signs = rng.integers(0, 1 << m, size=draws)
    sides = signs[:, None] & outside
    return signs[((sides == base) | (sides == outside - base)).any(axis=1)]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_pick_is_uniform_over_the_cells_rejection_reaches(dim):
    # on one fixed arrangement of m = dim + 2 normals, uniform sign vectors
    # redrawn until they are cells reach exactly the LP enumeration's cells,
    # and so do the picks, whose counts pass a chi-squared test against
    # uniform at the 1 - 1e-4 quantile (threshold and seeds fixed up front)
    m, k = dim + 2, dim - 1
    n_cells = int(cells_count(m, k))
    normals = mckernels._sample_unit(batch_rng(2027, dim, 0), (1, m, dim))
    _, above, _, clear, margins = _pass(normals, _combos(m, k))
    cells = lp_oracle.build_arrangement(normals[0], k)
    assert set(_rejection_cells(margins, k, batch_rng(2027, dim, 1), 64 << m).tolist()) == cells
    rng, reps = batch_rng(2027, dim, 2), 150 * n_cells
    chosen = []
    for lo in range(0, reps, mckernels.BATCH):
        nb = min(mckernels.BATCH, reps - lo)
        above_nb, clear_nb = np.repeat(above, nb, axis=0), np.repeat(clear, nb, axis=0)
        picked, bad = _enumerate_and_pick(above_nb, clear_nb, m, k, rng, n_cells, np.zeros(nb, dtype=bool))
        assert not bad.any()
        chosen.append(picked)
    keys, counts = np.unique(np.concatenate(chosen), return_counts=True)
    assert set(keys.tolist()) == cells
    expected = reps / n_cells
    assert np.sum((counts - expected) ** 2) / expected < chi2.ppf(1 - 1e-4, n_cells - 1)


def test_typical_cells_uniform_over_cells():
    # 4 great circles in general position cut S^2 into 8 triangles and 6
    # quadrilaterals; a uniform cell is a triangle with probability 8/14
    # and has 24/7 vertices on average, each within 4 standard errors
    B = 8192
    cells = sample_typical_cells(batch_rng(5, 1, 0), B, 4, 3)
    f0 = np.bincount(cells.cell, minlength=B)
    assert set(np.unique(f0)) <= {3, 4}
    p = 8 / 14
    se = math.sqrt(p * (1 - p) / B)  # f0 = 4 - [triangle], so both share it
    assert abs(np.mean(f0 == 3) - p) < 4 * se
    assert abs(f0.mean() - 24 / 7) < 4 * se


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "flavor,cutters,beta",
    [("typical", 0, 0.0), ("typical", 0, 4.0), ("typical", 1, 4.0), ("weighted", 0, 0.0), ("table", 0, 0.0)],
    ids=["iso", "kappa-k=d", "kappa-k<d", "weighted", "hinged-table"],
)
def test_cell_vertices_match_a_pass_on_the_cell_normals(dim, flavor, cutters, beta):
    # the samplers read a cell's vertices from the side masks of the drawn
    # normals flipped to the cell's sides; a fresh pass on the cell's own
    # (signed) normals must give the same vertex table bit for bit.  Every
    # table is grouped by cell, with strictly increasing subsets in a cell
    m, k = dim + 2, dim - 1
    local = batch_rng(7, dim, 0)
    if flavor == "table":
        # cone 0 has the vertex e_dim on dim of its rows: its class hinges, and the cone keeps no row
        normals, e = _random_signed(local, 256, m, dim)[0], np.eye(dim)
        normals[0] = np.vstack([e[:-1], e[0] + e[-2], e[-1] - e[:-1].sum(axis=0), e[-1]])
        cells = _vertex_table(normals)
    elif flavor == "weighted":
        cells = sample_weighted_cells(local, 256, m, dim)
    else:
        # the cells of (n, d, k) = (m + cutters, k + cutters, k)
        raw = mckernels._kappa_sampler(KappaFamily("pole_concentrated", beta), m + cutters, k + cutters, k)
        cells = sample_typical_cells(local, 256, m, dim, raw_sampler=raw)
    fresh = _vertex_table(cells.normals)
    assert all(np.array_equal(getattr(cells, f), getattr(fresh, f)) for f in ("cell", "subset", "rays"))
    assert np.array_equal(np.unique(cells.cell), np.arange(flavor == "table", 256))  # nothing else flagged
    same = np.diff(cells.cell) == 0
    assert (np.diff(cells.cell) >= 0).all() and (np.diff(cells.subset)[same] > 0).all()


def _table_cases():
    """(sampler, m, dim, law) of the table-ray comparison: law "iso", "k=d" or "k<d" (pole:4), or "redraw"."""
    cases = [(sampler, dim + 2, dim, "iso") for dim in range(2, 7) for sampler in ("typical", "weighted")]
    return cases + [("typical", 6, 4, "k=d"), ("typical", 6, 3, "k<d"), ("typical", 6, 3, "redraw"), ("weighted", 70, 2, "iso")]


@pytest.mark.parametrize("sampler,m,dim,law", _table_cases())
def test_table_rays_equal_the_reference_rays_bit_for_bit(monkeypatch, sampler, m, dim, law):
    # the table computes the ray of each vertex alone; it must equal the
    # reference ray of the drawn (raw) normals at (cell, subset) times the
    # class sign, bit for bit, and the table's normals the raw ones times
    # the signs that the cell's side mask unpacks to.  "redraw" flags a
    # quarter of the draws, so the batch is put together from several rounds
    calls = []
    table = mckernels._table

    def spy(normals, sides, sel, degenerate):
        calls.append((normals, sides, sel))
        return table(normals, sides, sel, degenerate)

    monkeypatch.setattr(mckernels, "_table", spy)
    rng, k = batch_rng(29, m * 8 + dim, len(law)), dim - 1
    if sampler == "weighted":
        cells = sample_weighted_cells(rng, 256, m, dim)
    else:
        raw = None
        if law == "redraw":
            raw = lambda rng, nb: (mckernels._sample_unit(rng, (nb, m, dim)), rng.random(nb) < 0.25)
        elif law != "iso":
            n, d = (m, k) if law == "k=d" else (m + 1, dim)
            raw = mckernels._kappa_sampler(KappaFamily("pole_concentrated", 4.0), n, d, k)
        cells = sample_typical_cells(rng, 256, m, dim, raw_sampler=raw)
    ((normals, sides, sel),) = calls
    assert sides.dtype == np.uint64 and sides.shape == (256, -(-m // 64))
    signs = np.where(_unwords(sides, m), 1.0, -1.0)
    assert law != "redraw" or cells.degenerate > 0
    want = _reference_rays(normals, _combos(m, k))[cells.cell, cells.subset] * sel[cells.cell, cells.subset, None]
    assert cells.rays.dtype == np.float64 and cells.rays.flags.c_contiguous
    assert np.array_equal(cells.rays.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(cells.normals.view(np.uint64), (normals * signs[..., None]).view(np.uint64))
    assert np.array_equal(np.flatnonzero(sel), cells.cell * math.comb(m, k) + cells.subset)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_table_without_vertices_has_empty_rays(dim):
    m = dim + 2
    normals = mckernels._sample_unit(batch_rng(29, dim, 9), (4, m, dim))
    sides = _words(np.ones((4, m), dtype=bool))
    cells = mckernels._table(normals, sides, np.zeros((4, math.comb(m, dim - 1)), dtype=np.int8), 0)
    assert cells.rays.shape == (0, dim) and cells.rays.dtype == np.float64
    assert cells.cell.size == cells.subset.size == 0


def test_a_vertex_on_dependent_rows_raises():
    # rows 0 and 1 of cone 1 are equal, so the ray of its subset (0, 1) is
    # null: the table raises on it as a vertex, which no reader of the
    # pass selects, and builds once only cone 0 selects the subset
    normals = mckernels._sample_unit(batch_rng(29, 3, 10), (2, 4, 3))
    normals[1, 1] = normals[1, 0]
    sel = np.zeros((2, 6), dtype=np.int8)
    sel[:, 0] = 1  # subset (0, 1)
    sides = _words(np.ones((2, 4), dtype=bool))
    with pytest.raises(SampleAssertionError, match="dependent"):
        mckernels._table(normals, sides, sel, 0)
    sel[1, 0] = 0
    assert mckernels._table(normals, sides, sel, 0).cell.tolist() == [0]


@pytest.mark.parametrize("sampler", ["typical", "weighted"])
def test_a_draw_with_a_null_ray_is_redrawn_through_its_hinged_class(monkeypatch, sampler):
    # every draw of the first round has rows 0 and 1 equal, so the ray of
    # subset (0, 1) is null; the samplers test no null flag, yet its unit
    # rows put all its margins within the band, so its class hinges on the
    # cell's side mask, and each such draw is redrawn before ``_table``,
    # which raises on a vertex with dependent rows, sees it
    B, m, dim = 16, 5, 3
    first, hinged = [], []
    sample_unit, sign_classes = mckernels._sample_unit, mckernels._sign_classes

    def equal_rows(rng, shape):
        normals = sample_unit(rng, shape)
        if len(shape) == 3 and not first:
            normals[:, 1] = normals[:, 0]
            first.append(shape[0])
        return normals

    def spy(above, below, clear, sides=None):
        out = sign_classes(above, below, clear, sides)
        hinged.append(out[1][:, 0])  # subset (0, 1)
        return out

    monkeypatch.setattr(mckernels, "_sign_classes", spy)
    rng = batch_rng(30, dim, len(sampler))
    if sampler == "typical":
        raw = lambda rng, nb: (equal_rows(rng, (nb, m, dim)), np.zeros(nb, dtype=bool))
        cells = sample_typical_cells(rng, B, m, dim, raw_sampler=raw)
    else:
        monkeypatch.setattr(mckernels, "_sample_unit", equal_rows)
        cells = sample_weighted_cells(rng, B, m, dim)
    assert first == [B] and hinged[0].all() and cells.degenerate == B
    assert np.unique(cells.cell).tolist() == list(range(B))
    assert (np.abs(np.einsum("bd,bd->b", cells.normals[:, 0], cells.normals[:, 1])) < 1 - 1e-6).all()


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("form", ["stacked", "frame"])
def test_a_dependent_subset_reaches_meets_and_the_vertex_table_through_its_hinge(form, dim):
    # every third cone gets two equal rows, so the ray of a subset holding
    # both is null; the readers test no null flag, yet its rows, of norm
    # well below 1e3, put all its outside margins within the band, so its
    # class hinges: ``_meets`` flags the cone as grazing and ``_vertex_table``
    # keeps no row for it, and the other cones read as before.  The rows are
    # stacked unit normals of two cones, as isect stacks them, or unit
    # normals times a Gaussian frame scaled by 10, as ``_hit_fraction`` forms
    # them, in R^dim
    rng, B = batch_rng(34, dim, len(form)), 48
    if form == "stacked":
        n = dim + 1
        R = mckernels._sample_unit(rng, (B, 1, 2 * n, dim))
        first, second = 0, n  # row 0 of each cone
    else:
        frames = 10 * rng.standard_normal((B, 3, dim + 1, dim))
        R = mckernels._sample_unit(rng, (B, 1, dim + 3, dim + 1)) @ frames
        first, second = 0, 1
    M = R.shape[-2]
    dependent = np.zeros(R.shape[:2], dtype=bool)
    dependent[::3] = True
    equal = R.copy()
    equal[dependent, second] = equal[dependent, first]
    subset = np.array([[first, second, *range(second + 1, second + dim - 2)]])
    assert (norm(_reference_rays(equal[dependent], subset), axis=-1) < 1e-12).all()
    assert np.linalg.norm(equal, axis=-1).max() < 1e3
    hit, near = mckernels._meets(R)
    hit_equal, near_equal = mckernels._meets(equal)
    assert near_equal[dependent].all()
    assert np.array_equal(hit_equal[~dependent], hit[~dependent])
    assert np.array_equal(near_equal[~dependent], near[~dependent])
    cells = _vertex_table(equal.reshape(-1, M, dim))
    fresh = _vertex_table(R.reshape(-1, M, dim))
    assert not np.isin(cells.cell, np.flatnonzero(dependent)).any()
    keep = ~np.isin(fresh.cell, np.flatnonzero(dependent))
    assert keep.any()
    assert all(np.array_equal(getattr(cells, f), getattr(fresh, f)[keep]) for f in ("cell", "subset", "rays"))


# -- vertex machinery ---------------------------------------------------------


def test_vertices_match_cell_f_vector():
    rng = np.random.default_rng(103)
    for m, k in [(4, 2), (6, 2), (5, 3), (7, 3), (4, 1), (7, 4)]:
        cells = _cell_batch(rng, 6, m, k + 1)
        got = [fvec_values(cells, l) for l in range(k)]
        for b in range(cells.B):
            fv = lp_oracle.cell_f_vector(cells.normals[b], max(k - 1, 0))
            assert np.count_nonzero(cells.cell == b) == fv[0], (m, k, b)
            assert [g[b] for g in got] == fv, (m, k, b)


def test_fvec_euler_assertion_enforced():
    rng = np.random.default_rng(104)
    for m, dim in ((5, 3), (6, 4), (7, 5)):
        cells = _cell_batch(rng, 64, m, dim)
        fvec_values(cells, 0)  # must not raise on valid cells
        # a cell that lost one of its f_0 > k vertices keeps every face
        # above it and passes the f_0 >= k check, but breaks Euler
        drop = np.searchsorted(cells.cell, np.flatnonzero(np.bincount(cells.cell) > dim - 1)[0])  # its first row
        table = (np.delete(a, drop, axis=0) for a in (cells.cell, cells.subset, cells.rays))
        cells = CellBatch(cells.normals, *table)
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
    # at one point per cell the fraction is its membership; the point is
    # drawn again from the same stream
    cells = _cell_batch(np.random.default_rng(110), 50, 5, 3)
    member = polar_fractions(cells, batch_rng(3, 9, 0), 1)
    x = mckernels._sample_unit(batch_rng(3, 9, 0), (cells.B, 1, 3))
    for b in range(cells.B):
        lp_member = lp_oracle.polar_support_margin(cells.normals[b], x[b, 0]) <= 1e-9
        assert member[b] == lp_member, b


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
        polar = np.einsum("vd,vd->v", cells.rays, (g - x)[cells.cell])
        assert np.all(polar <= tol[cells.cell]), (m, dim)


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
    shapes = ((2, 3, 5), (3, 4, 4), (4, 4, 4), (5, 5, 5), (3, 3, 6), (4, 7, 4), (5, 5, 8), (6, 7, 6))
    for dim, ma, mb in shapes:
        a, _ = _random_signed(rng, 60, ma, dim)
        b, _ = _random_signed(rng, 60, mb, dim)
        hit, near = cones_intersect_batch(a, b)
        for i in range(60):
            if near[i]:
                continue
            assert bool(hit[i]) == lp_oracle.cones_intersect(a[i], b[i]), (dim, ma, mb, i)


@pytest.mark.parametrize("dim,n,m", [(2, 3, 6), (3, 7, 4), (4, 5, 8), (4, 12, 12), (5, 6, 9), (6, 8, 7)])
@pytest.mark.parametrize("flavor", ["typical", "weighted"])
def test_cells_intersect_matches_the_stacked_enumeration(dim, n, m, flavor):
    # the vertex certificates decide as _meets on the stacked rows does
    # wherever that is not near, and flag near only where it does
    rng = np.random.default_rng(117 + dim)
    sample = sample_typical_cells if flavor == "typical" else sample_weighted_cells
    ca, cb = sample(rng, 256, n, dim), sample(rng, 256, m, dim)
    hit, near = mckernels.cells_intersect(ca, cb)
    ref_hit, ref_near = mckernels._meets(np.concatenate([ca.normals, cb.normals], axis=1))
    assert not (near & ~ref_near).any()
    assert np.array_equal(hit[~ref_near], ref_hit[~ref_near])
    assert 0 < hit.sum() < hit.size  # both answers occur


def test_a_cone_without_vertices_certifies_nothing():
    # a wedge {x : x_1 >= 0, x_2 >= 0} in R^3 holds the x_3 axis and has no
    # vertex; a miss certified over its (empty) vertex set would be vacuous
    rng = np.random.default_rng(118)
    a = np.broadcast_to(np.eye(3)[:2], (60, 2, 3)).copy()
    b, _ = _random_signed(rng, 60, 4, 3)
    hit, near = cones_intersect_batch(a, b)
    assert not near.any()
    assert [bool(h) for h in hit] == [lp_oracle.cones_intersect(a[i], b[i]) for i in range(60)]


def test_a_cone_with_a_hinged_vertex_certifies_nothing():
    # x_3 is a vertex of A on three of its rows, so its class hinges and the
    # pass lists only A's other two vertices; B holds x_3 inside, but has a
    # facet with both listed vertices beyond, which would certify a miss
    a = np.array([[[1.0, 0, 0], [0, 1, 0], [1, 1, 0], [-1, -1, 1]]])
    b = np.array([[[-1.0, -1, 0.5], [1, -2, 1], [-2, 1, 1]]])
    assert not _vertex_table(a).cell.size
    hit, near = cones_intersect_batch(a, b)
    assert lp_oracle.cones_intersect(a[0], b[0])
    assert near[0] or hit[0]


def test_certificates_leave_few_pairs_to_the_enumeration(monkeypatch):
    # at 12 + 12 normals in R^4 the vertices decide nearly every pair, and
    # only the rest reach the stacked-row enumeration
    rows = []
    meets = mckernels._meets

    def counted(R):
        rows.append(R.shape[0])
        return meets(R)

    monkeypatch.setattr(mckernels, "_meets", counted)
    rng = np.random.default_rng(119)
    for sample in (sample_typical_cells, sample_weighted_cells):
        ca, cb = sample(rng, 1024, 12, 4), sample(rng, 1024, 12, 4)
        rows.clear()
        mckernels.cells_intersect(ca, cb)
        assert sum(rows) < 0.1 * 1024, sample.__name__
        rows.clear()
        cones_intersect_batch(ca.normals, cb.normals)
        assert sum(rows) < 0.1 * 1024, sample.__name__


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
    # a row shared by two generic cones: its stacked subsets are dependent
    # for dim >= 3, but a vertex certificate may decide the pair without
    # them; either way the test flags the pair or decides it as the LP
    a, b = local.standard_normal((2, 1, dim + m_other, dim))
    b[0, 0] = a[0, 0]
    hit, near = cones_intersect_batch(a, b)
    assert near[0] or bool(hit[0]) == lp_oracle.cones_intersect(a[0], b[0])


@pytest.mark.parametrize("seed", range(8))
def test_touching_cones_are_never_certified(seed):
    # the shared ray is a vertex of both on the other's boundary: no vertex
    # lies strictly inside, and no facet has the other cone strictly beyond
    local = np.random.default_rng(seed)
    for dim in (2, 3, 4, 5):
        for m_other in (1, 2, 3):
            a, b = _touching_cones(local, dim, m_other)
            ta, tb = _vertex_table(a[None]), _vertex_table(b[None])
            for x, y in ((ta, tb), (tb, ta)):
                hit, miss = mckernels._certificates(x, y)
                assert not hit[0] and not miss[0], (dim, m_other)
            assert mckernels.cells_intersect(ta, tb)[1][0]


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
    _assert_share(solid_fractions(cells.normals, local, S), vec[:, dim], S, "v_dim")
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
    #
    # Every typical expectation of a k-face, k = dim - 1, is a ratio of
    # counts, so its numerator is this sum over the C(m, k) cells, under
    # any directional law: each row of a typical query, summed over the
    # cells, is C(m, k) times its exact value at n = m, d = k.  The hk row is
    # the skeleton identity H^k(skel_k) = binom(m, 0) omega_{k+1}.  At dim 4
    # the rows that read v_4 are sampled, so only dims 2-3 check them.
    k = dim - 1
    rng = np.random.default_rng(118 + dim)
    for m in [dim + 3] if dim == 4 else range(dim + 1, dim + 6):
        if beta is None:
            normals = rng.standard_normal((m, dim))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        else:
            normals = sample_vmf_mixture(rng, dim - 1, beta, m)
        masks = sorted(lp_oracle.build_arrangement(normals, k))
        count = int(cells_count(m, k))
        assert len(masks) == count
        cells = _vertex_table(np.stack([lp_oracle.signed_rows(normals, mask) for mask in masks]))
        assert np.bincount(cells.cell, minlength=len(masks)).all()  # nothing flagged
        local = batch_rng(45, m, dim)
        sums = ivol_vector(cells, local, 64).sum(axis=0)
        want = [math.comb(m - 1, dim - 1)] + [math.comb(m, dim - j) for j in range(1, dim + 1)]
        if dim == 4:
            sums, want = [sums[0] + sums[4]] + list(sums[1:4]), [want[0] + want[4]] + want[1:4]
        assert np.allclose(sums, want, rtol=0, atol=1e-12), np.subtract(sums, want)
        if dim == 4:
            continue
        for quantity in ("f", "U", "v", "vminus1", "statdim", "hk"):
            for l in l_values(quantity, k) if QUANTITIES[quantity] else [None]:
                if quantity == "f":
                    total = fvec_values(cells, l).sum()
                else:
                    total = ivol_values(cells, local, 64, mckernels._ivol_row(quantity, l, dim)).sum()
                exact = float(evaluate_query(ExpectationQuery(quantity, "typical", m, k, k, l)))
                assert math.isclose(total, count * exact, rel_tol=1e-12), (m, quantity, l, total, count * exact)


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
        # cell 0's first vertex again, under its first spare subset s, which
        # keeps the order at row s, since subsets 0..s-1 are its rows before
        own = cells.subset[cells.cell == 0]
        s = min(set(range(len(own) + 1)) - set(own.tolist()))
        cell, subset, rays = (np.insert(a, s, a[0], axis=0) for a in (cells.cell, cells.subset, cells.rays))
        subset[s] = s
        cells = CellBatch(cells.normals, cell, subset, rays)
        with pytest.raises(SampleAssertionError):
            ivol_vector(cells, batch_rng(0, 1, 0), 8)


# -- solid fractions -----------------------------------------------------------


def test_solid_fraction_octant():
    B = 512
    frac = solid_fractions(np.broadcast_to(np.eye(3), (B, 3, 3)), batch_rng(0, 5, 0), 64)
    assert abs(frac.mean() - 0.125) < 4 * 0.33 / math.sqrt(B * 64)


@pytest.mark.parametrize("dim, m", [(dim, m) for dim in (3, 4, 5) for m in (4, 6, 8, 12) if m >= dim])
def test_solid_fractions_equal_the_einsum_reference(dim, m):
    # the matmul's sign tests, reduced over the rows, give the fractions of
    # the einsum over the trailing rows axis exactly, on the same points:
    # one batch at the estimators' 16 points and a few cones at 20000
    for B, pts in ((256, 16), (3, 20000)):
        normals = sample_typical_cells(batch_rng(31, dim * 100 + m, pts), B, m, dim).normals
        x = mckernels._sample_unit(batch_rng(32, dim * 100 + m, pts), (B, pts, dim))
        reference = (np.einsum("bpd,bmd->bpm", x, normals) > 0).all(axis=2).mean(axis=1)
        frac = solid_fractions(normals, batch_rng(32, dim * 100 + m, pts), pts)
        np.testing.assert_array_equal(frac, reference)
        assert frac.any()


# -- short-axis norms ----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_norm_equals_numpy_bit_for_bit(n):
    # the component sum equals np.linalg.norm on contiguous input, on the
    # strided views the kernels pass (a transposed or sliced last axis) and
    # along the leading axis of components-first arrays (``_unit_rays``);
    # numpy sums a contiguous axis of 8 or more components pairwise, so
    # there the two differ by rounding only
    base = batch_rng(33, n, 0).standard_normal((n, 96, 5))
    views = [base.transpose(1, 2, 0), base.transpose(1, 2, 0)[::3, 1:], np.ascontiguousarray(base.transpose(1, 2, 0))]
    for x in views:
        expect = np.linalg.norm(x, axis=-1, keepdims=True)
        if n < 8 or not x.flags.c_contiguous:
            np.testing.assert_array_equal(norm(x, keepdims=True), expect)
            np.testing.assert_array_equal(norm(x), expect[..., 0])
        else:
            np.testing.assert_allclose(norm(x, keepdims=True), expect, rtol=4e-16)
    np.testing.assert_array_equal(norm(base, axis=0), np.linalg.norm(base, axis=0))


def test_weighted_cells_match_slow_sampler_distribution():
    # mean f0 of weighted cells at (4,2,2) ~ 6 - 24/pi^2
    cells = sample_weighted_cells(batch_rng(123, 6, 0), 8192, 4, 3)
    f0 = np.bincount(cells.cell, minlength=cells.B)
    mean = f0.mean()
    exact = 6 - 24 / math.pi**2
    se = f0.std() / math.sqrt(cells.B)
    assert abs(mean - exact) < 4 * se
