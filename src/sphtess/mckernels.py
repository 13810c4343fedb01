"""Vectorized Monte Carlo kernels behind :mod:`sphtess.simulate`.

These kernels only draw and reduce, to estimates that :mod:`sphtess.simulate`
judges.  They decide every geometric predicate of the estimators in closed
form, vectorized over replication batches:

* cells are enumerated through vertex incidences: in general position with
  m >= k+1 normals every cell of the central arrangement in R^{k+1} is a
  pointed cone whose extreme rays are the +-nullspace directions of the
  k-subsets, and each of the 2^k local sign resolutions around a ray belongs
  to exactly one cell; a subset's nullspace direction is one generalized
  cross product at every dim, its minors grown by Laplace expansion one
  row at a time (``_nullspace_rays``);
* every cone question goes through one primitive: each (j-1)-subset of
  the rows of {y in R^j : R y >= 0} spans a candidate ray, which is an
  extreme ray iff every other margin lies beyond the tolerance band on one
  side, and a pointed cone with generic rows is nontrivial iff it has an
  extreme ray (Cover & Efron 1967).  Both samplers make one pass over each
  drawn arrangement: the typical cell is picked from the enumeration masks
  of its margins, and either cell's vertices are the sign classes of the
  margins flipped to the cell's sides.  Every "does this cone meet ..."
  question is one predicate on top of it (``_meets``): a cone meets a
  uniform j-dim subspace, the span of a standard Gaussian (dim, j) frame,
  iff the normals restricted to the frame leave an extreme ray; two cones
  intersect iff their stacked normals do.  A ray whose class hinges on
  margins within the band is grazing: the samplers and the intersection
  test redraw that replication and count the redraw, as they do a
  pole-concentrated draw with nearly dependent cutters, all through one
  loop (``_redraw``) of at most MAX_REDRAW_ROUNDS rounds, past which it
  raises DegenerateInput;
* both per-cell functionals read faces from one table: cells are simple,
  so the face on r facets, keyed by (cell, r-subset of the normals), holds
  the vertices whose facet sets contain the subset (``_faces``).  f_l
  counts the distinct keys at r = k - l (``fvec_values``);
* U, v, v_{-1}, statdim and H^k are rows of coefficients applied to each
  cell's conic intrinsic volumes (v_0, ..., v_dim), one functional
  (``ivol_values``) at every dim.  At dim <= 4
  (IVOL_MAX_DIM) the row multiplies ``ivol_vector``: each j-face, j = 1, 2,
  adds the share of its span that the cone of its vertex rays covers
  times that of the cone of its facet normals (``_cone_angle``), the
  Gauss-Bonnet relations give the rest, and v_4 is the only sampled entry;
* at dim >= 5 the row is rewritten onto the Quermass integrals through
  v_j = U_{j-1} - U_{j+1}, and each U_l it needs is half a subspace-hit
  fraction (nested hits from one Gaussian frame) or, for U_{dim-1} = v_dim,
  the solid fraction.

The sampled routes the row replaces stay as test references: polar
membership (a dot-product test against the cell's extreme rays) for
v_{-1}, separate and paired subspace hits for U and v, and cone
projections for statdim, where the nearest point of a cone to g is the
feasible point nearest to g among the apex and the projections of g onto
the spans of the candidate faces (every active set of fewer than dim
constraints), each a small Gram solve vectorized over the batch.

Every kernel is equivalence-tested against an independent LP route that
lives with the tests (``tests/lp_oracle.py``) or against the sampled
functionals, and the per-sample structural assertions (cell count = C(m,k),
Euler relation, j vertices per j-face and the Gauss-Bonnet bounds, and
Moreau orthogonality in the projections) are enforced on every replication.

Determinism: every estimate runs its batches in order in one thread; batch
j of a (seed, stream) pair draws from an independently keyed Philox
generator, and partial sums are reduced in batch order, so results are
bit-identical from (seed, reps, config).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .combinat import cells_count
from .exactnum import sp_eval, sphere_surface
from .geom import DegenerateInput, KappaFamily, sample_vmf_mixture
from .simulate import MCEstimate

BATCH = 1024
_TOL = 1e-9
# Redraw rounds for a batch's degenerate replications before giving up.
# Generic draws graze rarely (the acceptance gates allow one redraw per
# thousand replications), so only a distribution that grazes on nearly
# every draw, such as beta far beyond KappaFamily's usable range, reaches it.
MAX_REDRAW_ROUNDS = 64


class SampleAssertionError(AssertionError):
    """A hard per-sample structural assertion failed (not a statistical event)."""


# ---------------------------------------------------------------------------
# Deterministic substreams.
# ---------------------------------------------------------------------------


def stream_id(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode())


def batch_rng(seed: int, stream: int, batch_index: int) -> np.random.Generator:
    key = (int(seed) & (2**64 - 1)) | (int(stream) << 64)
    bg = np.random.Philox(key=key)
    bg.advance(batch_index << 40)
    return np.random.Generator(bg)


@dataclass
class BatchSums:
    """Count, mean and sum of squared deviations (M2) of one batch's values.

    Partial results are merged pairwise (Chan, Golub & LeVeque 1983), which
    keeps the variance accurate when the mean is large against the spread,
    where ``sum(x^2) - n*mean^2`` cancels.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    degenerate: int = 0

    def add_values(self, values: np.ndarray, degenerate: int = 0) -> None:
        mean = float(np.mean(values)) if values.size else 0.0
        m2 = float(np.sum((values - mean) ** 2))
        self.merge(BatchSums(values.size, mean, m2, degenerate))

    def merge(self, other: "BatchSums") -> None:
        n = self.count + other.count
        if n:
            delta = other.mean - self.mean
            self.mean += delta * other.count / n
            self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.count = n
        self.degenerate += other.degenerate


def finalize(sums: Sequence[BatchSums], seed: int) -> MCEstimate:
    total = BatchSums()
    for s in sums:  # fixed batch order: bit-stable reduction
        total.merge(s)
    count = total.count
    var = total.m2 / max(count - 1, 1)
    return MCEstimate(
        mean=total.mean,
        stderr=math.sqrt(var / count),
        reps=count,
        degenerate_redraws=total.degenerate,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Nullspace rays and cell enumeration.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _combos(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m) in lexicographic order: read-only (C(m,r), r)."""
    out = np.array(list(itertools.combinations(range(m), r)), dtype=np.intp).reshape(math.comb(m, r), r)
    out.flags.writeable = False
    return out


def _nullspace_rays(rows: np.ndarray) -> np.ndarray:
    """Nullspace direction of dim-1 row vectors in R^dim, batched, any dim >= 1.

    Components first, so that every product runs over contiguous memory:
    rows (dim-1, dim, ...) -> (dim, ...), unnormalized.

    A generalized cross product: up to one sign for all components,
    component i is (-1)^i times the minor of the rows without column i.
    The minors of rows 0..r over each set of r+1 columns come from those of
    rows 0..r-1 by Laplace expansion along row r (``_expand``), starting
    from the empty minor; the expansion along the last row carries the signs.
    """
    dim = rows.shape[1]
    if dim == 1:
        return np.ones((1,) + rows.shape[2:])  # the empty subset spans R^1
    minors = {(): None}
    for r in range(dim - 2):
        minors = {cols: _expand(rows[r], cols, minors) for cols in itertools.combinations(range(dim), r + 1)}
    rest = [tuple(c for c in range(dim) if c != i) for i in range(dim)]
    return np.stack([_expand(rows[dim - 2], cols, minors, i % 2 == 0) for i, cols in enumerate(rest)])


def _expand(row: np.ndarray, cols: tuple, minors: dict, negate: bool = False) -> np.ndarray:
    """The minor over ``cols`` by Laplace expansion along ``row``, or its negative.

    ``minors`` maps every len(cols)-1 of the columns to the minor of the
    rows above (None: the empty minor, 1).  The sum row[c_0] m_0 - row[c_1] m_1
    + ... runs left to right; its negative starts row[c_1] m_1 - row[c_0] m_0,
    which rounds exactly as the negated sum, so a sign costs an array pass
    only for a single column.  With two or more columns every term is a
    fresh product, so the sum runs in place.
    """
    acc = None
    for t, c in enumerate(cols):
        minor = minors[cols[:t] + cols[t + 1 :]]
        term = row[c] if minor is None else row[c] * minor
        if t == 0:
            acc = term
        elif t == 1 and negate:
            term -= acc
            acc = term
        elif (t % 2 == 0) != negate:
            acc += term
        else:
            acc -= term
    return -acc if negate and len(cols) == 1 else acc


def _extreme_rays(R: np.ndarray, subsets: np.ndarray):
    """Candidate extreme rays of the cones {y in R^j : R y >= 0}, batched.

    R: (..., M, j) rows; subsets: (P, j-1) row indices, each spanning a line.
    Returns per subset

    * ``rays`` (..., P, j): the unit direction of the line;
    * ``margins`` (..., P, M): ray . row for every row;
    * ``null`` (..., P): the subset's rows are dependent.

    ``_sign_classes`` reads which of +-ray is an extreme ray from the margins.
    """
    comps = np.ascontiguousarray(np.moveaxis(R, (-2, -1), (0, 1)))  # (M, j, ...)
    rays = _nullspace_rays(np.moveaxis(comps[subsets.T], 2, 1))  # (j, P, ...)
    norms = np.sqrt(sum(r * r for r in rays))
    null = norms < 1e-12
    rays /= np.where(null, 1.0, norms)
    rays = np.ascontiguousarray(np.moveaxis(rays, (0, 1), (-1, -2)))
    return rays, rays @ np.swapaxes(R, -1, -2), np.moveaxis(null, 0, -1)


def _sign_classes(margins: np.ndarray, others: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sign class and hinge flag of each candidate ray from its margins (..., P, M).

    Returns ``sign`` (..., P) int8: +1 (-1) when all ``others`` margins of
    the rows outside the subset lie above _TOL (below -_TOL), so that +ray
    (-ray) is an extreme ray, else 0; and ``hinged`` (..., P): the class
    hinges on margins within _TOL.  A subset's own margins vanish, so the
    count needs no mask.  Negation is exact, so margins flipped per row give
    the classes of the cone with those rows negated, bit for bit.
    """
    # einsum sums the short last axis several times faster than count_nonzero
    pos = np.einsum("...m->...", margins > _TOL, dtype=np.intp)
    neg = np.einsum("...m->...", margins < -_TOL, dtype=np.intp)
    sign = ((pos == others) & (neg == 0)).astype(np.int8) - ((neg == others) & (pos == 0))
    return sign, (pos + neg < others) & ((pos == 0) | (neg == 0))


_CHUNK = 1 << 20  # margins per block of subsets


def _meets(R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Whether the cones {y in R^j : R y >= 0} hold more than the origin, batched.

    R: (..., M, j) rows.  Returns (nontrivial (...), grazing (...)): a cone
    is nontrivial iff some (j-1)-subset of its rows spans an extreme ray,
    and grazing iff some subset's rows are dependent or its sign class
    hinges on margins within the band.  The subsets go to ``_extreme_rays``
    in blocks of about _CHUNK margins.
    """
    M, j = R.shape[-2:]
    subsets = _combos(M, j - 1)
    nontrivial = np.zeros(R.shape[:-2], dtype=bool)
    grazing = np.zeros(R.shape[:-2], dtype=bool)
    step = max(1, _CHUNK // R[..., 0].size)
    for lo in range(0, len(subsets), step):
        rays, margins, null = _extreme_rays(R, subsets[lo : lo + step])
        sign, hinged = _sign_classes(margins, M - j + 1)
        del rays, margins  # freed before the next block
        nontrivial |= (sign != 0).any(axis=-1)
        grazing |= (null | hinged).any(axis=-1)
    return nontrivial, grazing


def _sample_unit(rng: np.random.Generator, shape) -> np.ndarray:
    g = rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


@dataclass
class CellBatch:
    """A batch of sampled cells in reduced coordinates.

    ``normals``: (B, m, dim) sign-adjusted so each cell is {x: n_i.x >= 0};
    ``vert_sel``: (B, nC) in {-1, 0, +1} selecting which of +-ray_c is a
    vertex of the cell (0: not incident); ``rays``: (B, nC, dim) unit rays
    of the (dim-1)-subsets ``combos`` (nC, dim-1) of the normals.
    """

    normals: np.ndarray
    rays: np.ndarray
    vert_sel: np.ndarray
    combos: np.ndarray
    degenerate: int = 0

    @property
    def B(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[2]

    def vertices_masked(self) -> Tuple[np.ndarray, np.ndarray]:
        """(B, nC, dim) signed vertices with a (B, nC) validity mask."""
        return self.rays * self.vert_sel[..., None], self.vert_sel != 0


def _redraw(B: int, draw):
    """B replications of ``draw``, redrawing the ones it flags.

    ``draw(nb)`` returns (arrays with nb leading rows, a bad mask (nb,), the
    redraws counted inside it).  The flagged replications are drawn again,
    for at most MAX_REDRAW_ROUNDS rounds in all, past which DegenerateInput
    is raised.  Returns (the arrays with B leading rows, the redraws: every
    flagged replication plus those counted inside ``draw``).
    """
    out = None
    redraws = 0
    pending = np.arange(B)
    for _ in range(MAX_REDRAW_ROUNDS):
        if not pending.size:
            break
        arrays, bad, inner = draw(pending.size)
        if out is None:
            out = [np.empty((B,) + a.shape[1:], dtype=a.dtype) for a in arrays]
        good = ~bad
        for o, a in zip(out, arrays):
            o[pending[good]] = a[good]
        redraws += inner + int(bad.sum())
        pending = pending[bad]
    if pending.size:
        raise DegenerateInput(
            f"{pending.size} replications still degenerate after {MAX_REDRAW_ROUNDS} redraw rounds"
        )
    return out, redraws


def _sample_cells(rng: np.random.Generator, B: int, m: int, dim: int, pick, raw_sampler=None) -> CellBatch:
    """B cells of arrangements of m normals in R^dim, one per arrangement.

    Each draw takes m unit normals, isotropic or ``raw_sampler(rng, nb)``'s
    (normals, mask of draws to redraw), and one extreme-ray pass.
    ``pick(normals, margins, bad)`` returns the side (+-1) of each normal the
    chosen cell lies on (nb, m) and the draws to redraw; the vertices are
    the sign classes of the margins flipped to those sides.  Flagged draws,
    and those with a null ray or a hinged class, are redrawn.
    """
    if m < dim:
        raise ValueError("batched kernels require m >= k+1 (pointed cells)")
    combos = _combos(m, dim - 1)

    def draw(nb):
        if raw_sampler is None:
            normals, bad = _sample_unit(rng, (nb, m, dim)), np.zeros(nb, dtype=bool)
        else:
            normals, bad = raw_sampler(rng, nb)
        rays, margins, null = _extreme_rays(normals, combos)
        signs, bad = pick(normals, margins, bad)
        margins *= signs[:, None, :]
        sel, hinged = _sign_classes(margins, m - dim + 1)
        return (normals * signs[..., None], rays, sel), bad | (null | hinged).any(axis=1), 0

    (normals, rays, sel), redraws = _redraw(B, draw)
    return CellBatch(normals, rays, sel, combos, redraws)


def sample_weighted_cells(rng: np.random.Generator, B: int, m: int, dim: int) -> CellBatch:
    """Weighted typical cells: the cell of a uniform witness point."""

    def pick(normals, margins, bad):
        dots = np.einsum("bmd,bd->bm", normals, _sample_unit(rng, (len(normals), dim)))
        return np.sign(dots), bad | (np.abs(dots) <= _TOL).any(axis=1)

    return _sample_cells(rng, B, m, dim, pick)


@lru_cache(maxsize=None)
def _mask_offsets(m: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sign-mask pieces of the cells around each k-subset's ray, read-only.

    Returns the bitmask of the rows outside each subset (nC,) and, for each
    of the 2^k local sign resolutions of the subset's own rows, the bits of
    its rows on the positive side (nC, 2^k).
    """
    bits = 1 << _combos(m, k).astype(np.int64)
    resolutions = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    outside, offsets = (1 << m) - 1 - bits.sum(axis=1), bits @ resolutions.T
    outside.flags.writeable = offsets.flags.writeable = False
    return outside, offsets


def _enumerate_and_pick(
    margins: np.ndarray, k: int, rng: np.random.Generator, n_cells: int, bad: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate all cells through vertex incidences and pick one uniformly.

    ``margins`` (B, C(m,k), m): the k-subsets' rays against the m normals.
    ``bad`` flags draws known to be degenerate, to which any draw with an
    outside margin within the band is added.  Returns (chosen bitmask (B,),
    bad (B,)); asserts the per-sample count on the rest.
    """
    B, nC, m = margins.shape
    outside, offsets = _mask_offsets(m, k)
    weights = 1 << np.arange(m, dtype=np.int64)
    # sides of the rows outside each subset, and any of them within the band
    base = ((margins > 0) @ weights) & outside
    banded = ((np.abs(margins) <= _TOL) @ weights) & outside
    masks = np.empty((B, nC, 2, len(offsets[0])), dtype=np.int64)
    np.add(base[..., None], offsets, out=masks[:, :, 0])
    np.add((outside - base)[..., None], offsets, out=masks[:, :, 1])
    masks = masks.reshape(B, -1)  # (B, nC * 2^(k+1))
    masks.sort(axis=1)
    new = np.ones_like(masks, dtype=bool)
    new[:, 1:] = masks[:, 1:] != masks[:, :-1]
    counts = new.sum(axis=1)
    bad = bad | (banded != 0).any(axis=1)
    if np.any((counts != n_cells) & ~bad):
        raise SampleAssertionError(
            f"cell count {counts[(counts != n_cells) & ~bad][0]} != C = {n_cells}"
        )
    # rows are guaranteed to hold exactly n_cells distinct masks now
    distinct = masks[new & ~bad[:, None]]
    chosen = np.zeros(B, dtype=np.int64)
    if (~bad).any():
        distinct = distinct.reshape(-1, n_cells)
        pick = rng.integers(0, n_cells, size=distinct.shape[0])
        chosen[~bad] = distinct[np.arange(distinct.shape[0]), pick]
    return chosen, bad


def sample_typical_cells(
    rng: np.random.Generator,
    B: int,
    m: int,
    dim: int,
    raw_sampler=None,
) -> CellBatch:
    """Uniformly chosen cells of the arrangement of m normals in R^dim.

    ``raw_sampler(rng, nb)`` may supply non-isotropic normals (nb, m, dim)
    together with a mask (nb,) of the draws to redraw.
    """
    n_cells = int(cells_count(m, dim - 1))
    weights = 1 << np.arange(m, dtype=np.int64)

    def pick(normals, margins, bad):
        chosen, bad = _enumerate_and_pick(margins, dim - 1, rng, n_cells, bad)
        return np.where((chosen[:, None] & weights) > 0, 1.0, -1.0), bad

    return _sample_cells(rng, B, m, dim, pick, raw_sampler)


# ---------------------------------------------------------------------------
# Per-cell functionals.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _subset_rows(m: int, k: int, r: int) -> np.ndarray:
    """Row in _combos(m, r) of each r-subset of each k-subset of range(m): read-only (C(m,k), C(k,r))."""
    row = {c: i for i, c in enumerate(itertools.combinations(range(m), r))}
    out = [[row[s] for s in itertools.combinations(c, r)] for c in itertools.combinations(range(m), k)]
    out = np.array(out, dtype=np.intp).reshape(math.comb(m, k), math.comb(k, r))
    out.flags.writeable = False
    return out


def _faces(bi: np.ndarray, ci: np.ndarray, m: int, k: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted (cell, r-subset) keys of the vertex incidences, and the vertex behind each key.

    (bi, ci) = np.nonzero(vert_sel): vertex v, ray ci[v] of cell bi[v], lies on
    the k facets of k-subset ci[v].  Cells are simple, so the face on r of them
    is the set of vertices whose facet sets hold all r, and its key bi * C(m, r)
    + (the r-subset's row in _combos(m, r)) repeats once per vertex.  The sort
    is stable; at r = k the keys are bi * C(m, k) + ci, sorted already.
    """
    keys = (bi[:, None] * math.comb(m, r) + _subset_rows(m, k, r)[ci]).ravel()
    if r == k:
        return keys, np.arange(keys.size)
    order = np.argsort(keys, kind="stable")
    return keys[order], order // math.comb(k, r)


def fvec_values(cells: CellBatch, l: int) -> np.ndarray:
    """f_l of each cell from its vertices' facet sets, with the Euler hard check.

    Cells are simple almost surely: f_i counts a cell's distinct keys on k-i facets.
    """
    B, m, dim = cells.normals.shape
    k = dim - 1
    bi, ci = np.nonzero(cells.vert_sel)
    f = []
    for i in range(k + 1):
        keys, _ = _faces(bi, ci, m, k, k - i)
        distinct = keys[np.diff(keys, prepend=-1) != 0]
        f.append(np.bincount(distinct // math.comb(m, k - i), minlength=B))
    if np.any(f[0] < k):
        raise SampleAssertionError("pointed cell with fewer than k vertices")
    if np.any(sum((-1) ** i * f[i] for i in range(k)) != 1 - (-1) ** k):
        raise SampleAssertionError(f"Euler relation sum (-1)^i f_i = {1 - (-1) ** k} violated")
    return f[l].astype(float)


def solid_fractions(cells: CellBatch, rng: np.random.Generator, pts: int) -> np.ndarray:
    x = _sample_unit(rng, (cells.B, pts, cells.dim))
    marg = np.einsum("bpd,bmd->bpm", x, cells.normals)
    inside = (marg > 0).all(axis=2)
    return inside.mean(axis=1)


def polar_fractions(cells: CellBatch, rng: np.random.Generator, pts: int) -> np.ndarray:
    """Fraction of uniform points lying in the polar cone of each cell."""
    verts, valid = cells.vertices_masked()
    x = _sample_unit(rng, (cells.B, pts, cells.dim))
    dots = np.einsum("bpd,bcd->bpc", x, verts)
    dots = np.where(valid[:, None, :], dots, -np.inf)
    member = dots.max(axis=2) <= 0.0
    return member.mean(axis=1)


# ivol_vector's closed-form angles cover cells up to this dimension.
IVOL_MAX_DIM = 4


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis, 2 atan2(|a-b|, |a+b|):
    accurate near 0 and pi, where arccos(a.b) loses half the digits."""
    return 2 * np.arctan2(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


def _cone_angle(points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Share of its span that the cone of each row's unit generators covers: (F,).

    The generators of row f are ``points[index[f]]``, points (P, n) and
    index (F, r), r <= 3: 1 for r = 0 and 1/2 for one ray; angle(a, b)/2pi
    for two; for three, in R^4, the solid angle Omega/4pi with
    Omega = 2 atan2(|det(a,b,c)|, 1 + ab + bc + ca) (Van Oosterom &
    Strackee 1983), |det| the norm of the generalized cross product.  Only
    r >= 2 reads the points.
    """
    (F, r), n = index.shape, points.shape[1]
    if r <= 1:
        return np.full(F, 0.5 if r else 1.0)
    if r == 2:
        return _angle(points.take(index[:, 0], axis=0), points.take(index[:, 1], axis=0)) / (2 * np.pi)
    if r > 3 or n != 4:
        raise ValueError(f"cone angles need r <= 3 generators, three in R^4; got r = {r}, n = {n}")
    V = points.take(index, axis=0)  # (F, 3, 4)
    volume = np.sqrt(sum(c * c for c in _nullspace_rays(np.moveaxis(V, 0, -1))))
    dots = np.einsum("vid,vid->v", V, np.roll(V, 1, axis=1))  # ab + bc + ca
    return np.arctan2(volume, 1.0 + dots) / (2 * np.pi)


def ivol_vector(cells: CellBatch, rng: np.random.Generator, pts: int) -> np.ndarray:
    """Conic intrinsic volumes (v_0, ..., v_dim) of each cell, dim <= 4: (B, dim+1).

    v_j is the sum over the j-faces F of the internal angle of F times the
    external angle at F, the share of its span that the normal cone of F
    covers (Schneider & Weil 2008, sec. 6.5).  For j = 1, 2 a j-face on
    r = dim - j facets (``_faces``) adds _cone_angle(its j vertex rays) x
    _cone_angle(its r facet normals).  The Gauss-Bonnet relations
    sum_{j even} v_j = sum_{j odd} v_j = 1/2 give v_3 = 1/2 - v_1 and
    v_0 = 1/2 - v_2 - v_4, where v_4 at dim 4 has no elementary form and is
    the solid fraction of ``pts`` uniform points.

    Raises SampleAssertionError where a j-face has other than j vertices
    or where v_3 or 1/2 - v_2 falls below -1e-12.
    """
    B, m, dim = cells.normals.shape
    if dim > IVOL_MAX_DIM:
        raise ValueError(f"closed-form intrinsic volumes need dim <= {IVOL_MAX_DIM}")
    unit = cells.normals / np.linalg.norm(cells.normals, axis=2, keepdims=True)
    bi, ci = np.nonzero(cells.vert_sel)
    verts = cells.rays[bi, ci] * cells.vert_sel[bi, ci, None]
    out = np.zeros((B, dim + 1))
    for j in (1, 2):
        r = dim - j  # a j-face lies on r facets
        keys, vertex = _faces(bi, ci, m, dim - 1, r)
        runs_ok = not keys.size % j and (keys[j - 1 :: j] == keys[::j]).all()  # one run of j per face
        if not runs_ok or (keys[j::j] == keys[j - 1 : -1 : j]).any():
            raise SampleAssertionError(f"a {j}-face of a cell does not have exactly {j} vertices")
        fb, fs = np.divmod(keys[::j], math.comb(m, r))
        facets = fb[:, None] * m + _combos(m, r)[fs]
        share = _cone_angle(verts, vertex.reshape(-1, j)) * _cone_angle(unit.reshape(-1, dim), facets)
        out[:, j] = np.bincount(fb, weights=share, minlength=B)
    if (dim >= 3 and (0.5 - out[:, 1] < -1e-12).any()) or (0.5 - out[:, 2] < -1e-12).any():
        raise SampleAssertionError("Gauss-Bonnet: v_3 or 1/2 - v_2 below -1e-12")
    if dim >= 3:
        out[:, 3] = 0.5 - out[:, 1]
    if dim == 4:
        out[:, 4] = solid_fractions(cells, rng, pts)
    out[:, 0] = 0.5 - out[:, 2::2].sum(axis=1)
    return out


def ivol_values(cells: CellBatch, rng: np.random.Generator, pts: int, row: np.ndarray) -> np.ndarray:
    """row . (v_0, ..., v_dim) of each cell: (B,).

    At dim <= 4 this is ``ivol_vector`` times the row.  Beyond, the row is
    rewritten onto the Quermass integrals: v_j = U_{j-1} - U_{j+1} with
    U_{-1} = U_0 = 1/2 and U_dim = U_{dim+1} = 0, so U_l carries the
    coefficient c_l = row_{l+1} - row_{l-1}, and only the U_l with c_l != 0
    are sampled.  For 1 <= l <= dim-2, U_l is half the fraction of ``pts``
    uniform (dim-l)-dim subspaces meeting the cone, all spanned by leading
    columns of one Gaussian frame per point, so that the fractions are
    nested; U_{dim-1} = v_dim is the solid fraction.
    """
    dim = cells.dim
    if dim <= IVOL_MAX_DIM:
        return ivol_vector(cells, rng, pts) @ row
    c = np.array(row, dtype=float)  # c[l + 1] = c_l for l = -1, ..., dim-1
    c[2:] -= row[: dim - 1]
    out = np.full(cells.B, 0.5 * (c[0] + c[1]))
    hit = [l for l in range(1, dim - 1) if c[l + 1]]
    if hit:
        frames = rng.standard_normal((cells.B, pts, dim, dim - hit[0]))
        for l in hit:
            out += c[l + 1] * 0.5 * _hit_fraction(cells, frames, dim - l)
    if c[dim]:
        out += c[dim] * solid_fractions(cells, rng, pts)
    return out


def subspace_hits(
    cells: CellBatch, rng: np.random.Generator, j: int, reps: int
) -> np.ndarray:
    """Per-cell fraction of uniform j-dim subspaces meeting the cone."""
    return _hit_fraction(cells, rng.standard_normal((cells.B, reps, cells.dim, j)), j)


def subspace_hits_paired(
    cells: CellBatch, rng: np.random.Generator, j: int, reps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Hit fractions for j-dim subspaces and nested (j-2)-dim subspaces.

    The small subspace is spanned by the leading columns of the same
    Gaussian frame, which keeps it uniform while pairing the two indicators
    for variance reduction in v = U_l - U_{l+2}.
    """
    frames = rng.standard_normal((cells.B, reps, cells.dim, j))
    return _hit_fraction(cells, frames, j), _hit_fraction(cells, frames, j - 2)


def _hit_fraction(cells: CellBatch, frames: np.ndarray, j: int) -> np.ndarray:
    """Per-cell fraction of the subspaces spanned by the leading j columns of
    ``frames`` (B, reps, dim, >= j) that meet the cone beyond the origin.

    A cone {x : A x >= 0} meets span(V) iff the restricted cone
    {y in R^j : (A V) y >= 0} is nontrivial, which depends on span(V) only:
    V need not be orthonormal, and the span of the leading i columns of a
    standard Gaussian frame is a uniform i-dim subspace.  For j >= dim the
    subspace is the whole space, which meets the cone; for j <= 0 it is the
    origin, which does not.
    """
    if j >= cells.dim:
        return np.ones(cells.B)
    if j <= 0:
        return np.zeros(cells.B)
    return _meets(cells.normals[:, None] @ frames[..., :j])[0].mean(axis=1)


def _solve_gram(G, h):
    """Solve batched s x s Gram systems G mu = h, one array per entry.

    ``G[a][b]`` and ``h[a]`` are equally shaped arrays holding entry (a, b)
    of every system, so each step is one vectorized operation.  Gaussian
    elimination without pivoting is stable for the symmetric positive
    semidefinite Gram matrices here.  Returns (mu, ok): ``mu[a]`` entry a of
    the solutions, ``ok`` False where a pivot vanishes (linearly dependent
    rows; mu is meaningless there).  A singular system never raises, so one
    degenerate replication cannot fail the batch.
    """
    s = len(h)
    G = [list(row) for row in G]
    h = list(h)
    tol = 1e-12 * np.max([G[a][a] for a in range(s)], axis=0)
    ok = np.ones(h[0].shape, dtype=bool)
    for i in range(s):
        good = G[i][i] > tol
        ok &= good
        G[i][i] = np.where(good, G[i][i], 1.0)
        for r in range(i + 1, s):
            f = G[r][i] / G[i][i]
            for c in range(i + 1, s):
                G[r][c] = G[r][c] - f * G[i][c]
            h[r] = h[r] - f * h[i]
    mu = [None] * s
    for i in reversed(range(s)):
        acc = h[i]
        for c in range(i + 1, s):
            acc = acc - G[i][c] * mu[c]
        mu[i] = acc / G[i][i]
    return mu, ok


def project_batch(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Nearest points in the cones {x: A_b x >= 0}, by batched face enumeration.

    The projection of g is its projection onto the span of the face whose
    relative interior contains it.  So it is the feasible point nearest to g
    among the apex 0 and the candidates x = g + A_S^T mu with
    A_S A_S^T mu = -A_S g, one for every active set 1 <= |S| < dim.  A
    candidate with a negative multiplier fails the KKT conditions and is not
    tested; a set whose rows are dependent in some replication is dropped
    there only.  Points already in the cone pass unchanged.

    Enforces the per-sample Moreau-orthogonality and feasibility assertions.
    """
    _, m, dim = normals.shape
    out = np.array(points, dtype=float)
    outside = np.flatnonzero((np.einsum("bmd,bd->bm", normals, out) < 0).any(axis=1))
    if outside.size == 0:
        return out
    A = normals[outside]
    g = out[outside]
    scale = 1.0 + np.einsum("bd,bd->b", g, g)
    gram = np.einsum("bmd,bnd->bmn", A, A)
    marg = np.einsum("bmd,bd->bm", A, g)
    best = np.zeros_like(g)  # the apex
    best_d = np.einsum("bd,bd->b", g, g)
    rows = np.arange(g.shape[0])
    for s in range(1, min(dim, m + 1)):
        idx = _combos(m, s).T  # (s, nS)
        mu, ok = _solve_gram(
            [[gram[:, idx[a], idx[b]] for b in range(s)] for a in range(s)],
            [-marg[:, idx[a]] for a in range(s)],
        )
        keep = ok & np.logical_and.reduce([mu_a >= 0 for mu_a in mu])
        bi, ci = np.nonzero(keep)
        cand_marg = marg[bi] + sum(mu[a][bi, ci, None] * gram[bi, idx[a, ci]] for a in range(s))
        feas = (cand_marg >= -1e-12 * scale[bi, None]).all(axis=1)
        # |x - g|^2 = mu . A_S A_S^T mu = -mu . A_S g
        d = -sum(mu[a][bi, ci] * marg[bi, idx[a, ci]] for a in range(s))
        dist = np.full(keep.shape, np.inf)
        dist[bi[feas], ci[feas]] = d[feas]
        j = np.argmin(dist, axis=1)
        better = dist[rows, j] < best_d
        win, jw = rows[better], j[better]
        best[better] = g[better] + sum(mu[a][win, jw, None] * A[win, idx[a, jw]] for a in range(s))
        best_d = np.where(better, dist[rows, j], best_d)
    resid = g - best
    if np.any(np.abs(np.einsum("bd,bd->b", best, resid)) > 1e-8 * scale):
        raise SampleAssertionError("Moreau orthogonality > 1e-8")
    if np.any(np.einsum("bmd,bd->bm", A, best).min(axis=1) < -1e-9 * scale):
        raise SampleAssertionError("projection infeasible beyond tolerance")
    out[outside] = best
    return out


def statdim_values(cells: CellBatch, rng: np.random.Generator) -> np.ndarray:
    """||Pi_C g||^2 for one standard Gaussian per cell."""
    g = rng.standard_normal((cells.B, cells.dim))
    proj = project_batch(cells.normals, g)
    return np.einsum("bd,bd->b", proj, proj)


# ---------------------------------------------------------------------------
# Intersection of two independent cells.
# ---------------------------------------------------------------------------


def cones_intersect_batch(normals_a: np.ndarray, normals_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized {x != 0 : A x >= 0, B x >= 0} nonemptiness test.

    The intersection is the cone of the stacked rows.  Returns (hit (B,),
    near (B,)); near flags grazing rays (caller redraws those replications).
    """
    return _meets(np.concatenate([normals_a, normals_b], axis=1))


# ---------------------------------------------------------------------------
# Top-level runners.
# ---------------------------------------------------------------------------


def _batches(reps: int, seed: int, stream: int, worker) -> list:
    """``worker(rng, nb)`` over the batches of ``reps`` replications, in order.

    Batches hold BATCH replications, the last one the remainder; batch j
    draws from ``batch_rng(seed, stream, j)``.
    """
    return [
        worker(batch_rng(seed, stream, j), min(BATCH, reps - start))
        for j, start in enumerate(range(0, reps, BATCH))
    ]


def _sums(values: np.ndarray, degenerate: int) -> BatchSums:
    sums = BatchSums()
    sums.add_values(values, degenerate)
    return sums


def _kappa_sampler(kappa: KappaFamily, n: int, d: int, k: int):
    """Raw normals factory for non-isotropic typical sampling (None if iso).

    Draws with nearly dependent cutters, or with a hypersphere that nearly
    contains the subsphere, are flagged for redrawing.
    """
    if kappa.is_isotropic:
        return None
    N = n - d + k

    def factory(rng: np.random.Generator, nb: int) -> Tuple[np.ndarray, np.ndarray]:
        if k == d:
            flat = sample_vmf_mixture(rng, d, kappa.beta, nb * N)
            return flat.reshape(nb, N, d + 1), np.zeros(nb, dtype=bool)
        cutters = sample_vmf_mixture(rng, d, kappa.beta, nb * (d - k)).reshape(nb, d - k, d + 1)
        q, r = np.linalg.qr(cutters.transpose(0, 2, 1), mode="complete")
        diag = np.abs(np.einsum("bii->bi", r[:, : d - k, :]))
        basis = q[:, :, d - k :]  # (nb, d+1, k+1)
        rest = sample_vmf_mixture(rng, d, kappa.beta, nb * N).reshape(nb, N, d + 1)
        proj = np.einsum("bnd,bdj->bnj", rest, basis)
        norms = np.linalg.norm(proj, axis=2, keepdims=True)
        bad = (diag < 1e-10).any(axis=1) | (norms < 1e-9).any(axis=(1, 2))
        return proj / np.where(norms < 1e-9, 1.0, norms), bad

    return factory


def _ivol_row(quantity: str, l, dim: int) -> np.ndarray:
    """Coefficients of a quantity in the conic intrinsic volumes (v_0, ..., v_dim)."""
    row = np.zeros(dim + 1)
    if quantity == "U":
        row[l + 1 :: 2] = 1.0  # Crofton: U_l = v_{l+1} + v_{l+3} + ...
    elif quantity == "v":
        row[l + 1] = 1.0  # spherical v_l is conic v_{l+1}
    elif quantity == "vminus1":
        row[0] = 1.0
    elif quantity == "statdim":
        row[:] = np.arange(dim + 1)
    elif quantity == "hk":
        row[dim] = float(sp_eval(sphere_surface(dim - 1), 20))  # H^k = omega_{k+1} v_{k+1}
    else:
        raise ValueError(f"run_estimate cannot handle quantity {quantity!r}")
    return row


def run_estimate(query, config) -> MCEstimate:
    """Estimate of a validated query that is not an a.s. constant (k >= 1)."""
    n, d, k, l = query.n, query.d, query.k, query.l
    flavor, quantity = query.flavor, query.quantity
    stream = stream_id(*astuple(query), config.kappa.name, config.kappa.beta)
    m, dim = n - d + k, k + 1
    raw = _kappa_sampler(config.kappa, n, d, k)
    if raw is not None and (flavor == "weighted" or quantity == "isect"):
        raise ValueError(f"the {flavor} {quantity} sampler takes isotropic kappa only")
    if quantity == "isect":
        return run_isect(flavor, n, query.m, d, config, stream)
    S = config.subspace_reps

    if quantity == "f":
        values = lambda cells, rng: fvec_values(cells, l)
    else:
        row = _ivol_row(quantity, l, dim)
        values = lambda cells, rng: ivol_values(cells, rng, S, row)

    def worker(rng, nb):
        if flavor == "typical":
            cells = sample_typical_cells(rng, nb, m, dim, raw_sampler=raw)
        else:
            cells = sample_weighted_cells(rng, nb, m, dim)
        return _sums(values(cells, rng), cells.degenerate)

    return finalize(_batches(config.reps, config.seed, stream, worker), config.seed)


def run_isect(flavor: str, n: int, m: int, d: int, config, stream: int) -> MCEstimate:
    dim = d + 1
    sample = sample_typical_cells if flavor == "typical" else sample_weighted_cells

    def worker(rng, nb):
        def draw(size):
            ca, cb = sample(rng, size, n, dim), sample(rng, size, m, dim)
            hit, near = cones_intersect_batch(ca.normals, cb.normals)
            return (hit,), near, ca.degenerate + cb.degenerate

        (hit,), redraws = _redraw(nb, draw)
        return _sums(hit.astype(float), redraws)

    return finalize(_batches(config.reps, config.seed, stream, worker), config.seed)


def run_consistency(n: int, d: int, k: int, config) -> MCEstimate:
    """The size-bias ratio E[f_0(Z) H^k(Z)] / E[H^k(Z)] over isotropic typical k-faces Z.

    The joint draw of consistency check (a), from its own stream, which
    ``simulate.consistency_checks`` judges.  It keeps the name of all three
    checks because the benchmark's tracer spans it.
    """
    stream = stream_id("sizebias", n, d, k)
    row = _ivol_row("hk", None, k + 1)

    def worker(rng, nb):
        cells = sample_typical_cells(rng, nb, n - d + k, k + 1)
        h = ivol_values(cells, rng, config.subspace_reps, row)
        return fvec_values(cells, 0) * h, h, cells.degenerate

    fh, h, deg = zip(*_batches(config.reps, config.seed, stream, worker))
    fh, h = np.concatenate(fh), np.concatenate(h)
    R = h.size
    ratio = float(fh.mean() / h.mean())
    # delta method for a ratio of means, from the residuals fh - ratio * h:
    # raw second moments cancel when the ratio is (nearly) constant
    se_ratio = float(np.std(fh - ratio * h, ddof=1) / h.mean()) / math.sqrt(R)
    return MCEstimate(mean=ratio, stderr=se_ratio, reps=R, degenerate_redraws=sum(deg), seed=config.seed)
