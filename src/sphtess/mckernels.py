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
  row at a time (``_nullspace_rays``).  A batch of cells holds its normals
  and a vertex table (``_table``): a row (cell, k-subset, signed ray) per
  vertex.  The pass keeps no rays; the table computes the unit ray of each
  vertex alone, through the arithmetic of the pass (``_unit_rays``), so
  that a batch holds f_0 rays per cell, not the C(m, k) the pass forms;
* every cone question goes through one primitive: each (j-1)-subset of
  the rows of {y in R^j : R y >= 0} spans a candidate ray, which is an
  extreme ray iff every other margin lies beyond the tolerance band on one
  side, and a pointed cone with generic rows is nontrivial iff it has an
  extreme ray (Cover & Efron 1967).  So every predicate depends only on
  which side of each row a ray lies: the pass (``_extreme_rays``) returns
  packed side masks, one bit per row above (below) the band, and every
  sign class is read off them with bit operations (``_sign_classes``).
  Both samplers draw their normals from the same law, isotropic or a
  non-isotropic kappa's (``_kappa_sampler``), make one pass over each
  drawn arrangement and differ only in the pick: the typical cell is
  picked from the enumeration masks built from the side masks, one per
  antipodal pair of cells (the masks around -ray are the complements of
  those around +ray), the weighted cell is that of a uniform witness point.  Each pick hands over the cell as a
  side mask, and its vertices are the sign classes read off the pass's
  masks on those sides (``_sample_cells``).  Every "does this cone meet ..."
  question that the vertices leave open is one predicate on top of it
  (``_meets``): a cone meets a uniform j-dim subspace, the span of a
  standard Gaussian (dim, j) frame, iff the normals restricted to the
  frame leave an extreme ray; two cones intersect iff their stacked
  normals do.  A ray whose class hinges on margins within the band is
  grazing: the samplers and the intersection test redraw that replication
  and count the redraw, as they do a pole-concentrated draw with nearly
  dependent cutters, all through one loop (``_redraw``) of at most
  MAX_REDRAW_ROUNDS rounds, past which it raises DegenerateInput;
* two cells are first compared through their vertex tables
  (``cells_intersect``): a vertex of one strictly inside the other is a
  common ray, and a facet hyperplane of one with every vertex of the other
  strictly beyond it separates them, since a pointed cone is the conic
  hull of its vertices.  Only the pairs that neither certificate decides
  pay for the C(n+m, dim-1) subsets of ``_meets`` on the stacked normals,
  which alone flags a pair as grazing; ``cones_intersect_batch`` takes
  plain normals, builds both vertex tables with one extreme-ray pass each
  and goes the same way;
* both per-cell functionals read faces from the vertex table: cells are
  simple, so the face on r facets, keyed by (cell, r-subset of the
  normals), holds the table rows whose k-subsets contain the r-subset
  (``_faces``).  f_l counts the distinct keys at r = k - l (``fvec_values``);
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

Short axes (a vector's few components, a side mask's W words) are
summed or ANDed out one component at a time (``geom.norm``,
``_all_words``), bit-identical to numpy's generic reductions, which cost
several times the arithmetic on axes this short, or left to a matmul
whose sign tests reduce over the leading axis (``solid_fractions``).

Every kernel is equivalence-tested against an independent LP route that
lives with the tests (``tests/lp_oracle.py``) or against the sampled
functionals, and the per-sample structural assertions (cell count = C(m,k),
Euler relation, j vertices per j-face and the Gauss-Bonnet bounds, and
Moreau orthogonality in the projections) are enforced on every replication.

Determinism: every estimate runs its batches in order in one thread
(``_replicate``); batch j of a (seed, stream) pair draws from an
independently keyed Philox generator, and all replications, concatenated
in batch order, are reduced once as a ratio of means (``finalize``), so
results are bit-identical from (seed, reps, config).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .combinat import cells_count
from .exactnum import sphere_surface
from .geom import DegenerateInput, KappaFamily, norm, sample_vmf_mixture

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


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    reps: int
    degenerate_redraws: int
    seed: int

    def z_score(self, exact: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == exact else math.inf
        return (self.mean - exact) / self.stderr


def finalize(num: np.ndarray, den, redraws: int, seed: int) -> MCEstimate:
    """The ratio of means sum(num) / sum(den) over all replications, in batch order.

    ``den=None`` means all ones, so a plain mean is the ratio with a
    denominator of 1.  The stderr is the delta method's,
    sqrt(sum(resid^2) / (R-1) / R) / mean(den) from the residuals
    resid = num - ratio * den, which do not cancel when the mean is large
    against the spread or the ratio is (nearly) constant.
    """
    num = np.asarray(num, dtype=float)
    R = num.size
    den = np.ones(R) if den is None else np.asarray(den, dtype=float)
    ratio = float(np.sum(num) / np.sum(den))
    var = float(np.sum((num - ratio * den) ** 2)) / max(R - 1, 1)
    stderr = math.sqrt(var / R) / float(np.mean(den))
    return MCEstimate(mean=ratio, stderr=stderr, reps=R, degenerate_redraws=redraws, seed=seed)


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


def _unit_rays(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unit nullspace directions of dim-1 rows in R^dim, batched: (lines (dim, ...), dependent (...)).

    rows (dim-1, dim, ...) as for ``_nullspace_rays``.  ``dependent`` flags
    the rows whose direction is shorter than 1e-12, left unnormalized.  The
    extreme-ray pass and the vertex table both go through here, so that a
    vertex's ray is the one whose margins the pass read, bit for bit.
    """
    lines = _nullspace_rays(rows)
    norms = norm(lines, axis=0)
    dependent = norms < 1e-12
    lines /= np.where(dependent, 1.0, norms)
    return lines, dependent


# subset rays per block of the extreme-ray pass and of the typical enumeration: their arrays stay in cache
_BLOCK = 1 << 13


def _extreme_rays(R: np.ndarray, subsets: np.ndarray):
    """Side masks of the candidate extreme rays of the cones {y in R^j : R y >= 0}, batched.

    R: (..., M, j) rows; subsets: (P, j-1) row indices, each spanning a line
    whose unit direction is the subset's ray (``_unit_rays``).  Returns per
    subset

    * ``above``, ``below`` (..., P, W): side masks of the margins ray . row
      (``_pack``): bit i % 64 of word i // 64 is set where the margin of
      row i lies above _TOL (below -_TOL), W = ceil(M/64);
    * ``null`` (..., P): the subset's rows are dependent.

    Every predicate on top of the pass asks only which side of each row a
    ray lies on, so neither the rays nor the float margins leave it: the
    cones go through in blocks of about _BLOCK rays, each block's rays and
    margins into buffers (the margins' columns past M are zero), and only
    their side masks are kept.  A cell has few vertices among the
    C(M, j-1) candidates, and ``_table`` computes the rays of those alone.
    """
    M, j = R.shape[-2:]
    P, width = len(subsets), _mask_width(M)
    cones = R.reshape(-1, M, j)
    N = len(cones)
    null = np.empty((N, P), dtype=bool)
    masks = np.empty((2, N, P, -(-M // 64)), dtype=np.uint64)
    step = max(1, _BLOCK // max(1, P))
    rays = np.empty((min(step, N), P, j))
    margins = np.empty((len(rays), P, width))
    margins[..., M:] = 0
    flags = np.empty((2,) + margins.shape, dtype=bool)
    for lo in range(0, N, step):
        block = cones[lo : lo + step]
        n, hi = len(block), lo + len(block)
        comps = np.ascontiguousarray(np.moveaxis(block, (1, 2), (0, 1)))  # (M, j, n)
        lines, dependent = _unit_rays(np.moveaxis(comps[subsets.T], 2, 1))  # (j, P, n)
        rays[:n] = np.moveaxis(lines, (0, 2), (2, 0))
        null[lo:hi] = dependent.T
        np.matmul(rays[:n], block.transpose(0, 2, 1), out=margins[:n, :, :M])
        np.greater(margins[:n], _TOL, out=flags[0, :n])
        np.less(margins[:n], -_TOL, out=flags[1, :n])
        masks[:, lo:hi] = _pack(flags[:, :n])
    lead = R.shape[:-2]
    above, below = masks.reshape((2,) + lead + masks.shape[2:])
    return above, below, null.reshape(lead + (P,))


_SPREAD = np.uint64(0x0102040810204080)  # gathers the low bits of 8 bytes into the top byte


def _mask_width(M: int) -> int:
    """Bits that a side mask of M rows is padded to: 8, 16 or 32, else whole 64-bit words."""
    return next((w for w in (8, 16, 32) if M <= w), -(-M // 64) * 64)


def _pack(flags: np.ndarray) -> np.ndarray:
    """Side masks (..., ceil(M/64)) uint64 of bool flags (..., M): bit i % 64 of word i // 64 is flag i.

    The flags are padded with False to ``_mask_width(M)``.  Each group of 8,
    read as one little-endian uint64 of 0/1 bytes, times _SPREAD holds flag
    t at bit 56 + t: the product of byte t and byte 7 - t of _SPREAD lands
    there, and no two products overlap below bit 64.  So the top byte is
    the group's bits, and the bytes read in order are the mask.  On rows
    this short it is several times faster than np.packbits.
    """
    M = flags.shape[-1]
    width = _mask_width(M)
    if M != width or flags.strides[-1] != 1:
        padded = np.zeros(flags.shape[:-1] + (width,), dtype=bool)
        padded[..., :M] = flags
        flags = padded
    groups = ((flags.view("<u8") * _SPREAD) >> np.uint64(56)).astype(np.uint8)
    return groups.view(f"<u{min(width, 64) // 8}").astype(np.uint64)


@lru_cache(maxsize=None)
def _outside(M: int, r: int) -> np.ndarray:
    """Side masks of the rows outside each r-subset of range(M), in _combos order: read-only (C(M,r), W)."""
    out = _pack((_combos(M, r)[:, :, None] != np.arange(M)).all(axis=1))
    out.flags.writeable = False
    return out


def _sign_classes(
    above: np.ndarray, below: np.ndarray, outside: np.ndarray, sides=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Sign class and hinge flag of each candidate ray from its side masks (..., P, W).

    ``outside`` (P, W) masks the rows outside each subset; only those are
    read.  ``sides`` (..., W), one mask per cone, is the cone's side of each
    row: bit i set for R_i y >= 0, else R_i y <= 0 (all set when None).
    +ray lies on the cone's side of every row beyond the band, ``up |
    down``, iff those set in ``sides`` are exactly ``up``, and -ray iff
    they are exactly ``down``.  Returns ``sign`` (..., P) int8: +1 (-1)
    where +ray (-ray) does and no outside row lies within the band, so
    that it is an extreme ray of the cone, else 0; and ``hinged`` (..., P):
    a class that holds but for rows within the band.
    """
    up, down = above & outside, below & outside
    beyond = up | down
    on = beyond if sides is None else beyond & sides[..., None, :]
    plus, minus = _all_words(on == up), _all_words(on == down)
    clear = _all_words(beyond == outside)
    sign = (plus & clear).astype(np.int8) - (minus & clear)
    return sign, ~clear & (plus | minus)


def _all_words(eq: np.ndarray) -> np.ndarray:
    """The AND of each mask's W word flags: (..., W) bool -> (...), one & per word past the first.

    W is 1 or 2 in the kernels, where numpy's generic reduction over the
    last axis costs many times the ANDs; at W = 1 this is a view.
    """
    out = eq[..., 0]
    for w in range(1, eq.shape[-1]):
        out = out & eq[..., w]
    return out


_CHUNK = 1 << 20  # margins per block of subsets


def _meets(R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Whether the cones {y in R^j : R y >= 0} hold more than the origin, batched.

    R: (..., M, j) rows.  Returns (nontrivial (...), grazing (...)): a cone
    is nontrivial iff some (j-1)-subset of its rows spans an extreme ray,
    and grazing iff some subset's rows are dependent or its sign class
    hinges on rows within the band, both read off the side masks
    (``_sign_classes``).  The subsets go to ``_extreme_rays`` in blocks of
    about _CHUNK margins; the pass returns their side masks and null flags
    only, and no ray is computed beyond it.
    """
    M, j = R.shape[-2:]
    subsets, outside = _combos(M, j - 1), _outside(M, j - 1)
    nontrivial = np.zeros(R.shape[:-2], dtype=bool)
    grazing = np.zeros(R.shape[:-2], dtype=bool)
    step = max(1, _CHUNK // R[..., 0].size)
    for lo in range(0, len(subsets), step):
        above, below, null = _extreme_rays(R, subsets[lo : lo + step])
        sign, hinged = _sign_classes(above, below, outside[lo : lo + step])
        nontrivial |= (sign != 0).any(axis=-1)
        grazing |= (null | hinged).any(axis=-1)
    return nontrivial, grazing


def _sample_unit(rng: np.random.Generator, shape) -> np.ndarray:
    g = rng.standard_normal(shape)
    g /= norm(g, keepdims=True)
    return g


@dataclass
class CellBatch:
    """A batch of cells in reduced coordinates with their vertex table.

    ``normals``: (B, m, dim) sign-adjusted so each cell is {x: n_i.x >= 0}.
    One table row per vertex: ``cell`` (V,), ``subset`` (V,) the row in
    _combos(m, dim-1) of the normals it lies on, and ``rays`` (V, dim) the
    signed unit ray, grouped by cell and by strictly increasing subset.
    The rays are those of the vertices alone (``_table``), (0, dim) float64
    for a batch without any.
    """

    normals: np.ndarray
    cell: np.ndarray
    subset: np.ndarray
    rays: np.ndarray
    degenerate: int = 0

    @property
    def B(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[2]


def _table(normals: np.ndarray, sides: np.ndarray, sel: np.ndarray, degenerate: int) -> CellBatch:
    """The cells of rows ``normals`` (B, m, dim) on ``sides`` (B, W) with the vertex table of sign classes ``sel``.

    Bit i of a cell's side mask keeps its row i, else the row is negated;
    ``sel`` (B, C(m, dim-1)) holds the classes read on those sides
    (``_sign_classes``).  A row (cell, subset) is a vertex where ``sel`` is
    nonzero.  Its ray is the unit ray of the subset's rows of the cell's
    ``normals``, computed as the extreme-ray pass computes it
    (``_unit_rays``), times the class sign.  Flipping a row leaves the line
    alone, so the ray needs the normals only.  Raises SampleAssertionError
    where a vertex's rows are dependent: a null ray hinges, so the pass's
    readers never select one.
    """
    _, m, dim = normals.shape
    flat = np.flatnonzero(sel)
    cell, subset = np.divmod(flat, sel.shape[1])
    index = np.take(_combos(m, dim - 1).T, subset, axis=1)  # (dim-1, V) rows of the flattened normals
    index += cell * m
    comps = np.ascontiguousarray(normals.reshape(-1, dim).T)  # components first, as the pass reads them
    lines, dependent = _unit_rays(np.take(comps, index, axis=1).transpose(1, 0, 2))
    if dependent.any():
        raise SampleAssertionError("a vertex lies on dependent rows")
    rays = np.ascontiguousarray(lines.T)
    rays *= sel.ravel()[flat, None]
    on = np.unpackbits(sides.view(np.uint8), axis=-1, count=m, bitorder="little")  # (B, m) mask bits
    return CellBatch(normals * (2.0 * on - 1.0)[..., None], cell, subset, rays, degenerate)


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
    ``pick(normals, above, below, bad)`` takes the pass's side masks and
    returns the chosen cell's side mask (nb, W) and the draws to redraw.
    The cell's vertices are the sign classes on those sides
    (``_sign_classes``), and a draw whose classes hinge is redrawn too; so
    is one with a null ray, since with unit rows its margins all lie within
    1e-12 < _TOL and its class hinges on any sides.  A draw keeps its
    (normals, sides, classes); ``_table`` computes the rays of the chosen
    cells' vertices once all B are drawn.
    """
    if m < dim:
        raise ValueError("batched kernels require m >= k+1 (pointed cells)")

    def draw(nb):
        if raw_sampler is None:
            normals, bad = _sample_unit(rng, (nb, m, dim)), np.zeros(nb, dtype=bool)
        else:
            normals, bad = raw_sampler(rng, nb)
        above, below, _ = _extreme_rays(normals, _combos(m, dim - 1))
        sides, bad = pick(normals, above, below, bad)
        sel, hinged = _sign_classes(above, below, _outside(m, dim - 1), sides)
        return (normals, sides, sel), bad | hinged.any(axis=1), 0

    (normals, sides, sel), redraws = _redraw(B, draw)
    return _table(normals, sides, sel, redraws)


def sample_weighted_cells(rng: np.random.Generator, B: int, m: int, dim: int, raw_sampler=None) -> CellBatch:
    """Weighted typical cells: the cell of a uniform witness point.

    The cell's sides are the witness's side of each normal, packed as the
    pass packs its masks (``_pack``); a draw with the witness within the
    band of a normal is redrawn.  ``raw_sampler`` may supply non-isotropic
    normals, as for ``sample_typical_cells``; the witness stays uniform in
    the reduced coordinates under every law.  That is right at k < d too:
    every great k-sphere cut out by d - k hyperplanes has the same k-volume
    omega_{k+1}, so the weighted face lies at a uniform point of the great
    k-sphere of d - k cutters drawn from the law (``_kappa_sampler``).
    """

    def pick(normals, above, below, bad):
        dots = np.einsum("bmd,bd->bm", normals, _sample_unit(rng, (len(normals), dim)))
        return _pack(dots > 0), bad | (np.abs(dots) <= _TOL).any(axis=1)

    return _sample_cells(rng, B, m, dim, pick, raw_sampler)


@lru_cache(maxsize=None)
def _mask_offsets(m: int, k: int) -> np.ndarray:
    """The bits of each k-subset's rows on the positive side, for each of their 2^k local sign resolutions.

    Read-only (C(m,k), 2^k) int64: resolution r sets row c_t of the
    subset c where bit t of r is set.
    """
    bits = 1 << _combos(m, k).astype(np.int64)
    resolutions = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    offsets = bits @ resolutions.T
    offsets.flags.writeable = False
    return offsets


def _enumerate_and_pick(
    above: np.ndarray, below: np.ndarray, m: int, k: int, rng: np.random.Generator, n_cells: int, bad: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate all cells through vertex incidences and pick one uniformly.

    ``above``, ``below`` (B, C(m,k), 1): the side masks of the k-subsets'
    rays against the m <= 63 normals (``_extreme_rays``).  The sides of the
    rows outside a subset are ``base = above & outside``; ``bad`` flags
    draws known to be degenerate, to which any draw with an outside row
    within the band, ``outside & ~(above | below)``, is added, since the
    count needs every cell around every ray.  Returns (chosen bitmask (B,)
    int64, bit i set where the cell lies on the positive side of row i,
    bad (B,)); asserts the per-sample count on the rest.

    The tessellation is symmetric under x -> -x, so its cells come in
    antipodal pairs, and the masks around -ray are the complements in m
    bits, full ^ mask, of those around +ray.  Only the C(m,k) 2^k +ray
    masks are built, each mapped to the member of its pair with bit m-1
    clear, and sorted.  Their D distinct values L are the lower half of the sorted list
    of all 2D cells, whose upper half is full ^ L in reverse order, so the
    count is 2D, and draw p is L[p] for p < D and full ^ L[2D-1-p] otherwise:
    the cell that the sorted list of all masks gives.  The masks are built
    and sorted for a block of about _BLOCK subset rays at a time, and one
    draw from ``rng`` picks for every draw not flagged.
    """
    B, nC = above.shape[:2]
    outside, offsets = _outside(m, k)[:, 0].view(np.int64), _mask_offsets(m, k)
    full = (1 << m) - 1
    above, below = above[..., 0].view(np.int64), below[..., 0].view(np.int64)
    # sides of the rows outside each subset; a draw with any of them within the band is bad
    base = above & outside
    bad = bad | (outside & ~(above | below)).any(axis=1)
    dtype = np.uint32 if m <= 32 else np.int64  # m bits: up to 32, the passes and the sort move half the bytes
    offsets = offsets.astype(dtype)
    halves = []
    step = max(1, _BLOCK // nC)  # draws per block, whose masks stay in cache
    for lo in range(0, B, step):
        masks = (base[lo : lo + step, :, None].astype(dtype) + offsets).reshape(-1, offsets.size)  # (step, nC 2^k)
        masks ^= (masks >> (m - 1)) * full
        masks.sort(axis=1)
        new = np.ones_like(masks, dtype=bool)
        new[:, 1:] = masks[:, 1:] != masks[:, :-1]
        counts = 2 * new.sum(axis=1)
        good = ~bad[lo : lo + step]
        if np.any((counts != n_cells) & good):
            raise SampleAssertionError(f"cell count {counts[(counts != n_cells) & good][0]} != C = {n_cells}")
        # good rows hold exactly n_cells / 2 distinct masks now
        halves.append(masks[new & good[:, None]])
    half = np.concatenate(halves)
    chosen = np.zeros(B, dtype=np.int64)
    if (~bad).any():
        half = half.reshape(-1, n_cells // 2)
        pick = rng.integers(0, n_cells, size=half.shape[0])
        upper = pick >= half.shape[1]
        lower = half[np.arange(half.shape[0]), np.where(upper, n_cells - 1 - pick, pick)].astype(np.int64)
        chosen[~bad] = np.where(upper, full ^ lower, lower)
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
    together with a mask (nb,) of the draws to redraw.  A cell is keyed by
    the int64 mask of its sides, so m is at most 63, and that mask, whose
    bit i is row i as in ``_pack``, is the side mask it hands over
    (``_enumerate_and_pick``).
    """
    if m > 63:
        raise ValueError(f"typical cells are keyed by int64 side masks, which hold m <= 63 normals, got m={m}")
    n_cells = int(cells_count(m, dim - 1))

    def pick(normals, above, below, bad):
        chosen, bad = _enumerate_and_pick(above, below, m, dim - 1, rng, n_cells, bad)
        return chosen.view(np.uint64)[:, None], bad

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


def _faces(cells: CellBatch, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted (cell, r-subset) keys of the vertex incidences, and the table row behind each key.

    Table row v, a vertex of cell[v], lies on the k facets of its k-subset.
    Cells are simple, so the face on r of them is the set of vertices whose
    facet sets hold all r, and its key cell * C(m, r) + (the r-subset's row
    in _combos(m, r)) repeats once per vertex.  The sort is stable; at r = k
    the keys are cell * C(m, k) + subset, sorted already by the table's order.
    """
    m, k = cells.normals.shape[1], cells.dim - 1
    keys = (cells.cell[:, None] * math.comb(m, r) + _subset_rows(m, k, r)[cells.subset]).ravel()
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
    f = []
    for i in range(k + 1):
        keys, _ = _faces(cells, k - i)
        distinct = keys[np.diff(keys, prepend=-1) != 0]
        f.append(np.bincount(distinct // math.comb(m, k - i), minlength=B))
    if np.any(f[0] < k):
        raise SampleAssertionError("pointed cell with fewer than k vertices")
    if np.any(sum((-1) ** i * f[i] for i in range(k)) != 1 - (-1) ** k):
        raise SampleAssertionError(f"Euler relation sum (-1)^i f_i = {1 - (-1) ** k} violated")
    return f[l].astype(float)


def solid_fractions(normals: np.ndarray, rng: np.random.Generator, pts: int) -> np.ndarray:
    """Fraction of ``pts`` uniform points inside each cone {x : A x >= 0} of rows ``normals`` (B, m, dim).

    It reads the normals only, so the cones need not be pointed.  The dots
    come from one matmul, (B, m, pts), so that the test of every row runs
    over the leading axis.  They may differ in the last bit from dots
    summed in another order, which flips a sign test only for a point
    within about 1e-16 of a facet.
    """
    B, _, dim = normals.shape
    x = _sample_unit(rng, (B, pts, dim))
    return (normals @ x.transpose(0, 2, 1) > 0).all(axis=1).mean(axis=1)


def polar_fractions(cells: CellBatch, rng: np.random.Generator, pts: int) -> np.ndarray:
    """Fraction of uniform points in the polar cone of each cell: those with no positive dot on its vertices."""
    x = _sample_unit(rng, (cells.B, pts, cells.dim))
    above = np.einsum("vpd,vd->vp", x[cells.cell], cells.rays) > 0.0
    keys = cells.cell[:, None] * pts + np.arange(pts)
    return (np.bincount(keys[above], minlength=cells.B * pts) == 0).reshape(cells.B, pts).mean(axis=1)


# ivol_vector's closed-form angles cover cells up to this dimension.
IVOL_MAX_DIM = 4


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis, 2 atan2(|a-b|, |a+b|):
    accurate near 0 and pi, where arccos(a.b) loses half the digits."""
    return 2 * np.arctan2(norm(a - b), norm(a + b))


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
    volume = norm(_nullspace_rays(np.moveaxis(V, 0, -1)), axis=0)
    # ab + bc + ca: take keeps C order, and einsum's order of summation follows the layout
    dots = np.einsum("vid,vid->v", V, V.take([2, 0, 1], axis=1))
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
    unit = cells.normals / norm(cells.normals, keepdims=True)
    out = np.zeros((B, dim + 1))
    for j in (1, 2):
        r = dim - j  # a j-face lies on r facets
        keys, vertex = _faces(cells, r)
        runs_ok = not keys.size % j and (keys[j - 1 :: j] == keys[::j]).all()  # one run of j per face
        if not runs_ok or (keys[j::j] == keys[j - 1 : -1 : j]).any():
            raise SampleAssertionError(f"a {j}-face of a cell does not have exactly {j} vertices")
        fb, fs = np.divmod(keys[::j], math.comb(m, r))
        facets = fb[:, None] * m + _combos(m, r)[fs]
        share = _cone_angle(cells.rays, vertex.reshape(-1, j)) * _cone_angle(unit.reshape(-1, dim), facets)
        out[:, j] = np.bincount(fb, weights=share, minlength=B)
    if (dim >= 3 and (0.5 - out[:, 1] < -1e-12).any()) or (0.5 - out[:, 2] < -1e-12).any():
        raise SampleAssertionError("Gauss-Bonnet: v_3 or 1/2 - v_2 below -1e-12")
    if dim >= 3:
        out[:, 3] = 0.5 - out[:, 1]
    if dim == 4:
        out[:, 4] = solid_fractions(cells.normals, rng, pts)
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
        out += c[dim] * solid_fractions(cells.normals, rng, pts)
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


def _certificates(ca: CellBatch, cb: CellBatch) -> Tuple[np.ndarray, np.ndarray]:
    """(hit, miss) that cone ``ca`` certifies against cone ``cb``, batched.

    A vertex of A strictly inside B (every margin against B's normals above
    _TOL) is a common ray beyond the origin.  A normal of B with every vertex
    of A strictly below -_TOL puts all of A, the conic hull of its vertices,
    beyond that facet hyperplane but for the origin.  A cone with no vertex
    certifies nothing, which keeps the second test from holding vacuously.
    """
    margins = np.einsum("vd,vmd->vm", ca.rays, cb.normals[ca.cell])
    hit = np.zeros(ca.B, dtype=bool)
    hit[ca.cell[(margins > _TOL).all(axis=1)]] = True
    # per pair and normal of B, its vertices beyond: differences of running sums
    beyond = np.zeros((len(ca.cell) + 1, margins.shape[1]), dtype=np.intp)
    np.cumsum(margins < -_TOL, axis=0, out=beyond[1:])
    count = np.bincount(ca.cell, minlength=ca.B)
    end = np.cumsum(count)
    miss = ((beyond[end] - beyond[end - count]) == count[:, None]).any(axis=1) & (count > 0)
    return hit, miss


def cells_intersect(ca: CellBatch, cb: CellBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Whether the cones of two cell batches meet beyond the origin: (hit (B,), near (B,)).

    Pointed cones are the conic hulls of their vertices, so a vertex of one
    strictly inside the other decides a hit, and a facet hyperplane of one
    with every vertex of the other strictly beyond it decides a miss
    (``_certificates``, both ways round).  The pairs that no certificate
    decides, or that both kinds claim, go to ``_meets`` on the stacked rows,
    which alone sets ``near``: grazing rays, whose replications the caller
    redraws.
    """
    hit_ab, miss_ab = _certificates(ca, cb)
    hit_ba, miss_ba = _certificates(cb, ca)
    hit, miss = hit_ab | hit_ba, miss_ab | miss_ba
    near = np.zeros(ca.B, dtype=bool)
    undecided = np.flatnonzero(hit == miss)
    if undecided.size:
        stacked = np.concatenate([ca.normals[undecided], cb.normals[undecided]], axis=1)
        hit[undecided], near[undecided] = _meets(stacked)
    return hit, near


def _vertex_table(normals: np.ndarray) -> CellBatch:
    """The cones {x : A x >= 0} of rows ``normals`` (B, M, dim) with their vertex table.

    One extreme-ray pass, as the samplers make, and the rays of the
    vertices (``_table``, with every bit of the side mask set); a cone
    with a null ray or a hinged class keeps no table row, so that it
    certifies nothing.
    """
    B, M, dim = normals.shape
    above, below, null = _extreme_rays(normals, _combos(M, dim - 1))
    sel, hinged = _sign_classes(above, below, _outside(M, dim - 1))
    sel[(null | hinged).any(axis=1)] = 0
    return _table(normals, np.full((B, -(-M // 64)), ~np.uint64(0)), sel, 0)


def cones_intersect_batch(normals_a: np.ndarray, normals_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized {x != 0 : A x >= 0, B x >= 0} nonemptiness test.

    ``cells_intersect`` on the vertex tables of both cones.  Returns
    (hit (B,), near (B,)); near flags grazing rays (caller redraws those
    replications).
    """
    return cells_intersect(_vertex_table(normals_a), _vertex_table(normals_b))


# ---------------------------------------------------------------------------
# Top-level runners.
# ---------------------------------------------------------------------------


def _replicate(reps: int, seed: int, stream: int, draw) -> MCEstimate:
    """``finalize`` of ``draw(rng, nb) -> (num, den or None, redraws)`` over ``reps`` replications.

    Batches hold BATCH replications, the last one the remainder; batch j
    draws from ``batch_rng(seed, stream, j)``.  The replications of every
    batch are concatenated in batch order and reduced once.
    """
    nums, dens, redraws = zip(*[
        draw(batch_rng(seed, stream, j), min(BATCH, reps - start))
        for j, start in enumerate(range(0, reps, BATCH))
    ])
    den = None if dens[0] is None else np.concatenate(dens)
    return finalize(np.concatenate(nums), den, sum(redraws), seed)


def _kappa_sampler(kappa: KappaFamily, n: int, d: int, k: int):
    """Raw normals factory for non-isotropic sampling of either flavor (None if iso).

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
        norms = norm(proj, keepdims=True)
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
        row[dim] = float(sphere_surface(dim - 1))  # H^k = omega_{k+1} v_{k+1}
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
    if raw is not None and quantity == "isect":
        raise ValueError(f"the {flavor} {quantity} sampler takes isotropic kappa only")
    if quantity == "isect":
        return run_isect(flavor, n, query.m, d, config, stream)
    S = config.subspace_reps

    if quantity == "f":
        values = lambda cells, rng: fvec_values(cells, l)
    else:
        row = _ivol_row(quantity, l, dim)
        values = lambda cells, rng: ivol_values(cells, rng, S, row)
    sample = sample_typical_cells if flavor == "typical" else sample_weighted_cells

    def draw(rng, nb):
        cells = sample(rng, nb, m, dim, raw_sampler=raw)
        return values(cells, rng), None, cells.degenerate

    return _replicate(config.reps, config.seed, stream, draw)


def run_isect(flavor: str, n: int, m: int, d: int, config, stream: int) -> MCEstimate:
    dim = d + 1
    sample = sample_typical_cells if flavor == "typical" else sample_weighted_cells

    def draw(rng, nb):
        def pair(size):
            ca, cb = sample(rng, size, n, dim), sample(rng, size, m, dim)
            hit, near = cells_intersect(ca, cb)
            return (hit,), near, ca.degenerate + cb.degenerate

        (hit,), redraws = _redraw(nb, pair)
        return hit, None, redraws

    return _replicate(config.reps, config.seed, stream, draw)


def run_consistency(n: int, d: int, k: int, config) -> MCEstimate:
    """The size-bias ratio E[f_0(Z) H^k(Z)] / E[H^k(Z)] over typical k-faces Z under the config's kappa.

    The joint draw of consistency check (a), from its own stream, which
    ``simulate.consistency_checks`` judges; the stream hashes (n, d, k)
    only, not the kappa.  It keeps the name of both checks because the
    benchmark's tracer spans it.
    """
    stream = stream_id("sizebias", n, d, k)
    row = _ivol_row("hk", None, k + 1)
    raw = _kappa_sampler(config.kappa, n, d, k)

    def draw(rng, nb):
        cells = sample_typical_cells(rng, nb, n - d + k, k + 1, raw_sampler=raw)
        h = ivol_values(cells, rng, config.subspace_reps, row)
        return fvec_values(cells, 0) * h, h, cells.degenerate

    return _replicate(config.reps, config.seed, stream, draw)
