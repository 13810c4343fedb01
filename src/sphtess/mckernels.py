"""Vectorized Monte Carlo kernels behind :mod:`sphtess.simulate`.

These kernels decide every geometric predicate of the estimators in closed
form, vectorized over replication batches:

* cells are enumerated through vertex incidences: in general position with
  m >= k+1 normals every cell of the central arrangement in R^{k+1} is a
  pointed cone whose extreme rays are the +-nullspace directions of the
  k-subsets, and each of the 2^k local sign resolutions around a ray belongs
  to exactly one cell;
* every cone question goes through one primitive: each (j-1)-subset of
  the rows of {y in R^j : R y >= 0} spans a candidate ray, which is an
  extreme ray iff every other margin lies beyond the tolerance band on one
  side, and a pointed cone with generic rows is nontrivial iff it has an
  extreme ray (Cover & Efron 1967).  Cell vertices and the enumeration
  masks use the cell's normals; a cone meets a uniform j-dim subspace iff
  the normals restricted to it leave an extreme ray; two cones intersect
  iff their stacked normals do.  A ray whose class hinges on margins within
  the band is grazing: the samplers and the intersection test redraw that
  replication and count the redraw, as they do a pole-concentrated draw
  with nearly dependent cutters, all through one loop (``_redraw``) of at
  most MAX_REDRAW_ROUNDS rounds, past which it raises DegenerateInput;
* polar membership is a dot-product test against the cell's extreme rays;
* the nearest point of a cone to g is the feasible point nearest to g among
  the apex and the projections of g onto the spans of the candidate faces
  (every active set of fewer than dim constraints), each a small Gram solve
  vectorized over the batch.

Every kernel is equivalence-tested against an independent LP route that
lives with the tests (``tests/lp_oracle.py``), and the per-sample structural
assertions (cell count = C(m,k), Euler relation, Moreau orthogonality) are
enforced here on every replication.

Determinism: every estimate runs its batches in order in one thread; batch
j of a (seed, stream) pair draws from an independently keyed Philox
generator, and partial sums are reduced in batch order, so results are
bit-identical from (seed, reps, config).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .combinat import cells_count
from .exactnum import sp_eval, sphere_surface
from .geom import DegenerateInput, KappaFamily, sample_vmf_mixture
from .moments import ExpectationQuery, ef_typical, ef_weighted, evaluate_query
from .simulate import ComparisonReport, MCEstimate

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
    """
    dim = rows.shape[1]
    if dim == 1:
        return np.ones((1,) + rows.shape[2:])  # the empty subset spans R^1
    if dim == 2:
        u = rows[0]
        return np.stack([-u[1], u[0]])
    if dim == 3:
        a, b = rows
        return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])
    if dim == 4:
        # generalized cross product: 2x2 minors of rows 0 and 1, then the
        # signed 3x3 cofactors by expansion along row 2
        a, b, c = rows
        p = {(i, j): a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(4), 2)}
        return np.stack(
            [
                c[1] * p[2, 3] - c[2] * p[1, 3] + c[3] * p[1, 2],
                -c[0] * p[2, 3] + c[2] * p[0, 3] - c[3] * p[0, 2],
                c[0] * p[1, 3] - c[1] * p[0, 3] + c[3] * p[0, 1],
                -c[0] * p[1, 2] + c[1] * p[0, 2] - c[2] * p[0, 1],
            ]
        )
    mats = np.moveaxis(rows, (0, 1), (-2, -1))
    cols = np.arange(dim)
    return np.stack([((-1) ** i) * np.linalg.det(mats[..., cols != i]) for i in range(dim)])


_CHUNK = 1 << 20  # margins per block of subsets


def _subset_blocks(R: np.ndarray, subsets: np.ndarray):
    """Consecutive blocks of ``subsets`` holding about _CHUNK margins against R."""
    step = max(1, _CHUNK // R[..., 0].size)
    for lo in range(0, len(subsets), step):
        yield subsets[lo : lo + step]


def _extreme_rays(R: np.ndarray, subsets: np.ndarray):
    """Candidate extreme rays of the cones {y in R^j : R y >= 0}, batched.

    R: (..., M, j) rows; subsets: (P, j-1) row indices, each spanning a line.
    Returns per subset

    * ``rays`` (..., P, j): the unit direction of the line;
    * ``margins`` (..., P, M): ray . row for every row;
    * ``sign`` (..., P) int8: +1 (-1) when every other margin lies above
      _TOL (below -_TOL), so that +ray (-ray) is an extreme ray; else 0;
    * ``grazing`` (..., P): the subset's rows are dependent, or the sign
      class hinges on margins within _TOL of zero.

    A subset's own margins vanish, so counting the margins beyond the band
    needs no mask.  A pointed cone with generic rows is nontrivial iff some
    subset has a nonzero sign class (Cover & Efron 1967).
    """
    M, j = R.shape[-2:]
    comps = np.ascontiguousarray(np.moveaxis(R, (-2, -1), (0, 1)))  # (M, j, ...)
    rays = _nullspace_rays(np.moveaxis(comps[subsets.T], 2, 1))  # (j, P, ...)
    norms = np.sqrt(sum(r * r for r in rays))
    null = norms < 1e-12
    rays /= np.where(null, 1.0, norms)
    rays = np.ascontiguousarray(np.moveaxis(rays, (0, 1), (-1, -2)))
    margins = rays @ np.swapaxes(R, -1, -2)
    # einsum sums the short last axis several times faster than count_nonzero
    pos = np.einsum("...m->...", margins > _TOL, dtype=np.intp)
    neg = np.einsum("...m->...", margins < -_TOL, dtype=np.intp)
    others = M - j + 1
    sign = ((pos == others) & (neg == 0)).astype(np.int8) - ((neg == others) & (pos == 0))
    grazing = np.moveaxis(null, 0, -1) | ((pos + neg < others) & ((pos == 0) | (neg == 0)))
    return rays, margins, sign, grazing


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

    def f0(self) -> np.ndarray:
        return np.count_nonzero(self.vert_sel, axis=1)


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


def _sample_cells(B: int, m: int, dim: int, sides) -> CellBatch:
    """B cells of arrangements of m normals in R^dim, one per arrangement.

    ``sides(nb)`` draws nb arrangements and picks a cell of each: it returns
    the normals (nb, m, dim), the side (+-1) of each normal the cell lies on
    (nb, m), and a mask of the draws it flags as degenerate (nb,).  Draws
    flagged there or grazing in the vertex enumeration are redrawn.
    """
    if m < dim:
        raise ValueError("batched kernels require m >= k+1 (pointed cells)")
    combos = _combos(m, dim - 1)

    def draw(nb):
        normals, signs, bad = sides(nb)
        signed = normals * signs[..., None]
        rays, _, sel, grazing = _extreme_rays(signed, combos)
        return (signed, rays, sel), bad | grazing.any(axis=1), 0

    (normals, rays, sel), redraws = _redraw(B, draw)
    return CellBatch(normals, rays, sel, combos, redraws)


def sample_weighted_cells(rng: np.random.Generator, B: int, m: int, dim: int) -> CellBatch:
    """Weighted typical cells: the cell of a uniform witness point."""

    def sides(nb):
        normals = _sample_unit(rng, (nb, m, dim))
        dots = np.einsum("bmd,bd->bm", normals, _sample_unit(rng, (nb, dim)))
        return normals, np.sign(dots), (np.abs(dots) <= _TOL).any(axis=1)

    return _sample_cells(B, m, dim, sides)


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
    normals: np.ndarray, rng: np.random.Generator, combos, n_cells: int, bad: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate all cells through vertex incidences and pick one uniformly.

    ``bad`` flags draws already known to be degenerate.  Returns (chosen
    bitmask (B,), bad (B,)); asserts the per-sample count on the rest.
    """
    B, m, dim = normals.shape
    _, margins, _, grazing = _extreme_rays(normals, combos)
    outside, offsets = _mask_offsets(m, dim - 1)
    weights = 1 << np.arange(m, dtype=np.int64)
    # sides of the rows outside each subset, and any of them within the band
    base = ((margins > 0) @ weights) & outside
    banded = ((np.abs(margins) <= _TOL) @ weights) & outside
    masks = np.concatenate(
        [base[..., None] + offsets, (outside - base)[..., None] + offsets], axis=2
    ).reshape(B, -1)  # (B, nC * 2^(k+1))
    masks.sort(axis=1)
    new = np.ones_like(masks, dtype=bool)
    new[:, 1:] = masks[:, 1:] != masks[:, :-1]
    counts = new.sum(axis=1)
    bad = bad | grazing.any(axis=1) | (banded != 0).any(axis=1)
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
    combos = _combos(m, dim - 1)
    n_cells = int(cells_count(m, dim - 1))
    weights = 1 << np.arange(m, dtype=np.int64)

    def sides(nb):
        if raw_sampler is None:
            normals, bad = _sample_unit(rng, (nb, m, dim)), np.zeros(nb, dtype=bool)
        else:
            normals, bad = raw_sampler(rng, nb)
        chosen, bad = _enumerate_and_pick(normals, rng, combos, n_cells, bad)
        return normals, np.where((chosen[:, None] & weights) > 0, 1.0, -1.0), bad

    return _sample_cells(B, m, dim, sides)


# ---------------------------------------------------------------------------
# Per-cell functionals.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _face_codes(m: int, k: int, r: int) -> np.ndarray:
    """Bitmasks of the r-subsets of each k-subset of range(m): (C(m,k), C(k,r))."""
    bits = 1 << _combos(m, k).astype(np.int64)
    out = bits[:, _combos(k, r)].sum(axis=2)
    out.flags.writeable = False
    return out


def fvec_values(cells: CellBatch, l: int) -> np.ndarray:
    """f_l of each cell from its vertices' facet sets, with the Euler hard check.

    Cells are simple almost surely, so the l-faces through a vertex are cut
    out by the (k-l)-subsets of its k facets, and f_l is the number of
    distinct (k-l)-subsets of the vertices' facet sets.
    """
    k = cells.dim - 1
    m = cells.normals.shape[1]
    vertex = cells.vert_sel != 0
    f = []
    for i in range(k + 1):
        codes = np.where(vertex[..., None], _face_codes(m, k, k - i), -1).reshape(cells.B, -1)
        codes.sort(axis=1)
        new = np.ones_like(codes, dtype=bool)
        new[:, 1:] = codes[:, 1:] != codes[:, :-1]
        f.append(np.count_nonzero(new & (codes >= 0), axis=1))
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


def subspace_hits(
    cells: CellBatch, rng: np.random.Generator, j: int, reps: int
) -> np.ndarray:
    """Per-cell fraction of uniform j-dim subspaces meeting the cone."""
    dim = cells.dim
    if j >= dim:
        return np.ones(cells.B)
    bases = _haar_bases(rng, cells.B, reps, dim, j)
    return _hit_fraction(cells, bases)


def subspace_hits_paired(
    cells: CellBatch, rng: np.random.Generator, j: int, reps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Hit fractions for j-dim subspaces and nested (j-2)-dim subspaces.

    The small subspace is the leading columns of the same Haar frame, which
    keeps it Haar-distributed while pairing the two indicators for variance
    reduction in v = U_l - U_{l+2}.
    """
    dim = cells.dim
    bases = _haar_bases(rng, cells.B, reps, dim, min(j, dim))
    big = np.ones(cells.B) if j >= dim else _hit_fraction(cells, bases[..., :j])
    if j - 2 <= 0:
        return big, np.zeros(cells.B)
    small = _hit_fraction(cells, bases[..., : j - 2])
    return big, small


def _haar_bases(rng, B: int, reps: int, dim: int, j: int) -> np.ndarray:
    g = rng.standard_normal((B, reps, dim, j))
    q, r = np.linalg.qr(g)
    diag = np.sign(np.einsum("brii->bri", r))
    return q * diag[..., None, :]


def _hit_fraction(cells: CellBatch, bases: np.ndarray) -> np.ndarray:
    """Per-cell fraction of the subspaces spanned by ``bases`` (B, reps, dim, j)
    that meet the cone.

    A cone {x : A x >= 0} meets span(V) beyond the origin iff the restricted
    cone {y in R^j : (A V) y >= 0} has an extreme ray.
    """
    R = cells.normals[:, None] @ bases  # (B, reps, m, j)
    hit = np.zeros(R.shape[:2], dtype=bool)
    for block in _subset_blocks(R, _combos(R.shape[2], R.shape[3] - 1)):
        hit |= (_extreme_rays(R, block)[2] != 0).any(axis=-1)
    return hit.mean(axis=1)


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

    The intersection is the cone of the stacked rows, nontrivial iff it has
    an extreme ray.  Returns (hit (B,), near (B,)); near flags grazing rays
    (caller redraws those replications).
    """
    stacked = np.concatenate([normals_a, normals_b], axis=1)
    B, M, dim = stacked.shape
    hit = np.zeros(B, dtype=bool)
    near = np.zeros(B, dtype=bool)
    for block in _subset_blocks(stacked, _combos(M, dim - 1)):
        _, _, sign, grazing = _extreme_rays(stacked, block)
        hit |= (sign != 0).any(axis=1)
        near |= grazing.any(axis=1)
    return hit, near


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
    if kappa.name == "isotropic" or kappa.beta == 0.0:
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


def run_estimate(query: ExpectationQuery, config) -> MCEstimate:
    n, d, k, l = query.n, query.d, query.k, query.l
    flavor, quantity = query.flavor, query.quantity
    stream = stream_id(
        quantity, flavor, n, d, k, l, config.kappa.name, config.kappa.beta,
        config.subspace_reps,
    )
    if quantity != "isect" and k == 0:
        # k = 0 faces are points: the defined functionals are a.s. constants
        value = float(sp_eval(evaluate_query(query), 20))
        return MCEstimate(mean=value, stderr=0.0, reps=config.reps, degenerate_redraws=0, seed=config.seed)
    m, dim = n - d + k, k + 1
    raw = _kappa_sampler(config.kappa, n, d, k)
    if flavor == "weighted" and raw is not None:
        raise ValueError("weighted sampler is isotropic only")
    S = config.subspace_reps

    # U_k = v_k = half the two-sided line-hit probability = the solid fraction
    key = "solid" if quantity in ("U", "v") and l == k else quantity
    omega = float(sp_eval(sphere_surface(k), 20)) if quantity == "hk" else None
    values = {
        "f": lambda cells, rng: fvec_values(cells, l),
        "solid": lambda cells, rng: solid_fractions(cells, rng, S),
        "U": lambda cells, rng: 0.5 * subspace_hits(cells, rng, k - l + 1, S),
        "v": lambda cells, rng: 0.5 * np.subtract(*subspace_hits_paired(cells, rng, k - l + 1, S)),
        "vminus1": lambda cells, rng: polar_fractions(cells, rng, S),
        "statdim": statdim_values,
        "hk": lambda cells, rng: omega * solid_fractions(cells, rng, S),
    }.get(key)
    if values is None:
        raise ValueError(f"run_estimate cannot handle quantity {quantity!r}")

    def worker(rng, nb):
        if flavor == "typical":
            cells = sample_typical_cells(rng, nb, m, dim, raw_sampler=raw)
        else:
            cells = sample_weighted_cells(rng, nb, m, dim)
        return _sums(values(cells, rng), cells.degenerate)

    return finalize(_batches(config.reps, config.seed, stream, worker), config.seed)


def run_isect(flavor: str, n: int, m: int, d: int, config) -> MCEstimate:
    stream = stream_id("isect", flavor, n, m, d)
    dim = d + 1
    if flavor not in ("typical", "weighted"):
        raise ValueError(f"unknown flavor {flavor!r}")
    sample = sample_typical_cells if flavor == "typical" else sample_weighted_cells

    def worker(rng, nb):
        def draw(size):
            ca, cb = sample(rng, size, n, dim), sample(rng, size, m, dim)
            hit, near = cones_intersect_batch(ca.normals, cb.normals)
            return (hit,), near, ca.degenerate + cb.degenerate

        (hit,), redraws = _redraw(nb, draw)
        return _sums(hit.astype(float), redraws)

    return finalize(_batches(config.reps, config.seed, stream, worker), config.seed)


# ---------------------------------------------------------------------------
# Consistency checks.
# ---------------------------------------------------------------------------


def run_consistency(n: int, d: int, k: int, config, parts=("a", "b", "c")) -> list:
    omega = float(sp_eval(sphere_surface(k), 20))
    checks = {
        "a": lambda: _sizebias_report(n, d, k, config, omega),
        "b": lambda: _kappa_invariance_report(n, d, k, config),
        "c": lambda: _skeleton_report(n, d, k, config, omega),
    }
    return [check() for part, check in checks.items() if part in parts]


def _sizebias_report(n, d, k, config, omega):
    # (a) size bias: E[f0(Z) H^k(Z)] / E[H^k(Z)] vs E[f0(W)]
    stream = stream_id("sizebias", n, d, k)

    def worker(rng, nb):
        cells = sample_typical_cells(rng, nb, n - d + k, k + 1)
        h = omega * solid_fractions(cells, rng, config.subspace_reps)
        return fvec_values(cells, 0) * h, h, cells.degenerate

    fh, h, deg = zip(*_batches(config.reps, config.seed, stream, worker))
    fh, h = np.concatenate(fh), np.concatenate(h)
    R = h.size
    ratio = float(fh.mean() / h.mean())
    # delta method for a ratio of means, from the residuals fh - ratio * h:
    # raw second moments cancel when the ratio is (nearly) constant
    se_ratio = float(np.std(fh - ratio * h, ddof=1) / h.mean()) / math.sqrt(R)

    query = ExpectationQuery("f", "weighted", n, d, k, 0)
    west = run_estimate(query, config)
    exact = ef_weighted(n, d, k, 0)
    # the ratio is judged against the weighted estimate, not the exact value
    combined_se = math.sqrt(se_ratio**2 + west.stderr**2)
    z = (ratio - west.mean) / combined_se if combined_se else 0.0
    est = MCEstimate(mean=ratio, stderr=se_ratio, reps=R, degenerate_redraws=sum(deg), seed=config.seed)
    return ComparisonReport(
        query=query,
        exact=exact,
        exact_float=float(sp_eval(exact, 20)),
        estimate=est,
        z_score=z,
        verdict="pass" if abs(z) <= config.z_fail else "fail",
    )


def _kappa_invariance_report(n, d, k, config):
    # (b) kappa invariance of the typical f-vector
    beta = config.kappa.beta if config.kappa.name == "pole_concentrated" else 4.0
    cfg_pole = replace(config, kappa=KappaFamily("pole_concentrated", beta))
    q = ExpectationQuery("f", "typical", n, d, k, 0)
    est_pole = run_estimate(q, cfg_pole)
    exact_t = ef_typical(n, d, k, 0)
    return ComparisonReport.build(q, exact_t, est_pole, cfg_pole.z_warn, cfg_pole.z_fail)


def _skeleton_report(n, d, k, config, omega):
    # (c) skeleton content: binom(n, d-k) valid subsphere intersections per draw
    stream = stream_id("skeleton", n, d, k)
    rng = batch_rng(config.seed, stream, 0)
    reps = min(config.reps, 256)
    ok = True
    if k < d:
        normals = _sample_unit(rng, (reps, n, d + 1))
        rows = normals[:, _combos(n, d - k), :]  # (reps, nSub, d-k, d+1)
        sv = np.linalg.svd(rows, compute_uv=False)
        ok = bool((sv[..., -1] > 1e-6).all())
    expected = math.comb(n, d - k) * omega
    est_c = MCEstimate(mean=expected if ok else math.nan, stderr=0.0, reps=reps, degenerate_redraws=0, seed=config.seed)
    exact_skel = sphere_surface(k).scale(math.comb(n, d - k))
    return ComparisonReport(
        query=ExpectationQuery("hk", "typical", n, d, k),
        exact=exact_skel,
        exact_float=float(sp_eval(exact_skel, 20)),
        estimate=est_c,
        z_score=0.0 if ok else math.inf,
        verdict="pass" if ok else "fail",
    )
