"""LP reference route for the batched kernels in :mod:`sphtess.mckernels`.

Each predicate here decides one instance at a time by a small linear
program, solved by a self-contained dense simplex with Bland's rule (the
problems have tens of rows).  It shares no code with the kernels, so the
kernel equivalence tests compare two independent routes.  A cone is a plain
(m, dim) array A of rows: the cone {x : A x >= 0}.

Strict feasibility LP ``max t : M y >= t 1, ||y||_inf <= 1``: t > FEAS_TOL
certifies an interior point; an empty cone lands at exactly t = 0; the band
(DEG_TOL, FEAS_TOL] marks a grazing input, on which the predicates raise
:class:`DegenerateInput` (the batched kernels redraw such replications).

The full-skeleton weighted sampler is the only check of the
dimension-reduction identity that ``mckernels.sample_weighted_cells`` relies
on.
"""

from __future__ import annotations

import itertools
from typing import List, Set, Tuple

import numpy as np

from sphtess.combinat import cells_count
from sphtess.geom import DegenerateInput

DEG_TOL = 1e-9  # margins this small signal a (measure-zero) degenerate draw
FEAS_TOL = 1e-7  # strict-feasibility certificate threshold


class NumericError(RuntimeError):
    """Raised when an LP or projection cannot be certified numerically."""


# ---------------------------------------------------------------------------
# Dense simplex (Bland's rule) and the feasibility wrappers.
# ---------------------------------------------------------------------------


def simplex_max(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, max_iter: int = 5000
) -> Tuple[float, np.ndarray]:
    """max c.x subject to A x <= b, x >= 0, with b >= 0 (slack basis start).

    Bland's smallest-index rule guarantees termination; exceeding the
    iteration cap raises NumericError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < 0):
        raise ValueError("simplex_max requires b >= 0")
    # tableau: [A | I | b], cost row [-c | 0 | 0]
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    eps = 1e-11
    for _ in range(max_iter):
        cost = T[m, : n + m]
        entering = -1
        for j in range(n + m):
            if cost[j] < -eps:
                entering = j
                break
        if entering < 0:
            break
        col = T[:m, entering]
        best_ratio, leave = None, -1
        for i in range(m):
            if col[i] > eps:
                ratio = T[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - eps
                    or (abs(ratio - best_ratio) <= eps and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise NumericError("LP unbounded (missing variable bound)")
        piv = T[leave, entering]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leave]
        basis[leave] = entering
    else:
        raise NumericError("simplex cycling guard exceeded")
    x = np.zeros(n + m)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return float(T[m, -1]), x[:n]


def strict_feasibility(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Solve max t s.t. M y >= t 1, ||y||_inf <= 1; return (t, y).

    The zero point is always feasible, so t >= 0: t > FEAS_TOL certifies an
    interior point, t <= DEG_TOL means no strict interior was found (an empty
    cone lands exactly at 0), and the band in between signals a potentially
    grazing draw that callers treat as degenerate and resample.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 1.0, np.zeros(M.shape[1] if M.ndim == 2 else 0)
    if not np.all(np.isfinite(M)):
        raise ValueError("strict_feasibility requires finite entries")
    r, dim = M.shape
    tb = dim + 4.0
    # variables: u (dim), v (dim), t+, t-
    nv = 2 * dim + 2
    rows = []
    rhs = []
    for i in range(r):
        row = np.zeros(nv)
        row[:dim] = -M[i]
        row[dim : 2 * dim] = M[i]
        row[-2] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for j in range(dim):
        row = np.zeros(nv)
        row[j] = 1.0
        row[dim + j] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for j in (nv - 2, nv - 1):
        row = np.zeros(nv)
        row[j] = 1.0
        rows.append(row)
        rhs.append(tb)
    cvec = np.zeros(nv)
    cvec[-2] = 1.0
    cvec[-1] = -1.0
    val, x = simplex_max(cvec, np.array(rows), np.array(rhs))
    y = x[:dim] - x[dim : 2 * dim]
    return val, y


def polar_support_margin(M: np.ndarray, x: np.ndarray) -> float:
    """max <x, y> over the cone cap {y : M y >= 0, ||y||_inf <= 1}.

    Zero (within tolerance) iff x lies in the polar of {y : M y >= 0}.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r, dim = M.shape
    nv = 2 * dim
    rows = []
    rhs = []
    for i in range(r):
        row = np.zeros(nv)
        row[:dim] = -M[i]
        row[dim:] = M[i]
        rows.append(row)
        rhs.append(0.0)
    for j in range(dim):
        row = np.zeros(nv)
        row[j] = 1.0
        row[dim + j] = 1.0
        rows.append(row)
        rhs.append(1.0)
    cvec = np.concatenate([x, -np.asarray(x, dtype=float)])
    val, _ = simplex_max(cvec, np.array(rows), np.array(rhs))
    return val


def _strictly_feasible(M: np.ndarray, what: str) -> bool:
    t, _ = strict_feasibility(M)
    if DEG_TOL < t <= FEAS_TOL:
        raise DegenerateInput(f"margin {t:.2e}: {what}")
    return t > FEAS_TOL


# ---------------------------------------------------------------------------
# Arrangements and cells.
# ---------------------------------------------------------------------------


def signed_rows(normals: np.ndarray, mask: int) -> np.ndarray:
    """The rows of the cell with sign mask ``mask`` (bit j set: u_j . x >= 0)."""
    signs = np.where((mask >> np.arange(len(normals))) & 1, 1.0, -1.0)
    return normals * signs[:, None]


def build_arrangement(normals: np.ndarray, k: int) -> Set[int]:
    """Sign masks of the cells of the central arrangement of ``normals``.

    Incremental enumeration: insert hyperspheres one at a time and split
    every cell whose interior meets the new hypersphere, each side's
    nonemptiness decided by the strict-feasibility LP.  The final count must
    equal the Schlaefli number C(m, k), otherwise the input is degenerate.
    """
    U = np.asarray(normals, dtype=float)
    m = U.shape[0]
    if m < 1 or U.shape[1] != k + 1:
        raise ValueError("need m >= 1 normals of dimension k+1")
    cells = [1, 0]
    for j in range(1, m):
        nxt = []
        for mask in cells:
            rows = signed_rows(U[:j], mask)
            survivors = [
                mask | bit
                for bit, sgn in ((1 << j, 1.0), (0, -1.0))
                if _strictly_feasible(np.vstack([rows, sgn * U[j]]), f"inserting hypersphere {j}")
            ]
            if not survivors:
                raise DegenerateInput(f"cell vanished inserting hypersphere {j}")
            nxt.extend(survivors)
        cells = nxt
    expected = int(cells_count(m, k))
    if len(cells) != expected:
        raise DegenerateInput(f"cell count {len(cells)} != C({m},{k}) = {expected}")
    return set(cells)


def cell_f_vector(A: np.ndarray, up_to: int) -> List[int]:
    """Counts (f_0, ..., f_{up_to}) of the spherical faces of {x : A x >= 0}.

    An l-face corresponds to a (k-l)-subset of hyperspheres whose common
    subsphere meets the cell in a set with nonempty relative interior; that
    is decided by a strict-feasibility LP in the restricted subspace.
    """
    A = np.asarray(A, dtype=float)
    m, dim = A.shape
    k = dim - 1
    if not 0 <= up_to <= k:
        raise ValueError(f"need 0 <= up_to <= {k}")
    counts = []
    for l in range(up_to + 1):
        r = k - l
        if r == 0:
            counts.append(1)
            continue
        if r > m:
            counts.append(0)
            continue
        cnt = 0
        for subset in itertools.combinations(range(m), r):
            rows = A[list(subset)]
            _, s, vt = np.linalg.svd(rows, full_matrices=True)
            if np.sum(s > 1e-10) < r:
                raise NumericError(f"dependent constraints in subset {subset}")
            basis = vt[r:].T  # (dim, l+1)
            others = [i for i in range(m) if i not in subset]
            if not others:
                cnt += 1
                continue
            t, _ = strict_feasibility(A[others] @ basis)
            if DEG_TOL < t <= FEAS_TOL:
                raise NumericError(f"degenerate face test for subset {subset}")
            if t > FEAS_TOL:
                cnt += 1
        counts.append(cnt)
    return counts


def cone_meets_subspace(A: np.ndarray, basis: np.ndarray) -> bool:
    """True iff the cone meets span(basis) in more than the origin."""
    V = np.asarray(basis, dtype=float)
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError("subspace basis must have at least one column")
    return _strictly_feasible(np.asarray(A) @ V, "grazing subspace")


def cones_intersect(A: np.ndarray, B: np.ndarray) -> bool:
    """True iff the two cones share more than the origin (a.s. correct)."""
    if A.shape[1] != B.shape[1]:
        raise ValueError("cones live in different ambient dimensions")
    return _strictly_feasible(np.vstack([A, B]), "grazing cones")


def project_onto_cone(A: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Metric projection of ``point`` onto {x : A x >= 0}.

    For every independent active set S with |S| <= dim, project onto the
    span of the face, then keep the unique candidate that is primal feasible
    with nonnegative multipliers.
    """
    A = np.asarray(A, dtype=float)
    p = np.asarray(point, dtype=float)
    m, dim = A.shape
    if np.all(A @ p >= 0.0):
        return p.copy()
    tol = 1e-9
    best = None
    best_margin = -np.inf
    for size in range(1, min(m, dim) + 1):
        for subset in itertools.combinations(range(m), size):
            As = A[list(subset)]
            G = As @ As.T
            try:
                w = np.linalg.solve(G, As @ p)
            except np.linalg.LinAlgError:
                continue
            lam = -w
            if np.any(lam < -tol):
                continue
            q = p - As.T @ w
            margins = A @ q
            if np.min(margins) < -tol:
                continue
            score = float(np.min(margins))
            if score > best_margin:
                best_margin = score
                best = q
    if best is None:
        raise NumericError("no valid face found in Moreau enumeration")
    return best


# ---------------------------------------------------------------------------
# Full-skeleton weighted sampler.
# ---------------------------------------------------------------------------


def intersect_to_subsphere(normals: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis (d+1, d+1-r) of the intersection of the r normals'
    orthocomplements."""
    U = np.asarray(normals, dtype=float).reshape(len(normals), d + 1)
    _, s, vt = np.linalg.svd(U, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    if rank < len(normals) or (s[0] / s[rank - 1]) > 1e8:
        raise DegenerateInput("normals nearly dependent; resample")
    return vt[rank:].T


def sample_weighted_face_full_skeleton(
    n: int, d: int, k: int, rng: np.random.Generator, max_redraws: int = 64
) -> np.ndarray:
    """Signed normals (n-d+k, k+1) of a weighted k-face, via the full k-skeleton.

    Draws the tessellation in S^d, picks one of the binom(n, d-k) subsphere
    intersections uniformly (each carries equal k-content), then the cell of
    the sectional tessellation containing a uniform point of that subsphere.
    The batched sampler instead draws n-d+k hyperspheres in S^k directly,
    which the dimension-reduction identity says has the same distribution
    for rotation invariant functionals.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if n < d + 1:
        raise ValueError(f"weighted sampler needs n >= d + 1, got n={n}")
    for _ in range(max_redraws):
        normals = rng.standard_normal((n, d + 1))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        chosen = normals
        if k < d:
            idx = rng.permutation(n)[: d - k]
            try:
                basis = intersect_to_subsphere(normals[idx], d)
            except DegenerateInput:
                continue
            proj = np.delete(normals, idx, axis=0) @ basis
            norms = np.linalg.norm(proj, axis=1)
            if np.any(norms < 1e-9):
                continue  # a hypersphere nearly contains the subsphere
            chosen = proj / norms[:, None]
        v = rng.standard_normal(k + 1)
        dots = chosen @ (v / np.linalg.norm(v))
        if np.min(np.abs(dots)) <= 1e-9:
            continue
        return chosen * np.sign(dots)[:, None]
    raise DegenerateInput(f"exceeded {max_redraws} redraws in full-skeleton sampler")
