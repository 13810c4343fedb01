"""Floating-point geometric kernel.

Samples great hyperspheres and random subspaces, enumerates the cells of a
central arrangement with certified witnesses, counts faces, tests cone
feasibility and intersection, and projects points onto polyhedral cones.

The linear-programming core is a self-contained dense simplex with Bland's
rule; problem sizes here are tiny (tens of rows).  Inputs are continuous
random rotations, so general position holds almost surely; near-degeneracy
is detected by margin thresholds and signalled via :class:`DegenerateInput`
so the caller can resample (and count the redraw).

All operations are pure given an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DegenerateInput",
    "NumericError",
    "KappaFamily",
    "SubsphereBasis",
    "SphericalCell",
    "Arrangement",
    "unit",
    "sample_normal",
    "sample_vmf_mixture",
    "intersect_to_subsphere",
    "uniform_subspace",
    "build_arrangement",
    "cell_f_vector",
    "strict_feasibility",
    "simplex_max",
    "cone_meets_subspace",
    "polar_support_margin",
    "project_onto_cone",
    "cones_intersect",
    "solid_angle_mc",
]

DEG_TOL = 1e-9  # margins this small signal a (measure-zero) degenerate draw
FEAS_TOL = 1e-7  # strict-feasibility certificate threshold


class DegenerateInput(RuntimeError):
    """Raised when a draw is too close to general-position failure."""


class NumericError(RuntimeError):
    """Raised when an LP or projection cannot be certified numerically."""


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise DegenerateInput("cannot normalize a near-zero vector")
    return v / n


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


# ---------------------------------------------------------------------------
# Random directions and subspaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaFamily:
    """Directional distribution of the hypersphere normals.

    ``isotropic`` is uniform on the sphere; ``pole_concentrated`` is the even
    mixture (vMF(e, beta) + vMF(-e, beta))/2 around the last coordinate axis,
    absolutely continuous and therefore non-degenerate for every beta >= 0.
    """

    name: str = "isotropic"
    beta: float = 0.0

    def validate(self) -> None:
        if self.name not in ("isotropic", "pole_concentrated"):
            raise ValueError(f"unknown kappa family {self.name!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def sample_normal(rng: np.random.Generator, dim: int, kappa: KappaFamily = KappaFamily()) -> np.ndarray:
    """One unit normal in R^{dim+1} from the requested directional family."""
    kappa.validate()
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if kappa.name == "isotropic" or kappa.beta == 0.0:
        return unit(rng.standard_normal(dim + 1))
    return sample_vmf_mixture(rng, dim, kappa.beta, 1)[0]


def sample_vmf_mixture(rng: np.random.Generator, dim: int, beta: float, size: int) -> np.ndarray:
    """size draws from (vMF(e, beta) + vMF(-e, beta))/2 on S^dim (Wood's method).

    Wood's acceptance test runs in s = 1 - x0 and t = 1 - w, which stay
    accurate at large beta, where x0 and w round to 1 and 1 - x0^2 cancels.
    """
    p = dim + 1
    kap = float(beta)
    b = (p - 1) / (2 * kap + math.hypot(2 * kap, p - 1))
    s = 2 * b / (1 + b)
    log_c = math.log(s * (2 - s))  # log(1 - x0^2)
    t = np.empty(size)
    need = np.ones(size, dtype=bool)
    while need.any():
        nn = int(need.sum())
        z = rng.beta((p - 1) / 2.0, (p - 1) / 2.0, size=nn)
        tc = 2 * b * z / (1 - (1 - b) * z)
        u = rng.random(nn)
        # kap (w - x0) + (p-1) log((1 - x0 w) / (1 - x0^2)) >= log u
        ok = kap * (s - tc) + (p - 1) * (np.log(s + tc - s * tc) - log_c) >= np.log(u)
        idx = np.flatnonzero(need)[ok]
        t[idx] = tc[ok]
        need[idx] = False
    tang = rng.standard_normal((size, p - 1))
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    out = np.empty((size, p))
    out[:, :-1] = tang * np.sqrt(t * (2 - t))[:, None]
    out[:, -1] = 1 - t
    flip = rng.random(size) < 0.5
    out[flip] *= -1.0
    return out


def uniform_subspace(rng: np.random.Generator, ambient_dim: int, j: int) -> np.ndarray:
    """Orthonormal basis (ambient_dim x j) of a Haar-uniform j-dim subspace."""
    if not 1 <= j <= ambient_dim:
        raise ValueError(f"need 1 <= j <= {ambient_dim}, got {j}")
    g = rng.standard_normal((ambient_dim, j))
    q, r = np.linalg.qr(g)
    # fix signs so the distribution is exactly Haar
    q *= np.sign(np.diag(r))
    return q


@dataclass(frozen=True)
class SubsphereBasis:
    """Orthonormal basis of the linear span of a great subsphere."""

    columns: np.ndarray  # (d+1, k+1)

    def __post_init__(self):
        g = self.columns.T @ self.columns
        if not np.allclose(g, np.eye(self.columns.shape[1]), atol=1e-10):
            raise ValueError("basis columns are not orthonormal within 1e-10")

    @property
    def subsphere_dim(self) -> int:
        return self.columns.shape[1] - 1


def intersect_to_subsphere(normals: Sequence[np.ndarray], d: int) -> SubsphereBasis:
    """Orthonormal basis of the intersection of the normals' orthocomplements."""
    U = np.asarray(normals, dtype=float).reshape(len(normals), d + 1)
    q, s, vt = np.linalg.svd(U, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    if rank < len(normals) or (s[0] / s[rank - 1]) > 1e8:
        raise DegenerateInput("normals nearly dependent; resample")
    basis = vt[rank:].T  # (d+1, d+1-rank)
    return SubsphereBasis(columns=basis)


# ---------------------------------------------------------------------------
# Cells and arrangements.
# ---------------------------------------------------------------------------


@dataclass
class SphericalCell:
    """One cell {x : <u_i, x> >= 0} of an arrangement, with interior witness.

    ``normals`` and ``witness`` live in the coordinates of ``ambient`` (or of
    the standard basis when ambient is None).
    """

    normals: np.ndarray  # (m, k+1), sign-adjusted
    witness: np.ndarray  # (k+1,), unit, strictly interior
    ambient: Optional[SubsphereBasis] = None

    @property
    def dim(self) -> int:
        return self.normals.shape[1] - 1

    def margin(self) -> float:
        return float(np.min(self.normals @ self.witness)) if len(self.normals) else 1.0

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(self.normals @ x >= 0.0))


@dataclass
class Arrangement:
    k: int
    normals: np.ndarray  # (m, k+1)
    cells: List[Tuple[Tuple[int, ...], np.ndarray]]  # (sign vector, witness)

    def cell(self, index: int) -> SphericalCell:
        signs, witness = self.cells[index]
        signed = self.normals * np.asarray(signs, dtype=float)[:, None]
        return SphericalCell(normals=signed, witness=witness)


def build_arrangement(normals: np.ndarray, k: int) -> Arrangement:
    """Incremental cell enumeration: insert hyperspheres one at a time and
    split every cell whose interior meets the new hypersphere.

    Each side's nonemptiness is decided by the strict-feasibility LP; fresh
    witnesses come from the LP solutions.  The final count must equal the
    Schlaefli number C(m, k), otherwise the input is declared degenerate.
    """
    from .combinat import cells_count

    U = np.asarray(normals, dtype=float)
    m = U.shape[0]
    if m < 1 or U.shape[1] != k + 1:
        raise ValueError("need m >= 1 normals of dimension k+1")
    cells: List[Tuple[Tuple[int, ...], np.ndarray]] = [
        ((1,), U[0].copy()),
        ((-1,), -U[0].copy()),
    ]
    for j in range(1, m):
        u = U[j]
        nxt: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        for signs, witness in cells:
            rows = U[:j] * np.asarray(signs, dtype=float)[:, None]
            survivors = []
            for sgn in (1, -1):
                mat = np.vstack([rows, sgn * u[None, :]])
                t, y = strict_feasibility(mat)
                if DEG_TOL < t <= FEAS_TOL:
                    raise DegenerateInput(f"margin {t:.2e} inserting hypersphere {j}")
                if t > FEAS_TOL:
                    survivors.append((signs + (sgn,), unit(y)))
            if not survivors:
                raise DegenerateInput(f"cell vanished inserting hypersphere {j}")
            nxt.extend(survivors)
        cells = nxt
    expected = int(cells_count(m, k))
    if len(cells) != expected:
        raise DegenerateInput(f"cell count {len(cells)} != C({m},{k}) = {expected}")
    return Arrangement(k=k, normals=U, cells=cells)


def cell_f_vector(cell: SphericalCell, up_to: int) -> List[int]:
    """Counts (f_0, ..., f_{up_to}) of the cell's spherical faces.

    An l-face corresponds to a (k-l)-subset of hyperspheres whose common
    subsphere meets the cell in a set with nonempty relative interior; that
    is decided by a strict-feasibility LP in the restricted subspace.
    """
    A = cell.normals
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
            restricted = A[others] @ basis
            t, _ = strict_feasibility(restricted)
            if DEG_TOL < t <= FEAS_TOL:
                raise NumericError(f"degenerate face test for subset {subset}")
            if t > FEAS_TOL:
                cnt += 1
        counts.append(cnt)
    return counts


def cone_meets_subspace(cell: SphericalCell, basis: np.ndarray) -> bool:
    """True iff the cell's cone meets the subspace in more than the origin."""
    V = np.asarray(basis, dtype=float)
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError("subspace basis must have at least one column")
    restricted = cell.normals @ V
    t, _ = strict_feasibility(restricted)
    if DEG_TOL < t <= FEAS_TOL:
        raise DegenerateInput("grazing subspace")
    return t > FEAS_TOL


def cones_intersect(a: SphericalCell, b: SphericalCell) -> bool:
    """True iff the two cones share more than the origin (a.s. correct)."""
    if a.normals.shape[1] != b.normals.shape[1]:
        raise ValueError("cones live in different ambient dimensions")
    stacked = np.vstack([a.normals, b.normals])
    t, _ = strict_feasibility(stacked)
    if DEG_TOL < t <= FEAS_TOL:
        raise DegenerateInput("grazing cones")
    return t > FEAS_TOL


# ---------------------------------------------------------------------------
# Nearest-point projection onto a polyhedral cone.
# ---------------------------------------------------------------------------

FACE_ENUM_LIMIT = 25


def project_onto_cone(cell: SphericalCell, point: np.ndarray) -> np.ndarray:
    """Metric projection of ``point`` onto {x : A x >= 0}.

    Face-enumeration mode (m <= 25): for every independent active set S with
    |S| <= dim, project onto the span of the face, then keep the unique
    candidate that is primal feasible with nonnegative multipliers.  Larger
    systems fall back to Dykstra's cyclic halfspace projection.
    """
    A = np.asarray(cell.normals, dtype=float)
    p = np.asarray(point, dtype=float)
    m, dim = A.shape
    if m > FACE_ENUM_LIMIT:
        return _project_dykstra(A, p)
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


def _project_dykstra(A: np.ndarray, p: np.ndarray, tol: float = 1e-10, cap: int = 100000) -> np.ndarray:
    m = A.shape[0]
    x = p.copy()
    corrections = np.zeros((m, p.size))
    for sweep in range(cap):
        x_old = x.copy()
        for i in range(m):
            y = x - corrections[i]
            viol = float(A[i] @ y)
            proj = y - min(viol, 0.0) * A[i] / float(A[i] @ A[i])
            corrections[i] = proj - y
            x = proj
        if np.linalg.norm(x - x_old) < tol:
            return x
    raise NumericError("Dykstra projection did not converge")


# ---------------------------------------------------------------------------
# Solid-angle Monte Carlo.
# ---------------------------------------------------------------------------


def solid_angle_mc(cell: SphericalCell, reps: int, rng: np.random.Generator):
    """Fraction of uniform points of the cell's subsphere inside the cell."""
    from .simulate import MCEstimate

    if reps < 1:
        raise ValueError("reps must be >= 1")
    dim = cell.normals.shape[1]
    pts = rng.standard_normal((reps, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    inside = np.all(pts @ cell.normals.T >= 0.0, axis=1)
    p = float(np.mean(inside))
    se = math.sqrt(max(p * (1 - p), 0.0) / reps)
    return MCEstimate(mean=p, stderr=se, reps=reps, degenerate_redraws=0, seed=0)
