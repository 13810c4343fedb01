"""Monte Carlo samplers and estimators for typical and weighted faces.

The public surface consists of single-draw samplers (used for tests and
cross-validation) and the batched, deterministic estimators in
:mod:`sphtess.mckernels` behind :func:`estimate` / :func:`estimate_isect`.

Determinism contract: estimates are reproducible bit-for-bit from
(seed, reps, config) regardless of worker count.  Replications are grouped
in fixed-size batches; batch j draws from a Philox stream advanced to a
fixed offset, and partial sums are combined in batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import geom
from .exactnum import SqrtPiPoly, sp_eval, sp_format
from .geom import DegenerateInput, KappaFamily, SphericalCell
from .moments import ExpectationQuery, evaluate_query

__all__ = [
    "MCEstimate",
    "ExperimentConfig",
    "ComparisonReport",
    "sample_typical_face",
    "sample_weighted_face",
    "estimate",
    "estimate_isect",
    "compare",
    "consistency_checks",
]


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


@dataclass(frozen=True)
class ExperimentConfig:
    reps: int = 20000
    seed: int = 20240601
    kappa: KappaFamily = field(default_factory=KappaFamily)
    subspace_reps: int = 16
    threads: int = 1
    z_fail: float = 6.0
    z_warn: float = 4.0

    def validate(self) -> None:
        if self.reps < 100:
            raise ValueError("reps must be >= 100")
        if self.subspace_reps < 1:
            raise ValueError("subspace_reps must be >= 1")
        self.kappa.validate()


@dataclass
class ComparisonReport:
    query: ExpectationQuery
    exact: SqrtPiPoly
    exact_float: float
    estimate: MCEstimate
    z_score: float
    verdict: str  # pass | fail | known-discrepancy

    @classmethod
    def build(cls, query, exact, estimate, z_warn=4.0, z_fail=6.0) -> "ComparisonReport":
        exact_float = float(sp_eval(exact, 20))
        z = estimate.z_score(exact_float)
        verdict = "pass" if abs(z) <= z_fail else "fail"
        return cls(query, exact, exact_float, estimate, z, verdict)

    def to_dict(self) -> dict:
        return {
            "quantity": self.query.quantity,
            "flavor": self.query.flavor,
            "n": self.query.n,
            "d": self.query.d,
            "k": self.query.k,
            "l": self.query.l,
            "m": self.query.m,
            "exact": sp_format(self.exact),
            "exact_float": self.exact_float,
            "estimate": self.estimate.mean,
            "stderr": self.estimate.stderr,
            "reps": self.estimate.reps,
            "degenerate_redraws": self.estimate.degenerate_redraws,
            "seed": self.estimate.seed,
            "z_score": self.z_score,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# Single-draw samplers (reference path).
# ---------------------------------------------------------------------------


def _restrict_normals(
    normals: np.ndarray, basis: np.ndarray, min_norm: float = 1e-9
) -> np.ndarray:
    """Project ambient hypersphere normals into a subsphere and renormalize."""
    proj = normals @ basis
    norms = np.linalg.norm(proj, axis=1)
    if np.any(norms < min_norm):
        raise DegenerateInput("hypersphere nearly contains the subsphere")
    return proj / norms[:, None]


def sample_typical_face(
    n: int,
    d: int,
    k: int,
    rng: np.random.Generator,
    kappa: KappaFamily = KappaFamily(),
    max_redraws: int = 64,
) -> SphericalCell:
    """A draw of the typical spherical k-face.

    Isotropic: build the sectional tessellation T_{n-d+k, k} inside S^k
    directly and pick a uniform cell.  General kappa: intersect d-k normals
    drawn from kappa to a k-subsphere, restrict the remaining n-d+k
    hyperspheres to it, and pick a uniform cell of the sectional tessellation.
    """
    if k < 1:
        raise ValueError("k = 0 faces are single points; no geometry to sample")
    if n < d - k:
        raise ValueError(f"need n >= d - k, got n={n}")
    kappa.validate()
    N = n - d + k
    iso = kappa.name == "isotropic" or kappa.beta == 0.0
    for _ in range(max_redraws):
        try:
            if iso:
                normals = np.stack([geom.sample_normal(rng, k) for _ in range(N)])
                ambient = None
            else:
                cutters = [geom.sample_normal(rng, d, kappa) for _ in range(d - k)]
                basis = (
                    geom.intersect_to_subsphere(cutters, d).columns
                    if d > k
                    else np.eye(d + 1)
                )
                rest = np.stack([geom.sample_normal(rng, d, kappa) for _ in range(N)])
                normals = _restrict_normals(rest, basis)
                ambient = geom.SubsphereBasis(columns=basis) if d > k else None
            arr = geom.build_arrangement(normals, k)
            cell = arr.cell(int(rng.integers(len(arr.cells))))
            cell.ambient = ambient
            return cell
        except DegenerateInput:
            continue
    raise DegenerateInput(f"exceeded {max_redraws} redraws sampling typical face")


def sample_weighted_face(
    n: int, d: int, k: int, rng: np.random.Generator, max_redraws: int = 64
) -> SphericalCell:
    """A draw of the weighted typical k-face (isotropic only).

    Uses the dimension-reduction identity: the weighted k-face of T_{n,d} has
    the distribution of the cell of T_{n-d+k, k} containing a uniform point
    of S^k.
    """
    if k < 1:
        raise ValueError("k = 0 faces are single points; no geometry to sample")
    if n < d + 1:
        raise ValueError(f"weighted sampler needs n >= d + 1, got n={n}")
    N = n - d + k
    for _ in range(max_redraws):
        normals = np.stack([geom.sample_normal(rng, k) for _ in range(N)])
        v = geom.unit(rng.standard_normal(k + 1))
        dots = normals @ v
        if np.min(np.abs(dots)) <= 1e-9:
            continue
        signed = normals * np.sign(dots)[:, None]
        return SphericalCell(normals=signed, witness=v)
    raise DegenerateInput(f"exceeded {max_redraws} redraws sampling weighted face")


def sample_weighted_face_full_skeleton(
    n: int, d: int, k: int, rng: np.random.Generator, max_redraws: int = 64
) -> SphericalCell:
    """Cross-validation sampler that walks the full k-skeleton of T_{n,d}.

    Draws the tessellation in S^d, picks one of the binom(n, d-k) subsphere
    intersections uniformly (each carries equal k-content), then the cell of
    the sectional tessellation containing a uniform point of that subsphere.
    Distributionally equal to :func:`sample_weighted_face` for rotation
    invariant functionals; kept behind this explicit name for validation.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if n < d + 1:
        raise ValueError(f"weighted sampler needs n >= d + 1, got n={n}")
    for _ in range(max_redraws):
        try:
            normals = np.stack([geom.sample_normal(rng, d) for _ in range(n)])
            if k == d:
                chosen = normals
                basis = None
            else:
                idx = _random_subset(rng, n, d - k)
                basis = geom.intersect_to_subsphere(normals[idx], d).columns
                rest = np.delete(normals, idx, axis=0)
                chosen = _restrict_normals(rest, basis)
            v = geom.unit(rng.standard_normal(k + 1))
            dots = chosen @ v
            if np.min(np.abs(dots)) <= 1e-9:
                continue
            signed = chosen * np.sign(dots)[:, None]
            cell = SphericalCell(normals=signed, witness=v)
            if basis is not None:
                cell.ambient = geom.SubsphereBasis(columns=basis)
            return cell
        except DegenerateInput:
            continue
    raise DegenerateInput(f"exceeded {max_redraws} redraws in full-skeleton sampler")


def _random_subset(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return rng.permutation(n)[:size]


# ---------------------------------------------------------------------------
# Batched estimators.
# ---------------------------------------------------------------------------


def estimate(query: ExpectationQuery, config: ExperimentConfig) -> MCEstimate:
    """Unbiased Monte Carlo estimate of the queried expectation."""
    from . import mckernels

    query.validate()
    config.validate()
    return mckernels.run_estimate(query, config)


def estimate_isect(
    flavor: str, n: int, m: int, d: int, config: ExperimentConfig
) -> MCEstimate:
    """Estimate of the cell-intersection probability (cells of two independent
    isotropic tessellations; weighted = point-containing, typical = uniform)."""
    from . import mckernels

    config.validate()
    if n <= d or m <= d:
        raise ValueError("need n, m > d")
    return mckernels.run_isect(flavor, n, m, d, config)


def compare(query: ExpectationQuery, config: ExperimentConfig) -> ComparisonReport:
    exact = evaluate_query(query)
    if query.quantity == "isect":
        est = estimate_isect(query.flavor, query.n, query.m, query.d, config)
    else:
        est = estimate(query, config)
    return ComparisonReport.build(query, exact, est, config.z_warn, config.z_fail)


# ---------------------------------------------------------------------------
# Consistency checks (size bias, kappa invariance, skeleton measure).
# ---------------------------------------------------------------------------


def consistency_checks(
    n: int, d: int, k: int, config: ExperimentConfig, parts: Tuple[str, ...] = ("a", "b", "c")
) -> List[ComparisonReport]:
    """The three structural Monte Carlo consistency checks at one instance:

    (a) size-bias: the H^k-weighted mean of f_0 over typical faces matches
        the weighted-face mean of f_0;
    (b) kappa invariance: E f_0 of the typical face under a concentrated
        non-isotropic directional distribution matches the isotropic value;
    (c) skeleton measure: every realization carries exactly binom(n, d-k)
        distinct k-subspheres, so H^k(skel_k) = binom(n, d-k) omega_{k+1}.
    """
    from . import mckernels

    config.validate()
    if not 1 <= k <= d or n < d + 1:
        raise ValueError("consistency checks need 1 <= k <= d and n >= d+1")
    return mckernels.run_consistency(n, d, k, config, parts=parts)
