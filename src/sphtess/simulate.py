"""Monte Carlo estimators for typical and weighted faces.

The public surface is the estimate and report types and the entry points
:func:`estimate`, :func:`estimate_isect`, :func:`compare` and
:func:`consistency_checks`, all run by the batched samplers and kernels in
:mod:`sphtess.mckernels`.

Determinism contract: estimates are reproducible bit-for-bit from
(seed, reps, config).  Replications are grouped in fixed-size batches that
run in order in one thread; batch j draws from a Philox stream advanced to
a fixed offset, and partial sums are combined in batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from .exactnum import SqrtPiPoly, sp_eval, sp_format
from .geom import KappaFamily
from .moments import ExpectationQuery, evaluate_query

__all__ = [
    "MCEstimate",
    "ExperimentConfig",
    "ComparisonReport",
    "estimate",
    "estimate_isect",
    "compare",
    "consistency_checks",
]


# Redraws per replication above which an estimate is suspect: redrawing
# conditions the sample on non-degenerate draws.  The acceptance gates allow
# the same rate.
REDRAW_RATE_LIMIT = 1e-3


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
    # Estimates run in one thread; the field remains only for callers that
    # still pass threads=1, and any other value is rejected.
    threads: int = 1
    z_fail: float = 6.0
    z_warn: float = 4.0

    def validate(self) -> None:
        if self.reps < 100:
            raise ValueError("reps must be >= 100")
        if self.subspace_reps < 1:
            raise ValueError("subspace_reps must be >= 1")
        if self.threads != 1:
            raise ValueError("threads must be 1: estimates run in one thread")
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
