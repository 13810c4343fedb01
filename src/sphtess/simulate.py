"""Monte Carlo estimators for typical and weighted faces, and their verdicts.

The public surface is the estimate and report types and the entry points
:func:`estimate`, :func:`estimate_isect`, :func:`compare` and
:func:`consistency_checks`.  The kernels of :mod:`sphtess.mckernels` only
draw and reduce; this module validates each query, returns the a.s.
constants without drawing, and judges each z by one rule (``_verdict``).
:func:`estimate` takes every quantity of :data:`sphtess.moments.QUANTITIES`,
isect included; :func:`estimate_isect` only builds the isect query for it.
:func:`consistency_checks` runs the size-bias and kappa-invariance checks.
The skeleton identity H^k(skel_k) = binom(n, d-k) omega_{k+1} needs no
draw: it is the hk row of the exact sums over the cells of whole
arrangements in ``tests/test_mckernels.py``.

Determinism contract: estimates are reproducible bit-for-bit from
(seed, reps, config).  Replications are grouped in fixed-size batches that
run in order in one thread; batch j draws from a Philox stream advanced to
a fixed offset, and the replications of all batches are concatenated in
batch order and reduced once, as a ratio of means.  The stream
hashes the validated query and the kappa family, and not ``subspace_reps``,
so an estimate that draws no points does not change with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from . import mckernels
from .exactnum import SqrtPiPoly, sp_format
from .geom import KappaFamily
from .mckernels import MCEstimate
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

# |z| above which a comparison of an estimate with its exact value fails.
Z_FAIL = 6.0


def _verdict(z: float) -> str:
    """The verdict on an estimate at z standard errors from its reference."""
    return "pass" if abs(z) <= Z_FAIL else "fail"


@dataclass(frozen=True)
class ExperimentConfig:
    reps: int = 20000
    seed: int = 20240601
    kappa: KappaFamily = field(default_factory=KappaFamily)
    subspace_reps: int = 16
    # Estimates run in one thread; the field remains only for callers that
    # still pass threads=1, and any other value is rejected.
    threads: int = 1

    def validate(self) -> None:
        if self.reps < 100:
            raise ValueError("reps must be >= 100")
        if self.subspace_reps < 1:
            raise ValueError("subspace_reps must be >= 1")
        if not 0 <= self.seed < 2**64:
            # batch_rng keys Philox with the seed's low 64 bits: any other seed would alias one of these
            raise ValueError(f"seed must be in 0 <= seed < 2**64, got {self.seed}")
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
    verdict: str  # pass | fail (known-discrepancy comes only from table rows)

    @classmethod
    def build(cls, query, exact, estimate) -> "ComparisonReport":
        exact_float = float(exact)
        z = estimate.z_score(exact_float)
        return cls(query, exact, exact_float, estimate, z, _verdict(z))

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
    query.validate()
    config.validate()
    q, k, l = query.quantity, query.k, query.l
    if k == 0 or l == 0 and (q == "U" or q == "v" and k == 1):
        # a.s. constants: every functional of a point (k = 0), U_0 = 1/2
        # (Gauss-Bonnet) and v_0 = U_0 - U_2 = U_0 at k = 1
        value = float(evaluate_query(query))
        return MCEstimate(mean=value, stderr=0.0, reps=config.reps, degenerate_redraws=0, seed=config.seed)
    if query.flavor == "typical" and query.n < query.d + 1:
        # the typical k-face lies in a cell of n - d + k normals in R^{k+1},
        # which the samplers draw as a pointed cone
        raise ValueError(f"Monte Carlo of typical faces needs n >= d+1 (pointed cells), got {query}")
    return mckernels.run_estimate(query, config)


def estimate_isect(
    flavor: str, n: int, m: int, d: int, config: ExperimentConfig
) -> MCEstimate:
    """Estimate of the cell-intersection probability (cells of two independent
    isotropic tessellations; weighted = point-containing, typical = uniform)."""
    return estimate(ExpectationQuery("isect", flavor, n, d, d, m=m), config)


def compare(query: ExpectationQuery, config: ExperimentConfig) -> ComparisonReport:
    return ComparisonReport.build(query, evaluate_query(query), estimate(query, config))


# ---------------------------------------------------------------------------
# Consistency checks (size bias, kappa invariance).
# ---------------------------------------------------------------------------


def consistency_checks(
    n: int, d: int, k: int, config: ExperimentConfig, parts: Tuple[str, ...] = ("a", "b")
) -> List[ComparisonReport]:
    """The two structural Monte Carlo consistency checks at one instance,
    one report per part asked for, in the order a, b:

    (a) size-bias: the H^k-weighted mean of f_0 over typical faces (a joint
        draw, isotropic only) matches the estimated weighted-face mean of f_0;
    (b) kappa invariance: ``compare`` of E f_0 of the typical face, whose
        exact value holds for every kappa, at the config's pole beta, or at
        beta = 4 when the config's normals are uniform (isotropic or pole:0).
    """
    config.validate()
    if not 1 <= k <= d or n < d + 1:
        raise ValueError("consistency checks need 1 <= k <= d and n >= d+1")
    unknown = sorted(set(parts) - {"a", "b"})
    if unknown:
        raise ValueError(f"unknown consistency check parts {unknown}; expected some of ['a', 'b']")
    reports = []
    if "a" in parts:
        if not config.kappa.is_isotropic:  # raised before any part draws
            raise ValueError(f"the size-bias check (a) takes isotropic kappa only, got {config.kappa}")
        query = ExpectationQuery("f", "weighted", n, d, k, 0)
        ratio = mckernels.run_consistency(n, d, k, config)
        west = estimate(query, config)
        combined_se = math.sqrt(ratio.stderr**2 + west.stderr**2)
        z = (ratio.mean - west.mean) / combined_se if combined_se else 0.0
        exact = evaluate_query(query)
        reports.append(ComparisonReport(query, exact, float(exact), ratio, z, _verdict(z)))
    if "b" in parts:
        beta = 4.0 if config.kappa.is_isotropic else config.kappa.beta
        pole = replace(config, kappa=KappaFamily("pole_concentrated", beta))
        reports.append(compare(ExpectationQuery("f", "typical", n, d, k, 0), pole))
    return reports
