"""Directional distributions of the great-hypersphere normals.

The Monte Carlo kernels in :mod:`sphtess.mckernels` draw isotropic normals
themselves; this module holds the non-isotropic family and the error a
sampler raises when a draw is too close to general-position failure.

All operations are pure given an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateInput",
    "KappaFamily",
    "sample_vmf_mixture",
]


class DegenerateInput(RuntimeError):
    """Raised when a draw is too close to general-position failure."""


@dataclass(frozen=True)
class KappaFamily:
    """Directional distribution of the hypersphere normals.

    ``isotropic`` is uniform on the sphere; ``pole_concentrated`` is the even
    mixture (vMF(e, beta) + vMF(-e, beta))/2 around the last coordinate axis,
    absolutely continuous and therefore non-degenerate for every beta >= 0
    in exact arithmetic.

    In floating point, the tangent part of a draw on S^dim has scale
    sqrt((p-1)/beta) with p = dim+1.  Beyond about beta = 1e14 it reaches the
    1e-9/1e-10 tolerances of the kernels, so draws graze (or have nearly
    dependent cutters, or a hypersphere nearly containing the subsphere)
    and are redrawn, and an estimate ends in :class:`DegenerateInput` once
    the redraws run out.  With ``simulate --quantity f --flavor typical
    --reps 200``, (n, d, k) = (5, 3, 1) redraws 1 draw at beta = 1e15, 347
    at 1e18 and runs out at 1e19; (4, 2, 2) redraws 99 at 1e16 and 624 at
    1e17.
    """

    name: str = "isotropic"
    beta: float = 0.0

    def validate(self) -> None:
        if self.name not in ("isotropic", "pole_concentrated"):
            raise ValueError(f"unknown kappa family {self.name!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


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
