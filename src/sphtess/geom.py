"""Directional distributions of the great-hypersphere normals.

The Monte Carlo kernels in :mod:`sphtess.mckernels` draw isotropic normals
themselves; this module holds the non-isotropic family and the error a
sampler raises when a draw is too close to general-position failure, and
the Euclidean norm that every kernel takes along a short axis (``norm``).

All operations are pure given an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateInput",
    "KappaFamily",
    "norm",
    "sample_vmf_mixture",
]


def norm(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm of ``x`` along ``axis``: its squared components summed in index order.

    numpy's own vector norm sums up to 7 components in the same order, at
    any memory layout, so the two agree bit for bit there; from 8 on it sums
    a contiguous axis pairwise.  The kernels' axes hold 2-6 components,
    where numpy's generic reduction costs several times the arithmetic.
    """
    parts = np.moveaxis(x, axis, 0)
    total = parts[0] * parts[0]
    for part in parts[1:]:
        total += part * part
    np.sqrt(total, out=total)
    return np.expand_dims(total, axis) if keepdims else total


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
    --reps 200``, (n, d, k) = (5, 3, 1) redraws no draw at beta = 1e15 (2
    at ``--reps 400``), 283 at 1e18 and runs out at 1e19; (4, 2, 2) redraws
    100 at 1e16 and 596 at 1e17.

    Statdim, like every quantity but f, is a row on the cell's conic
    intrinsic volumes, and stays clean as long as the samplers do.  With
    ``simulate --quantity statdim --flavor typical --reps 1100 --seed 99``,
    (4, 2, 2) and (5, 3, 3), from closed-form angles, run clean at
    beta = 1e8, and at 1e12 redraw 4 and 1192 draws.  (5, 4, 4), from
    subspace hits and the solid fraction, runs clean at 1e7, redraws 206
    draws at 1e8 and 3985 at 3e8, and runs out of redraw rounds at 1e9; f
    at (5, 4, 4) redraws 186 at 1e8 and runs out at 1e9 too, so the
    samplers set the limit there.
    """

    name: str = "isotropic"
    beta: float = 0.0

    @property
    def is_isotropic(self) -> bool:
        """Uniform normals: the isotropic family, or the mixture at beta = 0."""
        return self.name == "isotropic" or self.beta == 0.0

    def validate(self) -> None:
        if self.name not in ("isotropic", "pole_concentrated"):
            raise ValueError(f"unknown kappa family {self.name!r}")
        # a NaN beta would pass a plain 'beta < 0' and stall Wood's loop
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


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
    tang /= norm(tang, keepdims=True)
    out = np.empty((size, p))
    out[:, :-1] = tang * np.sqrt(t * (2 - t))[:, None]
    out[:, -1] = 1 - t
    flip = rng.random(size) < 0.5
    out[flip] *= -1.0
    return out
