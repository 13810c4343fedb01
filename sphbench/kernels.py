"""Kernel rates at pinned shapes: rows of one production batch per second.

Each kernel is called on a batch of ``mckernels.BATCH`` rows whose inputs are
drawn beforehand from a generator keyed by the workload seed.  A kernel
that finishes a batch within ``REPEAT_BELOW_S`` is timed three times more and
the median kept; a slower one is timed once.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from sphtess import mckernels

REPEAT_BELOW_S = 0.25
SAMPLE_SHAPES = ((5, 2), (6, 3), (8, 4), (12, 4))
PROJECT_SHAPES = ((6, 3), (8, 4), (12, 4))
INTERSECT_ROWS = (8, 12)  # rows per cell, dim 4
HITS_SHAPE = (8, 4)


def _rate(fn: Callable[[], object], rows: int) -> float:
    start = time.perf_counter()
    fn()
    times = [time.perf_counter() - start]
    if times[0] < REPEAT_BELOW_S:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return rows / statistics.median(times)


def kernel_rates(seed: int) -> Dict[str, float]:
    B = mckernels.BATCH
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = {}
    for m, dim in SAMPLE_SHAPES:
        for kernel in ("sample_typical_cells", "sample_weighted_cells"):
            fn = getattr(mckernels, kernel)
            out[f"kern.{kernel}.{m}x{dim}.per_s"] = _rate(lambda: fn(rng, B, m, dim), B)
    for m, dim in PROJECT_SHAPES:
        cells = mckernels.sample_typical_cells(rng, B, m, dim)
        points = rng.standard_normal((B, dim))
        out[f"kern.project_batch.{m}x{dim}.per_s"] = _rate(
            lambda: mckernels.project_batch(cells.normals, points), B
        )
    for rows in INTERSECT_ROWS:
        a = mckernels.sample_weighted_cells(rng, B, rows, 4).normals
        b = mckernels.sample_weighted_cells(rng, B, rows, 4).normals
        out[f"kern.cones_intersect_batch.{rows}_{rows}x4.per_s"] = _rate(
            lambda: mckernels.cones_intersect_batch(a, b), B
        )
    m, dim = HITS_SHAPE
    cells = mckernels.sample_weighted_cells(rng, B, m, dim)
    for j in (2, 3):
        out[f"kern.subspace_hits_j{j}.{m}x{dim}.per_s"] = _rate(
            lambda: mckernels.subspace_hits(cells, rng, j, 16), B
        )
    return out
