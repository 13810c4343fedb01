"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``sphtess`` modules by rebinding
them: on the defining module and on every ``sphtess`` module that imported
the same function object by name (``moments.coeff_B``, ``tables.sp_eval``,
...).  Each wrapped call records a span ``[name, start, end, parent]``; spans
stay in memory until the run writes them out.  Nothing under ``src/``
changes.

Self time of a span is its duration minus the part of it covered by its
child spans.  A span opened on a worker thread whose own stack is empty
(``mckernels._run_batches`` runs batches on a thread pool) takes the
innermost open span of the installing thread as its parent.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._main_stack: List[list] = []
        self._local.stack = self._main_stack
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, main = self.spans, self._main_stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main[-1] if main else None)
            rec = [name, _clock(), 0.0, parent]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapped

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installation ----------------------------------------------------------

    def rebind(self, module, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every alias of it in loaded sphtess modules."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sphtess" or name.startswith("sphtess.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_attr(self, owner, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper_for(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (children's union subtracted)."""
        children: Dict[int, List[list]] = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        out: Dict[str, float] = defaultdict(float)
        for rec in self.spans:
            start, end = rec[1], rec[2]
            covered = 0.0
            cursor = start
            for _, cs, ce, _ in sorted(children.get(id(rec), ()), key=lambda c: c[1]):
                cs, ce = max(cs, cursor), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    cursor = ce
            out[rec[0]] += (end - start) - covered
        return dict(out)

    def root_calls(self, prefix: str) -> int:
        """Spans named ``prefix*`` whose parent is not itself ``prefix*``."""
        return sum(
            1
            for rec in self.spans
            if rec[0].startswith(prefix) and (rec[3] is None or not rec[3][0].startswith(prefix))
        )

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, name, start_s, end_s, parent id."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                pid = "" if parent is None else ids[id(parent)]
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{pid}\n")


def calibrate(calls: int = 20000) -> Dict[str, float]:
    """Seconds one span and one counted call add over a plain call."""

    def noop():
        return None

    t = Tracer()
    spanned = t.span("calibrate", noop)
    counted = t.counter("calibrate", noop)
    out = {}
    for key, fn in (("span", spanned), ("count", counted)):
        best = float("inf")
        for _ in range(5):
            t.spans.clear()
            start = _clock()
            for _ in range(calls):
                fn()
            mid = _clock()
            for _ in range(calls):
                noop()
            end = _clock()
            best = min(best, ((mid - start) - (end - mid)) / calls)
        out[key] = max(best, 0.0)
    return out
