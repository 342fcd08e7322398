"""Spans and counters recorded around hecu's public functions, from outside.

The traced run replaces a layer's public functions with wrappers that
record a span (name, layer, start, end, parent) per call.  A name imported
by value into another module is wrapped where that module looks it up, so
every wrapper is installed on the exact attribute the caller reads.  RHS
closures are counted but get no span: one span per evaluation would cost
more than the evaluation.  Spans stay in memory until the run ends.

Nothing here runs unless the traced run installs it; the timed runs never
import this module.
"""

from __future__ import annotations

import functools
import time

_clock = time.perf_counter


class Tracer:
    """Span recorder with install/restore of wrappers and RHS counters."""

    def __init__(self):
        self.spans: list[list] = []      # [name, layer, t0, t1, parent, error]
        self.stack: list[int] = []
        self.active = False
        self.rhs_counts: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, layer: str, on_result=None):
        """Record a span around every call of owner.attr while active."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(rec, out)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def count_rhs(self, owner, attr: str, key: str):
        """Count evaluations of every closure owner.attr(...) returns."""
        factory = getattr(owner, attr)
        cell = self.rhs_counts.setdefault(key, [0])

        @functools.wraps(factory)
        def counted_factory(*args, **kwargs):
            rhs = factory(*args, **kwargs)

            def counted(t, y):
                cell[0] += 1
                return rhs(t, y)

            return counted

        self._undo.append((owner, attr, factory))
        setattr(owner, attr, counted_factory)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- rounds ----------------------------------------------------------------
    def start(self) -> int:
        """Begin recording; returns the index of the first span of the round."""
        for cell in self.rhs_counts.values():
            cell[0] = 0
        self.active = True
        return len(self.spans)

    def stop(self) -> dict[str, int]:
        self.active = False
        return {key: cell[0] for key, cell in self.rhs_counts.items()}


def durations(spans, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[0] == name]


def net_time(spans, first: int, name: str, minus: set[str]) -> float:
    """Time inside spans called `name`, net of their descendants in `minus`.

    A descendant in `minus` is subtracted once, with everything under it;
    spans are properly nested because the workloads are single-threaded.
    """
    total = 0.0
    inside = set()      # spans under a `name` span, not under a subtracted one
    for i in range(first, len(spans)):
        s = spans[i]
        if s[0] == name:
            inside.add(i)
            total += s[3] - s[2]
        elif s[4] in inside:
            if s[0] in minus:
                total -= s[3] - s[2]
            else:
                inside.add(i)
    return total


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(median, highest of p90/p99/p99.9 with at least 10 samples beyond it).

    With fewer than 40 samples there is no tail worth the name and the
    median is returned for both.
    """
    if not values:
        return 0.0, 0.0
    vals = sorted(values)
    n = len(vals)

    def pct(p):
        pos = p / 100.0 * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)

    med = pct(50.0)
    if n < 40:
        return med, med
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return med, pct(p)
    return med, med
