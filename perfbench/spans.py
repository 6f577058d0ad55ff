"""In-memory span tracing by wrapping module functions at their call names.

A :class:`Tracer` replaces a function with a timing wrapper in every loaded
module that binds it under the same name, so calls through
``fingerkit.cli.workspace`` and ``fingerkit.finger.sweep_chain`` are both
seen.  Spans are kept in a list and written out only when asked.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    invocation: int      # spans of one CLI invocation share this id
    work: tuple = ()     # counts taken at the boundary (samples, bytes, ...)


class Tracer:
    def __init__(self, module_prefix: str = "fingerkit") -> None:
        self.module_prefix = module_prefix
        self.spans: list[Span | None] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.invocation)

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        spans, stack, perf_counter = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            work = ()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    work = measure(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.invocation, work)

        traced.__wrapped__ = fn
        return traced

    def _modules(self):
        prefix = self.module_prefix
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                yield module

    def install(self, targets) -> None:
        """Patch each ``(span_name, module, attr, measure)`` target."""
        for span_name, module_name, attr, measure in targets:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span_name, original, measure)
            for module in self._modules():
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One CSV line per span, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,invocation,work\n")
            for i, s in enumerate(self.spans):
                work = " ".join(str(w) for w in s.work)
                fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                         f"{s.parent},{s.invocation},{work}\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


class LayerStats(NamedTuple):
    self_s: float
    calls: int
    work: tuple
    invocations: frozenset


def summarize(spans) -> dict[str, LayerStats]:
    """Per span name: total self time, calls, summed work, invocation ids."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, list] = {}
    invocations: dict[str, set] = defaultdict(set)
    for s, own in zip(spans, self_times(spans)):
        self_s[s.name] += own
        calls[s.name] += 1
        invocations[s.name].add(s.invocation)
        acc = work.setdefault(s.name, [])
        acc.extend([0] * (len(s.work) - len(acc)))
        for k, w in enumerate(s.work):
            acc[k] += w
    return {
        name: LayerStats(self_s[name], calls[name], tuple(work[name]),
                         frozenset(invocations[name]))
        for name in self_s
    }
