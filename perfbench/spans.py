"""In-memory span recorder installed around the program's layer entry points.

Tracing lives entirely in the benchmark: :meth:`SpanRecorder.wrap`
replaces a function or method attribute with a wrapper that records one
span per call, and :meth:`SpanRecorder.uninstall` puts every original
back.  Nothing inside the program records anything, so the code that
decides verdicts is the same code whether or not a run is traced.

A span is ``(name, start, end, parent, request, thread, counts)``:
``parent`` is the index of the span that was open on the same thread when
this one started (``-1`` for none), ``request`` the identifier shared by
the spans of one job or query, and ``counts`` the work counters the
wrapper attached (rows produced, prefixes analyzed, ...).  Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable between the benchmark and the server it spawns.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

NAME, START, END, PARENT, REQUEST, THREAD, COUNTS = range(7)


class SpanRecorder:
    """Collects spans from wrapped callables, on any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- #
    # Opening and closing spans
    # -------------------------------------------------------------- #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Any = None) -> int:
        """Start a span on this thread; returns its index.

        Without an explicit ``request`` a span joins its parent's request,
        and a top-level span starts a request named after itself.
        """
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, self.clock(), None, parent, request, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if request is None:
                span[REQUEST] = self.spans[parent][REQUEST] if parent >= 0 else f"{name}-{index}"
        stack.append(index)
        return index

    def close(self, index: int, counts: dict[str, float] | None = None) -> None:
        """End the innermost open span of this thread (``index``)."""
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        stack.pop()
        span = self.spans[index]
        span[END] = self.clock()
        span[COUNTS] = counts

    # -------------------------------------------------------------- #
    # Installing wrappers
    # -------------------------------------------------------------- #

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        # The raw attribute (not the bound or unwrapped form) is restored.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[[tuple, dict, Any, Any], dict[str, float] | None] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``counts(args, kwargs, result, before(args, kwargs))`` returns the
        work counters attached to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = None if before is None else before(args, kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            if counts is not None:
                # The counters (an interner's stats() walks its tables) are
                # the tracer's own work: a span of their own keeps them out
                # of every layer's self time.
                hook = self.open("trace.counts")
                try:
                    self.spans[index][COUNTS] = counts(args, kwargs, result, state)
                finally:
                    self.close(hook)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """One span per item of a generator function: the time to produce it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = original(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.close(index, {"exhausted": 1})
                    return
                except BaseException:
                    self.close(index)
                    raise
                self.close(index)
                yield item

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[list[Any]]:
        """Every span, in start order (JSON-able); open ones end now."""
        now = self.clock()
        with self._lock:
            return [
                span[:END] + [now if span[END] is None else span[END]] + span[END + 1:]
                for span in self.spans
            ]


# ------------------------------------------------------------------ #
# Span arithmetic
# ------------------------------------------------------------------ #


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def window(spans: Sequence[Sequence[Any]], start: float, end: float) -> list[list[Any]]:
    """The spans that lie inside ``[start, end]``, re-indexed.

    Children lie inside their parent, so a parent inside the window keeps
    its whole subtree; a parent outside it drops the subtree too.
    """
    kept: dict[int, int] = {}
    out: list[list[Any]] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if span[START] < start or span[END] > end:
            continue
        if parent >= 0 and parent not in kept:
            continue
        kept[index] = len(out)
        copy = list(span)
        copy[PARENT] = kept[parent] if parent >= 0 else -1
        out.append(copy)
    return out


def summarize(spans: Sequence[Sequence[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and summed counts."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[NAME]]
        if span[COUNTS] and span[COUNTS].get("exhausted"):
            entry["self_s"] += own  # generator wind-down: time, not an item
            entry["total_s"] += span[END] - span[START]
            continue
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        for key, value in (span[COUNTS] or {}).items():
            if key.startswith("max_"):
                entry[key] = max(entry[key], value)
            else:
                entry[key] += value
    return {name: dict(values) for name, values in out.items()}


def unattributed(spans: Sequence[Sequence[Any]], start: float, end: float) -> float:
    """Wall time of ``[start, end]`` during which no top-level span was open."""
    top = [
        (max(span[START], start), min(span[END], end))
        for span in spans
        if span[PARENT] < 0 and span[END] > start and span[START] < end
    ]
    return (end - start) - covered(top)


# ------------------------------------------------------------------ #
# The percentile rule
# ------------------------------------------------------------------ #

#: Candidate percentiles, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _rank(pct: float, count: int) -> int:
    # Rounded first so that e.g. 99.9% of 19000 is rank 18981, not 18982.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(pct, value, beyond)`` where ``beyond`` counts the samples
    strictly above the percentile's rank, or ``None`` when fewer than ten
    samples lie beyond even the median.
    """
    count = len(samples)
    for pct in PERCENTILES:
        beyond = count - _rank(pct, count)
        if beyond >= 10:
            return pct, percentile(samples, pct), beyond
    return None
