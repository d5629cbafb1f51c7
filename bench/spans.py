"""In-memory spans for the benchmark's traced run, and the arithmetic on them.

A :class:`Tracer` replaces public functions at the module attributes their
callers look them up through (for example ``manoplace.vnfm.search``, which
``two_step_place_detailed`` calls) with wrappers that record one span per
call: name, layer, start, end, parent span and pass id. Nothing inside the
package is changed; the originals are put back when the ``installed`` block
ends. A layer is the package module that defines the wrapped function, so a
call to ``place_domain`` made by the oracle counts as ``vnfm`` work.

``self_times`` turns spans into per-layer self time: a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module.attr`` recorded under ``name``.

    ``count`` maps the call's arguments and result to counters stored on
    the span, so ratios are measured where the work happens.
    """

    module: object
    attr: str
    name: str
    count: Callable[[tuple, dict, object], dict[str, float]] | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, target: Target, run: int):
        fn = getattr(target.module, target.attr)
        layer = fn.__module__.rsplit(".", 1)[-1]

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), target.name, layer, time.perf_counter(),
                        math.nan, self._stack[-1] if self._stack else None, run)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.count is not None:
                span.counts = target.count(args, kwargs, result)
            return result

        return fn, traced

    @contextmanager
    def installed(self, run: int):
        """Record spans of pass ``run`` while the block executes."""
        originals = []
        try:
            for target in self.targets:
                fn, traced = self._wrap(target, run)
                originals.append((target, fn))
                setattr(target.module, target.attr, traced)
            yield self
        finally:
            for target, fn in reversed(originals):
                setattr(target.module, target.attr, fn)

    def write(self, path: str | Path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the union
    of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - covered_length(
            children.get(span.id, []), span.start, span.end)
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(count: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 6) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100) of a nonempty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
