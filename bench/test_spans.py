"""Tests for the benchmark's span arithmetic and percentile reporting.

Run with ``python3 -m pytest bench/test_spans.py``; needs no package source.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Target, Tracer, covered_length, percentile, self_times, tail_percentile  # noqa: E402


def span(id, layer, start, end, parent=None):
    return Span(id, f"{layer}.f{id}", layer, start, end, parent, 0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(3, 6), (1, 4), (4, 5)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([(1, 2), (5, 7)], 0, 10) == 3


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        span(0, "harness", 0.0, 10.0),
        span(1, "oracle", 1.0, 4.0, parent=0),
        span(2, "oracle", 3.0, 6.0, parent=0),   # overlaps its sibling
        span(3, "vnfm", 2.0, 3.0, parent=1),     # nested one level deeper
        span(4, "topology", 9.5, 11.0, parent=0),  # runs past its parent's end
    ]
    own = self_times(spans)
    # harness: 10 minus the union [1, 6] and [9.5, 10] of its children.
    assert own["harness"] == pytest.approx(10 - 5 - 0.5)
    # oracle: span 1 loses its child's second, span 2 has no children.
    assert own["oracle"] == pytest.approx((3 - 1) + 3)
    assert own["vnfm"] == pytest.approx(1)
    assert own["topology"] == pytest.approx(1.5)


def test_self_time_uses_span_ids_not_positions():
    spans = [span(7, "cli", 0.0, 2.0), span(8, "tabu", 0.5, 1.5, parent=7)]
    assert self_times(spans) == pytest.approx({"cli": 1.0, "tabu": 1.0})


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile([5.0], 90) == 5.0


@pytest.mark.parametrize("count, expected", [
    (1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tracer_records_parents_counts_and_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = "pkg.lower"
    outer.__module__ = "pkg.upper"
    mod.inner, mod.outer = inner, outer
    tracer = Tracer([
        Target(mod, "outer", "upper.outer"),
        Target(mod, "inner", "lower.inner", lambda a, k, r: {"result": r}),
    ])
    with tracer.installed(run=3):
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    assert mod.outer(1) == 4  # untraced again
    first, second = tracer.spans
    assert (first.name, first.layer, first.parent, first.run) == ("upper.outer", "upper", None, 3)
    assert (second.name, second.layer, second.parent) == ("lower.inner", "lower", first.id)
    assert second.counts == {"result": 2}
    assert first.start <= second.start <= second.end <= first.end


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _kind) in run.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
