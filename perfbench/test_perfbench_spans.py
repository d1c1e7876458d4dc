"""Tests of the benchmark's span recorder, span arithmetic and percentile rule."""

from __future__ import annotations

import pytest

import layers
import spans
from spans import SpanRecorder


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _recorder() -> tuple[SpanRecorder, FakeClock]:
    clock = FakeClock()
    return SpanRecorder(clock=clock), clock


def test_nested_spans_self_time_excludes_children():
    rec, clock = _recorder()
    outer = rec.open("outer")
    clock.now = 1.0
    inner = rec.open("inner")
    clock.now = 4.0
    rec.close(inner)
    clock.now = 5.0
    rec.close(outer)
    dumped = rec.dump()
    assert dumped[inner][spans.PARENT] == outer
    assert dumped[inner][spans.REQUEST] == dumped[outer][spans.REQUEST]
    assert spans.self_times(dumped) == [2.0, 3.0]


def test_sibling_children_are_both_subtracted():
    rec, clock = _recorder()
    parent = rec.open("parent")
    for start, end in ((1.0, 2.0), (3.0, 6.0)):
        clock.now = start
        child = rec.open("child")
        clock.now = end
        rec.close(child)
    clock.now = 10.0
    rec.close(parent)
    summary = spans.summarize(rec.dump())
    assert summary["parent"]["self_s"] == pytest.approx(6.0)
    assert summary["child"]["calls"] == 2
    assert summary["child"]["self_s"] == pytest.approx(4.0)


def test_overlapping_children_count_once():
    # Children on other threads may overlap; their union is subtracted.
    synthetic = [
        ["p", 0.0, 10.0, -1, "r", 1, None],
        ["c", 1.0, 5.0, 0, "r", 1, None],
        ["c", 3.0, 7.0, 0, "r", 2, None],
    ]
    assert spans.self_times(synthetic)[0] == pytest.approx(4.0)
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_window_and_unattributed():
    synthetic = [
        ["a", 0.0, 1.0, -1, "r0", 1, None],   # before the window
        ["b", 2.0, 4.0, -1, "r1", 1, None],
        ["c", 2.5, 3.0, 1, "r1", 1, {"rows": 3}],
        ["d", 5.0, 6.0, -1, "r2", 1, {"rows": 4}],
    ]
    inside = spans.window(synthetic, 1.5, 7.0)
    assert [s[spans.NAME] for s in inside] == ["b", "c", "d"]
    assert inside[1][spans.PARENT] == 0
    assert spans.unattributed(inside, 1.5, 7.0) == pytest.approx(5.5 - 3.0)
    assert spans.summarize(inside)["c"]["rows"] == 3


def test_counts_take_max_for_max_prefixed_keys():
    synthetic = [
        ["s", 0.0, 1.0, -1, "r", 1, {"max_bytes": 5, "n": 1}],
        ["s", 1.0, 2.0, -1, "r", 1, {"max_bytes": 3, "n": 1}],
    ]
    summary = spans.summarize(synthetic)["s"]
    assert summary["max_bytes"] == 5
    assert summary["n"] == 2


def test_wrap_records_counts_and_uninstall_restores():
    class Box:
        def double(self, x):
            return 2 * x

        def boom(self):
            raise ValueError("no")

    original = Box.__dict__["double"]
    rec = SpanRecorder()
    rec.wrap(Box, "double", "box.double",
             counts=lambda args, kwargs, result, before: {"out": result})
    rec.wrap(Box, "boom", "box.boom")
    assert Box().double(4) == 8
    with pytest.raises(ValueError):
        Box().boom()
    rec.uninstall()
    assert Box.__dict__["double"] is original
    names = [(s[spans.NAME], s[spans.COUNTS]) for s in rec.dump()]
    # The counter hook runs after its span closed, in a span of its own.
    assert names == [("box.double", {"out": 8}), ("trace.counts", None), ("box.boom", None)]


def test_wrap_iterator_spans_each_item():
    import types

    module = types.SimpleNamespace(items=lambda n: (i for i in range(n)))
    rec = SpanRecorder()
    rec.wrap_iterator(module, "items", "gen")
    assert list(module.items(3)) == [0, 1, 2]
    rec.uninstall()
    assert spans.summarize(rec.dump())["gen"]["calls"] == 3


@pytest.mark.parametrize(
    "count, expected",
    [(158, (90.0, 15)), (9400, (99.0, 94)), (20, (50.0, 10)), (19000, (99.9, 19)), (10, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(count)]
    got = spans.tail(samples)
    if expected is None:
        assert got is None
        return
    pct, value, beyond = got
    assert (pct, beyond) == expected
    assert sum(1 for s in samples if s > value) == beyond


def test_percentile_nearest_rank():
    assert spans.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert spans.percentile(list(range(1, 101)), 99.0) == 99


def test_traced_and_untraced_checks_agree():
    from repro.consensus import solvability
    from repro.core.views import ViewInterner
    from repro.specs import AdversarySpec

    def verdict():
        adversary = AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1}).build()
        result = solvability.check_consensus_with_options(
            adversary, solvability.CheckOptions(max_depth=3, memo_extensions=False),
            interner=ViewInterner(adversary.n))
        return result.status, result.certified_depth, [h.prefixes for h in result.history]

    plain = verdict()
    rec = SpanRecorder()
    layers.install(rec)
    try:
        traced = verdict()
    finally:
        rec.uninstall()
    assert traced == plain
    dumped = rec.dump()
    end = max(span[spans.END] for span in dumped)
    metrics = layers.layer_metrics(dumped, dumped[0][spans.START], end, {})
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["solvability.checks"] == 1
    assert metrics["components.calls"] == len(plain[2])
    assert metrics["views.extend_memo_s"] == 0.0
    assert not hasattr(solvability.check_consensus_with_options, "__wrapped__")
