"""Tests for the benchmark's own arithmetic (no simulator needed).

    python3 -m pytest itvbench -q
"""

import math
import statistics

import pytest

from stats import (MISSED, finite, latencies, percentile, quartile_spread,
                   tail_percentile)
from tracing import Patches, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def nested_program(clock, tracer):
    """top(A) -> mid(B) -> leaf(C) twice, with known gaps."""
    def leaf():
        clock.advance(5)

    leaf = tracer.wrap("C", "calls", leaf)

    def mid():
        clock.advance(2)
        leaf()
        clock.advance(3)
        leaf()
        clock.advance(1)

    mid = tracer.wrap("B", "calls", mid)

    def top():
        clock.advance(10)
        mid()
        clock.advance(4)

    return tracer.wrap("A", "calls", top)


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    nested_program(clock, tracer)()
    by_layer = dict(zip(tracer.layers, tracer.self_ns))
    assert by_layer == {"C": 10, "B": 6, "A": 14}
    assert dict(zip(tracer.layers, tracer.total_ns)) == {"C": 10, "B": 16,
                                                         "A": 30}
    # Self times partition the root span exactly.
    assert sum(tracer.self_ns) == 30
    assert tracer.counters == {"C.calls": 2, "B.calls": 1, "A.calls": 1}


def test_online_self_time_matches_offline_reference():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    top = nested_program(clock, tracer)
    top()
    clock.advance(7)
    top()
    offline = self_times(tracer.spans())
    assert offline == dict(zip(tracer.layers, tracer.self_ns))
    parents = [parent for _sid, _layer, parent, _s, _e in tracer.spans()]
    # top, mid, leaf, leaf per call: leaves point at mid, mid at top.
    assert parents == [-1, 0, 1, 1, -1, 4, 5, 5]


def test_same_layer_nesting_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(3)

    inner = tracer.wrap("X", "calls", inner)

    def outer():
        clock.advance(2)
        inner()

    tracer.wrap("X", "calls", outer)()
    assert tracer.self_ns == [5]
    assert tracer.total_ns == [8]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(4)
        raise ValueError("x")

    boom = tracer.wrap("B", "calls", boom)

    def top():
        clock.advance(1)
        try:
            boom()
        except ValueError:
            clock.advance(2)

    tracer.wrap("A", "calls", top)()
    assert dict(zip(tracer.layers, tracer.self_ns)) == {"B": 4, "A": 3}


@pytest.mark.parametrize("n, expected", [
    (19, None),      # even p50 would have only 9.5 beyond
    (20, 50.0),
    (100, 90.0),
    (199, 90.0),     # p95 would leave 9.95
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
    (100000, 99.99),
])
def test_tail_rule_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert math.isnan(percentile([], 50))


def test_failures_count_as_missing_the_limit():
    samples = latencies([1.0] * 98, failures=2)
    assert percentile(samples, 98) == 1.0
    assert percentile(samples, 99) == math.inf
    assert finite(percentile(samples, 99)) == MISSED
    assert finite(math.nan) == 0.0


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 11.5]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert quartile_spread([3.0]) == 0.0


def test_patches_restore_originals():
    class Thing:
        def hello(self):
            return "hi"

    original = Thing.__dict__["hello"]
    patches = Patches()
    patches.wrap(Thing, "hello", lambda fn: lambda self: "wrapped")
    with pytest.raises(AttributeError):
        patches.wrap(Thing, "missing", lambda fn: fn)
    assert Thing().hello() == "wrapped"
    patches.restore()
    assert Thing.__dict__["hello"] is original

