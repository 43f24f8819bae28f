"""Tests for the metrics registry, instruments, and the disabled path."""

import gc
import sys

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMESERIES,
    MetricsRegistry,
    Timeseries,
    validate_metric_name,
)
from repro.obs.runtime import active_registry, get_active_registry


# -- naming -----------------------------------------------------------------


def test_valid_names_pass():
    for name in ("sim.events_total", "sdp.core0.busy_cycles", "x", "a.b.c_d9"):
        assert validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "Sdp.queue", "sdp..queue", ".sdp", "sdp.", "sdp:queue", "sdp queue"]
)
def test_invalid_names_rejected(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_registry_rejects_bad_name_at_creation():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("Not.Valid")


# -- instruments ------------------------------------------------------------


def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("sim.events_total")
    counter.inc()
    counter.inc(41.0)
    assert registry.as_dict()["sim.events_total"]["value"] == 42.0


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("a.b")
    with pytest.raises(TypeError):
        registry.gauge("a.b")


def test_pull_gauge_reads_source_at_collect_time():
    registry = MetricsRegistry()
    state = {"depth": 0}
    registry.gauge("sim.heap_depth", fn=lambda: state["depth"])
    state["depth"] = 7
    assert registry.as_dict()["sim.heap_depth"]["value"] == 7.0


def test_pull_gauge_rebinds_to_newest_source():
    # One metric name, many short-lived systems: last registration wins.
    registry = MetricsRegistry()
    registry.gauge("sdp.completions", fn=lambda: 1.0)
    registry.gauge("sdp.completions", fn=lambda: 2.0)
    assert registry.as_dict()["sdp.completions"]["value"] == 2.0


def test_histogram_buckets_cumulative_and_quantile():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 0.7, 5.0, 50.0, 5000.0):
        histogram.observe(value)
    record = histogram.record()
    assert record["buckets"] == [[1.0, 2], [10.0, 3], [100.0, 4]]
    assert record["count"] == 5
    assert record["sum"] == pytest.approx(5056.2)
    assert histogram.quantile(0.5) == 10.0


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))


def test_default_buckets_are_sorted_and_span_latency_range():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-7)
    assert DEFAULT_BUCKETS[-1] >= 0.05


def test_timeseries_downsamples_instead_of_truncating():
    series = Timeseries("q", capacity=8)
    for i in range(100):
        series.sample(float(i), float(i))
    # Never exceeds capacity, covers the whole run, stride doubled.
    assert series.count < 8
    assert series.stride > 1
    times = [t for t, _ in series.samples]
    assert times == sorted(times)
    assert times[-1] > 90.0


def test_timeseries_keeps_newest_sample_past_the_stride():
    series = Timeseries("q", capacity=8)
    for i in range(101):
        series.sample(float(i), float(i))
    assert series.stride > 1
    assert series.samples[-1] != (100.0, 100.0)  # skipped by the stride
    assert series.last == (100.0, 100.0)
    assert series.record()["last"] == [100.0, 100.0]
    assert series.snapshot()["last"] == [100.0, 100.0]
    assert Timeseries("empty").record()["last"] is None


def test_timeseries_merge_keeps_the_later_newest_sample():
    a, b = MetricsRegistry(), MetricsRegistry()
    for i in range(20):
        a.timeseries("m.depth", capacity=8).sample(float(i), float(i))
    for i in range(5):
        b.timeseries("m.depth", capacity=8).sample(100.0 + i, -float(i))
    a.merge_snapshot(b.snapshot())
    assert a.get("m.depth").last == (104.0, -4.0)
    # An older incoming stream does not roll the newest sample back.
    older = MetricsRegistry()
    older.timeseries("m.depth").sample(50.0, 7.0)
    a.merge_snapshot(older.snapshot())
    assert a.get("m.depth").last == (104.0, -4.0)


def test_timeseries_minimum_capacity():
    with pytest.raises(ValueError):
        Timeseries("q", capacity=4)


def test_collect_is_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("z.last")
    registry.counter("a.first")
    assert [record["name"] for record in registry.collect()] == ["a.first", "z.last"]


# -- disabled path -----------------------------------------------------------


def test_disabled_registry_hands_out_shared_nulls():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("a.b") is NULL_COUNTER
    assert registry.gauge("a.b") is NULL_GAUGE
    assert registry.histogram("a.b") is NULL_HISTOGRAM
    assert registry.timeseries("a.b") is NULL_TIMESERIES
    assert len(registry) == 0 and registry.collect() == []


def test_null_instruments_discard_everything():
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(5)
    NULL_HISTOGRAM.observe(5)
    NULL_TIMESERIES.sample(1.0, 5.0)
    assert NULL_COUNTER.value == 0.0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0
    assert NULL_TIMESERIES.count == 0


def test_null_record_path_allocates_nothing():
    # The zero-cost-when-disabled guarantee: exercising every null
    # instrument's hot-path method must not allocate a single block.
    counter, gauge = NULL_COUNTER, NULL_GAUGE
    histogram, series = NULL_HISTOGRAM, NULL_TIMESERIES

    def pump(rounds: int) -> None:
        for _ in range(rounds):
            counter.inc()
            gauge.set(1.0)
            histogram.observe(1.0)
            series.sample(1.0, 1.0)

    deltas = []
    gc.disable()
    try:
        # First pass warms interpreter caches (bytecode specialization
        # allocates once); steady state must allocate exactly nothing.
        for _ in range(3):
            gc.collect()
            before = sys.getallocatedblocks()
            pump(1000)
            deltas.append(sys.getallocatedblocks() - before)
    finally:
        gc.enable()
    assert deltas[-1] == 0, deltas


def test_disabled_registry_is_never_ambient():
    disabled = MetricsRegistry(enabled=False)
    with active_registry(disabled):
        assert get_active_registry() is None


def test_active_registry_scopes_and_restores():
    outer = MetricsRegistry(enabled=True)
    inner = MetricsRegistry(enabled=True)
    assert get_active_registry() is None
    with active_registry(outer):
        assert get_active_registry() is outer
        with active_registry(inner):
            assert get_active_registry() is inner
        assert get_active_registry() is outer
    assert get_active_registry() is None


# -- snapshot / merge --------------------------------------------------------


def test_counter_snapshot_merge_sums():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("m.count", help="h").inc(3)
    b.counter("m.count").inc(4)
    a.merge_snapshot(b.snapshot())
    assert a.get("m.count").value == 7.0


def test_gauge_merge_freezes_newest_value():
    a, b = MetricsRegistry(), MetricsRegistry()
    source = {"v": 10.0}
    a.gauge("m.level", fn=lambda: source["v"])
    b.gauge("m.level").set(42.0)
    a.merge_snapshot(b.snapshot())
    source["v"] = 99.0  # old pull binding must be gone
    assert a.get("m.level").read() == 42.0


def test_histogram_merge_adds_buckets():
    a, b = MetricsRegistry(), MetricsRegistry()
    bounds = (1.0, 2.0, 4.0)
    for value in (0.5, 1.5, 100.0):
        a.histogram("m.lat", buckets=bounds).observe(value)
    for value in (0.7, 3.0):
        b.histogram("m.lat", buckets=bounds).observe(value)
    a.merge_snapshot(b.snapshot())
    h = a.get("m.lat")
    assert h.count == 5
    assert h.counts == [2, 1, 1] and h.overflow == 1
    assert h.sum == 0.5 + 1.5 + 100.0 + 0.7 + 3.0


def test_histogram_merge_rejects_mismatched_bounds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("m.lat", buckets=(1.0, 2.0))
    b.histogram("m.lat", buckets=(1.0, 3.0))
    with pytest.raises(ValueError):
        a.merge_snapshot(b.snapshot())


def test_merge_rejects_kind_conflicts():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("m.x")
    b.gauge("m.x")
    with pytest.raises(TypeError):
        a.merge_snapshot(b.snapshot())


def test_timeseries_merge_interleaves_by_time_and_recaps():
    a, b = MetricsRegistry(), MetricsRegistry()
    ts_a = a.timeseries("m.depth", capacity=8)
    ts_b = b.timeseries("m.depth", capacity=8)
    for t in (0.1, 0.3, 0.5):
        ts_a.sample(t, 1.0)
    for t in (0.2, 0.4):
        ts_b.sample(t, 2.0)
    a.merge_snapshot(b.snapshot())
    merged = a.get("m.depth")
    assert [t for t, _ in merged.samples] == sorted(t for t, _ in merged.samples)
    assert merged.count == 5
    # Merging more than capacity re-downsamples instead of overflowing.
    c = MetricsRegistry()
    ts_c = c.timeseries("m.depth", capacity=8)
    for i in range(7):
        ts_c.sample(1.0 + i * 0.01, 3.0)
    a.merge_snapshot(c.snapshot())
    assert a.get("m.depth").count < 8
    assert a.get("m.depth").stride > 1


def test_merge_creates_missing_instruments():
    a, b = MetricsRegistry(), MetricsRegistry()
    b.counter("m.new", help="created by merge").inc(5)
    b.histogram("m.h", buckets=(1.0,)).observe(0.5)
    b.timeseries("m.t", capacity=16).sample(0.0, 1.0)
    a.merge_snapshot(b.snapshot())
    assert a.get("m.new").value == 5.0
    assert a.get("m.new").help == "created by merge"
    assert a.get("m.h").count == 1
    assert a.get("m.t").count == 1


def test_snapshot_is_plain_data():
    import json

    registry = MetricsRegistry()
    registry.counter("m.c").inc()
    registry.gauge("m.g", fn=lambda: 3.0)
    registry.histogram("m.h").observe(1e-6)
    registry.timeseries("m.t").sample(0.0, 1.0)
    snap = registry.snapshot()
    json.dumps(snap)  # picklable/serialisable by construction
    assert snap["m.g"]["value"] == 3.0  # pull gauge frozen at read()


def test_merge_registry_convenience():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("m.c").inc(1)
    b.counter("m.c").inc(2)
    a.merge(b)
    assert a.get("m.c").value == 3.0
