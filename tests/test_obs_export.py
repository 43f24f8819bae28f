"""Exporter round-trips: JSONL, CSV, and Prometheus text format."""

import pytest

from repro.obs.export import (
    parse_csv,
    parse_jsonl,
    parse_prometheus,
    to_csv,
    to_jsonl,
    to_prometheus,
    write_exports,
)
from repro.obs.registry import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sim.events_total").inc(1234)
    registry.gauge("sdp.completions").set(56.5)
    histogram = registry.histogram("sdp.wake_latency", buckets=(1e-6, 1e-5, 1e-4))
    for value in (5e-7, 3e-6, 2e-5, 1.0):
        histogram.observe(value)
    series = registry.timeseries("sdp.queue_depth")
    for i in range(10):
        series.sample(i * 0.25, float(i % 4))
    return registry


def test_jsonl_roundtrip_is_lossless():
    registry = populated_registry()
    assert parse_jsonl(to_jsonl(registry)) == registry.collect()


def test_csv_roundtrip_is_lossless():
    registry = populated_registry()
    assert parse_csv(to_csv(registry)) == registry.collect()


def test_csv_preserves_float_precision():
    registry = MetricsRegistry()
    registry.gauge("g").set(0.1 + 0.2)  # not representable as short decimal
    parsed = parse_csv(to_csv(registry))
    assert parsed[0]["value"] == 0.1 + 0.2


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")


def test_prometheus_roundtrips_scalars_and_histograms():
    registry = populated_registry()
    parsed = {record["name"]: record for record in parse_prometheus(to_prometheus(registry))}
    original = registry.as_dict()
    for name in ("sim.events_total", "sdp.completions", "sdp.wake_latency"):
        assert parsed[name] == original[name]


def test_prometheus_name_mapping_is_reversible():
    registry = MetricsRegistry()
    registry.counter("a.deeply.nested.name_9").inc()
    text = to_prometheus(registry)
    assert "a:deeply:nested:name_9" in text
    assert parse_prometheus(text)[0]["name"] == "a.deeply.nested.name_9"


def test_prometheus_summarises_timeseries():
    # Documented lossy: a timeseries becomes _last/_samples gauges.
    registry = populated_registry()
    parsed = {record["name"]: record for record in parse_prometheus(to_prometheus(registry))}
    assert parsed["sdp.queue_depth_last"]["value"] == 1.0  # 9 % 4
    assert parsed["sdp.queue_depth_samples"]["value"] == 10.0


def downsampled_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    series = registry.timeseries("sdp.queue_depth", capacity=8)
    for i in range(24):
        series.sample(i * 0.25, float(i))
    assert series.stride > 1 and series.samples[-1][1] != 23.0
    return registry


def test_exports_keep_the_newest_sample_of_a_downsampled_series():
    registry = downsampled_registry()
    records = registry.collect()
    assert records[0]["last"] == [5.75, 23.0]
    assert parse_jsonl(to_jsonl(registry)) == records
    assert parse_csv(to_csv(registry)) == records
    parsed = {record["name"]: record for record in parse_prometheus(to_prometheus(registry))}
    assert parsed["sdp.queue_depth_last"]["value"] == 23.0


def test_rack_queue_depth_last_matches_enqueues_minus_dequeues():
    # A 4-server HyperPlane/p2c rack whose depth series downsamples: the
    # exported `_last` must be the depth at the end of the run, not the
    # last sample the stride kept.
    from repro.cluster import ClusterConfig, run_cluster
    from repro.obs.runtime import active_registry

    registry = MetricsRegistry()
    with active_registry(registry):
        run_cluster(
            ClusterConfig(
                num_servers=4,
                notification="hyperplane",
                balancer="p2c",
                fault_profile="straggler",
                queues_per_server=32,
                seed=5,
            ),
            load=0.9,
            duration=0.0008,
            warmup=0.0001,
        )
    assert registry.get("sdp.queue_depth").stride > 1
    parsed = {record["name"]: record for record in parse_prometheus(to_prometheus(registry))}
    depth = registry.get("sdp.enqueues").value - registry.get("sdp.dequeues").value
    assert parsed["sdp.queue_depth_last"]["value"] == depth


def test_prometheus_rejects_undeclared_samples():
    with pytest.raises(ValueError):
        parse_prometheus("mystery_metric 1.0\n")


def test_exporters_accept_collected_records():
    # Archived record lists re-export without a live registry.
    records = populated_registry().collect()
    assert parse_jsonl(to_jsonl(records)) == records
    assert parse_csv(to_csv(records)) == records


def test_write_exports_creates_all_formats(tmp_path):
    registry = populated_registry()
    paths = write_exports(registry, str(tmp_path), "run")
    assert sorted(paths) == ["csv", "jsonl", "prom"]
    for path in paths.values():
        assert (tmp_path / path.split("/")[-1]).read_text()
    jsonl = (tmp_path / "run.metrics.jsonl").read_text()
    assert parse_jsonl(jsonl) == registry.collect()
