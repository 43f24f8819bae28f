"""Instrumentation probes: sdp, mem, cluster, sim — wired end to end."""

from repro.cluster import ClusterConfig, run_cluster
from repro.core.runner import run_hyperplane
from repro.mem.costmodel import empty_poll_cost_curve
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.sdp.config import SDPConfig
from repro.sdp.runner import run_spinning


def small_config(seed: int = 3) -> SDPConfig:
    return SDPConfig(num_queues=8, num_cores=2, seed=seed)


def instrumented_run(seed: int = 3) -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        run_spinning(
            small_config(seed), load=0.5, target_completions=500, max_seconds=0.05
        )
    return registry


# -- sdp + sim probes --------------------------------------------------------


def test_sdp_probes_carry_samples():
    data = instrumented_run().as_dict()
    assert data["sdp.queue_depth"]["samples"], "queue-depth timeline must be sampled"
    assert data["sdp.enqueues"]["value"] > 0
    assert data["sdp.dequeues"]["value"] > 0
    assert data["sdp.completions"]["value"] > 0
    assert data["sim.events_total"]["value"] > 0


def test_wake_latency_histogram_populates():
    data = instrumented_run().as_dict()
    record = data["sdp.notification_wake_latency_seconds"]
    assert record["count"] > 0
    assert record["sum"] >= 0.0


def test_per_core_occupancy_gauges():
    data = instrumented_run().as_dict()
    for core in range(2):
        occupancy = data[f"sdp.core{core}.occupancy"]["value"]
        assert 0.0 <= occupancy <= 1.0
    assert sum(data[f"sdp.core{c}.tasks"]["value"] for c in range(2)) > 0


def test_sim_engine_gauges():
    data = instrumented_run().as_dict()
    assert data["sim.events_dispatched"]["value"] > 0
    assert data["sim.process_wakes"]["value"] > 0
    assert data["sim.now_seconds"]["value"] > 0.0


def test_queue_depth_timeline_is_time_ordered():
    samples = instrumented_run().as_dict()["sdp.queue_depth"]["samples"]
    times = [t for t, _ in samples]
    assert times == sorted(times)
    assert all(depth >= 0 for _, depth in samples)


# -- mem probes --------------------------------------------------------------


def test_mem_probes_populate_from_cost_derivation():
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        empty_poll_cost_curve([4, 64])
    data = registry.as_dict()
    assert data["mem.l1.hits"]["value"] > 0
    assert 0.0 < data["mem.l1.hit_rate"]["value"] <= 1.0
    assert data["mem.coherence.get_s"]["value"] > 0


# -- cluster probes ----------------------------------------------------------


def test_cluster_fleet_probes():
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        run_cluster(
            ClusterConfig(
                num_servers=2,
                cores_per_server=2,
                queues_per_server=8,
                num_flows=32,
                seed=3,
            ),
            load=0.5,
            duration=0.002,
            warmup=0.0005,
        )
    data = registry.as_dict()
    assert data["cluster.fleet.p99_latency_us"]["value"] > 0
    assert data["cluster.fleet.completed"]["value"] > 0
    assert data["cluster.fleet.throughput_mtps"]["value"] > 0
    for server in range(2):
        assert data[f"cluster.server{server}.up"]["value"] == 1.0
        assert data[f"cluster.server{server}.completed"]["value"] >= 0


# -- invariants --------------------------------------------------------------


def test_metrics_are_deterministic_for_a_seed():
    first = instrumented_run(seed=11).collect()
    second = instrumented_run(seed=11).collect()
    assert first == second


def test_different_seeds_differ():
    assert instrumented_run(seed=1).collect() != instrumented_run(seed=2).collect()


def test_instrumentation_does_not_perturb_results():
    # The observability layer must be read-only: an instrumented run's
    # results equal an uninstrumented run's exactly.
    for runner in (run_spinning, run_hyperplane):
        kwargs = dict(load=0.5, target_completions=500, max_seconds=0.05)
        plain = runner(small_config(), **kwargs)
        registry = MetricsRegistry(enabled=True)
        with active_registry(registry):
            instrumented = runner(small_config(), **kwargs)
        assert instrumented.completed == plain.completed
        assert instrumented.latency.p99_us == plain.latency.p99_us
        assert instrumented.latency.mean_us == plain.latency.mean_us
        assert instrumented.measure_end == plain.measure_end
        assert instrumented.generated == plain.generated
        assert instrumented.dropped == plain.dropped


def test_disabled_registry_installs_no_hooks():
    from repro.sdp.system import DataPlaneSystem

    with active_registry(MetricsRegistry(enabled=False)):
        system = DataPlaneSystem(small_config())
    assert system._observer is None
    # Only the ready-mask upkeep hook, no probe hooks.
    assert system.doorbell_write_hooks == []
