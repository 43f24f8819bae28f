"""One observer per model layer: metrics and spans composed on one hook set.

Every model is run under no scope, a registry, a tracer, and both. The
simulated results must not move; under both scopes the registry must
collect exactly what the registry-only run collected and the tracer
must hold exactly the tracer-only run's spans; and every observed
system carries one observer doorbell hook and one observer dequeue
hook, whatever is enabled.
"""

from contextlib import ExitStack

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.core.runner import run_hyperplane
from repro.obs.probes import MachineObserver, SystemObserver
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.obs.trace import Tracer, active_tracer
from repro.sdp.config import SDPConfig
from repro.sdp.runner import run_spinning

SCOPES = ("none", "registry", "tracer", "both")


def _observer_hooks(hooks):
    return [h for h in hooks if isinstance(getattr(h, "__self__", None), SystemObserver)]


def _run_spin():
    metrics = run_spinning(
        SDPConfig(num_queues=16, num_cores=2, seed=4),
        load=0.5, target_completions=400, max_seconds=0.05,
    )
    return metrics.completed, metrics.latency.p99_us, metrics.latency.mean_us, \
        metrics.measure_end, metrics.generated, metrics.dropped


def _run_hyperplane():
    metrics = run_hyperplane(
        SDPConfig(num_queues=16, num_cores=2, seed=4),
        load=0.5, target_completions=400, max_seconds=0.05,
    )
    return metrics.completed, metrics.latency.p99_us, metrics.latency.mean_us, \
        metrics.measure_end, metrics.generated, metrics.dropped


def _run_machine():
    from repro.structural.machine import StructuralMachine
    from repro.structural.spinning import StructuralSpinningCore

    machine = StructuralMachine(num_queues=8, num_producers=1, num_consumers=1, seed=7)
    core = StructuralSpinningCore(machine)
    machine.start_producers(total_rate=100_000.0, max_items=40)
    metrics = machine.run(duration=0.05, target_completions=40)
    return metrics.latency.count, metrics.latency.p99_us, core.polls, \
        machine.sim.events_dispatched


def _run_rack():
    rack = run_cluster(
        ClusterConfig(
            num_servers=4, notification="hyperplane", balancer="p2c",
            fault_profile="straggler", queues_per_server=16, num_flows=32,
            flow_skew=0.3, seed=5,
        ),
        load=0.6, duration=0.002, warmup=0.0005,
    )
    return rack.metrics.fingerprint()


MODELS = {
    "spin": _run_spin,
    "hyperplane": _run_hyperplane,
    "machine": _run_machine,
    "rack": _run_rack,
}


def _observed(run, scope, monkeypatch):
    """Run a model under ``scope``; return results, registry, tracer, observers."""
    observers = []
    original_init = SystemObserver.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        observers.append(self)

    registry = MetricsRegistry() if scope in ("registry", "both") else None
    tracer = Tracer(seed=1, sample_rate=0.5) if scope in ("tracer", "both") else None
    with monkeypatch.context() as patch, ExitStack() as stack:
        patch.setattr(SystemObserver, "__init__", recording_init)
        if registry is not None:
            stack.enter_context(active_registry(registry))
        if tracer is not None:
            stack.enter_context(active_tracer(tracer))
        results = run()
    if tracer is not None:
        tracer.finalize()
    return results, registry, tracer, observers


@pytest.mark.parametrize("model", sorted(MODELS))
def test_registry_and_tracer_compose(model, monkeypatch):
    runs = {scope: _observed(MODELS[model], scope, monkeypatch) for scope in SCOPES}
    baseline = runs["none"][0]
    for scope in SCOPES:
        assert runs[scope][0] == baseline, f"{model} under {scope} perturbed the run"
    assert runs["none"][3] == []

    _, registry_only, _, _ = runs["registry"]
    _, _, tracer_only, _ = runs["tracer"]
    _, both_registry, both_tracer, _ = runs["both"]
    if model == "machine":
        # Traced, not metered: the machine registers no instruments.
        assert len(registry_only) == 0 and len(both_registry) == 0
    else:
        assert len(registry_only) > 0
    assert both_registry.snapshot() == registry_only.snapshot()
    assert tracer_only.spans
    assert [s.to_dict() for s in both_tracer.spans] == [
        s.to_dict() for s in tracer_only.spans
    ]

    for scope in ("registry", "tracer", "both"):
        observers = runs[scope][3]
        if model == "machine":
            assert len(observers) == (0 if scope == "registry" else 1)
            for observer in observers:
                assert isinstance(observer, MachineObserver)
                for doorbell in observer.system.doorbells:
                    assert len(_observer_hooks(doorbell._write_hooks)) == 1
            continue
        assert len(observers) == (4 if model == "rack" else 1)
        for observer in observers:
            system = observer.system
            assert len(_observer_hooks(system.doorbell_write_hooks)) == 1
            assert len(_observer_hooks(system.on_dequeue_hooks)) == 1


# -- rack aggregates -----------------------------------------------------------


def _metered_rack(**overrides):
    registry = MetricsRegistry()
    config = dict(
        num_servers=4, notification="hyperplane", balancer="p2c",
        queues_per_server=16, num_flows=64, flow_skew=0.3, seed=9,
    )
    config.update(overrides)
    with active_registry(registry):
        rack = run_cluster(ClusterConfig(**config), load=0.9, duration=0.0004, warmup=0.0001)
    return rack, registry.as_dict()


def test_rack_queue_depth_is_the_whole_rack():
    rack, data = _metered_rack()
    series = data["sdp.queue_depth"]
    assert series["stride"] == 1
    queued = data["sdp.enqueues"]["value"] - data["sdp.dequeues"]["value"]
    assert series["samples"][-1][1] == queued
    assert queued == sum(
        len(queue) for server in rack.servers for queue in server.system.queues
    )


def test_rack_sdp_gauges_sum_over_servers():
    rack, data = _metered_rack(notification="spinning", balancer="rss")
    systems = [server.system for server in rack.servers]
    assert data["sdp.completions"]["value"] == sum(s.metrics.latency.count for s in systems)
    activities = [s.metrics.activities[0] for s in systems]
    assert data["sdp.core0.tasks"]["value"] == sum(a.tasks for a in activities)
    busy = sum(a.busy_cycles for a in activities)
    assert data["sdp.core0.busy_cycles"]["value"] == busy
    assert data["sdp.core0.occupancy"]["value"] == busy / sum(
        a.total_cycles for a in activities
    )
