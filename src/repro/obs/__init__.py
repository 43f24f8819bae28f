"""repro.obs — simulation-wide observability.

A first-class instrumentation layer decoupled from the models (the
pattern Akita and gem5's stats plumbing converge on): a
:class:`MetricsRegistry` of counters, gauges, sim-time histograms, and
bounded timeseries probes; one observer per model layer feeding both
metrics and spans (:mod:`repro.obs.probes`); JSONL / CSV / Prometheus
exporters with round-trip parsers (:mod:`repro.obs.export`); and the
:class:`RunManifest` provenance record every experiment result carries
(:mod:`repro.obs.manifest`). Alongside the aggregate metrics sits the
causal tracing layer (:mod:`repro.obs.trace`): per-request span trees
with bit-exact simulated-cycle attribution, exporters
(:mod:`repro.obs.trace_export`), and the latency-decomposition report
(:mod:`repro.obs.trace_report`) behind the ``repro-trace`` CLI.

Quick start::

    from repro import MetricsRegistry
    from repro.obs import active_registry

    registry = MetricsRegistry()
    with active_registry(registry):
        metrics = run_hyperplane(config, load=0.5)   # self-instruments
    registry.as_dict()["sdp.queue_depth"]            # the timeline

Disabled observability is free: with no active registry (the default),
no hook, probe, or sampler is installed anywhere.
"""

from repro.obs.export import (
    parse_csv,
    parse_jsonl,
    parse_prometheus,
    to_csv,
    to_jsonl,
    to_prometheus,
    write_exports,
)
from repro.obs.live import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlTelemetrySink,
    TelemetryBus,
    TelemetryError,
    TelemetrySampler,
    parse_telemetry_jsonl,
    validate_frame,
    write_prometheus_textfile,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_digest,
    manifest_problems,
    validate_manifest,
)
from repro.obs.probes import instrument_simulator
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeseries,
    snapshot_delta,
    validate_metric_name,
)
from repro.obs.runtime import active_registry, get_active_registry, set_active_registry
from repro.obs.trace import (
    CATEGORIES,
    NULL_TRACER,
    Span,
    Tracer,
    active_tracer,
    get_active_tracer,
    set_active_tracer,
)
from repro.obs.trace_export import write_trace_exports

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTelemetrySink",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_TRACER",
    "RunManifest",
    "Span",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryBus",
    "TelemetryError",
    "TelemetrySampler",
    "Timeseries",
    "Tracer",
    "active_registry",
    "active_tracer",
    "config_digest",
    "get_active_registry",
    "get_active_tracer",
    "instrument_simulator",
    "manifest_problems",
    "parse_csv",
    "parse_jsonl",
    "parse_prometheus",
    "parse_telemetry_jsonl",
    "set_active_registry",
    "set_active_tracer",
    "snapshot_delta",
    "to_csv",
    "to_jsonl",
    "to_prometheus",
    "validate_frame",
    "validate_manifest",
    "validate_metric_name",
    "write_exports",
    "write_prometheus_textfile",
    "write_trace_exports",
]
