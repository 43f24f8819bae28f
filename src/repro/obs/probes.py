"""Observers: one per model layer, feeding metrics and spans from one hook set.

Each model layer builds exactly one observer at construction time, and
that observer serves whichever of the ambient
:class:`~repro.obs.registry.MetricsRegistry` (:mod:`repro.obs.runtime`)
and :class:`~repro.obs.trace.Tracer` (:mod:`repro.obs.trace`) are
enabled:

=======================  ==============================  =========================
entry point              layer                           feeds
=======================  ==============================  =========================
:func:`observe_system`   a ``DataPlaneSystem``           ``sim.*``, ``sdp.*``, request spans
:func:`observe_machine`  a ``StructuralMachine``         request spans (traced, not metered)
:func:`observe_rack`     a ``Rack`` (or reference rack)  ``sim.*``, ``cluster.*``, rpc spans
=======================  ==============================  =========================

With neither scope enabled — the default — every entry point returns
``None`` and installs nothing, so an unobserved run pays one ``None``
check per build and per ``run()``.

Metric naming scheme (see ``docs/observability.md``): dotted lower-case
paths, ``<layer>.<component>.<quantity>``, with per-instance components
numbered (``sdp.core0.busy_cycles``). Pull gauges read their source at
collect time and cost nothing while the simulation runs; counters,
histograms, and timeseries record from the observer's hooks.

The cardinal rule (the bit-identical acceptance criterion): **observers
observe, they never schedule.** Everything here runs from hooks the
models already expose — doorbell write hooks, dequeue hooks, and
wrappers around ``complete`` (and the rack's dispatch/enqueue) — and
all span construction happens at completion time from fields the models
fill in anyway (``arrival_time``, ``dequeue_time``, ``completion_time``,
``service_time``). No event is added, removed, or reordered, so an
observed run's simulated results are bit-identical to an unobserved one.

Per-request cycle attribution (all on the root ``request`` span):

``notify_wait``
    Doorbell ring of an idle queue → that item's dequeue (the observer's
    ``ready_since`` table, the same interval the
    ``sdp.notification_wake_latency_seconds`` histogram records),
    clamped into the item's wait. This is the component the
    notification mechanism (spin / MWAIT / interrupt / HyperPlane)
    determines.
``queueing``
    The rest of the pre-dequeue wait: the item sat behind other work.
``coherence``
    Fast model: the hierarchy-derived ``task_data_stall`` cycles.
    Structural model: the *measured* dequeue memory cycles (doorbell
    write + ring-head write + slot read through the coherence model).
``service``
    The workload model's drawn service time, in cycles.
``overhead``
    The residual, closed by
    :meth:`~repro.obs.trace.Span.attribute_cycles` so the fixed-order
    category sum equals the span's cycle duration bit-exactly.

The mechanism label (``metrics.label``) only exists after a runner
finishes, so observers stamp the ``mechanism`` attribute from a tracer
finalizer — call :meth:`Tracer.finalize` after the run.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import get_active_registry
from repro.obs.trace import Span, Tracer, get_active_tracer

# Exponential sim-time latency buckets: 100 ns .. ~0.1 s.
LATENCY_BUCKETS = tuple(1e-7 * (10 ** (i / 2)) for i in range(13))


_SIM_GAUGES = (
    ("events_dispatched", "events_dispatched", "callbacks executed by the event loop"),
    ("heap_depth", "pending", "callbacks currently pending in the heap"),
    ("process_wakes", "process_wakes", "generator-process resumptions"),
    ("now_seconds", "now", "current simulated time"),
)

_FLEET_GAUGES = (
    ("p50_latency_us", "p50_us", "client-visible P2 median"),
    ("p99_latency_us", "p99_us", "client-visible P2 99th percentile"),
    ("p999_latency_us", "p999_us", "client-visible P2 99.9th percentile"),
    ("throughput_mtps", "throughput_mtps", "client-visible completion rate"),
    ("completed", "count", "client-visible completions"),
    ("dispatched", "dispatched", "requests steered by the balancer"),
    ("lost", "lost", "responses lost to crashes/staleness"),
    ("redispatched", "redispatched", "failover re-dispatches"),
    ("rejected", "rejected", "requests dropped at full queues"),
    ("hottest_share", "hottest_share", "largest per-server completion share"),
)

_SERVER_GAUGES = (
    ("up", "up", "1 while in the balancer pool"),
    ("completed", "completed_ok", "client-visible completions served"),
    ("dispatched", "dispatched", "requests steered to this server"),
)


def _pull_gauges(registry: MetricsRegistry, prefix: str, source, table) -> None:
    """One pull gauge ``<prefix>.<name>`` per ``(name, attribute, help)`` row."""
    for name, attribute, help_text in table:
        registry.gauge(f"{prefix}.{name}", help=help_text, fn=partial(getattr, source, attribute))


def instrument_simulator(registry: MetricsRegistry, sim, prefix: str = "sim") -> None:
    """Pull gauges over an engine's native accounting (zero run cost)."""
    _pull_gauges(registry, prefix, sim, _SIM_GAUGES)


# -- entry points --------------------------------------------------------------


def _observe(observer_cls, model):
    registry = get_active_registry()
    tracer = get_active_tracer()
    if registry is None and tracer is None:
        return None
    return observer_cls(model, registry, tracer)


def observe_system(system) -> Optional["SystemObserver"]:
    """The observer of one :class:`~repro.sdp.system.DataPlaneSystem`, or ``None``."""
    return _observe(SystemObserver, system)


def observe_machine(machine) -> Optional["MachineObserver"]:
    """The observer of one :class:`~repro.structural.machine.StructuralMachine`.

    The structural machine is traced, not metered: without an enabled
    tracer this returns ``None`` whatever registry is active.
    """
    tracer = get_active_tracer()
    return MachineObserver(machine, None, tracer) if tracer is not None else None


def observe_rack(rack) -> Optional["RackObserver"]:
    """The observer of one :class:`~repro.cluster.rack.Rack`, or ``None``.

    Build it after the servers: their systems observed themselves at
    build time (same ambient scopes), and the rack observer parents
    their request spans under its rpc spans.
    """
    return _observe(RackObserver, rack)


# -- shared base ---------------------------------------------------------------


class _Observer:
    """What every layer's observer holds: its scopes and its simulator."""

    __slots__ = ("registry", "tracer", "sim", "_events_reported")

    def __init__(self, registry: Optional[MetricsRegistry], tracer: Optional[Tracer], sim):
        self.registry = registry
        self.tracer = tracer
        self.sim = sim
        self._events_reported = 0

    def run_finished(self) -> None:
        """Fold the events retired since the last run into ``sim.events_total``."""
        if self.registry is None:
            return
        delta = self.sim.events_dispatched - self._events_reported
        self._events_reported = self.sim.events_dispatched
        self.registry.counter(
            "sim.events_total", help="events retired across all runs"
        ).inc(delta)


# -- data-plane systems --------------------------------------------------------


class _SdpAggregate:
    """The ``sdp.*`` instruments of every observed system on one simulator.

    Systems that share a timeline (a rack's servers, a dist worker's
    servers) share one queue depth, and the pull gauges aggregate over
    them: counts and cycles sum, occupancy is summed busy over summed
    total cycles. A system on a new simulator starts a new aggregate,
    which rebinds the gauges to the newest source.
    """

    __slots__ = ("sim", "prefix", "registry", "systems", "activities", "depth",
                 "depth_series", "wake_latency", "enqueues", "dequeues")

    def __init__(self, registry: MetricsRegistry, sim, prefix: str):
        self.sim = sim
        self.prefix = prefix
        self.registry = registry
        self.systems: List[Any] = []
        # activities[i]: core i's CoreActivity in every system that has one.
        self.activities: List[List[Any]] = []
        self.depth = 0
        instrument_simulator(registry, sim, prefix="sim")
        self.enqueues = registry.counter(
            f"{prefix}.enqueues", help="doorbell writes observed (one per enqueue)"
        )
        self.dequeues = registry.counter(f"{prefix}.dequeues", help="items taken by cores")
        self.depth_series = registry.timeseries(
            f"{prefix}.queue_depth",
            help="total queued items across all queues (periodic samples)",
        )
        self.wake_latency = registry.histogram(
            f"{prefix}.notification_wake_latency_seconds",
            help="doorbell write of an idle queue -> first dequeue from it",
            buckets=LATENCY_BUCKETS,
        )
        registry.gauge(
            f"{prefix}.completions",
            help="post-warm-up completions recorded",
            fn=self.completions,
        )
        registry.gauge(
            f"{prefix}.spurious_wakeups",
            help="QWAIT-VERIFY-filtered wake-ups",
            fn=lambda: sum(system.metrics.spurious_wakeups for system in self.systems),
        )

    @classmethod
    def joining(cls, registry: MetricsRegistry, system, prefix: str = "sdp") -> "_SdpAggregate":
        """The aggregate ``system`` joins: the current one if it shares its simulator."""
        # The aggregate in use is the one whose bound method the
        # completions gauge currently pulls from.
        gauge = registry.get(f"{prefix}.completions")
        current = getattr(getattr(gauge, "fn", None), "__self__", None)
        if not (isinstance(current, cls) and current.sim is system.sim):
            current = cls(registry, system.sim, prefix)
        current.systems.append(system)
        for index, activity in enumerate(system.metrics.activities):
            if index == len(current.activities):
                current.activities.append([])
                current._core_gauges(index)
            current.activities[index].append(activity)
        return current

    def completions(self) -> float:
        return sum(s.metrics.latency.count for s in self.systems)

    def _core_gauges(self, index: int) -> None:
        core = f"{self.prefix}.core{index}"
        group = self.activities[index]

        def occupancy() -> float:
            total = _sum_of(group, "total_cycles")
            return _sum_of(group, "busy_cycles") / total if total else 0.0

        for name, help_text in (
            ("busy_cycles", "cycles doing task work or polling"),
            ("halted_cycles", "cycles halted in QWAIT"),
            ("tasks", "tasks completed by this core"),
        ):
            self.registry.gauge(f"{core}.{name}", help=help_text, fn=partial(_sum_of, group, name))
        self.registry.gauge(f"{core}.occupancy", help="busy fraction of total cycles", fn=occupancy)


def _sum_of(items, attribute: str):
    return sum(getattr(item, attribute) for item in items)


def _clamped_wake(wake: float, wait: float) -> float:
    """Notification wait clamped into the item's total pre-dequeue wait."""
    if wait <= 0.0:
        return 0.0
    return min(max(wake, 0.0), wait)


class SystemObserver(_Observer):
    """The one observer of a data-plane system.

    It installs one doorbell-write hook and one dequeue hook whatever is
    enabled. Its ``ready_since`` table feeds both the wake-latency
    histogram (with a registry) and each request span's ``notify_wait``
    (with a tracer). With a tracer it also wraps ``system.complete`` to
    build a ``request`` root span with ``queue.wait`` / ``service``
    children and a closed cycle breakdown per completed item, subject to
    the tracer's head sampling by item id.
    """

    __slots__ = ("system", "sdp", "ready_since", "pending_wakes", "request_spans",
                 "parent_resolver", "default_label", "_original_complete")

    def __init__(self, system, registry: Optional[MetricsRegistry], tracer: Optional[Tracer]):
        super().__init__(registry, tracer, system.sim)
        self.system = system
        self.sdp = _SdpAggregate.joining(registry, system) if registry is not None else None
        # qid -> time its doorbell first rang while it was idle.
        self.ready_since: Dict[int, float] = {}
        # qid -> notification waits of dequeues not yet completed, in
        # dequeue order (bounded by items in flight); None when untraced.
        self.pending_wakes: Optional[Dict[int, Deque[float]]] = None
        if tracer is not None:
            self.pending_wakes = {}
            self.request_spans: list = []
            # Installed by the rack observer: item -> parent span (or
            # None to skip — the enclosing rpc was not sampled).
            self.parent_resolver: Optional[Callable[[Any], Optional[Span]]] = None
            self.default_label = "unlabeled"
            self._original_complete = system.complete
            system.complete = self.on_complete
            tracer.add_finalizer(self.finalize)
        self._attach(system)

    def _attach(self, system) -> None:
        system.doorbell_write_hooks.append(self.on_doorbell_write)
        system.on_dequeue_hooks.append(self.on_dequeue)

    # -- hooks ---------------------------------------------------------------

    def on_doorbell_write(self, doorbell) -> None:
        now = self.sim.now
        sdp = self.sdp
        if sdp is not None:
            sdp.enqueues.inc()
            sdp.depth += 1
            sdp.depth_series.sample(now, float(sdp.depth))
        if doorbell.qid not in self.ready_since:
            self.ready_since[doorbell.qid] = now

    def on_dequeue(self, qid: int) -> None:
        now = self.sim.now
        ready_at = self.ready_since.pop(qid, None)
        sdp = self.sdp
        if sdp is not None:
            sdp.dequeues.inc()
            sdp.depth -= 1
            sdp.depth_series.sample(now, float(sdp.depth))
            if ready_at is not None:
                sdp.wake_latency.observe(now - ready_at)
        if self.pending_wakes is not None:
            wake = now - ready_at if ready_at is not None else 0.0
            self.pending_wakes.setdefault(qid, deque()).append(wake)

    def coherence_cycles(self, item) -> float:
        """Fast model: the constant hierarchy-derived per-task stall."""
        return float(self.system.task_data_stall)

    def on_complete(self, item) -> None:
        self._original_complete(item)
        # Keep the per-queue wake (and structural coherence) pairing
        # exact whether or not this item is sampled.
        wakes = self.pending_wakes.get(item.qid)
        wake = wakes.popleft() if wakes else 0.0
        coherence = self.coherence_cycles(item)
        parent = None
        if self.parent_resolver is not None:
            parent = self.parent_resolver(item)
            if parent is None:
                return
        elif not self.tracer.sampled(f"item:{item.item_id}"):
            return
        self._build_spans(item, wake, coherence, parent)

    # -- span construction ---------------------------------------------------

    def _build_spans(self, item, wake: float, coherence: float, parent: Optional[Span]) -> None:
        tracer = self.tracer
        arrival = item.arrival_time
        completion = item.completion_time
        dequeue = item.dequeue_time if item.dequeue_time is not None else completion
        root = tracer.begin(
            "request", arrival, parent=parent, item_id=item.item_id, qid=item.qid
        )
        wait_s = dequeue - arrival
        wake_s = _clamped_wake(wake, wait_s)

        queue_span = tracer.begin("queue.wait", arrival, parent=root)
        if wake_s > 0.0:
            queue_span.add_event(dequeue - wake_s, "doorbell_ready")
        tracer.end(queue_span, dequeue)
        service_span = tracer.begin("service", dequeue, parent=root)
        tracer.end(service_span, completion)
        tracer.end(root, completion)

        clock = self.system.clock
        root.attribute_cycles(
            clock.seconds_to_cycles(completion - arrival),
            notify_wait=clock.seconds_to_cycles(wake_s),
            queueing=clock.seconds_to_cycles(max(wait_s - wake_s, 0.0)),
            coherence=coherence,
            service=clock.seconds_to_cycles(item.service_time),
        )
        # Only remember spans the tracer actually retained (cap-aware).
        if tracer.spans and tracer.spans[-1] is root:
            self.request_spans.append(root)

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        label = self.system.metrics.label or self.default_label
        for span in self.request_spans:
            span.set_attribute("mechanism", label)


class MachineObserver(SystemObserver):
    """The observer of the execution-driven structural machine (tracing only).

    Differences from the fast model: there is no dequeue hook list, so
    the wrapper around :meth:`StructuralMachine.dequeue_memory_cycles`
    (called exactly once per dequeue, at the dequeue instant) doubles
    as one; and coherence cycles are the *measured* memory latency of
    that dequeue rather than a derived constant.
    """

    __slots__ = ("pending_coherence", "_original_dequeue_cycles")

    def _attach(self, machine) -> None:
        self.default_label = "structural"
        self.pending_coherence: Dict[int, Deque[float]] = {}
        self._original_dequeue_cycles = machine.dequeue_memory_cycles
        machine.dequeue_memory_cycles = self.on_dequeue_memory_cycles
        for doorbell in machine.doorbells:
            doorbell.add_write_hook(self.on_doorbell_write)

    def on_dequeue_memory_cycles(self, core: int, qid: int) -> int:
        cycles = self._original_dequeue_cycles(core, qid)
        self.on_dequeue(qid)
        self.pending_coherence.setdefault(qid, deque()).append(float(cycles))
        return cycles

    def coherence_cycles(self, item) -> float:
        """The measured memory cycles of this item's dequeue (FIFO per queue)."""
        pending = self.pending_coherence.get(item.qid)
        return pending.popleft() if pending else 0.0


# -- racks ---------------------------------------------------------------------


class RackObserver(_Observer):
    """The observer of one rack: fleet gauges and rpc/link spans.

    With a registry it adds what only the fleet view knows —
    client-visible tails, loss and failover accounting, per-server
    health/completion gauges; the servers' ``sdp.*`` aggregates come
    from their own observers. With a tracer it wraps the rack's
    ``dispatch`` and each server's ``enqueue`` / ``complete`` (the rack's
    only attach mechanism): an ``rpc`` root per sampled request covering
    dispatch → client-visible completion, a ``dispatch.link`` child per
    wire transfer (one per redispatch), rejection closure, and each
    server-side ``request`` span parented under its rpc, so one trace
    spans balancer, link, queue, notification, and service.
    """

    __slots__ = ("rack", "open", "rpc_spans")

    # Entries for requests that never complete (rejections we could not
    # observe, in-flight work at the deadline) are bounded by this.
    MAX_OPEN = 100_000

    def __init__(self, rack, registry: Optional[MetricsRegistry], tracer: Optional[Tracer]):
        super().__init__(registry, tracer, rack.sim)
        self.rack = rack
        if registry is not None:
            self._fleet_gauges(registry)
        if tracer is not None:
            # (flow, arrival_time) -> {"root": Span, "link": Optional[Span]}
            self.open: Dict[Tuple[int, float], Dict[str, Optional[Span]]] = {}
            self.rpc_spans: list = []
            rack.dispatch = self.wrap_dispatch(rack.dispatch)
            for server in rack.servers:
                server.enqueue = self.wrap_enqueue(server.enqueue)
                server.system.complete = self.wrap_complete(server.system.complete)
                observer = server.system._observer
                if observer is not None and observer.tracer is not None:
                    observer.parent_resolver = self.parent_for
                    observer.default_label = (
                        f"{rack.config.notification}/server{server.index}"
                    )
            tracer.add_finalizer(self.finalize)

    def _fleet_gauges(self, registry: MetricsRegistry, prefix: str = "cluster") -> None:
        instrument_simulator(registry, self.rack.sim, prefix="sim")
        _pull_gauges(registry, f"{prefix}.fleet", self.rack.metrics, _FLEET_GAUGES)
        for index, server in enumerate(self.rack.servers):
            _pull_gauges(registry, f"{prefix}.server{index}", server, _SERVER_GAUGES)

    # -- span wrappers -------------------------------------------------------

    def wrap_dispatch(self, original):
        def dispatch(flow, arrival_time, base_service=None):
            tracer = self.tracer
            key = (flow, arrival_time)
            entry = self.open.get(key)
            if entry is None:
                if len(self.open) < self.MAX_OPEN and tracer.sampled(
                    f"rpc:{flow}:{arrival_time!r}"
                ):
                    root = tracer.begin("rpc", arrival_time, flow=flow)
                    entry = {"root": root, "link": None}
                    self.open[key] = entry
            else:
                entry["root"].add_event(self.sim.now, "redispatch")
            server_id = original(flow, arrival_time, base_service)
            if entry is not None:
                entry["root"].set_attribute("server", server_id)
                entry["link"] = tracer.begin(
                    "dispatch.link",
                    self.sim.now,
                    parent=entry["root"],
                    server=server_id,
                )
            return server_id

        return dispatch

    def wrap_enqueue(self, original):
        def enqueue(flow, arrival_time, base_service):
            entry = self.open.get((flow, arrival_time))
            if entry is not None and entry["link"] is not None:
                self.tracer.end(entry["link"], self.sim.now)
                entry["link"] = None
            rejected_before = self.rack.metrics.rejected
            original(flow, arrival_time, base_service)
            if entry is not None and self.rack.metrics.rejected > rejected_before:
                # Dropped at a full ring: close the rpc here — no
                # completion will ever arrive for it.
                root = self.open.pop((flow, arrival_time))["root"]
                root.set_attribute("rejected", True)
                self.tracer.end(root, self.sim.now)

        return enqueue

    def wrap_complete(self, original):
        def complete(item):
            original(item)
            payload = item.payload
            if not (isinstance(payload, tuple) and len(payload) == 3):
                return
            entry = self.open.pop((payload[0], item.arrival_time), None)
            if entry is None:
                return
            if entry["link"] is not None:
                self.tracer.end(entry["link"], self.sim.now)
            root = entry["root"]
            self.tracer.end(root, self.sim.now)
            if self.tracer.spans and self.tracer.spans[-1] is root:
                self.rpc_spans.append(root)

        return complete

    def parent_for(self, item) -> Optional[Span]:
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return None
        entry = self.open.get((payload[0], item.arrival_time))
        return entry["root"] if entry is not None else None

    def finalize(self) -> None:
        notification = self.rack.config.notification
        for span in self.rpc_spans:
            span.set_attribute("mechanism", f"cluster/{notification}")


# -- memory hierarchy ----------------------------------------------------------


def hierarchy_stats_snapshot(hierarchy) -> Dict[str, float]:
    """A plain-dict snapshot of a hierarchy's cumulative counters.

    The snapshot is detached from the live objects — picklable,
    mergeable by addition, and replayable into a registry later with
    :func:`replay_hierarchy_stats`. The cost-curve memo
    (:mod:`repro.mem.costmodel`) stores one per derivation so cache
    hits fold in the *same* ``mem.*`` increments a fresh derivation
    would have.
    """
    from repro.mem.coherence import TransactionKind

    stats = {
        "l1.hits": float(sum(l1.stats.hits for l1 in hierarchy.l1s)),
        "l1.misses": float(sum(l1.stats.misses for l1 in hierarchy.l1s)),
        "llc.hits": float(hierarchy.llc.stats.hits),
        "llc.misses": float(hierarchy.llc.stats.misses),
        "llc.evictions": float(hierarchy.llc.stats.evictions),
    }
    for kind in TransactionKind:
        stats[f"coherence.{kind.name.lower()}"] = float(
            hierarchy.directory.transactions[kind]
        )
    return stats


_STATS_HELP = {
    "l1.hits": "L1 hits (all cores)",
    "l1.misses": "L1 misses (all cores)",
    "llc.hits": "LLC hits",
    "llc.misses": "LLC misses",
    "llc.evictions": "LLC evictions",
}


def replay_hierarchy_stats(
    registry: MetricsRegistry, stats: Dict[str, float], prefix: str = "mem"
) -> None:
    """Fold a :func:`hierarchy_stats_snapshot` into ``registry``.

    Registers the ``mem.*`` counters and hit-rate gauges (cumulative
    across hierarchies), so memoized and freshly-measured derivations
    are indistinguishable in the collected metrics. The fast SDP
    simulation runs on cost curves *derived* from the structural
    hierarchy (:mod:`repro.mem.costmodel`), so the ``mem.*`` probes
    describe the cache behaviour that produced the cycle costs in use.
    """
    for name, value in stats.items():
        help_text = _STATS_HELP.get(name)
        if help_text is None and name.startswith("coherence."):
            help_text = f"directory {name.split('.', 1)[1]} transactions"
        registry.counter(f"{prefix}.{name}", help=help_text or "").inc(value)

    def hit_rate(hits_name: str, misses_name: str):
        def read() -> float:
            hits = registry.get(hits_name).value
            misses = registry.get(misses_name).value
            total = hits + misses
            return hits / total if total else 0.0

        return read

    registry.gauge(
        f"{prefix}.l1.hit_rate",
        help="cumulative L1 hit rate over all measured hierarchies",
        fn=hit_rate(f"{prefix}.l1.hits", f"{prefix}.l1.misses"),
    )
    registry.gauge(
        f"{prefix}.llc.hit_rate",
        help="cumulative LLC hit rate over all measured hierarchies",
        fn=hit_rate(f"{prefix}.llc.hits", f"{prefix}.llc.misses"),
    )
