"""The three benchmark workloads.

Each workload is a batch job run serially in one process (the fleet's
workers aside), with its inputs made from ``seed``:

- ``sweep_cold``: a Fig. 8 / Fig. 9-style single-server grid of spinning
  and HyperPlane points, started from cold cost-curve memos.
- ``rack_hp``: an in-process rack of HyperPlane servers behind p2c with a
  straggler and Zipf-skewed flows, curves warm.
- ``fleet_rss``: spinning servers behind rss, run through
  ``run_cluster_dist`` with two workers over unix sockets.

A workload object runs one episode of its job (``start``), which a
*pass* times and checks (``run_pass``) and a set-up probe stops at its
first simulated event (``first_event_target``); ``check_run`` holds the
once-per-run oracle checks. Traced passes also return per-layer metrics.
``repro`` modules are imported inside the methods, so a set-up probe
imports only what its workload uses.
"""

from __future__ import annotations

import json
import math
import resource
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from spans import SpanRecorder


@dataclass
class PassResult:
    """What one pass produced. ``layers`` is filled on traced passes."""

    wall_s: float
    completed: int
    attempted: int
    failed: int
    fingerprint: Any
    p50_us: float
    p99_us: float
    latency_samples: int
    rss_mb: float
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    uncovered_s: float = 0.0
    spans_ok: bool = True
    kernel_s: float = 0.0  # host-speed kernel time around the pass (harness)

    def add_spans(self, spans: SpanRecorder, layers: Dict[str, float]) -> None:
        """Record a traced pass's layer metrics and span accounting."""
        self.layers = layers
        self.uncovered_s = self.wall_s - spans.top_s
        self.spans_ok = spans.accounts_for(self.wall_s)


def own_peak_rss_mb() -> float:
    """This process's peak resident set so far, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _geo_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _per_req_us(seconds: float, requests: int) -> float:
    return seconds / requests * 1e6 if requests else 0.0


def _core_wakes(metrics_list) -> Dict[str, float]:
    """HyperPlane wake-up accounting over a set of RunMetrics."""
    spurious = sum(m.spurious_wakeups for m in metrics_list)
    wakes = sum(a.wakeups for m in metrics_list for a in m.activities)
    return {
        "core.spurious_wakeups": spurious,
        "core.useful_wake_ratio": (wakes - spurious) / wakes if wakes else 0.0,
    }


def _cluster_counts(metrics) -> Dict[str, float]:
    """Fleet counters of a ClusterMetrics (rack or coordinator side)."""
    return {
        "cluster.dispatched": metrics.dispatched,
        "cluster.redispatched": metrics.redispatched,
        "cluster.lost": metrics.lost,
        "cluster.rejected": metrics.rejected,
        "cluster.hottest_share": metrics.hottest_share,
    }


def _sim_counts(events: int, wakes: int, requests: int) -> Dict[str, float]:
    return {
        "sim.events": events,
        "sim.process_wakes": wakes,
        "sim.events_per_req": events / requests if requests else 0.0,
        "sim.wakes_per_req": wakes / requests if requests else 0.0,
    }


def _exact_percentiles_us(recorder) -> Tuple[float, float]:
    """Exact (sorted-sample) p50/p99 of a LatencyRecorder, microseconds."""
    return recorder.percentile(50) * 1e6, recorder.percentile(99) * 1e6


def mem_derivation_targets():
    """Span target for cost-curve derivation, where the locality model calls it."""
    from repro.sdp import locality

    return [(locality, "empty_poll_cost_curve", "mem")]


# -- sweep_cold ---------------------------------------------------------------


@dataclass
class SweepCold:
    """Serial single-server grid from cold cost-curve memos."""

    name: ClassVar[str] = "sweep_cold"
    seed: int
    # Above 384 queues the task-data footprint overflows the data plane's
    # LLC budget and every distinct resident fraction needs its own
    # curve, so this ladder derives 6 active curves plus the idle one.
    counts: Tuple[int, ...] = (1, 200, 500, 600, 700, 800, 1000)
    # The balanced and the single-hot-queue extremes of Fig. 8's shapes.
    shapes: Tuple[str, ...] = ("FB", "SQ")
    workload: str = "packet-encapsulation"
    peak_completions: int = 1500
    latency_completions: int = 1000

    PAPER_TPUT_GAIN: ClassVar[float] = 4.1
    PAPER_TAIL_GAIN: ClassVar[float] = 16.4

    def expected_curves(self) -> int:
        """Distinct poll-cost curves the grid derives from cold memos.

        Every system derives one active curve keyed by its LLC-resident
        fraction (rounded to 0.01, as the locality model keys it) and
        the idle curve, which is the same for every queue count.
        """
        from repro.mem.costmodel import derive_cost_model
        from repro.sdp.locality import LocalityModel

        model = LocalityModel(derive_cost_model())
        active = {round(model.llc_resident_fraction(n), 2) for n in self.counts}
        return len(active) + 1

    def prepare(self) -> None:
        import repro.experiments.headline  # noqa: F401  (import before the clock)

        self._expected_curves = self.expected_curves()

    def _peak_config(self, count: int, shape: str):
        from repro.sdp.config import SDPConfig

        return SDPConfig(num_queues=count, workload=self.workload, shape=shape,
                         seed=self.seed)

    def _latency_config(self, count: int):
        from repro.sdp.config import SDPConfig

        return SDPConfig(num_queues=count, workload=self.workload, shape="FB",
                         seed=self.seed, service_scv=0.0)

    def start(self):
        """One episode: the whole grid; returns (peak, low) points."""
        from repro.core import runner as core_runner
        from repro.experiments.headline import ZERO_LOAD
        from repro.sdp import runner as sdp_runner

        peak = []
        for count in self.counts:
            for shape in self.shapes:
                spin = sdp_runner.run_spinning(
                    self._peak_config(count, shape), closed_loop=True,
                    target_completions=self.peak_completions, max_seconds=3.0,
                )
                hyper = core_runner.run_hyperplane(
                    self._peak_config(count, shape), closed_loop=True,
                    target_completions=self.peak_completions, max_seconds=3.0,
                )
                peak.append((count, shape, spin, hyper))
        low = []
        for count in self.counts:
            spin = sdp_runner.run_spinning(
                self._latency_config(count), load=ZERO_LOAD,
                target_completions=self.latency_completions, max_seconds=20.0,
            )
            hyper = core_runner.run_hyperplane(
                self._latency_config(count), load=ZERO_LOAD,
                target_completions=self.latency_completions, max_seconds=20.0,
            )
            low.append((count, spin, hyper))
        return peak, low

    def run_pass(self, spans: Optional[SpanRecorder] = None) -> PassResult:
        from repro.core import runner as core_runner
        from repro.mem.costmodel import clear_curve_cache, curve_cache_info
        from repro.sdp import locality
        from repro.sdp import runner as sdp_runner

        clear_curve_cache()
        locality.clear_shared_curves()
        before = curve_cache_info()
        systems: List[Any] = []
        targets = [
            *mem_derivation_targets(),
            (sdp_runner, "run_spinning", "sdp"),
            (core_runner, "run_hyperplane", "core"),
        ]
        with spans.installed(targets) if spans else nullcontext():
            if spans:
                spans.collect(sdp_runner, "DataPlaneSystem", systems)
                spans.collect(core_runner, "DataPlaneSystem", systems)
            t0 = perf_counter()
            peak, low = self.start()
            wall = perf_counter() - t0
        rss = own_peak_rss_mb()
        after = curve_cache_info()
        derived = after["misses"] - before["misses"]

        runs = [m for _, _, spin, hyper in peak for m in (spin, hyper)]
        runs += [m for _, spin, hyper in low for m in (spin, hyper)]
        problems = []
        if before["entries"] or derived != self._expected_curves:
            problems.append(
                f"cold-start guard: {derived} curves derived from "
                f"{before['entries']} memo entries, the grid needs "
                f"{self._expected_curves} from none"
            )
        # The paper's 1000-queue, single-hot-queue point: HyperPlane's
        # whole case is that it never loses to spinning here.
        for count, shape, spin, hyper in peak:
            if count == 1000 and shape == "SQ" and hyper.throughput < spin.throughput:
                problems.append("HyperPlane below spinning at SQ with 1000 queues")

        # Client latency of the spinning baseline's worst <1%-load point.
        # (HyperPlane's zero-load latency with deterministic service is
        # the same constant for every seed, so it cannot serve here; its
        # movement shows in core.tail_gain_x and paper_gap.)
        worst = low[-1][1].latency
        p50, p99 = _exact_percentiles_us(worst)
        completed = sum(m.latency.count for m in runs)
        tput_gain = _geo_mean(h.throughput / s.throughput for _, _, s, h in peak)
        tail_gain = _geo_mean(s.latency.p99 / h.latency.p99 for _, s, h in low)
        result = PassResult(
            wall_s=wall,
            completed=completed,
            attempted=sum(m.generated for m in runs),
            failed=sum(m.dropped for m in runs),
            fingerprint=[
                (m.latency.count, m.latency.mean, m.latency.p99, m.generated,
                 m.dropped, m.spurious_wakeups, m.measure_end)
                for m in runs
            ],
            p50_us=p50,
            p99_us=p99,
            latency_samples=worst.count,
            rss_mb=rss,
            problems=problems,
        )
        if spans is not None:
            spin_runs = [m for _, _, m, _ in peak] + [m for _, m, _ in low]
            hyper_runs = [m for _, _, _, m in peak] + [m for _, _, m in low]
            spin_reqs = sum(m.latency.count for m in spin_runs)
            hyper_reqs = sum(m.latency.count for m in hyper_runs)
            derive_s = spans.self_s["mem"]
            result.add_spans(spans, {
                "mem.curves_derived": derived,
                "mem.curve_hits": after["hits"] - before["hits"],
                "mem.derive_s": derive_s,
                "mem.derive_share": derive_s / wall,
                "sdp.spin_s": spans.self_s["sdp"],
                "sdp.spin_completions": spin_reqs,
                "sdp.spin_host_us_per_req": _per_req_us(spans.self_s["sdp"], spin_reqs),
                "core.hp_s": spans.self_s["core"],
                "core.hp_host_us_per_req": _per_req_us(spans.self_s["core"], hyper_reqs),
                **_core_wakes(hyper_runs),
                "core.tput_gain_x": tput_gain,
                "core.tail_gain_x": tail_gain,
                "paper_gap": (
                    abs(tput_gain / self.PAPER_TPUT_GAIN - 1)
                    + abs(tail_gain / self.PAPER_TAIL_GAIN - 1)
                ) / 2,
                **_sim_counts(
                    sum(s.sim.events_dispatched for s in systems),
                    sum(s.sim.process_wakes for s in systems),
                    completed,
                ),
            })
        return result

    def first_event_target(self):
        from repro.sim.engine import Simulator

        return Simulator, "run", None

    def check_run(self, first: PassResult, traced: bool):
        return [], {}


# -- rack_hp -------------------------------------------------------------------


@dataclass
class RackHp:
    """In-process HyperPlane rack behind p2c, curves warm."""

    name: ClassVar[str] = "rack_hp"
    seed: int
    servers: int = 16
    load: float = 0.5
    duration_s: float = 0.004
    warmup_s: float = 0.001
    flow_skew: float = 1.0

    def config(self):
        from repro.cluster import ClusterConfig

        return ClusterConfig(
            num_servers=self.servers, notification="hyperplane", balancer="p2c",
            fault_profile="straggler", flow_skew=self.flow_skew, seed=self.seed,
        )

    def prepare(self) -> None:
        from repro.cluster import Rack

        Rack(self.config())  # derives the servers' curves into the shared memo

    def start(self):
        """One episode: build the rack, attach traffic, run it."""
        from repro.cluster import Rack

        rack = Rack(self.config())
        rack.attach_open_loop(load=self.load)
        rack.run(duration=self.duration_s, warmup=self.warmup_s)
        return rack

    def first_event_target(self):
        from repro.sim.engine import Simulator

        return Simulator, "run", None

    def run_pass(self, spans: Optional[SpanRecorder] = None) -> PassResult:
        from repro.cluster import Rack

        targets = [
            *mem_derivation_targets(),
            (Rack, "__init__", "cluster.build"),
            (Rack, "attach_open_loop", "cluster.build"),
            (Rack, "run", "cluster.run"),
        ]
        with spans.installed(targets) if spans else nullcontext():
            t0 = perf_counter()
            rack = self.start()
            wall = perf_counter() - t0
        rss = own_peak_rss_mb()

        problems = []
        try:
            rack.check_invariants()
        except AssertionError as exc:
            problems.append(f"Rack.check_invariants: {exc}")
        metrics = rack.metrics
        p50, p99 = _exact_percentiles_us(metrics.latency)
        result = PassResult(
            wall_s=wall,
            completed=metrics.count,
            attempted=metrics.dispatched,
            failed=metrics.lost + metrics.rejected,
            fingerprint=metrics.fingerprint(),
            p50_us=p50,
            p99_us=p99,
            latency_samples=metrics.count,
            rss_mb=rss,
            problems=problems,
        )
        if spans is not None:
            server_metrics = [server.system.metrics for server in rack.servers]
            run_s = spans.self_s["cluster.run"]
            result.add_spans(spans, {
                "cluster.build_s": spans.self_s["cluster.build"],
                "cluster.run_s": run_s,
                "cluster.host_us_per_req": _per_req_us(run_s, metrics.dispatched),
                **_cluster_counts(metrics),
                **_core_wakes(server_metrics),
                **_sim_counts(rack.sim.events_dispatched, rack.sim.process_wakes,
                              metrics.count),
            })
        return result

    def check_run(self, first: PassResult, traced: bool):
        """The fast rack must be bit-identical to the frozen reference."""
        from repro.cluster._reference import run_reference_cluster

        reference = run_reference_cluster(
            self.config(), load=self.load, duration=self.duration_s,
            warmup=self.warmup_s,
        )
        if reference.metrics.fingerprint() != first.fingerprint:
            return ["fingerprint differs from repro.cluster._reference"], {}
        return [], {}


# -- fleet_rss -----------------------------------------------------------------


@dataclass
class FleetRss:
    """Spinning servers behind rss through a two-worker fleet.

    Each pass runs in its own child process and process group (see
    ``harness.run_child``); ``run_in_child`` is what that process runs.
    """

    name: ClassVar[str] = "fleet_rss"
    seed: int
    servers: int = 8
    workers: int = 2
    rate: float = 5000.0
    duration_s: float = 1.2
    warmup_s: float = 0.01

    def config(self):
        from repro.cluster import ClusterConfig

        return ClusterConfig(
            num_servers=self.servers, notification="spinning", balancer="rss",
            queues_per_server=16, num_flows=32, flow_skew=0.3, seed=self.seed,
        )

    def options(self):
        from repro.dist import DistOptions

        return DistOptions(workers=self.workers, transport="unix")

    def prepare(self) -> None:
        pass

    def start(self):
        """One episode through the fleet."""
        from repro.dist import run_cluster_dist

        return run_cluster_dist(self.config(), rate=self.rate, duration=self.duration_s,
                                warmup=self.warmup_s, options=self.options())

    def first_event_target(self):
        from repro.dist.coordinator import WorkerPool

        # The first step exchange is where the workers' simulators start.
        def first_step(pool, messages, expect, *args, **kwargs):
            return expect == "step_ok"

        return WorkerPool, "broadcast", first_step

    def run_pass(self, spans: Optional[SpanRecorder] = None) -> PassResult:
        """Run ``run_in_child`` in a fresh process group; a traced pass
        records its spans there, so ``spans`` only selects tracing."""
        from harness import run_child

        _, reply = run_child(["fleet-pass", json.dumps(asdict(self)), str(int(spans is not None))])
        reply["fingerprint"] = tuple(
            tuple(v) if isinstance(v, list) else v for v in reply["fingerprint"]
        )
        return PassResult(**reply)

    def run_in_child(self, traced: bool) -> Dict[str, Any]:
        """One fleet episode; returns a JSON-able PassResult dict."""
        from repro.dist import coordinator, wire

        pool_cls = coordinator.WorkerPool
        worker_rss = []
        close = vars(pool_cls)["close"]

        def close_and_measure(pool):
            # Workers' peak RSS, read before the pool shuts them down.
            for handle in pool.handles:
                worker_rss.append(_proc_peak_rss_mb(handle.process.pid))
            return close(pool)

        spans = SpanRecorder() if traced else None
        targets = [
            (pool_cls, "__init__", "dist.spawn"),
            (pool_cls, "broadcast", "dist.rpc"),
            (wire, "encode_frame", "dist.encode"),
            (wire, "decode_body", "dist.decode"),
        ]
        pool_cls.close = close_and_measure
        try:
            with spans.installed(targets) if spans else nullcontext():
                t0 = perf_counter()
                run = self.start()
                wall = perf_counter() - t0
        finally:
            pool_cls.close = close
        metrics = run.metrics
        problems = []
        if run.worker_faults:
            problems.append(f"worker faults: {run.worker_faults}")
        for node in run.nodes:
            if node["invariants"] != "ok":
                problems.append(f"worker {node['worker_id']} invariants: {node['invariants']}")
        p50, p99 = _exact_percentiles_us(metrics.latency)
        result = PassResult(
            wall_s=wall,
            completed=metrics.count,
            attempted=metrics.dispatched,
            failed=metrics.lost + metrics.rejected,
            fingerprint=metrics.fingerprint(),
            p50_us=p50,
            p99_us=p99,
            latency_samples=metrics.count,
            rss_mb=own_peak_rss_mb() + sum(worker_rss),
            problems=problems,
        )
        if spans is not None:
            exchanges, windows = run.info["exchanges"], run.info["windows"]
            events = sum(node["sim_events"] for node in run.nodes)
            result.add_spans(spans, {
                "dist.spawn_s": spans.self_s["dist.spawn"],
                "dist.rpc_s": spans.self_s["dist.rpc"],
                "dist.encode_s": spans.self_s["dist.encode"],
                "dist.decode_s": spans.self_s["dist.decode"],
                "dist.exchanges": exchanges,
                "dist.windows": windows,
                "dist.windows_per_exchange": windows / exchanges,
                **_cluster_counts(metrics),
                "sim.events": events,
                "sim.events_per_req": events / metrics.count,
            })
        return asdict(result)

    def check_run(self, first: PassResult, traced: bool):
        """rss placement makes the fleet bit-exact with in-process run_cluster."""
        from repro.cluster import run_cluster

        run_cluster(self.config(), rate=self.rate, duration=self.duration_s,
                    warmup=self.warmup_s)  # cold curves, untimed
        walls, rack = [], None
        for _ in range(3 if traced else 1):
            t0 = perf_counter()
            rack = run_cluster(self.config(), rate=self.rate, duration=self.duration_s,
                               warmup=self.warmup_s)
            walls.append(perf_counter() - t0)
        problems = []
        if rack.metrics.fingerprint() != first.fingerprint:
            problems.append("fleet fingerprint differs from in-process run_cluster")
        walls.sort()
        inprocess_s = walls[len(walls) // 2]
        extra = {
            "dist.inprocess_s": inprocess_s,
            # Workers do not report process wakes; rss makes the in-process
            # rack the same simulation, so its count stands in.
            "sim.process_wakes": rack.sim.process_wakes,
            "sim.wakes_per_req": rack.sim.process_wakes / max(1, rack.metrics.count),
        }
        return problems, extra


def _proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


WORKLOADS = {cls.name: cls for cls in (SweepCold, RackHp, FleetRss)}
