"""The metrics registry: counters, gauges, histograms, timeseries probes.

One :class:`MetricsRegistry` holds every probe of one run. Instruments
are get-or-create by dotted name (``sdp.queue_depth``), so independent
components can share an aggregate counter without coordination.

Design constraints, in priority order:

1. **Free when disabled.** A registry built with ``enabled=False``
   hands out shared null instruments whose record methods are empty
   (no attribute writes, no allocation), and the model layers skip
   installing hooks entirely when no enabled registry is active — the
   simulation hot path is bit-identical to an uninstrumented run.
2. **Deterministic.** Instruments record simulated time only; two runs
   with the same seed collect byte-identical output. Wall-clock state
   lives in :class:`~repro.obs.manifest.RunManifest`, never here.
3. **Bounded.** Timeseries probes cap their sample count by doubling
   their sampling stride, so arbitrarily long runs cannot exhaust
   memory.
4. **Mergeable.** Every instrument serialises to a plain-dict snapshot
   (:meth:`MetricsRegistry.snapshot`) and folds back in
   (:meth:`MetricsRegistry.merge_snapshot`): counters sum, histograms
   add bucket-wise, timeseries interleave by time, gauges freeze to
   their newest value. Parallel sweeps run each worker under its own
   registry and merge the snapshots in submission order, making the
   result independent of worker count and completion order (see
   ``docs/observability.md``).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Dotted lower-case metric names: components of [a-z0-9_] joined by ".".
# ":" is forbidden so the Prometheus exporter can use it reversibly.
_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

# Default histogram bounds: exponential 100 ns .. 0.1 s (latencies are
# recorded in seconds throughout the repo).
DEFAULT_BUCKETS = tuple(1e-7 * (10 ** (i / 2)) for i in range(13))

DEFAULT_TIMESERIES_CAPACITY = 4096


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it follows the probe naming scheme, else raise."""
    if not _NAME_PATTERN.match(name):
        raise ValueError(
            f"bad metric name {name!r}: expected dotted lower-case "
            "components like 'sdp.queue_depth'"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def record(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self.value}

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self.value}

    def merge(self, snap: Dict[str, Any]) -> None:
        self.value += snap["value"]


class Gauge:
    """A point-in-time value, set directly or pulled from a callable.

    A pull gauge (``fn`` given) reads its source at collect time, so it
    costs nothing while the simulation runs. Re-registering a pull gauge
    rebinds it to the newest source (the common case: one metric name,
    many short-lived systems — the gauge tracks the latest).
    """

    __slots__ = ("name", "help", "value", "fn")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value

    def record(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self.read()}

    def snapshot(self) -> Dict[str, Any]:
        # Pull gauges freeze to their current reading: live sources do
        # not cross process boundaries.
        return {"kind": self.kind, "help": self.help, "value": self.read()}

    def merge(self, snap: Dict[str, Any]) -> None:
        # Newest-source-wins, mirroring the rebind semantics above; the
        # merged value replaces any live pull binding.
        self.fn = None
        self.value = snap["value"]


class Histogram:
    """Fixed-bound bucket histogram (Prometheus-style, cumulative export).

    Buckets are upper bounds; a sample lands in the first bucket whose
    bound is >= the value, or overflows past the last bound. ``record``
    exports cumulative counts plus a ``+Inf`` terminal bucket.
    """

    __slots__ = ("name", "help", "bounds", "counts", "overflow", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bound in enumerate(self.bounds):
            running += self.counts[index]
            if running >= target:
                return bound
        return self.bounds[-1]

    def record(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            cumulative.append([bound, running])
        return {
            "name": self.name,
            "type": self.kind,
            "buckets": cumulative,
            "sum": self.sum,
            "count": self.count,
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        if tuple(snap["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bucket "
                f"bounds {snap['bounds']!r} into {list(self.bounds)!r}"
            )
        self.counts = [a + b for a, b in zip(self.counts, snap["counts"])]
        self.overflow += snap["overflow"]
        self.sum += snap["sum"]
        self.count += snap["count"]


class Timeseries:
    """A bounded (sim_time, value) sample stream.

    When the buffer fills, every second retained sample is dropped and
    the sampling stride doubles, so the series keeps covering the whole
    run at progressively coarser resolution instead of truncating.
    The newest sample offered is kept as :attr:`last` whether or not the
    stride retained it, so the series always ends at the current value.
    """

    __slots__ = ("name", "help", "capacity", "samples", "stride", "last", "_skip")
    kind = "timeseries"

    def __init__(self, name: str, help: str = "", capacity: int = DEFAULT_TIMESERIES_CAPACITY):
        if capacity < 8:
            raise ValueError("timeseries capacity must be at least 8")
        self.name = name
        self.help = help
        self.capacity = capacity
        self.samples: List[Tuple[float, float]] = []
        self.stride = 1
        self.last: Optional[Tuple[float, float]] = None
        self._skip = 0

    def sample(self, time: float, value: float) -> None:
        self.last = (time, value)
        if self._skip:
            self._skip -= 1
            return
        self._skip = self.stride - 1
        self.samples.append((time, value))
        if len(self.samples) >= self.capacity:
            self.samples = self.samples[::2]
            self.stride *= 2

    @property
    def count(self) -> int:
        return len(self.samples)

    def _last_record(self) -> Optional[List[float]]:
        return None if self.last is None else list(self.last)

    def record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.kind,
            "stride": self.stride,
            "samples": [[t, v] for t, v in self.samples],
            "last": self._last_record(),
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "capacity": self.capacity,
            "stride": self.stride,
            "samples": [[t, v] for t, v in self.samples],
            "last": self._last_record(),
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Interleave another stream by simulated time (stable: existing
        samples sort before incoming ones at equal times), keep the
        coarser stride, re-downsample to this series' capacity, and keep
        the later of the two newest samples (incoming wins a tie)."""
        merged = list(self.samples) + [(t, v) for t, v in snap["samples"]]
        merged.sort(key=lambda sample: sample[0])
        self.stride = max(self.stride, snap["stride"])
        while len(merged) >= self.capacity:
            merged = merged[::2]
            self.stride *= 2
        self.samples = merged
        self._skip = 0
        incoming = snap.get("last")
        if incoming is not None and (self.last is None or incoming[0] >= self.last[0]):
            self.last = (incoming[0], incoming[1])


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullTimeseries(Timeseries):
    __slots__ = ()

    def sample(self, time: float, value: float) -> None:
        pass


# Shared no-op instruments: a disabled registry always returns these, so
# the record path allocates nothing, ever.
NULL_COUNTER = _NullCounter("disabled")
NULL_GAUGE = _NullGauge("disabled")
NULL_HISTOGRAM = _NullHistogram("disabled")
NULL_TIMESERIES = _NullTimeseries("disabled")


class MetricsRegistry:
    """All probes of one run, keyed by dotted metric name.

    >>> registry = MetricsRegistry()
    >>> registry.counter("sdp.completions").inc()
    >>> registry.collect()[0]["value"]
    1.0
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, Any] = {}

    # -- instrument factories (get-or-create) -------------------------------

    def _get_or_create(self, cls, name: str, kwargs: Dict[str, Any]):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        instrument = cls(validate_metric_name(name), **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(Counter, name, {"help": help})

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        gauge = self._get_or_create(Gauge, name, {"help": help})
        if fn is not None:
            gauge.fn = fn  # rebind to the newest source
        return gauge

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get_or_create(Histogram, name, {"help": help, "buckets": buckets})

    def timeseries(
        self, name: str, help: str = "", capacity: int = DEFAULT_TIMESERIES_CAPACITY
    ) -> Timeseries:
        if not self.enabled:
            return NULL_TIMESERIES
        return self._get_or_create(Timeseries, name, {"help": help, "capacity": capacity})

    # -- merging -------------------------------------------------------------

    _SNAPSHOT_CLASSES: Dict[str, Any] = {}  # populated below the class body

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Detach every instrument into a picklable plain-dict form.

        The snapshot carries everything :meth:`merge_snapshot` needs to
        reconstruct and fold the instruments into another registry —
        parallel workers return these to the submitting process. Pull
        gauges freeze to their current reading.
        """
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters sum; histograms add bucket-wise (bounds must match);
        timeseries interleave by simulated time and re-downsample;
        gauges take the incoming value (newest-source-wins, the same
        semantics as rebinding a pull gauge). Merging is associative
        over counters/histograms, so folding worker snapshots in
        submission order yields worker-count-independent results.
        """
        for name in sorted(snapshot):
            snap = snapshot[name]
            cls = self._SNAPSHOT_CLASSES[snap["kind"]]
            existing = self._metrics.get(name)
            if existing is None:
                kwargs: Dict[str, Any] = {"help": snap.get("help", "")}
                if snap["kind"] == "histogram":
                    kwargs["buckets"] = snap["bounds"]
                elif snap["kind"] == "timeseries":
                    kwargs["capacity"] = snap["capacity"]
                existing = self._get_or_create(cls, name, kwargs)
            elif not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot merge a {snap['kind']} into it"
                )
            existing.merge(snap)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one."""
        self.merge_snapshot(other.snapshot())

    # -- introspection -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def collect(self) -> List[Dict[str, Any]]:
        """A sorted list of canonical metric records (see exporters)."""
        return [self._metrics[name].record() for name in sorted(self._metrics)]

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Records keyed by name — handy for assertions in tests."""
        return {record["name"]: record for record in self.collect()}


MetricsRegistry._SNAPSHOT_CLASSES = {
    Counter.kind: Counter,
    Gauge.kind: Gauge,
    Histogram.kind: Histogram,
    Timeseries.kind: Timeseries,
}


def snapshot_delta(
    current: Dict[str, Dict[str, Any]],
    previous: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The incremental change from ``previous`` to ``current`` snapshot.

    The delta is itself a valid snapshot: merging it (via
    :meth:`MetricsRegistry.merge_snapshot`) into a registry that holds
    ``previous``'s state reproduces ``current`` — counters and
    histograms carry differences, gauges carry their newest value when
    it changed, and timeseries carry only the samples appended since
    ``previous`` plus their newest sample (full samples as a fallback
    when the stream re-downsampled in between, which a receiver cannot
    replay exactly).
    Instruments absent from ``previous`` pass through whole, so a delta
    against ``{}`` is a keyframe. Unchanged instruments are omitted,
    which is what makes telemetry frames compact.
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for name in sorted(current):
        cur = current[name]
        prev = previous.get(name)
        if prev is None:
            delta[name] = cur
            continue
        kind = cur["kind"]
        if prev["kind"] != kind:
            raise TypeError(
                f"metric {name!r} changed kind between snapshots: "
                f"{prev['kind']} -> {kind}"
            )
        if kind == Counter.kind:
            change = cur["value"] - prev["value"]
            if change:
                delta[name] = {"kind": kind, "help": cur.get("help", ""), "value": change}
        elif kind == Gauge.kind:
            if cur["value"] != prev["value"]:
                delta[name] = dict(cur)
        elif kind == Histogram.kind:
            if cur["count"] != prev["count"] or cur["overflow"] != prev["overflow"]:
                delta[name] = {
                    "kind": kind,
                    "help": cur.get("help", ""),
                    "bounds": list(cur["bounds"]),
                    "counts": [a - b for a, b in zip(cur["counts"], prev["counts"])],
                    "overflow": cur["overflow"] - prev["overflow"],
                    "sum": cur["sum"] - prev["sum"],
                    "count": cur["count"] - prev["count"],
                }
        elif kind == Timeseries.kind:
            if cur["stride"] == prev["stride"] and len(cur["samples"]) >= len(
                prev["samples"]
            ):
                appended = cur["samples"][len(prev["samples"]):]
                if appended or cur.get("last") != prev.get("last"):
                    delta[name] = {
                        "kind": kind,
                        "help": cur.get("help", ""),
                        "capacity": cur["capacity"],
                        "stride": cur["stride"],
                        "samples": [list(sample) for sample in appended],
                        "last": cur.get("last"),
                    }
            else:
                delta[name] = dict(cur)
        else:
            raise TypeError(f"metric {name!r}: unknown snapshot kind {kind!r}")
    return delta
