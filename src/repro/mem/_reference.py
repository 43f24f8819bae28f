"""Reference memory-hierarchy models (the pre-fast-path implementations).

The production classes in :mod:`repro.mem.cache`, :mod:`repro.mem.coherence`
and :mod:`repro.mem.hierarchy` are rebuilt for speed (flat-array LRU sets,
table-driven MESI dispatch on small ints, interned results, batched access
streams) under a **bit-identicality contract**: same `AccessResult`
sequences, same stats and transaction counters, same snoop-callback
invocation order. This module preserves the original, straightforward
implementations — dict-of-lists caches, enum-dispatch directory — as the
oracle those fast paths are differentially fuzzed against
(``tests/test_mem_fastpath_differential.py``). It also keeps the
structural empty-poll cost-curve derivation
(:func:`reference_empty_poll_cost_curve`), the oracle for the closed
form in :mod:`repro.mem.costmodel` (``tests/test_mem_costmodel_closed_form.py``).

Nothing outside the tests and :mod:`repro.bench` (which times the fast
paths against it) should import this module; it is deliberately
unoptimised so that its behaviour stays easy to audit by eye.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.address import CACHE_LINE_BYTES, line_address
from repro.mem.cache import CacheConfig, CacheStats
from repro.mem.coherence import (
    AccessResult,
    LatencyConfig,
    MESIState,
    SnoopCallback,
    TransactionKind,
)


class ReferenceSetAssociativeCache:
    """The original LRU set-associative cache: dict of per-set lists.

    Semantics are the contract the fast flat-array cache must match:
    each set is an LRU-ordered list of line addresses (most recent
    last), a hit re-appends, a miss on a full set pops index 0 into
    :attr:`last_evicted`.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = CACHE_LINE_BYTES,
        name: str = "cache",
    ):
        if size_bytes % (ways * line_bytes):
            raise ValueError("capacity must be a whole number of sets")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheStats()
        self.last_evicted: Optional[int] = None

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _set_index(self, line: int) -> int:
        return (line // self.line_bytes) & (self.num_sets - 1)

    def contains(self, addr: int) -> bool:
        line = line_address(addr, self.line_bytes)
        return line in self._sets.get(self._set_index(line), ())

    def access(self, addr: int) -> bool:
        line = line_address(addr, self.line_bytes)
        index = self._set_index(line)
        ways = self._sets.setdefault(index, [])
        self.last_evicted = None
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            self.last_evicted = ways.pop(0)
            self.stats.evictions += 1
        ways.append(line)
        return False

    def invalidate(self, addr: int) -> bool:
        line = line_address(addr, self.line_bytes)
        ways = self._sets.get(self._set_index(line))
        if ways and line in ways:
            ways.remove(line)
            self.stats.invalidations += 1
            return True
        return False

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    def flush(self) -> None:
        self._sets.clear()


class _LineEntry:
    """Directory entry: owner (M/E), dirty flag, sharer set."""

    __slots__ = ("owner", "dirty", "sharers")

    def __init__(self):
        self.owner: Optional[int] = None
        self.dirty = False
        self.sharers: set = set()


class ReferenceDirectory:
    """The original enum-dispatch MESI directory."""

    def __init__(self, num_cores: int, latencies: Optional[LatencyConfig] = None):
        if num_cores <= 0:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.latencies = latencies or LatencyConfig()
        self._lines: Dict[int, _LineEntry] = {}
        self._snoopers: List[Tuple[Callable[[int], bool], SnoopCallback]] = []
        self.transactions: Dict[TransactionKind, int] = {kind: 0 for kind in TransactionKind}

    def add_snooper(self, address_filter: Callable[[int], bool], callback: SnoopCallback) -> None:
        self._snoopers.append((address_filter, callback))

    def _notify(self, line: int, requester: int, kind: TransactionKind) -> None:
        self.transactions[kind] += 1
        for address_filter, callback in self._snoopers:
            if address_filter(line):
                callback(line, requester, kind)

    def state_of(self, core: int, line: int) -> MESIState:
        entry = self._lines.get(line)
        if entry is None:
            return MESIState.INVALID
        if entry.owner == core:
            return MESIState.MODIFIED if entry.dirty else MESIState.EXCLUSIVE
        if core in entry.sharers:
            return MESIState.SHARED
        return MESIState.INVALID

    def read(self, core: int, line: int, in_llc: bool) -> AccessResult:
        self._check_core(core)
        entry = self._lines.get(line)
        lat = self.latencies
        if entry is not None and (entry.owner == core or core in entry.sharers):
            return AccessResult(latency=lat.l1_hit, level="L1", hit=True)
        self._notify(line, core, TransactionKind.GET_S)
        if entry is None:
            entry = self._lines.setdefault(line, _LineEntry())
        if entry.owner is not None and entry.owner != core:
            previous_owner = entry.owner
            entry.sharers.add(previous_owner)
            entry.owner = None
            entry.dirty = False
            entry.sharers.add(core)
            return AccessResult(
                latency=lat.directory_lookup + lat.remote_transfer,
                level="remote-L1",
                hit=False,
            )
        if not entry.sharers and entry.owner is None:
            entry.owner = core
            entry.dirty = False
        else:
            entry.sharers.add(core)
        if in_llc:
            return AccessResult(latency=lat.directory_lookup + lat.llc_hit, level="LLC", hit=False)
        return AccessResult(latency=lat.directory_lookup + lat.dram, level="DRAM", hit=False)

    def write(self, core: int, line: int, in_llc: bool) -> AccessResult:
        self._check_core(core)
        entry = self._lines.get(line)
        lat = self.latencies
        if entry is not None and entry.owner == core:
            entry.dirty = True
            return AccessResult(latency=lat.l1_hit, level="L1", hit=True)
        kind = (
            TransactionKind.UPGRADE
            if entry is not None and core in entry.sharers
            else TransactionKind.GET_M
        )
        self._notify(line, core, kind)
        if entry is None:
            entry = self._lines.setdefault(line, _LineEntry())
        invalidated = 0
        level = "LLC" if in_llc else "DRAM"
        latency = lat.directory_lookup + (lat.llc_hit if in_llc else lat.dram)
        if entry.owner is not None and entry.owner != core:
            invalidated += 1
            level = "remote-L1"
            latency = lat.directory_lookup + lat.remote_transfer
        invalidated += len(entry.sharers - {core})
        if kind is TransactionKind.UPGRADE:
            level = "L1"
            latency = lat.directory_lookup + (lat.remote_transfer if invalidated else 0)
        entry.owner = core
        entry.dirty = True
        entry.sharers.clear()
        return AccessResult(latency=latency, level=level, hit=False, invalidated=invalidated)

    def evict(self, core: int, line: int) -> None:
        entry = self._lines.get(line)
        if entry is None:
            return
        if entry.owner == core:
            if entry.dirty:
                self._notify(line, core, TransactionKind.PUT_M)
            entry.owner = None
            entry.dirty = False
        entry.sharers.discard(core)
        if entry.owner is None and not entry.sharers:
            del self._lines[line]

    def check_invariants(self) -> None:
        for line, entry in self._lines.items():
            if entry.owner is not None:
                if entry.sharers - {entry.owner}:
                    raise AssertionError(
                        f"line {line:#x}: owner {entry.owner} coexists with "
                        f"sharers {entry.sharers}"
                    )
                if not 0 <= entry.owner < self.num_cores:
                    raise AssertionError(f"line {line:#x}: bogus owner {entry.owner}")
            for sharer in entry.sharers:
                if not 0 <= sharer < self.num_cores:
                    raise AssertionError(f"line {line:#x}: bogus sharer {sharer}")

    def sharer_count(self, line: int) -> int:
        entry = self._lines.get(line)
        if entry is None:
            return 0
        return len(entry.sharers) + (1 if entry.owner is not None else 0)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core id {core} out of range")


class ReferenceMemoryHierarchy:
    """The original per-call hierarchy wiring over the reference models."""

    def __init__(self, config=None):
        from repro.mem.hierarchy import MemConfig

        self.config = config or MemConfig()
        cfg = self.config
        self.l1s: List[ReferenceSetAssociativeCache] = [
            ReferenceSetAssociativeCache(
                cfg.l1.size_bytes, cfg.l1.ways, cfg.l1.line_bytes, f"l1-{core}"
            )
            for core in range(cfg.num_cores)
        ]
        ways = cfg.llc_per_core.ways
        line = cfg.l1.line_bytes
        sets = max(1, cfg.llc_total_bytes // (ways * line))
        rounded_sets = 1 << (sets - 1).bit_length()
        self.llc = ReferenceSetAssociativeCache(rounded_sets * ways * line, ways, line, "llc")
        self.directory = ReferenceDirectory(cfg.num_cores, cfg.latencies)

    def add_snooper(self, address_filter: Callable[[int], bool], callback: SnoopCallback) -> None:
        self.directory.add_snooper(address_filter, callback)

    def read(self, core: int, addr: int) -> AccessResult:
        return self._access(core, addr, is_write=False)

    def write(self, core: int, addr: int) -> AccessResult:
        return self._access(core, addr, is_write=True)

    def _access(self, core: int, addr: int, is_write: bool) -> AccessResult:
        line = line_address(addr, self.config.l1.line_bytes)
        l1 = self.l1s[core]
        structurally_present = l1.contains(line)
        in_llc = self.llc.contains(line)
        if is_write:
            result = self.directory.write(core, line, in_llc)
        else:
            result = self.directory.read(core, line, in_llc)
        if result.hit and not structurally_present:
            result = AccessResult(
                latency=self.config.latencies.llc_hit,
                level="LLC",
                hit=False,
                invalidated=result.invalidated,
            )
        l1.access(line)
        if l1.last_evicted is not None:
            self.directory.evict(core, l1.last_evicted)
        self.llc.access(line)
        if result.invalidated:
            self._drop_remote_copies(core, line)
        return result

    def _drop_remote_copies(self, writer: int, line: int) -> None:
        for core, l1 in enumerate(self.l1s):
            if core != writer:
                l1.invalidate(line)

    def check_invariants(self) -> None:
        self.directory.check_invariants()

    def reset_stats(self) -> None:
        for l1 in self.l1s:
            l1.stats.reset()
        self.llc.stats.reset()


# Build helper so the fuzz tests can assemble matching geometry pairs.
def build_reference_pair(config):
    """Return (fast, reference) hierarchies with identical geometry."""
    from repro.mem.hierarchy import MemoryHierarchy

    return MemoryHierarchy(config), ReferenceMemoryHierarchy(config)


def reference_empty_poll_cost_curve(
    queue_counts,
    mem_config=None,
    llc_doorbell_resident_fraction: float = 1.0,
    warmup_rounds: int = 2,
    measure_rounds: int = 2,
) -> Tuple[Dict[int, float], Dict[str, float]]:
    """The structural empty-poll derivation: replay every polling round.

    For each queue count ``n`` a fresh :class:`MemoryHierarchy` runs one
    core round-robin-reading ``n`` doorbell lines for ``warmup_rounds``
    unmeasured rounds, then averages the read latency over
    ``measure_rounds`` more. Returns the curve and the hierarchy-counter
    snapshot summed over every count — the pair
    :func:`repro.mem.costmodel.empty_poll_cost_curve` computes in closed
    form and is differentially tested against. No memo, no registry.
    """
    from repro.mem.hierarchy import MemConfig, MemoryHierarchy
    from repro.obs.probes import hierarchy_stats_snapshot

    cfg = mem_config or MemConfig(num_cores=1)
    results: Dict[int, float] = {}
    aggregate_stats: Dict[str, float] = {}
    for count in queue_counts:
        if count <= 0:
            raise ValueError("queue counts must be positive")
        hierarchy = MemoryHierarchy(cfg)
        base = 0x1000_0000
        addrs = [base + i * CACHE_LINE_BYTES for i in range(count)]
        # One batched call per polling round (identical results to
        # per-address hierarchy.read(0, addr) — see access_stream).
        for _ in range(warmup_rounds):
            hierarchy.access_stream(0, addrs)
        total = 0
        samples = 0
        for _ in range(measure_rounds):
            for result in hierarchy.access_stream(0, addrs):
                latency = result.latency
                if result.level == "LLC" and llc_doorbell_resident_fraction < 1.0:
                    # Expected latency when some LLC refs spill to DRAM.
                    lat = cfg.latencies
                    llc = lat.directory_lookup + lat.llc_hit
                    dram = lat.directory_lookup + lat.dram
                    latency = (
                        llc_doorbell_resident_fraction * llc
                        + (1.0 - llc_doorbell_resident_fraction) * dram
                    )
                total += latency
                samples += 1
        results[count] = total / samples

        stats = hierarchy_stats_snapshot(hierarchy)
        for name, value in stats.items():
            aggregate_stats[name] = aggregate_stats.get(name, 0.0) + value
    return results, aggregate_stats


__all__ = [
    "CacheConfig",
    "ReferenceDirectory",
    "ReferenceMemoryHierarchy",
    "ReferenceSetAssociativeCache",
    "build_reference_pair",
    "reference_empty_poll_cost_curve",
]
