"""Tests for the memory hierarchy wiring and cost-model extraction."""

import pytest

from repro.mem.cache import CacheConfig
from repro.mem.costmodel import (
    CostModel,
    derive_cost_model,
    empty_poll_cost_curve,
    interpolate_poll_cost,
)
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry


def small_config(cores=2):
    return MemConfig(num_cores=cores)


def test_first_access_is_dram_then_l1():
    hierarchy = MemoryHierarchy(small_config())
    first = hierarchy.read(0, 0x1000)
    assert first.level == "DRAM"
    second = hierarchy.read(0, 0x1000)
    assert second.level == "L1" and second.hit


def test_cross_core_write_read_is_remote():
    hierarchy = MemoryHierarchy(small_config())
    hierarchy.write(0, 0x1000)
    result = hierarchy.read(1, 0x1000)
    assert result.level == "remote-L1"


def test_write_invalidates_remote_l1_structurally():
    hierarchy = MemoryHierarchy(small_config())
    hierarchy.read(0, 0x1000)
    hierarchy.read(1, 0x1000)
    hierarchy.write(0, 0x1000)
    # Core 1's structural copy must be gone: its next read refills.
    result = hierarchy.read(1, 0x1000)
    assert not result.hit


def test_llc_hit_after_capacity_eviction():
    # Tiny L1 so lines fall out quickly but stay in the big LLC.
    config = MemConfig(
        num_cores=1,
        l1=CacheConfig(size_bytes=2 * 64 * 2, ways=2),  # 4 lines
        llc_per_core=CacheConfig.llc_per_core(),
    )
    hierarchy = MemoryHierarchy(config)
    addresses = [i * 64 for i in range(16)]
    for addr in addresses:
        hierarchy.read(0, addr)
    result = hierarchy.read(0, addresses[0])
    assert result.level == "LLC"
    hierarchy.check_invariants()


def test_snooper_passthrough():
    hierarchy = MemoryHierarchy(small_config())
    seen = []
    hierarchy.add_snooper(lambda line: True, lambda l, c, k: seen.append((l, c)))
    hierarchy.write(0, 0x2000)
    assert seen and seen[0] == (0x2000, 0)


def test_llc_total_capacity_scales_with_cores():
    config = MemConfig(num_cores=16)
    assert config.llc_total_bytes == 16 * 1024 * 1024


def test_reset_stats():
    hierarchy = MemoryHierarchy(small_config())
    hierarchy.read(0, 0)
    hierarchy.reset_stats()
    assert hierarchy.l1s[0].stats.accesses == 0
    assert hierarchy.llc.stats.accesses == 0


# -- cost model ---------------------------------------------------------------


def test_poll_cost_curve_has_l1_cliff():
    curve = empty_poll_cost_curve([64, 512, 1024], MemConfig(num_cores=1))
    assert curve[64] == curve[512]  # all L1-resident (512-line L1)
    assert curve[1024] > curve[512]  # beyond L1: LLC-level cost


def test_poll_cost_curve_resident_fraction_raises_cost():
    full = empty_poll_cost_curve([1024], MemConfig(num_cores=1), 1.0)
    half = empty_poll_cost_curve([1024], MemConfig(num_cores=1), 0.5)
    assert half[1024] > full[1024]


def test_poll_cost_curve_validation():
    with pytest.raises(ValueError):
        empty_poll_cost_curve([0])
    with pytest.raises(ValueError):
        empty_poll_cost_curve([1], llc_doorbell_resident_fraction=1.5)
    for rounds in ({"measure_rounds": 0}, {"measure_rounds": -1}, {"warmup_rounds": -2}):
        with pytest.raises(ValueError, match="rounds"):
            empty_poll_cost_curve([4], **rounds)
    # Every count is checked before anything is derived or replayed: a
    # bad count late in the list leaves the ambient registry untouched.
    registry = MetricsRegistry()
    with active_registry(registry):
        with pytest.raises(ValueError, match="positive"):
            empty_poll_cost_curve([4, 64, -1], MemConfig(num_cores=2))
    assert len(registry) == 0


def test_interpolation_between_points():
    curve = {10: 10.0, 20: 30.0}
    assert interpolate_poll_cost(curve, 10) == 10.0
    assert interpolate_poll_cost(curve, 15) == pytest.approx(20.0)
    assert interpolate_poll_cost(curve, 5) == 10.0
    assert interpolate_poll_cost(curve, 50) == 30.0


def test_derive_cost_model_matches_latency_config():
    config = MemConfig()
    model = derive_cost_model(config)
    lat = config.latencies
    assert model.l1_hit == lat.l1_hit
    assert model.llc_hit == lat.directory_lookup + lat.llc_hit
    assert model.dram == lat.directory_lookup + lat.dram
    # 0.5 us at 3 GHz.
    assert model.c1_wakeup == 1500


def test_cost_model_scaled():
    model = CostModel()
    scaled = model.scaled(2.0)
    assert scaled.dram == 2 * model.dram
    assert scaled.l1_hit == model.l1_hit  # L1 untouched


def test_cost_ordering_is_physical():
    model = derive_cost_model()
    assert model.l1_hit < model.llc_hit < model.dram
    assert model.llc_hit < model.remote_transfer < model.dram


def test_llc_set_count_rounds_up_for_non_power_of_two_cores():
    # 3 cores x 1 MB = 3 MB aggregate, which is not a power-of-two set
    # count; real indexed caches need one, so the LLC rounds up to the
    # next power of two (4 MB of sets).
    hierarchy = MemoryHierarchy(MemConfig(num_cores=3))
    llc = hierarchy.llc
    assert llc.num_sets & (llc.num_sets - 1) == 0
    assert llc.size_bytes == 4 * 1024 * 1024
    # Power-of-two core counts keep the exact aggregate capacity.
    assert MemoryHierarchy(MemConfig(num_cores=4)).llc.size_bytes == 4 * 1024 * 1024
    assert MemoryHierarchy(MemConfig(num_cores=1)).llc.size_bytes == 1 * 1024 * 1024
