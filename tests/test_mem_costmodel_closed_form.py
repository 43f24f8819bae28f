"""Differential test: closed-form empty-poll cost curves vs. the replay.

:func:`repro.mem.costmodel.empty_poll_cost_curve` computes each curve
from cyclic-LRU arithmetic on the structural geometry. The structural
replay it replaced is kept as
:func:`repro.mem._reference.reference_empty_poll_cost_curve`. Both sides
must agree exactly (``==``, never approx) on the curve and on the
hierarchy-counter dict, key order included, across geometries, queue
counts on both sides of every capacity edge, round counts, resident
fractions and line sizes.
"""

import pytest

from repro.mem._reference import reference_empty_poll_cost_curve
from repro.mem.cache import CacheConfig
from repro.mem.costmodel import _derive_curve, empty_poll_cost_curve
from repro.mem.hierarchy import MemConfig, MemoryHierarchy, llc_set_count
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry

# Every geometry's aggregate LLC has a set count that is not a power of
# two before rounding (12 -> 16, or 3 -> 4), except where noted.
GEOMETRIES = {
    "64B": MemConfig(
        num_cores=3,
        l1=CacheConfig(size_bytes=512, ways=2),
        llc_per_core=CacheConfig(size_bytes=1024, ways=4),
    ),
    "32B": MemConfig(
        num_cores=3,
        l1=CacheConfig(size_bytes=256, ways=2, line_bytes=32),
        llc_per_core=CacheConfig(size_bytes=512, ways=4, line_bytes=32),
    ),
    "128B": MemConfig(
        num_cores=3,
        l1=CacheConfig(size_bytes=1024, ways=2, line_bytes=128),
        llc_per_core=CacheConfig(size_bytes=2048, ways=4, line_bytes=128),
    ),
    # More L1 sets than LLC sets (32 vs 4).
    "l1-finer": MemConfig(
        num_cores=3,
        l1=CacheConfig(size_bytes=4096, ways=2),
        llc_per_core=CacheConfig(size_bytes=256, ways=4),
    ),
    # A power-of-two aggregate (2 x 8 sets), to cover the unrounded path.
    "64B-2core": MemConfig(
        num_cores=2,
        l1=CacheConfig(size_bytes=512, ways=2),
        llc_per_core=CacheConfig(size_bytes=2048, ways=4),
    ),
}

FRACTIONS = (1.0, 0.83, 0.5, 0.0)
ROUNDS = [(warmup, measure) for warmup in (0, 1, 2) for measure in (1, 2, 3)]


def edge_counts(cfg: MemConfig):
    """Doorbell counts at S*W - 1, S*W and S*W + 1 for the L1 and the LLC.

    An edge is taken both in lines and in doorbells: with 32 B lines
    the 64 B-apart doorbells use every other line (half the sets), and
    with 128 B lines two doorbells share a line.
    """
    line = cfg.l1.line_bytes
    l1_lines = MemoryHierarchy(cfg).l1s[0].capacity_lines
    llc_lines = llc_set_count(cfg) * cfg.llc_per_core.ways
    edges = set()
    for capacity in (l1_lines, llc_lines):
        for edge in (capacity, capacity * line // 64):
            edges.update((edge - 1, edge, edge + 1))
    return tuple(sorted(count for count in edges if count > 0)) + (1, 2, 3)


def assert_exact(counts, cfg, fraction, warmup, measure):
    closed = _derive_curve(counts, cfg, fraction, warmup, measure)
    reference = reference_empty_poll_cost_curve(counts, cfg, fraction, warmup, measure)
    assert closed[0] == reference[0]
    assert list(closed[0].items()) == list(reference[0].items())
    assert list(closed[1].items()) == list(reference[1].items())


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_closed_form_equals_structural_replay(geometry, fraction):
    cfg = GEOMETRIES[geometry]
    counts = edge_counts(cfg)
    for warmup, measure in ROUNDS:
        assert_exact(counts, cfg, fraction, warmup, measure)


def test_edge_counts_straddle_both_capacities():
    cfg = GEOMETRIES["64B"]
    # 4 L1 sets x 2 ways; 3 x 1 KB / (4 x 64 B) = 12 LLC sets -> 16 x 4.
    assert llc_set_count(cfg) == 16
    assert {7, 8, 9, 63, 64, 65} <= set(edge_counts(cfg))


@pytest.mark.parametrize("fraction", (1.0, 0.83))
def test_duplicate_counts_are_summed_per_listing(fraction):
    cfg = GEOMETRIES["64B"]
    counts = (9, 65, 9, 4, 65, 9)
    assert_exact(counts, cfg, fraction, 2, 2)
    _, stats = _derive_curve(counts, cfg, fraction, 2, 2)
    _, single = _derive_curve((9, 65, 4), cfg, fraction, 2, 2)
    assert stats["l1.misses"] > single["l1.misses"]


def test_table_i_l1_edge():
    # Table I L1 (32 KB, 4-way: 512 lines) with the 1 MB 16-way LLC.
    cfg = MemConfig(num_cores=1)
    for fraction in (1.0, 0.5):
        assert_exact((511, 512, 513), cfg, fraction, 2, 2)


def test_public_curve_and_counters_match_the_replay(monkeypatch):
    monkeypatch.setenv("REPRO_CURVE_CACHE", "0")
    cfg = GEOMETRIES["128B"]
    counts = (1, 15, 16, 17, 130)
    curve, stats = reference_empty_poll_cost_curve(counts, cfg, 0.83)
    registry = MetricsRegistry()
    with active_registry(registry):
        assert empty_poll_cost_curve(counts, cfg, 0.83) == curve
    for name, value in stats.items():
        assert registry.get(f"mem.{name}").value == value


@pytest.mark.parametrize(
    "cfg",
    [
        MemConfig(num_cores=0),
        MemConfig(num_cores=1, l1=CacheConfig(size_bytes=500, ways=2)),
        MemConfig(num_cores=2, l1=CacheConfig(size_bytes=3 * 128, ways=2)),
        MemConfig(num_cores=0, l1=CacheConfig(size_bytes=500, ways=2)),
    ],
)
def test_bad_geometry_raises_what_the_hierarchy_raises(cfg):
    with pytest.raises(ValueError) as built:
        MemoryHierarchy(cfg)
    with pytest.raises(ValueError) as replayed:
        reference_empty_poll_cost_curve((4,), cfg)
    with pytest.raises(ValueError) as closed:
        empty_poll_cost_curve((4,), cfg)
    assert str(closed.value) == str(replayed.value) == str(built.value)
