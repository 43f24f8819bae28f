"""Memory-hierarchy substrate.

Structural (state-exact, not timing-exact) models of the parts of the
chip that the paper's effects depend on:

- :mod:`repro.mem.address` — physical address helpers and the reserved
  doorbell address range that HyperPlane's kernel driver manages.
- :mod:`repro.mem.cache` — set-associative caches with LRU replacement.
- :mod:`repro.mem.coherence` — a directory-based MESI protocol with snoop
  hooks (the monitoring set observes GetM transactions through these).
- :mod:`repro.mem.hierarchy` — per-core L1s + shared LLC + directory +
  DRAM, returning a latency in cycles for every access.
- :mod:`repro.mem.costmodel` — derives the per-operation cycle costs the
  fast SDP simulation uses from the structural models' latencies and
  geometry (the empty-poll curve in closed form, checked against a
  replay through the structural models kept in :mod:`repro.mem._reference`).
"""

from repro.mem.address import (
    CACHE_LINE_BYTES,
    AddressAllocator,
    DoorbellRegion,
    line_address,
)
from repro.mem.cache import SetAssociativeCache
from repro.mem.coherence import AccessResult, Directory, MESIState
from repro.mem.costmodel import CostModel, derive_cost_model, empty_poll_cost_curve
from repro.mem.hierarchy import MemConfig, MemoryHierarchy

__all__ = [
    "CACHE_LINE_BYTES",
    "AccessResult",
    "AddressAllocator",
    "CostModel",
    "Directory",
    "DoorbellRegion",
    "MESIState",
    "MemConfig",
    "MemoryHierarchy",
    "SetAssociativeCache",
    "derive_cost_model",
    "empty_poll_cost_curve",
    "line_address",
]
