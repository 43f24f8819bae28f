"""Host-speed reference: a fixed little rack simulation timed between
consecutive passes and set-up probes.

The host this benchmark runs on drifts in speed by up to ±25% over
minutes (see README.md), which no choice of run length or estimator
removes. A workload-like kernel timed on both sides of each pass slows
down with it, so ``wall * REFERENCE_KERNEL_S / kernel`` (``kernel`` the
mean of the two) reports the pass time at a fixed reference host speed.
The kernel imitates the simulator's style (a heap-driven event loop,
generator processes, small objects, random draws) because a plain
arithmetic loop reacts more strongly to the same drift than the
simulator does. It uses nothing from ``repro``, so a
change to the program never moves it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

# Kernel seconds that define the reference host speed: roughly its time
# on the 2-core host the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.2


class _Sim:
    __slots__ = ("now", "heap", "seq", "dispatched")

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.dispatched = 0

    def schedule(self, delay, callback):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback))

    def run(self, until):
        heap = self.heap
        while heap and heap[0][0] <= until:
            self.now, _seq, callback = heapq.heappop(heap)
            self.dispatched += 1
            callback()


class _Server:
    def __init__(self, sim, rng):
        self.sim = sim
        self.rng = rng
        self.queue = []
        self.busy = False
        self.process = None
        self.done = 0
        self.latency = 0.0

    def arrive(self):
        self.queue.append(self.sim.now)
        if not self.busy:
            self.busy = True
            self.process = self._serve()
            self._step()

    def _step(self):
        try:
            delay = next(self.process)
        except StopIteration:
            self.busy = False
            return
        self.sim.schedule(delay, self._step)

    def _serve(self):
        while self.queue:
            arrival = self.queue.pop(0)
            yield 0.5e-6
            yield self.rng.expovariate(1e6)
            self.done += 1
            self.latency += self.sim.now - arrival


def kernel(until_s: float = 0.0035) -> int:
    """Simulate 16 servers behind power-of-two-choices; return the
    number of events dispatched (a constant: the kernel is seeded)."""
    rng = random.Random(7)
    sim = _Sim()
    servers = [_Server(sim, rng) for _ in range(16)]

    def arrival():
        a, b = servers[rng.randrange(16)], servers[rng.randrange(16)]
        (a if len(a.queue) <= len(b.queue) else b).arrive()
        sim.schedule(rng.expovariate(8e6), arrival)

    sim.schedule(0.0, arrival)
    sim.run(until_s)
    return sim.dispatched


def kernel_seconds() -> float:
    """Host seconds one kernel call takes right now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
