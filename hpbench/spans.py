"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` temporarily replaces public functions and
methods of the ``repro`` package with timing wrappers, at the name their
callers look up (a module global or a class attribute), and restores the
originals when the traced pass ends. It keeps no per-call records, only
per-layer aggregates:

- ``self_s[layer]``: time inside the layer's spans minus the time of the
  spans nested inside them, so layer self-times never double count;
- ``top_s``: total duration of the outermost spans. The part of a pass
  that no span covers is the pass wall time minus ``top_s``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, Tuple


class SpanRecorder:
    """Per-layer self-time accumulators fed by wrapped public names."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._stack: List[float] = []  # child time of each open span
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        """Replace ``owner.name`` (defined on ``owner`` itself) by a span."""
        original = vars(owner)[name]
        stack = self._stack

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                self.self_s[layer] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_s += duration

        setattr(owner, name, spanned)
        self._patches.append((owner, name, original))

    def collect(self, owner: Any, name: str, sink: List[Any]) -> None:
        """Replace the class ``owner.name`` by a factory that also appends
        each instance it builds to ``sink`` (so a traced pass can read
        counters of objects the program builds internally)."""
        cls = vars(owner)[name]

        def build(*args, **kwargs):
            instance = cls(*args, **kwargs)
            sink.append(instance)
            return instance

        setattr(owner, name, build)
        self._patches.append((owner, name, cls))

    def unwrap_all(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self, targets):
        """Wrap ``(owner, name, layer)`` targets for the ``with`` body."""
        try:
            for owner, name, layer in targets:
                self.wrap(owner, name, layer)
            yield self
        finally:
            self.unwrap_all()

    def accounts_for(self, wall_s: float, rel_tol: float = 1e-6) -> bool:
        """Layer self-times plus uncovered time sum to ``wall_s``.

        Fails when a span was left open or spans overlapped without
        nesting, which would make the per-layer split meaningless.
        """
        uncovered = wall_s - self.top_s
        total = sum(self.self_s.values()) + uncovered
        return not self._stack and uncovered >= 0 and abs(total - wall_s) <= rel_tol * wall_s
