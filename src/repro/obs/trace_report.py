"""Latency-decomposition reports over collected traces.

This is the "where did the tail go" renderer: it folds the per-request
cycle breakdowns that the observers in :mod:`repro.obs.probes` attached to
``request``/``rpc`` spans into one row per *mechanism* (the
``mechanism`` span attribute: ``spinning/scale-out``,
``hyperplane/scale-out/hw``, ...), with mean microseconds and share per
category. ``repro-trace`` prints this table; the figure experiments
append its one-line form to their notes when run with ``trace=True``.

:func:`sum_problems` is the exactness audit CI runs: every breakdown's
fixed-order category sum must reproduce the span's cycle duration
bit-for-bit — any span where it does not is reported.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.obs.trace import CATEGORIES, Span, Tracer, breakdown_sum
from repro.sim.clock import DEFAULT_CLOCK, Clock

Source = Union[Tracer, Iterable[Span]]


def _breakdown_spans(source: Source) -> List[Span]:
    spans = source.spans if isinstance(source, Tracer) else source
    return [span for span in spans if span.cycles is not None and span.end is not None]


def sum_problems(source: Source, clock: Optional[Clock] = None) -> List[str]:
    """Spans whose breakdown does not sum bit-exactly (empty = all exact).

    For each span carrying a cycle breakdown, the canonical fixed-order
    category sum must equal ``clock.seconds_to_cycles(span.duration)``
    to the last bit.
    """
    clock = clock or DEFAULT_CLOCK
    problems = []
    for span in _breakdown_spans(source):
        expected = clock.seconds_to_cycles(span.duration)
        actual = breakdown_sum(span.cycles)
        if actual != expected:
            problems.append(
                f"span {span.span_id} ({span.name!r}): breakdown sums to "
                f"{actual!r} cycles, duration is {expected!r}"
            )
    return problems


def decomposition_rows(
    source: Source, clock: Optional[Clock] = None
) -> List[Dict[str, object]]:
    """One row per mechanism: request count, mean latency, mean µs and
    share per cycle category. Rows are sorted by mechanism name."""
    clock = clock or DEFAULT_CLOCK
    groups: Dict[str, List[Span]] = {}
    for span in _breakdown_spans(source):
        mechanism = str(span.attributes.get("mechanism", "unlabeled"))
        groups.setdefault(mechanism, []).append(span)
    rows = []
    for mechanism in sorted(groups):
        spans = groups[mechanism]
        count = len(spans)
        total_cycles = sum(breakdown_sum(span.cycles) for span in spans)
        row: Dict[str, object] = {
            "mechanism": mechanism,
            "requests": count,
            "mean_us": clock.cycles_to_us(total_cycles) / count,
        }
        for category in CATEGORIES:
            category_cycles = sum(span.cycles[category] for span in spans)
            row[f"{category}_us"] = clock.cycles_to_us(category_cycles) / count
            row[f"{category}_share"] = (
                category_cycles / total_cycles if total_cycles else 0.0
            )
        rows.append(row)
    return rows


def format_decomposition(rows: List[Dict[str, object]]) -> str:
    """A terminal table of :func:`decomposition_rows` output."""
    if not rows:
        return "(no spans with cycle breakdowns)"
    width = max(len(str(row["mechanism"])) for row in rows)
    width = max(width, len("mechanism"))
    header = f"{'mechanism':{width}s} {'requests':>8s} {'mean_us':>9s}"
    for category in CATEGORIES:
        header += f" {category + '_us':>12s} {'%':>5s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        line = (
            f"{str(row['mechanism']):{width}s} {row['requests']:8d} "
            f"{row['mean_us']:9.2f}"
        )
        for category in CATEGORIES:
            line += (
                f" {row[f'{category}_us']:12.3f}"
                f" {row[f'{category}_share'] * 100.0:5.1f}"
            )
        lines.append(line)
    return "\n".join(lines)


def breakdown_notes(
    source: Source, clock: Optional[Clock] = None
) -> List[str]:
    """One-line-per-mechanism decomposition summaries (experiment notes)."""
    notes = []
    for row in decomposition_rows(source, clock):
        shares = ", ".join(
            f"{category} {row[f'{category}_share'] * 100.0:.0f}%"
            for category in CATEGORIES
        )
        notes.append(
            f"trace[{row['mechanism']}]: {row['requests']} requests, "
            f"mean {row['mean_us']:.2f} us = {shares}"
        )
    return notes
