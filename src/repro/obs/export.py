"""Exporters (and their inverse parsers) for collected metrics.

Three formats over the same canonical records
(:meth:`~repro.obs.registry.MetricsRegistry.collect`):

- **JSONL** — one record per line, lossless, the archival format;
- **CSV** — one *scalar* per row (``name,type,key,time,value``),
  lossless, for spreadsheets and pandas;
- **Prometheus text format** — for scraping dashboards. Counters,
  gauges, and histograms are lossless; a timeseries probe is summarised
  as ``<name>_last`` (its newest sample, retained by the stride or not)
  / ``<name>_samples`` gauges (Prometheus has no
  native notion of an embedded timeline — the full series lives in the
  JSONL/CSV exports).

Metric names are dotted (``sdp.queue_depth``); the Prometheus exporter
maps ``.`` to ``:`` (legal in Prometheus names, forbidden in ours), so
the mapping is reversible and ``parse_prometheus`` can round-trip.

Every exporter takes either a registry or an already-collected record
list, so archived JSONL can be re-exported without re-running anything.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Dict, Iterable, List, Union

from repro.obs.registry import MetricsRegistry

Records = List[Dict[str, Any]]
Source = Union[MetricsRegistry, Records]


def _records(source: Source) -> Records:
    if isinstance(source, MetricsRegistry):
        return source.collect()
    return list(source)


# -- JSONL ------------------------------------------------------------------


def to_jsonl(source: Source) -> str:
    """One canonical record per line."""
    return "\n".join(json.dumps(record, sort_keys=True) for record in _records(source))


def parse_jsonl(text: str) -> Records:
    """Inverse of :func:`to_jsonl`."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- CSV --------------------------------------------------------------------

_CSV_HEADER = ("name", "type", "key", "time", "value")


def to_csv(source: Source) -> str:
    """Flatten records to ``name,type,key,time,value`` rows.

    Scalars use key ``value``; histograms emit ``sum``, ``count``, and
    one cumulative ``le:<bound>`` row per bucket; timeseries emit one
    ``sample`` row per point with the sim time in the ``time`` column,
    a ``stride`` row, and a ``last`` row for the newest sample. Floats
    are written with ``repr`` so parsing back is exact.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for record in _records(source):
        name, kind = record["name"], record["type"]
        if kind in ("counter", "gauge"):
            writer.writerow([name, kind, "value", "", repr(float(record["value"]))])
        elif kind == "histogram":
            writer.writerow([name, kind, "sum", "", repr(float(record["sum"]))])
            writer.writerow([name, kind, "count", "", repr(float(record["count"]))])
            for bound, cumulative in record["buckets"]:
                writer.writerow(
                    [name, kind, f"le:{bound!r}", "", repr(float(cumulative))]
                )
        elif kind == "timeseries":
            writer.writerow([name, kind, "stride", "", repr(float(record["stride"]))])
            for time, value in record["samples"]:
                writer.writerow([name, kind, "sample", repr(float(time)), repr(float(value))])
            if record.get("last") is not None:
                time, value = record["last"]
                writer.writerow([name, kind, "last", repr(float(time)), repr(float(value))])
        else:
            raise ValueError(f"cannot export record type {kind!r}")
    return buffer.getvalue()


def parse_csv(text: str) -> Records:
    """Inverse of :func:`to_csv`: reconstruct canonical records."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(_CSV_HEADER):
        raise ValueError(f"unexpected CSV header {header!r}")
    records: Dict[str, Dict[str, Any]] = {}
    for name, kind, key, time, value in reader:
        if kind in ("counter", "gauge"):
            records[name] = {"name": name, "type": kind, "value": float(value)}
            continue
        if kind == "histogram":
            record = records.setdefault(
                name, {"name": name, "type": kind, "buckets": [], "sum": 0.0, "count": 0}
            )
            if key == "sum":
                record["sum"] = float(value)
            elif key == "count":
                record["count"] = int(float(value))
            elif key.startswith("le:"):
                record["buckets"].append([float(key[3:]), int(float(value))])
            else:
                raise ValueError(f"unexpected histogram row key {key!r}")
            continue
        if kind == "timeseries":
            record = records.setdefault(
                name, {"name": name, "type": kind, "stride": 1, "samples": [], "last": None}
            )
            if key == "stride":
                record["stride"] = int(float(value))
            elif key == "sample":
                record["samples"].append([float(time), float(value)])
            elif key == "last":
                record["last"] = [float(time), float(value)]
            else:
                raise ValueError(f"unexpected timeseries row key {key!r}")
            continue
        raise ValueError(f"cannot parse record type {kind!r}")
    return list(records.values())


# -- Prometheus text format -------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", ":")


def _repro_name(prom_name: str) -> str:
    return prom_name.replace(":", ".")


def _fmt(value: float) -> str:
    return repr(float(value))


def to_prometheus(source: Source) -> str:
    """Prometheus exposition text (``# TYPE`` lines included)."""
    lines: List[str] = []
    for record in _records(source):
        name, kind = _prom_name(record["name"]), record["type"]
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {_fmt(record['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in record["buckets"]:
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {record["count"]}')
            lines.append(f"{name}_sum {_fmt(record['sum'])}")
            lines.append(f"{name}_count {record['count']}")
        elif kind == "timeseries":
            samples = record["samples"]
            newest = record.get("last") or (samples[-1] if samples else (0.0, 0.0))
            lines.append(f"# TYPE {name}_last gauge")
            lines.append(f"{name}_last {_fmt(newest[1])}")
            lines.append(f"# TYPE {name}_samples gauge")
            lines.append(f"{name}_samples {len(samples)}")
        else:
            raise ValueError(f"cannot export record type {kind!r}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Records:
    """Parse :func:`to_prometheus` output back into canonical records.

    Counters, gauges, and histograms round-trip exactly. Timeseries
    summaries come back as the two gauges they were exported as (the
    full series is only in JSONL/CSV).
    """
    records: Dict[str, Dict[str, Any]] = {}
    declared: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                declared[parts[2]] = parts[3]
            continue
        metric, value_text = line.rsplit(" ", 1)
        if "{" in metric:
            base, label = metric.split("{", 1)
            if not base.endswith("_bucket"):
                raise ValueError(f"unexpected labelled sample {metric!r}")
            name = _repro_name(base[: -len("_bucket")])
            record = records.setdefault(
                name, {"name": name, "type": "histogram", "buckets": [], "sum": 0.0, "count": 0}
            )
            bound_text = label.split('"')[1]
            if bound_text != "+Inf":
                record["buckets"].append([float(bound_text), int(float(value_text))])
            continue
        if metric.endswith("_sum") and declared.get(metric[: -len("_sum")]) == "histogram":
            name = _repro_name(metric[: -len("_sum")])
            records[name]["sum"] = float(value_text)
            continue
        if metric.endswith("_count") and declared.get(metric[: -len("_count")]) == "histogram":
            name = _repro_name(metric[: -len("_count")])
            records[name]["count"] = int(float(value_text))
            continue
        kind = declared.get(metric)
        if kind not in ("counter", "gauge"):
            raise ValueError(f"sample {metric!r} lacks a # TYPE declaration")
        name = _repro_name(metric)
        records[name] = {"name": name, "type": kind, "value": float(value_text)}
    return list(records.values())


# -- file convenience -------------------------------------------------------

EXPORTERS = {
    "jsonl": to_jsonl,
    "csv": to_csv,
    "prom": to_prometheus,
}


def write_exports(source: Source, directory: str, stem: str) -> Dict[str, str]:
    """Write ``<stem>.metrics.{jsonl,csv,prom}`` under ``directory``.

    Returns ``{format: path}``. Records are collected once so the three
    files describe the same instant.
    """
    records = _records(source)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for suffix, exporter in EXPORTERS.items():
        path = os.path.join(directory, f"{stem}.metrics.{suffix}")
        with open(path, "w") as handle:
            handle.write(exporter(records))
        paths[suffix] = path
    return paths
