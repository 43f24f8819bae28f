"""Child-process entry points, started by ``harness.run_child``.

``child.py setup NAME PARAMS TRACED``
    Runs workload NAME (built from the JSON PARAMS) in this fresh
    interpreter up to its first simulated event and replies with the
    ``perf_counter`` reading at that event (plus, when TRACED is 1, the
    cost-curve derivation paid before it).
``child.py fleet-pass PARAMS TRACED``
    Runs one ``fleet_rss`` pass and replies with its PassResult.

The reply is one JSON line on stdout.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class FirstEvent(Exception):
    """Raised at the first simulated event to end a set-up probe."""


def stop_at_first_event(owner, name, predicate) -> None:
    original = vars(owner)[name]

    def stop(*args, **kwargs):
        if predicate is None or predicate(*args, **kwargs):
            raise FirstEvent(perf_counter())
        return original(*args, **kwargs)

    setattr(owner, name, stop)


def setup(name: str, params: dict, traced: bool) -> dict:
    from spans import SpanRecorder
    from workloads import WORKLOADS, mem_derivation_targets

    workload = WORKLOADS[name](**params)
    stop_at_first_event(*workload.first_event_target())
    spans = SpanRecorder()
    try:
        with spans.installed(mem_derivation_targets() if traced else []):
            workload.start()
    except FirstEvent as event:
        first_event_at = event.args[0]
    else:
        raise RuntimeError(f"{name} finished without a simulated event")
    layers = {}
    if traced:
        from repro.mem.costmodel import curve_cache_info

        cache = curve_cache_info()
        layers = {
            "mem.derive_s": spans.self_s["mem"],
            "mem.curves_derived": cache["misses"],
            "mem.curve_hits": cache["hits"],
        }
    return {"first_event_at": first_event_at, "layers": layers}


def main(argv) -> int:
    command = argv[0]
    if command == "setup":
        reply = setup(argv[1], json.loads(argv[2]), argv[3] == "1")
    elif command == "fleet-pass":
        from workloads import FleetRss

        reply = FleetRss(**json.loads(argv[1])).run_in_child(argv[2] == "1")
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
