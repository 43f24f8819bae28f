"""Measurement loop, output checks and the report of one benchmark run.

A run measures for ``seconds``: it repeats passes of the workload's job
(timed with tracing off; with ``trace`` on, traced and untraced passes
alternate) and, spread evenly over the same period, starts
``SETUP_PROBES`` fresh interpreters that each run the job up to its
first simulated event. The host-speed kernel (``calibrate.py``) is timed
between consecutive passes and probes, and each end-to-end time is
reported at the reference host speed given by the kernels on either side
of it. Every figure is a median over
those samples. After the clock stops it checks the outputs and prints a
report whose last line is the JSON result.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any, Dict, List, Tuple

from calibrate import REFERENCE_KERNEL_S, kernel_seconds
from spans import SpanRecorder
from workloads import PassResult, own_peak_rss_mb

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Child processes run here, with TMPDIR pointing at it, so the fleet's
# unix-socket directories stay inside the checkout (and, being relative,
# short enough for a socket path whatever the checkout's location).
CHILD_DIR = ROOT / ".hpbench_tmp"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
}
PER_LAYER = {
    "mem.curves_derived": "count",
    "mem.curve_hits": "count",
    "mem.derive_s": "s",
    "mem.derive_share": "fraction",
    "sdp.spin_s": "s",
    "sdp.spin_completions": "count",
    "sdp.spin_host_us_per_req": "us",
    "core.hp_s": "s",
    "core.hp_host_us_per_req": "us",
    "core.spurious_wakeups": "count",
    "core.useful_wake_ratio": "fraction",
    "core.tput_gain_x": "x",
    "core.tail_gain_x": "x",
    "paper_gap": "fraction",
    "sim.events": "count",
    "sim.process_wakes": "count",
    "sim.events_per_req": "count",
    "sim.wakes_per_req": "count",
    "cluster.build_s": "s",
    "cluster.run_s": "s",
    "cluster.host_us_per_req": "us",
    "cluster.dispatched": "count",
    "cluster.redispatched": "count",
    "cluster.lost": "count",
    "cluster.rejected": "count",
    "cluster.hottest_share": "fraction",
    "dist.spawn_s": "s",
    "dist.rpc_s": "s",
    "dist.encode_s": "s",
    "dist.decode_s": "s",
    "dist.exchanges": "count",
    "dist.windows": "count",
    "dist.windows_per_exchange": "count",
    "dist.inprocess_s": "s",
    "dist.speedup_vs_inprocess": "x",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
}

SETUP_PROBES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60.0


class ChildError(RuntimeError):
    """A benchmark child process failed or printed no result."""


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group, then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = monotonic() + 5.0
    while monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        sleep(0.01)


def run_child(args: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Run ``child.py ARGS`` in its own process group; return the
    ``perf_counter`` reading taken just before the spawn and the child's
    JSON reply. The whole group is killed afterwards, so no fleet worker
    outlives its pass."""
    CHILD_DIR.mkdir(exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=".",
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    spawned_at = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=CHILD_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child {args[0]} ran over {CHILD_TIMEOUT_S:.0f}s") from exc
    finally:
        _stop_group(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return spawned_at, json.loads(lines[-1])


def setup_probe(workload, traced: bool) -> Dict[str, Any]:
    """Interpreter start to first simulated event, in a fresh process."""
    spawned_at, reply = run_child(
        ["setup", workload.name, json.dumps(asdict(workload)), str(int(traced))]
    )
    setup_s = reply["first_event_at"] - spawned_at
    layers = reply["layers"]
    if traced:
        layers["mem.derive_share"] = layers["mem.derive_s"] / setup_s
    return {"setup_s": setup_s, "layers": layers}


def measure(workload, seconds: float, trace: bool):
    """Passes and set-up probes, interleaved over ``seconds``."""
    workload.prepare()
    start = perf_counter()
    due = [start + seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    probes: List[Dict[str, Any]] = []
    gc.collect()
    kernel_before = kernel_seconds()
    while True:
        now = perf_counter()
        probe_due = len(probes) < SETUP_PROBES and now >= due[len(probes)]
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if not probe_due and now >= start + seconds and enough and len(probes) == SETUP_PROBES:
            break
        if probe_due:
            item = setup_probe(workload, trace)
            probes.append(item)
        elif trace and len(traced) < len(plain):
            item = workload.run_pass(SpanRecorder())
            traced.append(item)
        else:
            item = workload.run_pass()
            plain.append(item)
        # Free this pass's objects before the next clock starts, so its
        # garbage neither lifts the next pass's peak RSS nor is collected
        # on its time. Then time the kernel that sits between this pass
        # and the next: each is rescaled by the kernels on both sides.
        gc.collect()
        kernel_after = kernel_seconds()
        kernel_s = (kernel_before + kernel_after) / 2
        if probe_due:
            item["kernel_s"] = kernel_s
        else:
            item.kernel_s = kernel_s
        kernel_before = kernel_after
    return plain, traced, probes


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """Host seconds rescaled to the reference host speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _collect(dicts: List[Dict[str, float]]) -> Dict[str, List[float]]:
    """Per-name sample lists from a list of per-sample dicts."""
    samples: Dict[str, List[float]] = {}
    for entry in dicts:
        for name, value in entry.items():
            samples.setdefault(name, []).append(float(value))
    return samples


def run_benchmark(workload, seconds: float, trace: bool):
    """Measure, check and summarise one run.

    Returns ``(report_lines, result)``; ``result`` is the JSON object the
    benchmark prints last.
    """
    plain, traced, probes = measure(workload, seconds, trace)
    passes = plain + traced
    first = passes[0]
    problems: List[str] = []

    def key(result: PassResult):
        return result.fingerprint, result.p50_us, result.p99_us

    attempted = sum(p.attempted for p in passes)
    failed = 0
    for index, result in enumerate(passes):
        bad = list(result.problems)
        if key(result) != key(first):
            bad.append("output differs from the first pass")
        if not result.spans_ok:
            bad.append("layer self-times plus uncovered time do not sum to wall_s")
        problems += [f"pass {index}: {text}" for text in bad]
        failed += result.attempted if bad else result.failed
    run_problems, extra_layers = workload.check_run(first, trace)
    problems += run_problems
    if run_problems:
        failed = attempted  # the oracle disagrees with every (identical) pass

    walls = [at_reference_speed(p.wall_s, p.kernel_s) for p in plain]
    samples: Dict[str, List[float]] = {
        "wall_s": walls,
        "setup_s": [at_reference_speed(pr["setup_s"], pr["kernel_s"]) for pr in probes],
        "sim_req_per_s": [p.completed / wall for p, wall in zip(plain, walls)],
        "peak_rss_mb": [p.rss_mb for p in plain],
        "sim_p50_us": [first.p50_us],
        "sim_p99_us": [first.p99_us],
    }
    counts = {name: len(values) for name, values in samples.items()}
    counts["sim_p50_us"] = counts["sim_p99_us"] = first.latency_samples
    if trace:
        # Set-up probes measure the cold-start layers (cost-curve
        # derivation) that the timed passes of a warm workload skip;
        # what a pass measures itself takes precedence.
        layer_samples = {
            **_collect([probe["layers"] for probe in probes]),
            **_collect([p.layers for p in traced]),
            **{name: [float(value)] for name, value in extra_layers.items()},
        }
        wall = statistics.median(p.wall_s for p in plain)
        layer_samples["trace.overhead_frac"] = [
            statistics.median(at_reference_speed(p.wall_s, p.kernel_s) for p in traced)
            / statistics.median(walls) - 1
        ]
        layer_samples["trace.uncovered_frac"] = [p.uncovered_s / p.wall_s for p in traced]
        if "dist.inprocess_s" in layer_samples:
            layer_samples["dist.speedup_vs_inprocess"] = [
                layer_samples["dist.inprocess_s"][0] / wall
            ]
        # A layer the workload does not run reads 0 with no samples.
        counts = {name: len(layer_samples.get(name, [])) for name in PER_LAYER}
        samples = {name: layer_samples.get(name, [0.0]) for name in PER_LAYER}
        units = PER_LAYER
    else:
        units = END_TO_END

    lines = [
        f"hpbench workload={workload.name} seed={workload.seed} seconds={seconds:g} "
        f"trace={int(trace)} nproc={os.cpu_count()} python={platform.python_version()}",
        f"passes={len(plain)} traced_passes={len(traced)} setup_probes={len(probes)} "
        f"bench_peak_rss_mb={own_peak_rss_mb():.1f}",
        "host kernel_s q1/median/q3 = {:.4f}/{:.4f}/{:.4f} (reference {}); raw medians: "
        "wall_s={:.4f} setup_s={:.4f}".format(
            *quartiles([p.kernel_s for p in passes] + [pr["kernel_s"] for pr in probes]),
            REFERENCE_KERNEL_S,
            statistics.median(p.wall_s for p in plain),
            statistics.median(pr["setup_s"] for pr in probes),
        ),
        f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>8}  unit",
    ]
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        lines.append(f"{name:<28}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{counts[name]:>8}  {unit}")
    if not trace:
        lines.append("(n of sim_p50_us and sim_p99_us: simulated latency samples per pass)")
    lines.append("checks: ok" if not problems else "checks FAILED: " + "; ".join(problems))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result
