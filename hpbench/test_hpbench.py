"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest hpbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
from harness import END_TO_END, PER_LAYER, ROOT, SRC, run_benchmark
from spans import SpanRecorder
from workloads import WORKLOADS, FleetRss, RackHp, SweepCold

sys.path.insert(0, str(SRC))

TINY = {
    "sweep_cold": lambda: SweepCold(seed=3, counts=(1, 1000), shapes=("SQ",),
                                    peak_completions=200, latency_completions=100),
    "rack_hp": lambda: RackHp(seed=3, servers=4, duration_s=0.0005, warmup_s=0.0002),
    "fleet_rss": lambda: FleetRss(seed=3, servers=4, duration_s=0.05),
}


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 2)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(name, trace):
    lines, result = run_benchmark(TINY[name](), seconds=0, trace=trace)
    declared = PER_LAYER if trace else END_TO_END
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    header = lines[0]
    assert "nproc=" in header and "python=" in header
    assert any(line.startswith("checks: ok") for line in lines)


def test_traced_rack_run_accounts_for_wall_time():
    _, result = run_benchmark(TINY["rack_hp"](), seconds=0, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cluster.run_s"] > 0 and metrics["sim.events"] > 0
    assert 0 <= metrics["trace.uncovered_frac"] < 0.5


def test_perturbed_oracle_fails_and_counts_every_request(monkeypatch):
    from repro.cluster import _reference

    real = _reference.run_reference_cluster

    def perturbed(config, **kwargs):
        config.seed += 1
        return real(config, **kwargs)

    monkeypatch.setattr(_reference, "run_reference_cluster", perturbed)
    _, result = run_benchmark(TINY["rack_hp"](), seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_warm_memo_fails_the_cold_start_guard(monkeypatch):
    from repro.mem import costmodel

    costmodel.clear_curve_cache()
    monkeypatch.setattr(costmodel, "clear_curve_cache", lambda: None)
    lines, result = run_benchmark(TINY["sweep_cold"](), seconds=0, trace=False)
    assert not result["correct"]
    assert any("cold-start guard" in line for line in lines)
    # The first pass derived from a cold memo; the later ones did not.
    assert 0 < result["failed"] < result["attempted"]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_span_recorder_splits_nested_time_and_restores_names():
    class Layer:
        @staticmethod
        def inner():
            return sum(range(20000))

        @staticmethod
        def outer():
            return Layer.inner() + Layer.inner()

    originals = dict(vars(Layer))
    spans = SpanRecorder()
    with spans.installed([(Layer, "outer", "a"), (Layer, "inner", "b")]):
        Layer.outer()
    assert vars(Layer)["outer"] is originals["outer"]
    assert vars(Layer)["inner"] is originals["inner"]
    assert set(spans.self_s) == {"a", "b"} and spans.self_s["b"] > spans.self_s["a"] > 0
    assert spans.top_s == pytest.approx(spans.self_s["a"] + spans.self_s["b"])
    assert spans.accounts_for(spans.top_s)


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hpbench", tmp_path / "hpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hpbench/run.py", "--workload", "rack_hp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_kernel_is_deterministic_and_rescales_times():
    from calibrate import REFERENCE_KERNEL_S, kernel

    assert kernel() == kernel() > 10000
    assert harness.at_reference_speed(3.0, 2 * REFERENCE_KERNEL_S) == pytest.approx(1.5)
