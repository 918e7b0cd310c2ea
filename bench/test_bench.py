"""Checks of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
The smoke runs use tiny inputs and take about half a minute together.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _smoke(trace: str) -> dict:
    proc = _bench("--workload", "all", "--smoke", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert set(result["metrics"]) == {f"{w}.{name}" for w in run.WORKLOADS for name in declared}
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_smoke_reports_every_end_to_end_metric():
    assert all(value > 0 for value in _smoke("0").values())


def test_smoke_traced_counts_repeat_across_runs():
    first, second = _smoke("1"), _smoke("1")
    assert first["amse_toeplitz.eigensolve.toeplitz.matvecs"] > 0
    assert first["surrogate_banded.eigensolve.toeplitz.calls"] == 0
    assert first["surrogate_banded.eigensolve.tridiagonal.calls"] > 0
    assert first["surrogate_banded.povm.verify_random_instance.calls"] > 0
    counts = [name for name in first if tracing.is_count(name.split(".", 1)[1])]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "surrogate_banded", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_plans_follow_the_seed():
    for workload in run.WORKLOADS:
        assert run.make_plan(workload, 5, False) == run.make_plan(workload, 5, False)
        assert run.make_plan(workload, 5, False) != run.make_plan(workload, 6, False)


def test_targets_keep_endpoints_and_stay_apart():
    targets = run.log_targets(random.Random(1), 1e-2, 1e3, 6)
    assert targets[0] == 1e-2 and targets[-1] == 1e3 and len(targets) == 6
    ratios = [b / a for a, b in zip(targets, targets[1:])]
    assert min(ratios) >= 10 ** 0.5  # half a log cell (one decade here) at least


def _curve_csv(scaled: float) -> str:
    header = "mean,delta,delta_H,delta_1,delta_2,delta_3,scaled,beta,cutoff,residual"
    return f"# version=0\n{header}\n10,0,0,0,0,0,{scaled!r},0,100,0\n"


def test_gates_reject_outputs_that_break_the_invariants():
    k_c, k_c_prime = child._scaling_constants()
    op = {"floor": "k_C", "targets": 1}
    assert child.gate_curve(_curve_csv(k_c * 1.001), op) == []
    assert child.gate_curve(_curve_csv(k_c * 0.999), op)
    assert child.gate_curve(_curve_csv(k_c * 0.999), {"floor": "k_C_prime", "targets": 1}) == []
    assert child.gate_curve(_curve_csv(k_c * 1.001), {"floor": "k_C", "targets": 2})
    series = "mean,numeric,series,abs_gap,rel_gap\n1000,1,1,0,{}\n"
    assert child.gate_series(series.format("9e-10"), {"rel_gap_max": 1e-9}) == []
    assert child.gate_series(series.format("-2e-9"), {"rel_gap_max": 1e-9})
    assert child.gate_verify("PASS a margin=1\nFAIL b margin=-1\n", {}) == ["FAIL b margin=-1"]
    assert k_c_prime < k_c
