"""phaselim benchmark: two closed-loop CLI workloads with per-module timings.

Run from the root of a checkout:

    python3 bench/run.py --workload amse_toeplitz --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics (see bench/README.md for what each one should move).
``--workload all`` runs every workload and prints one table.  ``--smoke``
swaps in tiny inputs so the whole harness runs in seconds.

The workload inputs (target means, verification seeds) are generated here
from ``--seed``; the workload process receives only the generated argv and
values.  Each workload runs in its own process, with BLAS pinned to one
thread, and that process is the only one generating load.  The last line of
standard output is the JSON result; the line before it records the inputs,
every sample and the environment.  The exit code is 0 only when every
output passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd().resolve()
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("amse_toeplitz", "surrogate_banded")
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides the workload's own
DEADLINE_S = 170.0  # a single-workload run ends well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------- inputs


def log_targets(
    rng: random.Random, lo: float, hi: float, count: int, fixed: float | None = None
) -> list[float]:
    """``count`` sorted means in [lo, hi], both endpoints kept.

    Interior mean i is drawn log-uniformly from the middle fifth of the i-th
    cell of an even log grid.  Keeping each draw near the centre of its own
    cell holds the work of a pass steady across seeds (cost rises steeply
    with the mean: draws over the middle half let the summed cutoffs of the
    f2 curve vary by 10 %) and keeps neighbouring targets apart, so the
    sweep's penalties stay strictly decreasing.  ``fixed`` replaces the draw
    whose cell is nearest to it.
    """
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    inner = [
        math.exp(math.log(lo) + (i + rng.uniform(-0.1, 0.1)) * step)
        for i in range(1, count - 1)
    ]
    if fixed is not None:
        nearest = round((math.log(fixed) - math.log(lo)) / step)
        inner[min(max(nearest, 1), count - 2) - 1] = fixed
    return [lo, *inner, hi]


def _curve(metric: str, spectrum: str, targets: list[float], floor: str) -> dict:
    argv = ["curve", "--metric", metric, "--spectrum", spectrum]
    argv += ["--targets", ",".join(repr(t) for t in targets)]
    return {"kind": "cli", "argv": argv, "targets": len(targets), "floor": floor}


def make_plan(workload: str, seed: int, smoke: bool) -> dict:
    """The operations of one pass, generated from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict] = []
    if workload == "amse_toeplitz":
        # Means 100 (nonneg) and 50 (symmetric) are the largest problems that
        # variational.build_matrix still builds as dense entries (d = 1001);
        # fixing them keeps peak memory independent of the seed.
        top_n, top_s, count = (10.0, 5.0, 3) if smoke else (1e3, 3e2, 6)
        fixed_n, fixed_s = (None, None) if smoke else (100.0, 50.0)
        nonneg = log_targets(rng, 1e-2, top_n, count, fixed_n)
        symmetric = log_targets(rng, 1e-2, top_s, count, fixed_s)
        ops.append(_curve("amse", "nonneg", nonneg, "k_C"))
        ops.append(_curve("amse", "symmetric", symmetric, "k_C_prime"))
    elif workload == "surrogate_banded":
        top, counts, means, zs, instances, states = (
            (100.0, (4, 3, 3), [1000.0], [20.0], 5, 20)
            if smoke
            else (1e4, (60, 20, 12), [100.0, 1000.0], [20.0, 200.0, 1000.0], 50, 500)
        )
        ops.append(_curve("holevo", "nonneg", log_targets(rng, 1e-2, top, counts[0]), "k_C"))
        ops.append(
            _curve("f1", "symmetric", log_targets(rng, 1e-2, top / 10, counts[1]), "k_C_prime")
        )
        ops.append(_curve("f2", "nonneg", log_targets(rng, 1e-2, top, counts[2]), "k_C"))
        for spectrum, rel_gap_max in (("nonneg", 1e-9), ("symmetric", 1e-8)):
            argv = ["series", "--spectrum", spectrum, "--targets", ",".join(map(repr, means))]
            ops.append({"kind": "cli", "argv": argv, "rel_gap_max": rel_gap_max})
        for spectrum in ("nonneg", "symmetric"):
            ops += [{"kind": "closed_form", "spectrum": spectrum, "z": z} for z in zs]
        # The verify suites are kept small: their interpreter-bound loops
        # swing most with the host's speed (see bench/README.md).
        for suite in ("inequalities", "povm", "bounds", "mzi", "probe"):
            argv = ["verify", suite, "--seed", str(rng.randrange(2**31))]
            argv += {"povm": ["--instances", str(instances)], "bounds": ["--states", str(states)]}.get(suite, [])
            ops.append({"kind": "cli", "argv": argv})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops}


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the child imports phaselim from ./src only
    return env


def _run(args: list[str], stdin: str | None, deadline: float) -> dict:
    """Run child.py to completion (killed at the deadline); return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    plan = make_plan(workload, seed, smoke)
    probes = 1 if smoke else SETUP_PROBES
    setup = [_run(["--probe"], None, deadline)["setup_s"] for _ in range(probes)]
    request = json.dumps({"plan": plan, "seconds": seconds, "trace": trace})
    child = _run([], request, deadline)
    setup.append(child["setup_s"])
    failed = len(child["failures"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "argv": [op.get("argv") or op for op in plan["ops"]],
        "setup_s_samples": setup,
        "wall_s_samples": child["untraced_s"],
        "wall_s_quartiles": quartiles(child["untraced_s"]),
        "failures": child["failures"],
        "environment": child["environment"],
    }
    if trace:
        layers = child["layers"]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead"] = child["overhead"]
        record["traced_wall_s_samples"] = child["traced_s"]
        record["layer_spread"] = {
            name: [min(m[name] for m in layers), max(m[name] for m in layers)]
            for name in layers[0]
            if name.endswith("_s")
        }
        record["spans_file"] = child["spans_file"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(child["untraced_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    return {
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


# ---------------------------------------------------------------- output


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(workload: str, result: dict, units: dict[str, str]) -> None:
    record = result["record"]
    rows = [(name, result["metrics"][name], units[name]) for name in units]
    if not record["trace"]:
        q1, _, q3 = record["wall_s_quartiles"]
        n = len(record["wall_s_samples"])
        notes = {
            "setup_s": f"median of {len(record['setup_s_samples'])} fresh processes",
            "wall_s": f"median of {n} passes, quartiles {q1:.4f}..{q3:.4f}",
        }
    else:
        notes = {"trace.overhead": "traced over untraced wall_s, minus 1"}
    print(f"# workload {workload}  seed {record['seed']}  trace {record['trace']}")
    for name, value, unit in rows:
        print(f"{workload:17s} {name:40s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:17s} {'fail_ratio':40s} {ratio:>14.6g} {'ratio':6s} "
          f"{result['failed']} of {result['attempted']} operations")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for a quick check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phaselim" / "__init__.py").is_file():
        print(f"no phaselim source under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: benchmark run failed: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"{workload}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ set(units))}", file=sys.stderr)
            return 1
        print_table(workload, result, units)
        results[workload] = result
    prefix = (lambda w: f"{w}.") if args.workload == "all" else (lambda w: "")
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefix(w) + name: {"value": value, "unit": units[name]}
            for w, r in results.items()
            for name, value in r["metrics"].items()
        },
    }
    records = {w: r["record"] for w, r in results.items()}
    print(json.dumps({"record": records if args.workload == "all" else records[args.workload]}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
