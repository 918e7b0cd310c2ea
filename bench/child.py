"""Workload process of the phaselim benchmark; started by ``run.py``.

``python3 bench/child.py --probe`` times one fresh set-up (import of
``phaselim.cli`` and the first ``asympt.constants()``) and prints it.

``python3 bench/child.py < plan.json`` times the same set-up, then runs
the plan's operations in passes, checks every output, and prints one JSON
result line.  Heavy imports happen inside the timed set-up, never at module
import, so that the probe measures what a CLI invocation pays.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd().resolve()


def _timed_setup() -> float:
    start = time.perf_counter()
    import phaselim.cli  # noqa: F401
    from phaselim import asympt

    asympt.constants()
    elapsed = time.perf_counter() - start
    source = Path(phaselim.cli.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise SystemExit(f"phaselim imported from {source}, not from {ROOT / 'src'}")
    return elapsed


# ---------------------------------------------------------------- gates


@functools.cache
def _scaling_constants() -> tuple[float, float]:
    """k_C and k'_C from scipy's Airy zeros, independent of phaselim."""
    from scipy.special import ai_zeros

    a, ap, _, _ = ai_zeros(1)
    return 2.0 * (abs(float(a[0])) / 3.0) ** 1.5, 4.0 * (abs(float(ap[0])) / 3.0) ** 1.5


def _csv_rows(text: str) -> list[list[float]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def gate_curve(text: str, op: dict) -> list[str]:
    """Every row present and its scaled metric strictly above the floor."""
    k_c, k_c_prime = _scaling_constants()
    floor = k_c if op["floor"] == "k_C" else k_c_prime
    rows = _csv_rows(text)
    problems = []
    if len(rows) != op["targets"]:
        problems.append(f"{len(rows)} rows for {op['targets']} targets")
    for row in rows:
        scaled = row[6]  # header: mean,delta,delta_H,delta_1,delta_2,delta_3,scaled,...
        if not scaled > floor:
            problems.append(f"scaled {scaled!r} <= {op['floor']} at mean {row[0]!r}")
    return problems


def gate_series(text: str, op: dict) -> list[str]:
    """|rel_gap| within the pinned tolerance at mean 1e3."""
    rows = [row for row in _csv_rows(text) if abs(row[0] - 1000.0) <= 1e-3]
    if len(rows) != 1:
        return [f"expected one row at mean 1e3, got {len(rows)}"]
    rel_gap = abs(rows[0][4])
    if rel_gap <= op["rel_gap_max"]:
        return []
    return [f"rel_gap {rel_gap:.3e} > {op['rel_gap_max']:.0e} at mean 1e3"]


def gate_verify(text: str, op: dict) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("FAIL")]


GATES = {"curve": gate_curve, "series": gate_series, "verify": gate_verify}


def closed_form_gap(spectrum: str, z: float) -> float:
    """Max amplitude gap between the closed-form state and solve_point at beta = 1/z."""
    import numpy as np

    from phaselim import asympt, variational
    from phaselim.states import Spectrum

    closed = getattr(asympt, f"bessel_state_{spectrum}")(z)["state"]
    half = closed.spectrum.cutoff
    cutoff = max(100, 2 * half)
    point = variational.solve_point(
        variational.cost_function("f1"), Spectrum(kind=spectrum, cutoff=cutoff), 1.0 / z
    )
    padded = np.zeros(point.state.dimension)
    offset = 0 if spectrum == "nonneg" else point.state.spectrum.cutoff - half
    padded[offset : offset + closed.dimension] = closed.amplitudes
    vector = point.state.amplitudes
    if float(vector @ padded) < 0.0:
        vector = -vector
    return float(np.max(np.abs(vector - padded)))


# ---------------------------------------------------------------- passes


def run_op(op: dict) -> tuple[float, str, int, list[str]]:
    """Run one operation: (seconds inside phaselim, output, output bytes, problems)."""
    from phaselim import cli

    if op["kind"] == "closed_form":
        start = time.perf_counter()
        gap = closed_form_gap(op["spectrum"], op["z"])
        elapsed = time.perf_counter() - start
        problems = [] if gap <= 1e-8 else [f"eigenvector gap {gap:.3e} > 1e-8"]
        return elapsed, repr(gap), 0, problems
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op["argv"]))
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    problems = [] if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]
    if code == 0:
        problems += GATES[op["argv"][0]](text, op)
    return elapsed, text, len(text.encode("utf-8")), problems


class Runner:
    """Runs passes over the plan and keeps the tallies of every operation."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.reference: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, int]:
        """One closed-loop pass; returns (seconds inside phaselim, output bytes)."""
        wall = 0.0
        output_bytes = 0
        gc.collect()  # every pass starts from the same collector state
        for index, op in enumerate(self.ops):
            self.attempted += 1
            label = " ".join(op.get("argv", [])) or f"{op['kind']} {op.get('spectrum')} z={op.get('z')}"
            try:
                elapsed, text, size, problems = run_op(op)
            except Exception:  # one failed operation must not end the run
                self.failures.append(f"{label[:80]}: {traceback.format_exc(limit=3)}")
                continue
            wall += elapsed
            output_bytes += size
            if self.reference[index] is None:
                self.reference[index] = text
            elif text != self.reference[index]:
                problems.append("output differs from the first pass")
            if problems:
                self.failures.append(f"{label[:80]}: {'; '.join(problems[:3])}")
        return wall, output_bytes


def measure(plan: dict, seconds: float, trace: bool) -> dict:
    runner = Runner(plan["ops"])
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    span_runs = []
    start = time.perf_counter()
    passes: list[float] = []

    def more_time() -> bool:
        # Start another pass unless it would end well past ``seconds``, so
        # that a run of long passes still gets three of them for its median.
        return time.perf_counter() - start + statistics.median(passes) / 3 < seconds

    if not trace:
        while not passes or more_time():
            untraced.append(runner.run_pass()[0])
            passes.append(untraced[-1])
    else:
        from tracing import Tracer, layer_metrics

        # One untraced pass, two traced ones (so that counts can be compared),
        # then untraced and traced passes alternate while time remains.
        schedule = itertools.chain([False, True, True], itertools.cycle([False, True]))
        for traced_pass in schedule:
            if not traced_pass:
                untraced.append(runner.run_pass()[0])
                passes.append(untraced[-1])
                continue
            tracer = Tracer()
            with tracer.installed():
                wall, output_bytes = runner.run_pass()
            traced.append(wall)
            passes.append(wall)
            metrics = layer_metrics(tracer.spans)
            metrics["cli.output_bytes"] = output_bytes
            layers.append(metrics)
            span_runs.append((f"{plan['workload']}:{plan['seed']}:{len(traced)}", tracer.spans))
            if len(traced) >= 2 and not more_time():
                break
    result = {
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        from tracing import is_count, write_spans

        for name in layers[0]:
            if is_count(name) and len({m[name] for m in layers}) != 1:
                runner.failures.append(f"count {name} differs between traced passes")
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{plan['workload']}-{plan['seed']}.csv"
        write_spans(path, span_runs)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return result


def environment() -> dict:
    import numpy
    import scipy
    from run import THREAD_VARS

    blas = {}
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    cpu_model = l3 = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"setup_s": _timed_setup()}))
        return 0
    request = json.load(sys.stdin)
    setup_s = _timed_setup()
    result = measure(request["plan"], request["seconds"], request["trace"])
    result["setup_s"] = setup_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
