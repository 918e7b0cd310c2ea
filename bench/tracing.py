"""Span tracing of phaselim from outside the package.

``Tracer.installed()`` wraps every public function and every public method
of a public class in the phaselim modules, for the duration of a ``with``
block; the ``matvec`` of each matrix class counts matvecs.  Each wrapper is installed in every module namespace that
holds the function (``phaselim.variational.extremal_eigenpair`` as well as
``phaselim.eigensolve.extremal_eigenpair``), because callers look the name
up where they imported it.  Each wrapped call records one span: name,
start, end, parent span and a small annotation.  Spans stay in memory;
``write_spans`` saves them once the run is over.

Banded-Cholesky solves (the shift-invert applies of the banded path and the
preconditioner applies of the Toeplitz path) do not go through ``matvec``,
so they are not counted as matvecs.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from time import perf_counter

MODULES = (
    "specfun",
    "eigensolve",
    "canonical",
    "variational",
    "asympt",
    "povm",
    "estimators",
    "cli",
)
FAMILIES = ("tridiagonal", "banded", "toeplitz")

_EXTREMAL = "eigensolve.extremal_eigenpair"
_MATVEC = "eigensolve.matvec"
_SWEEP = "variational.sweep_curve"

# Span names measured together under one metric key.
_GROUPS = {
    "specfun.bessel_zero_in_order": "specfun.order_zero",
    "specfun.bessel_zero_in_order_deriv": "specfun.order_zero",
    "asympt.bessel_state_nonneg": "asympt.bessel_state",
    "asympt.bessel_state_symmetric": "asympt.bessel_state",
}

# Span layout: [name, start, end, parent index, annotation, raised]
NAME, START, END, PARENT, NOTE, RAISED = range(6)


def matrix_family(matrix) -> str:
    kind = type(matrix).__name__
    if kind == "ToeplitzPlusDiagonal":
        return "toeplitz"
    if kind == "BandedSymmetric":
        return "tridiagonal" if matrix.bandwidth <= 1 else "banded"
    return "dense"


def _note_extremal(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    ratio = None
    if result is not None:
        ratio = result.residual / max(matrix.norm_bound(), 1e-300)
    return (matrix_family(matrix), matrix.dimension, ratio)


def _note_sweep(args, kwargs, result):
    targets = args[2] if len(args) > 2 else kwargs["targets"]
    return len(targets)


def _note_matvec(args, kwargs, result):
    return matrix_family(args[0])


_NOTES = {_EXTREMAL: _note_extremal, _SWEEP: _note_sweep, _MATVEC: _note_matvec}


class Tracer:
    """Records the spans of the wrapped phaselim calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _call(self, name, note, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None, False]
        self.spans.append(span)
        self._open.append(index)
        result = None
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._open.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            return self._call(name, note, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public phaselim functions and methods inside the block."""
        package = importlib.import_module("phaselim")
        modules = [importlib.import_module(f"phaselim.{m}") for m in MODULES]
        names = {}
        patches = []
        for layer, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    names[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not method.startswith("_"):
                            name = _MATVEC if method == "matvec" else f"{layer}.{attr}.{method}"
                            patches.append((obj, method, fn, self._wrap(name, fn)))
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in names:
                    patches.append((namespace, attr, obj, self._wrap(names[obj], obj)))
        for namespace, attr, _, wrapper in patches:
            setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original, _ in patches:
                setattr(namespace, attr, original)


def _key(span) -> str:
    name = span[NAME]
    if name.startswith("estimators."):
        return "estimators"
    if name == _EXTREMAL:
        return f"eigensolve.{span[NOTE][0]}"
    if name == _MATVEC:
        return f"eigensolve.{span[NOTE]}.matvec"
    return _GROUPS.get(name, name)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``busy_s`` of a key sums the spans of that key that have no ancestor of
    the same key; ``self_s`` of a layer (the module a span belongs to) sums
    each span's duration minus the time its child spans cover.
    """
    keys = [_key(s) for s in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def has_ancestor(index: int, wanted) -> bool:
        parent = spans[index][PARENT]
        while parent >= 0:
            if wanted(parent):
                return True
            parent = spans[parent][PARENT]
        return False

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in MODULES}
    targets = sweep_solves = failures = 0
    max_dim = {family: 0 for family in FAMILIES}
    max_ratio = 0.0
    for index, span in enumerate(spans):
        key, duration = keys[index], span[END] - span[START]
        calls[key] = calls.get(key, 0) + 1
        if not has_ancestor(index, lambda p: keys[p] == key):
            busy[key] = busy.get(key, 0.0) + duration
        layer = span[NAME].split(".", 1)[0]
        self_time[layer] += duration - child_time[index]
        if span[NAME] == _SWEEP:
            targets += span[NOTE]
        elif span[NAME] == _EXTREMAL:
            family, dim, ratio = span[NOTE]
            if family in max_dim:
                max_dim[family] = max(max_dim[family], dim)
            failures += span[RAISED]
            if ratio is not None:
                max_ratio = max(max_ratio, ratio)
            sweep_solves += has_ancestor(index, lambda p: spans[p][NAME] == _SWEEP)

    out: dict[str, float] = {}
    for family in FAMILIES:
        key = f"eigensolve.{family}"
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.busy_s"] = busy.get(key, 0.0)
        out[f"{key}.matvecs"] = calls.get(f"{key}.matvec", 0)
        out[f"{key}.max_dim"] = max_dim[family]
    out["eigensolve.toeplitz.matvec_s"] = busy.get("eigensolve.toeplitz.matvec", 0.0)
    out["eigensolve.failures"] = failures
    out["eigensolve.max_residual_ratio"] = max_ratio
    out["variational.targets"] = targets
    out["variational.sweep_eigensolves"] = sweep_solves
    out["variational.eigensolves_per_target"] = sweep_solves / targets if targets else 0.0
    out["variational.sweep_curve.busy_s"] = busy.get(_SWEEP, 0.0)
    for key in (
        "variational.solve_point",
        "canonical.state_metrics",
        "canonical.all_moments",
        "canonical.verify_bounds",
        "specfun.order_zero",
        "asympt.bessel_state",
        "povm.verify_random_instance",
    ):
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.busy_s"] = busy.get(key, 0.0)
    out["specfun.bessel_j.calls"] = calls.get("specfun.bessel_j", 0)
    out["estimators.busy_s"] = busy.get("estimators", 0.0)
    out["cli.main.calls"] = calls.get("cli.main", 0)
    for layer in MODULES:
        out[f"{layer}.self_s"] = self_time[layer]
    out["trace.spans"] = len(spans)
    return out


def write_spans(path, runs: list[tuple[str, list[list]]]) -> None:
    """Write the spans of every traced pass as CSV, one row per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("run,span,parent,name,start_s,end_s,raised\n")
        for run_id, spans in runs:
            origin = spans[0][START] if spans else 0.0
            for index, span in enumerate(spans):
                handle.write(
                    f"{run_id},{index},{span[PARENT]},{span[NAME]},"
                    f"{span[START] - origin:.9f},{span[END] - origin:.9f},"
                    f"{int(span[RAISED])}\n"
                )


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly for a fixed seed."""
    return not (name.endswith("_s") or name.endswith("_ratio") or name == "trace.overhead")

