"""Batch command-line interface: curve data, series comparisons, verification.

Subcommands:

* ``curve``  — trace a constrained-optimum curve (one CSV row per target
  mean value) for a chosen metric and spectrum.
* ``series`` — compare eigensolver optima against the asymptotic series.
* ``verify`` — run a named verification suite (inequalities, povm, bounds,
  mzi, probe) and report margins; exit 1 on any violation.

Output is CSV (UTF-8, comma separator, 17 significant digits) preceded by
``# key=value`` metadata lines.  Identical configuration and seed produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

import numpy as np

from . import __version__, asympt, canonical, estimators, povm, states, variational

__all__ = ["main", "parse_range"]

_EXIT_OK = 0
_EXIT_VERIFICATION = 1
_EXIT_CONFIG = 2
_EXIT_SOLVER = 3

_GRID_CHUNK = 1 << 15  # verify inequalities: grid points evaluated at once
_MAX_TARGETS = 1_000_000  # curve/series: the largest --range COUNT
_MZI_NODES = 40  # verify mzi: Gauss-Legendre nodes of the AMSE quadrature


def parse_range(spec: str) -> list[float]:
    """Parse ``min:max:COUNTlog`` or ``min:max:COUNTlin`` into a grid; a
    COUNT above ``_MAX_TARGETS`` is rejected before the grid is built."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range spec must be min:max:countlog|lin, got {spec!r}")
    lo, hi = float(parts[0]), float(parts[1])
    count_text = parts[2]
    if count_text.endswith("log"):
        scale, count = "log", int(count_text[:-3])
    elif count_text.endswith("lin"):
        scale, count = "lin", int(count_text[:-3])
    else:
        raise ValueError(f"count must end in 'log' or 'lin', got {count_text!r}")
    if count < 1 or lo > hi or (scale == "log" and lo <= 0.0):
        raise ValueError(f"invalid range spec {spec!r}")
    if count > _MAX_TARGETS:
        raise ValueError(f"range spec {spec!r} asks for {count} targets, above {_MAX_TARGETS}")
    if count == 1:
        return [lo]
    if scale == "log":
        return list(np.logspace(math.log10(lo), math.log10(hi), count))
    return list(np.linspace(lo, hi, count))


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _emit(output: str, metadata: dict, header: list[str], rows: list[list]) -> None:
    """Assemble the whole file in memory, then write once (no partials)."""
    lines = [f"# {key}={_format(value)}" for key, value in metadata.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_format(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _base_metadata(config: argparse.Namespace) -> dict:
    return {"version": __version__, "command": config.command}


# curve metric -> (cost it is solved for, OptimalPoint field it reports)
_METRICS = {
    "holevo": ("f1", "delta_H"),
    "f1": ("f1", "delta_1"),
    "f2": ("f2", "delta_2"),
    "amse": ("theta_sq", "delta"),
}

# curve CSV columns, each the OptimalPoint field of its name except mean (the
# landed mean_constraint) and scaled (the metric's field times scale_factor)
_CURVE_COLUMNS = (
    "mean", "delta", "delta_H", "delta_1", "delta_2", "delta_3",
    "scaled", "beta", "cutoff", "residual", "tail_mass",
)

# series spectrum -> (its expansion in L, the f1 optimum's field that is squared)
_SERIES = {
    "nonneg": (asympt.nonneg_series_expansion, "delta_H"),
    "symmetric": (asympt.symmetric_series_expansion, "delta_1"),
}


def cmd_curve(config: argparse.Namespace) -> int:
    cost_name, column = _METRICS[config.metric]
    cost = variational.cost_function(cost_name)
    metadata = _base_metadata(config)
    metadata.update(
        {
            "metric": config.metric,
            "spectrum": config.spectrum,
            "cutoff_per_L": variational._CUTOFF_PER_L,
            "min_cutoff": variational._MIN_CUTOFF,
            "tail_rtol": variational._TAIL_RTOL,
            "mean_rtol": variational._MEAN_RTOL,
            "targets": len(config.targets),
        }
    )
    rows = []
    for point in variational.sweep_curve(cost, config.spectrum, sorted(config.targets)):
        own = {"mean": point.mean_constraint, "scaled": point.scale_factor * getattr(point, column)}
        rows.append([own[name] if name in own else getattr(point, name) for name in _CURVE_COLUMNS])
    _emit(config.output, metadata, list(_CURVE_COLUMNS), rows)
    return _EXIT_OK


def cmd_series(config: argparse.Namespace) -> int:
    expand, column = _SERIES[config.spectrum]
    expansion = expand()
    metadata = _base_metadata(config)
    metadata["spectrum"] = config.spectrum
    metadata["series_variable"] = expansion.variable
    for exponent, coeff in zip(expansion.exponents, expansion.coefficients):
        metadata[f"coefficient_{exponent}"] = f"{coeff:.10g}"
    cost = variational.cost_function("f1")
    rows = []
    for point in variational.sweep_curve(cost, config.spectrum, sorted(config.targets)):
        mean = point.mean_constraint
        numeric, value = getattr(point, column) ** 2, expansion.evaluate(point.scale_factor)
        rows.append([mean, numeric, value, numeric - value, (numeric - value) / value])
    _emit(config.output, metadata, ["mean", "numeric", "series", "abs_gap", "rel_gap"], rows)
    return _EXIT_OK


def _grid_chunks(points: int):
    """np.linspace(-pi, pi, points) in chunks of _GRID_CHUNK points, each
    built as linspace builds it (k * step - pi, the last point pi), so the
    whole grid is never held."""
    step = 2.0 * math.pi / (points - 1)
    for start in range(0, points, _GRID_CHUNK):
        chunk = np.arange(start, min(start + _GRID_CHUNK, points), dtype=float) * step - math.pi
        if start + chunk.size == points:
            chunk[-1] = math.pi
        yield chunk


def _verify_inequalities(config: argparse.Namespace) -> list[tuple[str, float]]:
    costs = [variational.cost_function(name) for name in ("f1", "f2", "f3")]
    worst = np.full(4, math.inf)
    for theta in _grid_chunks(config.grid_points):
        theta_sq, cosines = theta**2, [np.cos(theta), np.cos(2 * theta)]
        f1, f2, f3 = (cost.cosine_sum(cosines) for cost in costs)
        margins = [theta_sq - f1, theta_sq - f2, f3 - theta_sq, f2]
        np.minimum(worst, [np.min(margin) for margin in margins], out=worst)
    names = ("theta_sq_minus_f1", "theta_sq_minus_f2", "f3_minus_theta_sq", "f2_nonnegative")
    return [(name, float(margin)) for name, margin in zip(names, worst)]


def _verify_povm(config: argparse.Namespace) -> list[tuple[str, float]]:
    rng = np.random.default_rng(config.seed)
    seeds = rng.integers(0, 2**63 - 1, size=config.instances)
    lemma1 = lemma2 = generator = 0.0
    continuity = math.inf
    for seed in seeds:
        report = povm.verify_random_instance(int(seed))
        lemma1 = max(lemma1, report["lemma1_gap"])
        lemma2 = max(lemma2, report["lemma2_gap"])
        generator = max(generator, report["generator_gap"])
        continuity = min(continuity, report["continuity_margin"])
    return [
        ("lemma1_gap_max", 1e-10 - lemma1),
        ("lemma2_gap_max", 1e-10 - lemma2),
        ("generator_gap_max", 1e-12 - generator),
        ("continuity_margin_min", continuity),
    ]


def _random_state(rng: np.random.Generator, max_dimension: int) -> states.ProbeState:
    kind = "nonneg" if rng.random() < 0.5 or max_dimension < 3 else "symmetric"  # J >= 1: 3 rows
    spectrum = states.Spectrum(kind=kind, cutoff=1)
    cutoff = int(rng.integers(1, max(2, max_dimension // spectrum.sides)))
    spectrum = spectrum.with_cutoff(cutoff)
    psi = rng.standard_normal(spectrum.dimension)
    if rng.random() < 0.3:  # sparse support exercises the width-based bounds
        keep = rng.random(spectrum.dimension) < 0.5
        keep[int(rng.integers(0, spectrum.dimension))] = True
        psi = np.where(keep, psi, 0.0)
    return states.ProbeState(spectrum=spectrum, amplitudes=psi / np.linalg.norm(psi))


def _verify_bounds(config: argparse.Namespace) -> list[tuple[str, float]]:
    rng = np.random.default_rng(config.seed)
    probes = (_random_state(rng, config.max_dimension) for _ in range(config.states))
    worst: dict[str, float] = {}
    for report in canonical.bound_reports(probes):
        for name, margin in report.margins.items():
            worst[name] = min(worst.get(name, math.inf), margin)
    rows = [(f"state_{name}", margin) for name, margin in sorted(worst.items())]
    family = canonical.max_entropy_bound_checks()
    rows.extend((f"family_{name}", margin) for name, margin in sorted(family.margins.items()))
    return rows


def _mzi_amse_quadrature(model: estimators.MziModel) -> float:
    """The phase average of the exact MSE by Gauss-Legendre on [0, pi]: its
    integrand is entire, so 40 nodes match pi^2/3 - 2v to rounding."""
    x, w = np.polynomial.legendre.leggauss(_MZI_NODES)
    return 0.5 * float(w @ model.exact_mse(0.5 * math.pi * (x + 1.0)))


def _verify_mzi(config: argparse.Namespace) -> list[tuple[str, float]]:
    """The MZI bounds on a phi grid; the closed-form AMSE against quadrature."""
    model = estimators.MziModel(visibility=config.visibility)
    phi = np.linspace(1e-4, math.pi - 1e-4, 2001)
    curves = estimators.mzi_curves(model, phi)
    table = curves["table"]
    exact_mse = table["exact_rmse"] ** 2
    biased_mse = table["crb_biased_rmse"] ** 2
    bound_gap = float(np.max(np.abs(biased_mse - exact_mse)))
    # relative: both grow as 1/(v sin phi) at the ends of the grid
    propagation = table["error_propagation"]
    prop_gap = float(np.max(np.abs(table["crb_uncorrected"] - propagation) / propagation))
    amse_gap = abs(curves["scalars"]["amse"] - _mzi_amse_quadrature(model))
    misleading = table["crb_uncorrected"] - table["exact_rmse"]
    floor_margin = curves["scalars"]["amse"] - (canonical.K_A / 1.5) ** 2
    return [
        ("biased_crb_equals_mse", 1e-12 - bound_gap),
        ("uncorrected_equals_error_prop", 1e-12 - prop_gap),
        ("amse_closed_form_vs_quadrature", 1e-12 - amse_gap),
        ("naive_bound_violated_near_0", float(misleading[0])),
        ("naive_bound_violated_near_pi", float(misleading[-1])),
        ("amse_above_k_a_floor", floor_margin),
    ]


def _verify_probe(config: argparse.Namespace) -> list[tuple[str, float]]:
    k_c = asympt.constants().k_C
    m_values = [100, 10_000, 1_000_000]
    scaled = []
    floors_ok = math.inf
    for m in m_values:
        plan = estimators.ProbeScalingPlan(m=m, mu=1.0, delta_exp=1.0)
        result = estimators.probe_scaling_uncertainty(plan)
        scaled.append(result["upper_bound"] * math.sqrt(m * plan.mu))
        floors_ok = min(floors_ok, result["upper_bound"] - result["heis_floor"])
    rows = [
        (f"scaled_within_10pct_m{m}", 0.1 - abs(s / k_c - 1.0))
        for m, s in zip(m_values, scaled)
    ]
    rows.append(("scaled_monotone_toward_k_c", float(np.min(-np.diff(scaled)))))
    rows.append(("upper_bound_above_floor", floors_ok))
    return rows


_SUITES = {
    "inequalities": _verify_inequalities,
    "povm": _verify_povm,
    "bounds": _verify_bounds,
    "mzi": _verify_mzi,
    "probe": _verify_probe,
}

# Each suite-specific ``verify`` flag: the suite that reads it (given to any
# other suite, it is a configuration error), its default and its least valid
# value.  The visibility must lie in (0, 1] instead, and --seed be >= 0.
_SUITE_FLAGS = {
    "instances": ("povm", 100, 1),
    "states": ("bounds", 1000, 1),
    "max_dimension": ("bounds", 200, 2),
    "grid_points": ("inequalities", 1_000_000, 2),
    "visibility": ("mzi", 0.99, None),
}


def cmd_verify(config: argparse.Namespace) -> int:
    checks = _SUITES[config.suite](config)
    rows = []
    failures = 0
    for name, margin in checks:
        ok = margin >= canonical.MARGIN_TOL
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} margin={_format(margin)}")
        rows.append([name, margin, canonical.MARGIN_TOL, ok])
    metadata = _base_metadata(config)
    metadata.update({"suite": config.suite, "seed": config.seed, "checks": len(rows)})
    if config.suite == "mzi":
        metadata["visibility"] = config.visibility
    if config.output != "-":
        _emit(config.output, metadata, ["check", "margin", "threshold", "ok"], rows)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return _EXIT_VERIFICATION
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselim",
        description="Optimal phase-estimation accuracy: curves, series, verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spectrum", choices=["nonneg", "symmetric"], default="nonneg")
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--range",
            dest="range_spec",
            help="target grid as min:max:COUNTlog or min:max:COUNTlin",
        )
        group.add_argument("--targets", help="explicit comma-separated target mean values")
        p.add_argument("--output", default="-", help="output CSV path ('-' = stdout)")

    curve = sub.add_parser("curve", help="trace a constrained-optimum curve")
    curve.add_argument("--metric", choices=sorted(_METRICS), default="holevo")
    add_common(curve)

    series = sub.add_parser("series", help="eigensolver versus asymptotic series")
    add_common(series)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(_SUITES))
    verify.add_argument("--output", default="-", help="CSV report path")
    verify.add_argument("--seed", type=int, default=20240901)
    for name, (suite, default, _) in _SUITE_FLAGS.items():
        verify.add_argument(
            f"--{name.replace('_', '-')}",
            type=type(default),
            help=f"verify {suite} only (default {default})",
        )
    return parser


def _check_writable(path: str) -> None:
    """Raise ValueError unless ``path`` names no directory, its directory
    exists and is writable, and an existing file at it is writable; the
    file is neither created nor truncated before the end."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")
    if not os.access(folder, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EACCES)}")


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments and complete them in place: the target
    means become a list, an unset verify flag takes its default.  Raise
    ValueError on a configuration error, before any work is done."""
    if args.command == "verify":
        for name, (suite, default, _) in _SUITE_FLAGS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif args.suite != suite:
                flag = name.replace("_", "-")
                raise ValueError(f"--{flag} does not apply to verify {args.suite}")
        if not 0.0 < args.visibility <= 1.0:
            raise ValueError(f"visibility must be in (0, 1], got {args.visibility}")
        lows = [(name, low) for name, (_, _, low) in _SUITE_FLAGS.items() if low is not None]
        for name, low in [*lows, ("seed", 0)]:
            if getattr(args, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(args, name)}")
    else:
        if args.range_spec:
            targets = parse_range(args.range_spec)
        else:
            targets = [float(t) for t in (args.targets or "").split(",") if t]
        args.targets = targets
        if not all(math.isfinite(t) and t > 0.0 for t in targets):
            raise ValueError(f"target means must be finite and positive, got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"target means must be distinct, got {targets}")
        if args.command == "series" and any(t < asympt._SERIES_REGIME for t in targets):
            raise ValueError(
                f"series targets must be >= {asympt._SERIES_REGIME:g} (series regime)"
            )
        if targets:
            try:
                variational.default_cutoff(args.spectrum, max(targets))
            except ValueError as exc:
                raise ValueError(f"target mean {max(targets)}: {exc}") from None
    if args.output != "-":
        _check_writable(args.output)
    return args


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        commands = {"curve": cmd_curve, "series": cmd_series, "verify": cmd_verify}
        return commands[config.command](config)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except OSError as exc:
        print(
            f"configuration error: cannot write {config.output}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
