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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import __version__, asympt, canonical, estimators, povm, variational

__all__ = ["RunConfig", "main", "parse_range"]

_EXIT_OK = 0
_EXIT_VERIFICATION = 1
_EXIT_CONFIG = 2
_EXIT_SOLVER = 3

_MARGIN_TOL = -1e-12  # margins this negative count as violations


@dataclass
class RunConfig:
    """Parsed invocation: one command plus every knob it may read."""

    command: str
    metric: str = "holevo"
    spectrum: str = "nonneg"
    targets: list[float] = field(default_factory=list)
    grid_points: int = 1_000_000
    instances: int = 100
    states: int = 1000
    max_dimension: int = 200
    seed: int = 20240901
    visibility: float = 0.99
    suite: str = "inequalities"
    output: str = "-"


def parse_range(spec: str) -> list[float]:
    """Parse ``min:max:COUNTlog`` or ``min:max:COUNTlin`` into a grid."""
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


def _base_metadata(config: RunConfig) -> dict:
    return {
        "version": __version__,
        "command": config.command,
    }


_METRIC_COST = {
    "holevo": "f1",
    "f1": "f1",
    "f2": "f2",
    "amse": "theta_sq",
}

_METRIC_COLUMN = {
    "holevo": "delta_H",
    "f1": "delta_1",
    "f2": "delta_2",
    "amse": "delta",
}


def cmd_curve(config: RunConfig) -> int:
    cost = variational.cost_function(
        _METRIC_COST[config.metric],
        m_max=1 if _METRIC_COST[config.metric] == "theta_sq" else None,
    )
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
    header = [
        "mean",
        "delta",
        "delta_H",
        "delta_1",
        "delta_2",
        "delta_3",
        "scaled",
        "beta",
        "cutoff",
        "residual",
        "tail_mass",
    ]
    if not config.targets:
        _emit(config.output, metadata, header, [])
        return _EXIT_OK
    points = variational.sweep_curve(cost, config.spectrum, sorted(config.targets))
    rows = []
    for point in points:
        metric_value = getattr(point, _METRIC_COLUMN[config.metric])
        rows.append(
            [
                point.mean_constraint,
                point.delta,
                point.delta_H,
                point.delta_1,
                point.delta_2,
                point.delta_3,
                point.scale_factor * metric_value,
                point.beta,
                point.cutoff,
                point.residual,
                point.tail_mass,
            ]
        )
    _emit(config.output, metadata, header, rows)
    return _EXIT_OK


def cmd_series(config: RunConfig) -> int:
    if any(t < 10.0 for t in config.targets):
        print("series targets must be >= 10 (series regime)", file=sys.stderr)
        return _EXIT_CONFIG
    nonneg = config.spectrum == "nonneg"
    expansion = (
        asympt.nonneg_series_expansion()
        if nonneg
        else asympt.symmetric_series_expansion()
    )
    metadata = _base_metadata(config)
    metadata["spectrum"] = config.spectrum
    metadata["series_variable"] = expansion.variable
    for exponent, coeff in zip(expansion.exponents, expansion.coefficients):
        metadata[f"coefficient_{exponent}"] = f"{coeff:.10g}"
    cost = variational.cost_function("f1")
    points = variational.sweep_curve(cost, config.spectrum, sorted(config.targets))
    rows = []
    for point in points:
        numeric = point.delta_H**2 if nonneg else point.delta_1**2
        mean = point.mean_constraint
        series_value = (
            asympt.holevo_series(mean)
            if nonneg
            else asympt.symmetric_series(mean)
        )
        gap = numeric - series_value
        rows.append([mean, numeric, series_value, gap, gap / series_value])
    header = ["mean", "numeric", "series", "abs_gap", "rel_gap"]
    _emit(config.output, metadata, header, rows)
    return _EXIT_OK


def _verify_inequalities(config: RunConfig) -> list[tuple[str, float, float]]:
    theta = np.linspace(-math.pi, math.pi, config.grid_points)
    theta_sq = theta**2
    f1 = variational.cost_function("f1").evaluate(theta)
    f2 = variational.cost_function("f2").evaluate(theta)
    f3 = variational.cost_function("f3").evaluate(theta)
    return [
        ("theta_sq_minus_f1", float(np.min(theta_sq - f1)), _MARGIN_TOL),
        ("theta_sq_minus_f2", float(np.min(theta_sq - f2)), _MARGIN_TOL),
        ("f3_minus_theta_sq", float(np.min(f3 - theta_sq)), _MARGIN_TOL),
        ("f2_nonnegative", float(np.min(f2)), _MARGIN_TOL),
    ]


def _verify_povm(config: RunConfig) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(config.seed)
    seeds = rng.integers(0, 2**63 - 1, size=config.instances)
    lemma1 = lemma2 = generator = 0.0
    continuity = math.inf
    for seed in seeds:
        report = povm.verify_random_instance(int(seed), max_dimension=6)
        lemma1 = max(lemma1, report["lemma1_gap"])
        lemma2 = max(lemma2, report["lemma2_gap"])
        generator = max(generator, report["generator_gap"])
        continuity = min(continuity, report["continuity_margin"])
    return [
        ("lemma1_gap_max", 1e-10 - lemma1, _MARGIN_TOL),
        ("lemma2_gap_max", 1e-10 - lemma2, _MARGIN_TOL),
        ("generator_gap_max", 1e-12 - generator, _MARGIN_TOL),
        ("continuity_margin_min", continuity, _MARGIN_TOL),
    ]


def _random_state(
    rng: np.random.Generator, max_dimension: int
) -> canonical.ProbeState:
    kind = "nonneg" if rng.random() < 0.5 else "symmetric"
    if kind == "nonneg":
        cutoff = int(rng.integers(1, max_dimension))
    else:
        cutoff = int(rng.integers(1, max(2, max_dimension // 2)))
    spectrum = canonical.Spectrum(kind=kind, cutoff=cutoff)
    psi = rng.standard_normal(spectrum.dimension)
    if rng.random() < 0.3:  # sparse support exercises the width-based bounds
        keep = rng.random(spectrum.dimension) < 0.5
        keep[int(rng.integers(0, spectrum.dimension))] = True
        psi = np.where(keep, psi, 0.0)
    return canonical.ProbeState(
        spectrum=spectrum, amplitudes=psi / np.linalg.norm(psi)
    )


def _verify_bounds(config: RunConfig) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(config.seed)
    worst: dict[str, float] = {}
    for _ in range(config.states):
        state = _random_state(rng, config.max_dimension)
        report = canonical.verify_bounds(state)
        for name, margin in report.margins.items():
            worst[name] = min(worst.get(name, math.inf), margin)
    rows = [(f"state_{name}", margin, _MARGIN_TOL) for name, margin in sorted(worst.items())]
    family = canonical.max_entropy_bound_checks()
    rows.extend(
        (f"family_{name}", margin, _MARGIN_TOL)
        for name, margin in sorted(family.margins.items())
    )
    return rows


def _verify_mzi(config: RunConfig) -> list[tuple[str, float, float]]:
    model = estimators.MziModel(visibility=config.visibility)
    phi = np.linspace(1e-4, math.pi - 1e-4, 2001)
    curves = estimators.mzi_curves(model, phi)
    table = curves["table"]
    exact_mse = table["exact_rmse"] ** 2
    biased_mse = table["crb_biased_rmse"] ** 2
    bound_gap = float(np.max(np.abs(biased_mse - exact_mse)))
    prop_gap = float(np.max(np.abs(table["crb_uncorrected"] - table["error_propagation"])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad reports roundoff near machine eps
        quadrature, _ = quad(
            lambda t: float(model.exact_mse(np.asarray([t]))[0]),
            0.0,
            math.pi,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    amse_gap = abs(curves["scalars"]["amse"] - quadrature / math.pi)
    misleading = table["crb_uncorrected"] - table["exact_rmse"]
    floor_margin = curves["scalars"]["amse"] - (canonical.K_A / 1.5) ** 2
    return [
        ("biased_crb_equals_mse", 1e-12 - bound_gap, _MARGIN_TOL),
        ("uncorrected_equals_error_prop", 1e-12 - prop_gap, _MARGIN_TOL),
        ("amse_closed_form_vs_quadrature", 1e-12 - amse_gap, _MARGIN_TOL),
        ("naive_bound_violated_near_0", float(misleading[0]), _MARGIN_TOL),
        ("naive_bound_violated_near_pi", float(misleading[-1]), _MARGIN_TOL),
        ("amse_above_k_a_floor", floor_margin, _MARGIN_TOL),
    ]


def _verify_probe(config: RunConfig) -> list[tuple[str, float, float]]:
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
        (f"scaled_within_10pct_m{m}", 0.1 - abs(s / k_c - 1.0), _MARGIN_TOL)
        for m, s in zip(m_values, scaled)
    ]
    rows.append(
        ("scaled_monotone_toward_k_c", float(np.min(-np.diff(scaled))), _MARGIN_TOL)
    )
    rows.append(("upper_bound_above_floor", floors_ok, _MARGIN_TOL))
    return rows


_SUITES = {
    "inequalities": _verify_inequalities,
    "povm": _verify_povm,
    "bounds": _verify_bounds,
    "mzi": _verify_mzi,
    "probe": _verify_probe,
}


def cmd_verify(config: RunConfig) -> int:
    checks = _SUITES[config.suite](config)
    rows = []
    failures = 0
    for name, margin, threshold in checks:
        ok = margin >= threshold
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} margin={_format(margin)}")
        rows.append([name, margin, threshold, ok])
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
    defaults = RunConfig(command="")
    parser = argparse.ArgumentParser(
        prog="phaselim",
        description="Optimal phase-estimation accuracy: curves, series, verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spectrum", choices=["nonneg", "symmetric"], default=defaults.spectrum
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--range",
            dest="range_spec",
            help="target grid as min:max:COUNTlog or min:max:COUNTlin",
        )
        group.add_argument(
            "--targets", help="explicit comma-separated target mean values"
        )
        p.add_argument(
            "--output", default=defaults.output, help="output CSV path ('-' = stdout)"
        )

    curve = sub.add_parser("curve", help="trace a constrained-optimum curve")
    curve.add_argument(
        "--metric", choices=sorted(_METRIC_COST), default=defaults.metric
    )
    add_common(curve)

    series = sub.add_parser("series", help="eigensolver versus asymptotic series")
    add_common(series)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(_SUITES))
    verify.add_argument("--output", default=defaults.output, help="CSV report path")
    verify.add_argument("--seed", type=int, default=defaults.seed)
    verify.add_argument("--instances", type=int, default=defaults.instances)
    verify.add_argument("--states", type=int, default=defaults.states)
    verify.add_argument("--max-dimension", type=int, default=defaults.max_dimension)
    verify.add_argument("--grid-points", type=int, default=defaults.grid_points)
    verify.add_argument("--visibility", type=float, default=defaults.visibility)
    return parser


def _check_writable(path: str) -> None:
    """Raise ValueError unless the directory of ``path`` exists and is
    writable; the file is neither created nor truncated before the end."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EACCES)}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in vars(config):
        if getattr(args, name, None) is not None:
            setattr(config, name, getattr(args, name))
    if getattr(args, "range_spec", None):
        config.targets = parse_range(args.range_spec)
    elif getattr(args, "targets", None):
        config.targets = [float(t) for t in str(args.targets).split(",") if t]
    else:
        config.targets = []
    targets = config.targets
    if not all(math.isfinite(t) and t > 0.0 for t in targets):
        raise ValueError(f"target means must be finite and positive, got {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"target means must be distinct, got {targets}")
    if targets:
        cutoff = variational.default_cutoff(config.spectrum, max(targets))
        try:
            variational.check_dimension(
                canonical.Spectrum(kind=config.spectrum, cutoff=cutoff)
            )
        except ValueError as exc:
            raise ValueError(f"target mean {max(targets)}: {exc}") from None
    if not 0.0 < config.visibility <= 1.0:
        raise ValueError(f"visibility must be in (0, 1], got {config.visibility}")
    minimums = {"instances": 1, "states": 1, "max_dimension": 2, "grid_points": 2}
    for name, low in minimums.items():
        if getattr(config, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")
    if config.output != "-":
        _check_writable(config.output)
    return config


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
        if config.command == "curve":
            return cmd_curve(config)
        if config.command == "series":
            return cmd_series(config)
        return cmd_verify(config)
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
