"""End-to-end acceptance checks for the phase-accuracy toolkit.

One test per acceptance criterion; each prints a single
``[criterion NN] <name>: PASS|FAIL`` line (shown with ``-s``/``-rA``; the
pytest verbose line mirrors it one-to-one).  Expensive sweeps run at desk
scale: means up to 1e4 (nonnegative spectrum), 1e3 (symmetric), dense
solves to 3e3 and banded ones to 1e5.  Tolerances are pinned, not tuned.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from phaselim import asympt, cli, variational
from phaselim.canonical import Spectrum

K = asympt.constants()


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:02d}] {name}: {status}")
    assert not failures, "; ".join(failures)


def _run_suite(failures: list[str], capsys, argv: list[str]) -> None:
    code = cli.main(argv)
    captured = capsys.readouterr()
    _check(failures, code == 0, f"{' '.join(argv)} exited {code}")
    for line in captured.out.splitlines():
        _check(failures, not line.startswith("FAIL"), line)


@pytest.fixture(scope="module")
def f1_cost():
    return variational.cost_function("f1")


@pytest.fixture(scope="module")
def holevo_sweep(f1_cost):
    targets = list(np.logspace(-2.0, 4.0, 60))
    return variational.sweep_curve(f1_cost, "nonneg", targets)


DENSE_TARGETS = list(np.logspace(-2.0, math.log10(3e3), 12))


@pytest.fixture(scope="module")
def dense_sweep():
    cost = variational.cost_function("theta_sq")
    return variational.sweep_curve(cost, "nonneg", DENSE_TARGETS)


@pytest.fixture(scope="module")
def f1_at_dense_targets(f1_cost):
    return variational.sweep_curve(f1_cost, "nonneg", DENSE_TARGETS)


@pytest.fixture(scope="module")
def f2_sweep():
    cost = variational.cost_function("f2")
    return variational.sweep_curve(cost, "nonneg", list(np.logspace(-2.0, 5.0, 8)))


SYM_TARGETS = list(np.logspace(-2.0, 3.0, 11))


@pytest.fixture(scope="module")
def symmetric_f1_sweep(f1_cost):
    return variational.sweep_curve(f1_cost, "symmetric", SYM_TARGETS)


@pytest.fixture(scope="module")
def symmetric_dense_sweep():
    cost = variational.cost_function("theta_sq")
    return variational.sweep_curve(cost, "symmetric", SYM_TARGETS)


def test_c01_scaling_constants_to_4dp():
    failures: list[str] = []
    _check(failures, f"{K.k_A:.4f}" == "0.5593", f"k_A = {K.k_A!r}")
    _check(failures, f"{K.k_C:.4f}" == "1.3761", f"k_C = {K.k_C!r}")
    _check(failures, f"{K.k_C_prime:.4f}" == "0.7916", f"k'_C = {K.k_C_prime!r}")
    _check(
        failures,
        K.k_A == pytest.approx(math.sqrt(2.0 * math.pi / math.e**3), rel=1e-14),
        "k_A does not match sqrt(2 pi / e^3)",
    )
    _report(1, "scaling constants to 4 decimal places", failures)


def test_c02_holevo_curve_floor_and_limit(holevo_sweep):
    failures: list[str] = []
    scaled_h = np.array([p.scale_factor * p.delta_H for p in holevo_sweep])
    scaled_1 = np.array([p.scale_factor * p.delta_1 for p in holevo_sweep])
    _check(
        failures,
        bool(np.all(scaled_h > K.k_C)),
        f"min scaled delta_H - k_C = {scaled_h.min() - K.k_C:.3e}",
    )
    tail_gap = scaled_h[-1] - K.k_C
    _check(
        failures,
        0.0 < tail_gap <= 1e-4,
        f"scaled delta_H at mean 1e4 is {tail_gap:.3e} above k_C",
    )
    _check(
        failures,
        bool(np.min(scaled_1) < K.k_C),
        "scaled delta_1 never dips below k_C",
    )
    _report(2, "scaled Holevo curve stays above k_C and meets it at 1e4", failures)


def test_c03_dense_curve_floor_and_ordering(
    dense_sweep, f1_at_dense_targets, f2_sweep
):
    failures: list[str] = []
    scaled_d = np.array([p.scale_factor * p.delta for p in dense_sweep])
    _check(
        failures,
        bool(np.all(scaled_d > K.k_C)),
        f"min scaled delta - k_C = {scaled_d.min() - K.k_C:.3e}",
    )
    scaled_2 = np.array([p.scale_factor * p.delta_2 for p in f2_sweep])
    _check(
        failures,
        bool(np.all(scaled_2 > K.k_C)),
        f"min scaled delta_2 - k_C = {scaled_2.min() - K.k_C:.3e}",
    )
    for tight, loose in zip(dense_sweep, f1_at_dense_targets):
        lower = math.acos(max(-1.0, 1.0 - loose.delta_1**2 / 2.0))
        upper = loose.delta_3
        _check(
            failures,
            lower <= tight.delta,
            f"arccos lower bound exceeds delta at mean {tight.mean_constraint:.3g}",
        )
        _check(
            failures,
            tight.delta <= upper,
            f"delta exceeds delta_3 upper bound at mean {tight.mean_constraint:.3g}",
        )
    _report(3, "dense minimum above k_C with arccos/delta_3 bracketing", failures)


def test_c04_symmetric_curves_above_k_c_prime(
    symmetric_f1_sweep, symmetric_dense_sweep
):
    failures: list[str] = []
    for label, values in (
        ("delta_H", [p.scale_factor * p.delta_H for p in symmetric_f1_sweep]),
        ("delta_1", [p.scale_factor * p.delta_1 for p in symmetric_f1_sweep]),
        ("delta", [p.scale_factor * p.delta for p in symmetric_dense_sweep]),
    ):
        worst = min(values) - K.k_C_prime
        _check(failures, worst > 0.0, f"scaled {label} - k'_C reaches {worst:.3e}")
    _report(4, "symmetric-spectrum curves stay above k'_C", failures)


def test_c05_series_coefficients_to_4dp():
    failures: list[str] = []
    nonneg = asympt.nonneg_series_expansion().coefficients
    symmetric = asympt.symmetric_series_expansion().coefficients
    for got, want in zip(nonneg, (1.8936, 2.1514, 2.0424, 1.9050, 1.8906)):
        _check(failures, f"{got:.4f}" == f"{want:.4f}", f"{got!r} != {want}")
    for got, want in zip(symmetric, (0.6266, 1.2533, 1.4868, 0.9341, -0.6292)):
        _check(failures, f"{got:.4f}" == f"{want:.4f}", f"{got!r} != {want}")
    _report(5, "series coefficients to 4 decimal places", failures)


def test_c06_solver_matches_closed_forms(f1_cost, tmp_path):
    failures: list[str] = []
    for spectrum, tol in (("nonneg", 1e-9), ("symmetric", 1e-8)):
        out = tmp_path / f"{spectrum}.csv"
        code = cli.main(
            ["series", "--spectrum", spectrum, "--targets", "1000", "--output", str(out)]
        )
        _check(failures, code == 0, f"series {spectrum} exited {code}")
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        rel_gap = abs(float(row.split(",")[4]))
        _check(
            failures,
            rel_gap <= tol,
            f"{spectrum} series gap {rel_gap:.3e} > {tol:.0e} at mean 1e3",
        )
    for z in (20.0, 200.0, 1000.0):
        closed = asympt.bessel_state_nonneg(z)["state"]
        cutoff = max(100, 2 * (closed.dimension - 1))
        point = variational.solve_point(
            f1_cost, Spectrum(kind="nonneg", cutoff=cutoff), 1.0 / z
        )
        padded = np.zeros(point.state.dimension)
        padded[: closed.dimension] = closed.amplitudes
        vector = point.state.amplitudes
        if float(np.dot(vector, padded)) < 0.0:
            vector = -vector
        gap = float(np.max(np.abs(vector - padded)))
        _check(failures, gap <= 1e-8, f"z={z}: eigenvector gap {gap:.3e} > 1e-8")
    _report(6, "eigensolver matches series and closed-form states", failures)


def test_c07_pointwise_inequalities(capsys):
    failures: list[str] = []
    _run_suite(failures, capsys, ["verify", "inequalities"])
    _report(7, "cosine surrogates bracket theta^2 on 1e6 grid points", failures)


def test_c08_measurement_lemma_suite(capsys):
    failures: list[str] = []
    _run_suite(failures, capsys, ["verify", "povm", "--seed", "42", "--instances", "100"])
    _report(8, "covariant-measurement reductions on 100 random instances", failures)


def test_c09_interferometer_bounds(capsys):
    failures: list[str] = []
    _run_suite(failures, capsys, ["verify", "mzi", "--visibility", "0.99"])
    _report(9, "two-level interferometer error bounds at v = 0.99", failures)


def test_c10_entropy_and_width_bounds(capsys):
    failures: list[str] = []
    _run_suite(failures, capsys, ["verify", "bounds"])
    _report(10, "entropy and width bounds on 1000 random states", failures)


def test_c11_probe_scaling(capsys):
    failures: list[str] = []
    _run_suite(failures, capsys, ["verify", "probe"])
    _report(11, "multi-probe upper bound approaches k_C", failures)
