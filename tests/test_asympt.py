"""Tests for the analytic Bessel-state solutions and asymptotic series.

Expected values come from independent routes: direct moment and mean
summation on the constructed states, the eigensolver optimum at the
matching Lagrange multiplier, closed-form expressions in the Airy zeros,
and partial-sum gap measurements against the closed-form metrics.
"""

import math
import warnings

import numpy as np
import pytest

from phaselim import asympt, canonical, specfun, variational
from phaselim.states import Spectrum

Z_A = -2.338107410459767
Z_A_PRIME = -1.0187929716474713


def sign_align(reference: np.ndarray, vector: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(reference)))
    return vector if reference[i] * vector[i] >= 0.0 else -vector


@pytest.fixture(scope="module")
def f1_cost():
    return variational.cost_function("f1")


class TestConstants:
    def test_closed_forms(self):
        c = asympt.constants()
        assert c.k_A == pytest.approx(math.sqrt(2.0 * math.pi / math.e**3), rel=0.0)
        assert c.k_C == pytest.approx(2.0 * (abs(Z_A) / 3.0) ** 1.5, rel=1e-14)
        assert c.k_C_prime == pytest.approx(
            4.0 * (abs(Z_A_PRIME) / 3.0) ** 1.5, rel=1e-14
        )

    def test_four_decimal_values(self):
        c = asympt.constants()
        assert f"{c.k_A:.4f}" == "0.5593"
        assert f"{c.k_C:.4f}" == "1.3761"
        assert f"{c.k_C_prime:.4f}" == "0.7916"

    def test_leading_coefficients_are_squared_constants(self):
        c = asympt.constants()
        b = asympt.nonneg_series_expansion().coefficients
        d = asympt.symmetric_series_expansion().coefficients
        assert b[0] == pytest.approx(c.k_C**2, rel=1e-14)
        assert d[0] == pytest.approx(c.k_C_prime**2, rel=1e-14)


class TestSeriesExpansions:
    def test_nonneg_coefficient_decimals(self):
        b = asympt.nonneg_series_expansion().coefficients
        assert [f"{v:.4f}" for v in b] == [
            "1.8936",
            "2.1514",
            "2.0424",
            "1.9050",
            "1.8906",
        ]

    def test_symmetric_coefficient_decimals(self):
        d = asympt.symmetric_series_expansion().coefficients
        assert [f"{v:.4f}" for v in d] == [
            "0.6266",
            "1.2533",
            "1.4868",
            "0.9341",
            "-0.6292",
        ]

    def test_coefficient_signs(self):
        b = asympt.nonneg_series_expansion().coefficients
        d = asympt.symmetric_series_expansion().coefficients
        assert np.all(b > 0.0)
        assert np.all(d[:4] > 0.0)
        assert d[4] < 0.0

    def test_structure(self):
        nn = asympt.nonneg_series_expansion()
        ss = asympt.symmetric_series_expansion()
        assert nn.variable == "N_plus_1"
        assert nn.exponents == (2, 4, 6, 8, 10)
        assert ss.variable == "two_J_plus_1"
        assert ss.exponents == (2, 3, 4, 5, 6)

    def test_evaluate_partial_sums(self):
        nn = asympt.nonneg_series_expansion()
        length = 37.0
        expected = 0.0
        for take in range(1, 6):
            expected += nn.coefficients[take - 1] / length ** nn.exponents[take - 1]
            assert nn.evaluate(length, terms=take) == pytest.approx(
                expected, rel=1e-15
            )
        assert nn.evaluate(length) == pytest.approx(
            nn.evaluate(length, terms=5), rel=0.0
        )

    def test_leading_term_is_scaling_constant(self):
        c = asympt.constants()
        length = 1001.0
        assert asympt.nonneg_series_expansion().evaluate(
            length, terms=1
        ) == pytest.approx(c.k_C**2 / length**2, rel=1e-14)
        assert asympt.symmetric_series_expansion().evaluate(
            length, terms=1
        ) == pytest.approx(c.k_C_prime**2 / length**2, rel=1e-14)

    def test_evaluate_terms_validation(self):
        nn = asympt.nonneg_series_expansion()
        with pytest.raises(ValueError):
            nn.evaluate(100.0, terms=0)
        with pytest.raises(ValueError):
            nn.evaluate(100.0, terms=6)

    def test_coefficient_exponent_mismatch(self):
        with pytest.raises(ValueError):
            asympt.SeriesExpansion(
                variable="N_plus_1",
                exponents=(2, 4),
                coefficients=np.array([1.0, 2.0, 3.0]),
            )


class TestSeriesRegime:
    def test_warns_below_regime(self):
        for kind in ("nonneg", "symmetric"):
            with pytest.warns(RuntimeWarning, match="below the series regime"):
                asympt.asymptotic_bounds_on_delta(9.99, kind)

    def test_silent_in_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("nonneg", "symmetric"):
                asympt.asymptotic_bounds_on_delta(10.0, kind)


class TestBesselStateNonneg:
    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_defining_recurrence(self, z):
        result = asympt.bessel_state_nonneg(z)
        psi = result["state"].amplitudes
        x = result["x"]
        padded = np.concatenate([[0.0], psi, [0.0]])
        n = np.arange(psi.size)
        residual = padded[:-2] + padded[2:] - 2.0 * ((x + 1.0) / z + n / z) * psi
        assert np.max(np.abs(residual)) <= 1e-9

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_mean_closed_form_vs_direct(self, z):
        result = asympt.bessel_state_nonneg(z)
        state = result["state"]
        direct = math.fsum(np.arange(state.dimension) * state.amplitudes**2)
        assert result["nbar"] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_first_moment_closed_form_vs_direct(self, z):
        result = asympt.bessel_state_nonneg(z)
        psi = result["state"].amplitudes
        c1 = float(psi[1:] @ psi[:-1])
        assert abs(result["e_itheta"] - c1) <= 1e-8

    @pytest.mark.parametrize("z", [20.0, 200.0])
    def test_first_moment_order_derivative_route(self, z):
        result = asympt.bessel_state_nonneg(z)
        x = result["x"]
        alternative = specfun.bessel_j(x + 1.0, z) / specfun.bessel_j_dorder(x, z)
        assert abs(result["e_itheta"] - alternative) <= 1e-8

    def test_truncation_and_normalization(self):
        result = asympt.bessel_state_nonneg(50.0)
        psi = result["state"].amplitudes
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi[-1]) <= 1e-15 * np.max(np.abs(psi))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            asympt.bessel_state_nonneg(1.0)
        with pytest.raises(ValueError):
            asympt.bessel_state_nonneg(-3.0)


class TestBesselStateSymmetric:
    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_matching_condition(self, z):
        x = asympt.bessel_state_symmetric(z)["x"]
        gap = specfun.bessel_j(x - 1.0, z) - specfun.bessel_j(x + 1.0, z)
        assert abs(gap) <= 1e-9

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_mean_closed_form_vs_direct(self, z):
        result = asympt.bessel_state_symmetric(z)
        state = result["state"]
        weights = np.abs(state.spectrum.values())
        direct = math.fsum(weights * state.amplitudes**2)
        assert result["jbar_abs"] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_first_moment_closed_form_vs_direct(self, z):
        result = asympt.bessel_state_symmetric(z)
        psi = result["state"].amplitudes
        c1 = float(psi[1:] @ psi[:-1])
        assert abs(result["e_itheta"] - c1) <= 1e-8

    def test_even_symmetry(self):
        psi = asympt.bessel_state_symmetric(35.0)["state"].amplitudes
        assert np.array_equal(psi, psi[::-1])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            asympt.bessel_state_symmetric(0.5)


class TestOracleEquivalence:
    """The closed-form states are the eigensolver optima at beta = 1/z."""

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0, 1000.0])
    def test_nonneg(self, z, f1_cost):
        result = asympt.bessel_state_nonneg(z)
        state = result["state"]
        cutoff = max(100, 2 * (state.dimension - 1))
        point = variational.solve_point(
            f1_cost, Spectrum(kind="nonneg", cutoff=cutoff), 1.0 / z
        )
        holevo = 1.0 / result["e_itheta"] ** 2 - 1.0
        assert point.delta_H**2 == pytest.approx(holevo, rel=1e-7)
        assert point.mean_constraint == pytest.approx(result["nbar"], rel=1e-7)
        padded = np.zeros(point.state.dimension)
        padded[: state.dimension] = state.amplitudes
        aligned = sign_align(padded, point.state.amplitudes)
        assert np.max(np.abs(aligned - padded)) <= 1e-8

    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0, 1000.0])
    def test_symmetric(self, z, f1_cost):
        result = asympt.bessel_state_symmetric(z)
        state = result["state"]
        half = (state.dimension - 1) // 2
        point = variational.solve_point(
            f1_cost, Spectrum(kind="symmetric", cutoff=max(100, 2 * half)), 1.0 / z
        )
        delta1_sq = 2.0 * (1.0 - result["e_itheta"])
        assert point.delta_1**2 == pytest.approx(delta1_sq, rel=1e-7)
        assert point.mean_constraint == pytest.approx(result["jbar_abs"], rel=1e-7)
        padded = np.zeros(point.state.dimension)
        offset = point.state.spectrum.cutoff - half
        padded[offset : offset + state.dimension] = state.amplitudes
        aligned = sign_align(padded, point.state.amplitudes)
        assert np.max(np.abs(aligned - padded)) <= 1e-8


class TestSeriesVsSolver:
    def test_nonneg_at_mean_1000(self, f1_cost):
        point = variational.sweep_curve(f1_cost, "nonneg", [1000.0])[0]
        numeric = point.delta_H**2
        series = asympt.nonneg_series_expansion().evaluate(point.scale_factor)
        assert numeric == pytest.approx(series, rel=1e-9, abs=0.0)

    def test_symmetric_at_mean_1000(self, f1_cost):
        point = variational.sweep_curve(f1_cost, "symmetric", [1000.0])[0]
        numeric = point.delta_1**2
        series = asympt.symmetric_series_expansion().evaluate(point.scale_factor)
        assert numeric == pytest.approx(series, rel=1e-8, abs=0.0)


class TestRemainderOrder:
    def test_nonneg_partial_sum_gaps_shrink(self):
        result = asympt.bessel_state_nonneg(1e4)
        holevo = 1.0 / result["e_itheta"] ** 2 - 1.0
        length = result["nbar"] + 1.0
        expansion = asympt.nonneg_series_expansion()
        gaps = [
            abs(holevo - expansion.evaluate(length, terms=k)) for k in range(1, 6)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-9 * holevo

    def test_symmetric_partial_sum_gaps_shrink(self):
        result = asympt.bessel_state_symmetric(1e4)
        delta1_sq = 2.0 * (1.0 - result["e_itheta"])
        length = 2.0 * result["jbar_abs"] + 1.0
        expansion = asympt.symmetric_series_expansion()
        gaps = [
            abs(delta1_sq - expansion.evaluate(length, terms=k)) for k in range(1, 6)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5 * delta1_sq


class TestAsymptoticBounds:
    def test_nonneg_closed_forms(self):
        length = 101.0
        a = abs(Z_A) ** 3
        bounds = asympt.asymptotic_bounds_on_delta(100.0, "nonneg")
        lower = 4.0 * a / (27.0 * length**2) - 16.0 * a**2 / (10935.0 * length**4)
        upper = 4.0 * a / (27.0 * length**2) + (math.pi**2 - 4.0) * a / (
            54.0 * length**3
        )
        assert bounds["lower"] == pytest.approx(lower, rel=1e-12)
        assert bounds["upper"] == pytest.approx(upper, rel=1e-12)

    def test_symmetric_closed_forms(self):
        length = 201.0
        p = abs(Z_A_PRIME) ** 3
        bounds = asympt.asymptotic_bounds_on_delta(100.0, "symmetric")
        assert bounds["lower"] == pytest.approx(
            16.0 * p / (27.0 * length**2), rel=1e-12
        )
        assert bounds["upper"] == pytest.approx(
            16.0 * p / (27.0 * length**2) + 32.0 * p / (27.0 * length**3), rel=1e-12
        )

    def test_bracketing_at_mean_100(self, f1_cost):
        point = variational.sweep_curve(f1_cost, "nonneg", [100.0])[0]
        delta_sq = point.delta**2
        delta3_sq = point.delta_3**2
        bounds = asympt.asymptotic_bounds_on_delta(point.mean_constraint, "nonneg")
        assert bounds["lower"] <= delta_sq <= delta3_sq
        assert delta_sq <= bounds["upper"]
        # the truncated upper tracks delta3^2 to its own remainder order,
        # sitting ~1e-4 relative below it at this mean
        assert delta3_sq == pytest.approx(bounds["upper"], rel=1e-3)

    def test_symmetric_lower_at_mean_100(self, f1_cost):
        point = variational.sweep_curve(f1_cost, "symmetric", [100.0])[0]
        delta1_sq = point.delta_1**2
        bounds = asympt.asymptotic_bounds_on_delta(
            point.mean_constraint, "symmetric"
        )
        assert bounds["lower"] <= delta1_sq
        assert delta1_sq == pytest.approx(bounds["upper"], rel=1e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            asympt.asymptotic_bounds_on_delta(100.0, "negative")
        for kind, target in (("Nonneg", 1000.0), ("bogus", 5.0)):
            with pytest.raises(ValueError, match=r"kind must be one of \('nonneg', 'symmetric'\)"):
                variational.default_cutoff(kind, target)
