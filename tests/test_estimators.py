"""Tests for the biased-estimator analysis and scaling reference curves.

Expected values come from closed forms re-derived in the tests, adaptive
quadrature of the exact error integrand, and algebraic identities of the
two-outcome interferometer model.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from phaselim import estimators
from phaselim.asympt import constants

K_A = math.sqrt(2.0 * math.pi / math.e**3)
PHI_GRID = np.linspace(1e-4, math.pi - 1e-4, 2001)
VISIBILITIES = (0.5, 0.9, 0.99, 1.0)


class TestMziModel:
    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_probabilities_sum_to_one(self, v):
        plus, minus = estimators.MziModel(visibility=v).probabilities(PHI_GRID)
        assert np.max(np.abs(plus + minus - 1.0)) == 0.0
        assert np.all(plus >= 0.0) and np.all(minus >= 0.0)

    def test_visibility_validation(self):
        with pytest.raises(ValueError):
            estimators.MziModel(visibility=-0.1)
        with pytest.raises(ValueError):
            estimators.MziModel(visibility=1.1)

    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_rmse_at_half_pi(self, v):
        """cos(pi/2) = 0 makes both error branches (pi/2)^2, so the RMSE
        is pi/2 independent of the visibility."""
        model = estimators.MziModel(visibility=v)
        mse = float(model.exact_mse(np.asarray([math.pi / 2.0]))[0])
        assert math.sqrt(mse) == pytest.approx(math.pi / 2.0, rel=1e-15)

    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_amse_closed_form_vs_quadrature(self, v):
        model = estimators.MziModel(visibility=v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad roundoff report
            integral, _ = quad(
                lambda x: float(model.exact_mse(np.asarray([x]))[0]),
                0.0,
                math.pi,
                epsabs=1e-14,
                epsrel=1e-14,
            )
        assert model.amse() == pytest.approx(integral / math.pi, abs=1e-12)
        assert model.amse() == pytest.approx(math.pi**2 / 3.0 - 2.0 * v, rel=1e-15)

    def test_amse_above_mean_value_floor(self):
        """The single-photon probe has mean generator value 1/2, so the
        averaged error must respect (k_A / 1.5)^2."""
        floor = (K_A / 1.5) ** 2
        for v in VISIBILITIES:
            assert estimators.MziModel(visibility=v).amse() > floor


class TestBiasedCrb:
    """biased_crb(F, b, slope) = slope^2 / (m F) + b^2, slope = 1 + b'."""

    def test_unbiased_reduction(self):
        assert estimators.biased_crb(2.0, 0.0, 1.0) == pytest.approx(0.5, rel=0.0)
        assert estimators.biased_crb(2.0, 0.0, 1.0, m=4) == pytest.approx(
            0.125, rel=0.0
        )

    def test_zero_slope_leaves_bias_squared(self):
        assert estimators.biased_crb(3.0, 0.4, 0.0) == pytest.approx(0.16, rel=1e-15)
        assert estimators.biased_crb(0.0, 0.4, 0.0) == pytest.approx(0.16, rel=1e-15)

    def test_vanishing_fisher_with_slope_diverges(self):
        assert estimators.biased_crb(0.0, 0.1, 1.0) == math.inf
        assert estimators.biased_crb(-1.0, 0.1, 1.5) == math.inf

    def test_m_validation(self):
        with pytest.raises(ValueError):
            estimators.biased_crb(1.0, 0.0, 1.0, m=0)


class TestMziBias:
    def test_closed_forms(self):
        """<estimate> = pi p(-|phi) since the estimates are {0, pi}."""
        model = estimators.MziModel(visibility=0.8)
        bias = estimators.mzi_bias(model, PHI_GRID)
        _, minus = model.probabilities(PHI_GRID)
        assert np.max(np.abs(bias.values - (math.pi * minus - PHI_GRID))) <= 1e-14
        slope = 0.5 * math.pi * 0.8 * np.sin(PHI_GRID)
        assert np.max(np.abs(bias.slope - slope)) <= 1e-14
        assert np.array_equal(bias.derivative, bias.slope - 1.0)

    def test_domain_validation(self):
        model = estimators.MziModel(visibility=0.8)
        with pytest.raises(ValueError):
            estimators.mzi_bias(model, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            estimators.mzi_bias(model, np.array([1.0, math.pi]))

    def test_bias_function_validation(self):
        phi = np.linspace(0.1, 3.0, 50)
        values = np.sin(phi)
        slope = 1.0 + np.cos(phi)
        estimators.BiasFunction(phi=phi, values=values, slope=slope)  # valid
        with pytest.raises(ValueError):  # slope inconsistent
            estimators.BiasFunction(phi=phi, values=values, slope=1.0 - np.cos(phi))
        with pytest.raises(ValueError):  # bias beyond 2 pi
            estimators.BiasFunction(phi=phi, values=7.0 * values, slope=1.0 + 7.0 * np.cos(phi))
        with pytest.raises(ValueError):  # unsorted grid
            estimators.BiasFunction(phi=phi[::-1], values=values, slope=slope)
        with pytest.raises(ValueError):  # shape mismatch
            estimators.BiasFunction(phi=phi, values=values[:-1], slope=slope)


class TestMziCurves:
    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_bias_corrected_bound_is_exact(self, v):
        table = estimators.mzi_curves(estimators.MziModel(visibility=v), PHI_GRID)[
            "table"
        ]
        gap = np.max(np.abs(table["crb_biased_rmse"] ** 2 - table["exact_rmse"] ** 2))
        assert gap <= 2e-12

    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_uncorrected_bound_equals_error_propagation(self, v):
        table = estimators.mzi_curves(estimators.MziModel(visibility=v), PHI_GRID)[
            "table"
        ]
        gap = np.max(np.abs(table["crb_uncorrected"] - table["error_propagation"]))
        assert gap <= 1e-11

    @pytest.mark.parametrize("v", VISIBILITIES)
    def test_uncorrected_bound_understates_the_error(self, v):
        """The unbiased-case bound falls strictly below the actual
        mean-square error somewhere on the grid for every visibility; on
        the root-error scale the crossing exists once v is large enough
        for the mid-range bound 1/v to dip under the error curve."""
        table = estimators.mzi_curves(estimators.MziModel(visibility=v), PHI_GRID)[
            "table"
        ]
        assert np.min(table["crb_uncorrected"] - table["exact_rmse"] ** 2) < 0.0
        if v >= 0.9:
            misleading = table["crb_uncorrected"] < table["exact_rmse"]
            assert np.any(misleading & (PHI_GRID < math.pi / 2.0))
            assert np.any(misleading & (PHI_GRID > math.pi / 2.0))

    def test_endpoint_divergence(self):
        table = estimators.mzi_curves(estimators.MziModel(visibility=0.99), PHI_GRID)[
            "table"
        ]
        assert table["crb_uncorrected"][0] > 100.0
        assert table["crb_uncorrected"][-1] > 100.0
        assert np.isfinite(table["exact_rmse"]).all()

    def test_scalars(self):
        curves = estimators.mzi_curves(estimators.MziModel(visibility=0.99), PHI_GRID)
        scalars = curves["scalars"]
        assert scalars["amse"] == pytest.approx(math.pi**2 / 3.0 - 1.98, rel=1e-15)
        assert scalars["qcrb"] == pytest.approx(1.0 / 0.99, rel=1e-15)
        assert scalars["hhb"] == pytest.approx(1.0, rel=0.0)
        assert scalars["delta_n"] == 0.5

    def test_zero_visibility_rejected(self):
        with pytest.raises(ValueError):
            estimators.mzi_curves(estimators.MziModel(visibility=0.0), PHI_GRID)


class TestProbeScalingPlan:
    def test_small_mu_regime(self):
        plan = estimators.ProbeScalingPlan(m=10_000, mu=1.0, delta_exp=1.0)
        assert plan.regime == "small-mu"
        assert plan.n == pytest.approx(100.0, rel=1e-12)

    def test_large_mu_regime(self):
        plan = estimators.ProbeScalingPlan(m=1, mu=100.0, delta_exp=1.0)
        assert plan.regime == "large-mu"
        assert plan.n == pytest.approx(100.0, rel=0.0)

    def test_regime_boundary(self):
        # mu^delta == m is not strictly greater: small-mu side
        plan = estimators.ProbeScalingPlan(m=100, mu=100.0, delta_exp=1.0)
        assert plan.regime == "small-mu"
        assert plan.n == pytest.approx((100 * 100.0) ** 0.5, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimators.ProbeScalingPlan(m=0, mu=1.0, delta_exp=1.0)
        with pytest.raises(ValueError):
            estimators.ProbeScalingPlan(m=1, mu=-1.0, delta_exp=1.0)
        with pytest.raises(ValueError):
            estimators.ProbeScalingPlan(m=1, mu=1.0, delta_exp=0.0)


class TestProbeScalingUncertainty:
    def test_reference_example(self):
        """m = 10^4 copies at unit mean: working mean 100, accuracy just
        above k_C/100 (next-order correction ~0.4%), negligible failure
        mass."""
        plan = estimators.ProbeScalingPlan(m=10_000, mu=1.0, delta_exp=1.0)
        result = estimators.probe_scaling_uncertainty(plan)
        k_c = constants().k_C
        assert result["n"] == pytest.approx(100.0)
        assert k_c / 100.0 < result["upper_bound"] < 1.01 * k_c / 100.0
        assert result["p_fail"] <= 1e-40

    def test_scaled_bound_approaches_sharp_constant(self):
        k_c = constants().k_C
        ratios = []
        for m in (100, 10_000, 1_000_000):
            plan = estimators.ProbeScalingPlan(m=m, mu=1.0, delta_exp=1.0)
            result = estimators.probe_scaling_uncertainty(plan)
            ratios.append(
                result["upper_bound"] * math.sqrt(m * plan.mu) / k_c
            )
        assert all(r > 1.0 for r in ratios)
        assert ratios[0] < 1.1
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_upper_bound_monotone_in_m(self):
        values = []
        for m in (16, 64, 256, 1024, 4096):
            plan = estimators.ProbeScalingPlan(m=m, mu=1.0, delta_exp=1.0)
            values.append(
                estimators.probe_scaling_uncertainty(plan)["upper_bound"]
            )
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_floor_single_copy_reduction(self):
        plan = estimators.ProbeScalingPlan(m=1, mu=5.0, delta_exp=1.0)
        result = estimators.probe_scaling_uncertainty(plan)
        assert result["heis_floor"] == pytest.approx(K_A / 6.0, rel=1e-15)

    def test_upper_bound_above_floor(self):
        for m in (100, 10_000):
            plan = estimators.ProbeScalingPlan(m=m, mu=1.0, delta_exp=1.0)
            result = estimators.probe_scaling_uncertainty(plan)
            assert result["upper_bound"] > result["heis_floor"]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            estimators.probe_scaling_uncertainty(
                estimators.ProbeScalingPlan(m=1, mu=1.0, delta_exp=1.0)
            )
