"""Special-function kernel tests: Airy zeros, real-order Bessel J, its
order-derivative, and zeros in order.

Reference values were computed with an independent high-precision oracle
(mpmath at 30 significant digits: bisection on besselj in the order
variable, term-wise differentiated power series for d/dnu, airyaizero)
and frozen here.
"""

import math

import numpy as np
import pytest
from scipy import special

from phaselim.specfun import (
    Z_A,
    Z_A_PRIME,
    bessel_j,
    bessel_j_dorder,
    bessel_zero_in_order,
    bessel_zero_in_order_deriv,
    order_deriv_zero_seed,
    order_zero_seed,
)

# mpmath oracle: airyaizero(1), airyaizero(2), airyaizero(1, derivative=1)
AIRY_FIRST = -2.33810741045976704
AIRY_SECOND = -4.08794944413097062
AIRY_PRIME_FIRST = -1.01879297164747109

# mpmath oracle: largest x with J_x(z) = 0 (bisection in the order)
ORDER_ZEROS = [
    (2.5, 0.0621100802426948),
    (5.0, 1.8933643874275373),
    (20.0, 15.0050978146850676),
    (200.0, 189.167114497555772),
    (1000.0, 981.453912493403956),
]

# mpmath oracle: largest x with J'_x(z) = 0
ORDER_DERIV_ZEROS = [
    (1.2, 0.5236854252270433),
    (2.0, 1.1254415221199840),
    (20.0, 17.8613231046581900),
    (1000.0, 991.9284322929579),
]

# mpmath oracle: term-wise differentiated series for dJ_nu/dnu at nu = 1/2
DORDER_HALF = [
    (1.0, -0.408103781378098014),
    (2.0, 0.340475087040769575),
    (5.0, -0.152300408442222998),
]

J0_FIRST_ARG_ZERO = 2.40482555769577277  # mpmath besseljzero(0, 1)


def straddles_the_sign_change(f, x: float) -> bool:
    """f changes sign (or vanishes) between x and a neighbouring double."""
    return any(f(x) * f(np.nextafter(x, side)) <= 0.0 for side in (-np.inf, np.inf))


def airy_ai(t):
    return special.airy(t)[0]


class TestAiry:
    def test_first_zero_definitional(self):
        assert abs(airy_ai(Z_A)) <= 1e-15
        assert abs(special.airy(Z_A_PRIME)[1]) <= 1e-15

    def test_zeros_match_oracle(self):
        assert Z_A == AIRY_FIRST
        assert abs(Z_A_PRIME - AIRY_PRIME_FIRST) <= math.ulp(AIRY_PRIME_FIRST)

    def test_independent_bisection_agrees(self):
        # plain bisection on Ai over [-3, -2], no derivative polish
        lo, hi = -3.0, -2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if airy_ai(mid) * airy_ai(lo) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(Z_A, abs=1e-12)

    def test_first_is_first(self):
        # no sign change of Ai between the first zero and 0
        samples = np.linspace(Z_A + 1e-6, -1e-6, 200)
        assert np.all(airy_ai(samples) > 0)
        assert AIRY_SECOND < Z_A


class TestBesselJ:
    def test_half_integer_closed_form(self):
        for z in (1.0, 2.0, 5.0):
            expected = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
            assert bessel_j(0.5, z) == pytest.approx(expected, rel=1e-12)

    def test_integer_zero(self):
        assert abs(bessel_j(0.0, J0_FIRST_ARG_ZERO)) <= 1e-10

    def test_recurrence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = float(rng.uniform(0.5, 1e4))
            x = float(rng.uniform(0.0, z))
            trio = [bessel_j(x - 1.0 + k, z) for k in range(3)]
            residual = trio[0] + trio[2] - (2.0 * x / z) * trio[1]
            scale = max(abs(t) for t in trio)
            assert abs(residual) <= 1e-10 * max(scale, 1e-250)

    def test_turning_point_region(self):
        # order within O(z^{1/3}) of z, where naive evaluation loses accuracy
        for z in (100.0, 1e4, 1e6):
            x = z - 2.0 * z ** (1.0 / 3.0)
            trio = [bessel_j(x - 1.0 + k, z) for k in range(3)]
            residual = trio[0] + trio[2] - (2.0 * x / z) * trio[1]
            assert abs(residual) <= 1e-10 * max(abs(t) for t in trio)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-1.5, 1.0)


class TestOrderDerivative:
    def test_series_oracle_half_order(self):
        for z, expected in DORDER_HALF:
            assert bessel_j_dorder(0.5, z) == pytest.approx(expected, rel=1e-7)

    def test_richardson_oracle(self):
        # independent Richardson-extrapolated central difference
        rng = np.random.default_rng(11)
        for _ in range(25):
            z = float(rng.uniform(1.0, 500.0))
            x = float(rng.uniform(0.0, z))
            h = 1e-5 * (1.0 + abs(x))
            if x - h < -1.0:
                continue

            def diff(step):
                return (bessel_j(x + step, z) - bessel_j(x - step, z)) / (2 * step)

            oracle = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
            assert bessel_j_dorder(x, z) == pytest.approx(oracle, rel=1e-6, abs=1e-12)


class TestOrderZeros:
    def test_oracle_table(self):
        for z, expected in ORDER_ZEROS:
            found = bessel_zero_in_order(z)
            assert found == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_j0_inversion(self):
        assert bessel_zero_in_order(J0_FIRST_ARG_ZERO) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_residual_and_largest(self):
        for z in (3.0, 47.0, 1e4, 1e6):
            x = bessel_zero_in_order(z)
            slope_scale = abs(bessel_j(x + 0.5, z))
            assert abs(bessel_j(x, z)) <= 1e-10 * max(slope_scale, 1e-12)
            for above in (0.1, 1.0, 5.0):
                assert bessel_j(x + above, z) > 0.0

    @pytest.mark.parametrize("z", [2.5, 3.0, 5.0, 47.0, 1e4, 1e6, 5e6])
    def test_root_is_resolved_to_adjacent_doubles(self, z):
        x = bessel_zero_in_order(z)
        assert straddles_the_sign_change(lambda t: special.jv(t, z), x)

    def test_seed_agreement_large_z(self):
        # the expansion used to seed the bracket is asymptotically exact
        z = 1000.0
        assert abs(bessel_zero_in_order(z) - order_zero_seed(z)) <= 1e-6

    def test_precondition(self):
        with pytest.raises(ValueError):
            bessel_zero_in_order(1.0)


class TestOrderDerivZeros:
    def test_oracle_table(self):
        for z, expected in ORDER_DERIV_ZEROS:
            found = bessel_zero_in_order_deriv(z)
            assert found == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_first_max_of_j1(self):
        # z at the first maximum of J_1 (where J_1'(z) = 0) maps back to x = 1
        z = special.jnp_zeros(1, 1)[0]
        assert bessel_zero_in_order_deriv(z) == pytest.approx(1.0, abs=1e-9)

    def test_residual(self):
        for z in (1.2, 20.0, 1000.0, 1e5):
            x = bessel_zero_in_order_deriv(z)
            assert abs(bessel_j(x - 1.0, z) - bessel_j(x + 1.0, z)) <= 1e-9

    @pytest.mark.parametrize("z", [1.2, 2.0, 20.0, 1000.0, 1e5])
    def test_root_is_resolved_to_adjacent_doubles(self, z):
        x = bessel_zero_in_order_deriv(z)
        j_prime = lambda t: special.jv(t - 1.0, z) - special.jv(t + 1.0, z)  # noqa: E731
        assert straddles_the_sign_change(j_prime, x)

    def test_seed_agreement(self):
        z = 1000.0
        assert abs(bessel_zero_in_order_deriv(z) - order_deriv_zero_seed(z)) <= 1e-6
