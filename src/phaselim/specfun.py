"""Special-function kernel: Airy functions and zeros, real-order Bessel J.

Provides the Airy function Ai and its first zeros, Bessel functions of
arbitrary real order J_x(z), the derivative of J_x(z) with respect to the
order x, the largest zeros of J_x(z) and J'_x(z) regarded as functions of
the order at fixed argument, and closed-form values of the Bessel product
sums that appear in the analytic solutions of the variational problems.

The order-zero solvers work in the turning-point regime x ~ z, where the
large-z zero is located at x = z - gamma z^{1/3} + ... with
gamma = |z_A| / 2^{1/3} and z_A the first zero of Ai.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "AiryZeros",
    "BracketError",
    "airy_ai",
    "airy_ai_prime",
    "airy_first_zeros",
    "bessel_j",
    "bessel_j_dorder",
    "bessel_product_sums",
    "bessel_zero_in_order",
    "bessel_zero_in_order_deriv",
    "order_zero_seed",
    "order_deriv_zero_seed",
]

_MAX_ARGUMENT = 1.0e7
_PRODUCT_SUM_TOL = 1e-8  # bessel_product_sums: largest accepted |J_x / J_{x+1}|


class BracketError(RuntimeError):
    """No sign change found when bracketing a root (bad asymptotic seed)."""


@dataclass(frozen=True)
class AiryZeros:
    """First zeros of Ai and Ai', both negative."""

    z_a: float
    z_a_prime: float

    def __post_init__(self) -> None:
        if not (-2.4 < self.z_a < -2.3):
            raise ValueError(f"z_a out of the expected interval: {self.z_a}")
        if not (-1.1 < self.z_a_prime < -1.0):
            raise ValueError(
                f"z_a_prime out of the expected interval: {self.z_a_prime}"
            )


def airy_ai(t):
    """Airy function Ai(t); accepts scalars or arrays."""
    return special.airy(t)[0]


def airy_ai_prime(t):
    """Derivative Ai'(t); accepts scalars or arrays."""
    return special.airy(t)[1]


def _refine_zero(f, fprime, lo: float, hi: float) -> float:
    """Bisection to machine-width bracket, then one Newton polish."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    d = fprime(root)
    if d != 0.0:
        root -= f(root) / d
    return root


@functools.lru_cache(maxsize=1)
def airy_first_zeros() -> AiryZeros:
    """First zeros of Ai and Ai' by bisection plus Newton polish."""
    z_a = _refine_zero(airy_ai, airy_ai_prime, -3.0, -2.0)
    # Ai''(t) = t Ai(t) from the Airy equation.
    z_ap = _refine_zero(airy_ai_prime, lambda t: t * airy_ai(t), -1.1, -1.0)
    return AiryZeros(z_a=z_a, z_a_prime=z_ap)


@functools.lru_cache(maxsize=1)
def _gammas() -> tuple[float, float]:
    """(gamma, gamma') = (|z_A|, |z'_A|) / 2^{1/3}."""
    zeros = airy_first_zeros()
    scale = 2.0 ** (1.0 / 3.0)
    return abs(zeros.z_a) / scale, abs(zeros.z_a_prime) / scale


def _check_domain(order: float, z: float) -> None:
    if not np.all(np.isfinite(order)) or not np.all(np.isfinite(z)):
        raise ValueError("order and argument must be finite")
    if np.any(np.asarray(z) <= 0.0):
        raise ValueError(f"argument must be positive, got {z}")
    if np.any(np.asarray(z) >= _MAX_ARGUMENT):
        raise ValueError(f"argument out of supported range (< 1e7): {z}")
    if np.any(np.asarray(order) < -1.0):
        raise ValueError(f"order must be >= -1, got {order}")


def bessel_j(order, z):
    """Bessel function J_order(z) for real order >= -1 and 0 < z < 1e7.

    Stable through the turning-point region order ~ z.
    """
    _check_domain(order, z)
    return special.jv(order, z)


def bessel_j_dorder(order: float, z: float) -> float:
    """Derivative of J_x(z) with respect to the order x.

    Richardson-extrapolated central differences at steps h, h/2, h/4,
    cancelling the O(h^2) and O(h^4) errors.  The step is tied to the
    scale (z/2)^{1/3} on which J varies as a function of the order, which
    keeps the truncation error below the evaluation roundoff while the
    division by h amplifies that roundoff by only ~1e3.
    """
    _check_domain(order, z)
    h = 3e-3 * max((0.5 * z) ** (1.0 / 3.0), 1.5)
    if order - h < -1.0:
        h = 0.5 * (order + 1.0)  # keep the stencil inside the domain
    if h == 0.0:
        raise ValueError("cannot difference at the domain edge order = -1")

    def central(step: float) -> float:
        return (special.jv(order + step, z) - special.jv(order - step, z)) / (
            2.0 * step
        )

    d1, d2, d4 = central(h), central(0.5 * h), central(0.25 * h)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d4 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def order_zero_seed(z: float) -> float:
    """Asymptotic location of the largest x with J_x(z) = 0.

    x = z - gamma z^{1/3} + gamma^2/(30 z^{1/3}) - (5 - gamma^3)/(350 z)
        + (281 gamma^4 - 5220 gamma)/(567000 z^{5/3})
        + (73769 gamma^5 - 3312450 gamma^2)/(654885000 z^{7/3}) + O(z^-3).
    """
    g, _ = _gammas()
    u = z ** (1.0 / 3.0)
    return (
        z
        - g * u
        + g**2 / (30.0 * u)
        - (5.0 - g**3) / (350.0 * z)
        + (281.0 * g**4 - 5220.0 * g) / (567000.0 * z * u**2)
        + (73769.0 * g**5 - 3312450.0 * g**2) / (654885000.0 * z * z * u)
    )


def order_deriv_zero_seed(z: float) -> float:
    """Asymptotic location of the largest x with J'_x(z) = 0.

    Obtained by fixed-point inversion of the expansion of the first
    maximum location z(x) = x + gamma' x^{1/3} + ... .
    """
    _, gp = _gammas()

    def z_of_x(x: float) -> float:
        u = x ** (1.0 / 3.0)
        return (
            x
            + gp * u
            + (0.3 * gp**2 - 1.0 / (10.0 * gp)) / u
            - (gp**3 / 350.0 + 0.04 + 1.0 / (200.0 * gp**3)) / x
            - (958.0 * gp**9 - 2036.0 * gp**6 - 84.0 * gp**3 + 63.0)
            / (126000.0 * gp**5 * x * u**2)
        )

    x = max(z - gp * z ** (1.0 / 3.0), 0.05)
    for _ in range(12):
        x = max(x + (z - z_of_x(x)), 0.01)
    return x


def _largest_root_in_order(f, seed: float, z: float, label: str) -> float:
    """Largest x with f(x) = 0 near the asymptotic seed.

    In the turning-point regime f is positive for x above the largest root
    and negative on the first oscillation below it, so the bracket is built
    by walking outward from the seed; total widening is capped at
    max(1, 5 z^{1/3}) per side, safely within the O(z^{1/3}) spacing to the
    next root below.
    """
    from scipy.optimize import brentq  # the only user; keeps it out of import time

    step = 0.25 * max(1.0, z ** (1.0 / 3.0))
    limit = max(1.0, 5.0 * z ** (1.0 / 3.0))

    hi = seed + step
    while f(hi) <= 0.0:
        hi += step
        if hi - seed > limit:
            raise BracketError(
                f"{label}: no positive value found above seed {seed} at z={z}"
            )
    lo = seed
    while f(lo) >= 0.0:
        lo -= step
        if seed - lo > limit:
            raise BracketError(
                f"{label}: no sign change found below seed {seed} at z={z}"
            )
    root = brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)

    # Confirm no further root above: f stays positive up to the next-root gap.
    probe = root + step * np.arange(1.0, 5.0)
    if np.any(f(probe) <= 0.0):
        raise BracketError(f"{label}: root at x={root} is not the largest")
    return float(root)


def bessel_zero_in_order(z: float) -> float:
    """Largest x with J_x(z) = 0, for fixed argument z > |z_A|."""
    zeros = airy_first_zeros()
    if not z > abs(zeros.z_a):
        raise ValueError(f"argument must exceed |z_A| ~ 2.3381, got {z}")
    _check_domain(0.0, z)
    return _largest_root_in_order(
        lambda x: special.jv(x, z), order_zero_seed(z), z, "bessel_zero_in_order"
    )


def bessel_zero_in_order_deriv(z: float) -> float:
    """Largest x with J'_x(z) = 0 (derivative in argument), z > |z'_A|."""
    zeros = airy_first_zeros()
    if not z > abs(zeros.z_a_prime):
        raise ValueError(f"argument must exceed |z'_A| ~ 1.0188, got {z}")
    _check_domain(0.0, z)

    def j_prime(x):
        return 0.5 * (special.jv(x - 1.0, z) - special.jv(x + 1.0, z))

    return _largest_root_in_order(
        j_prime, order_deriv_zero_seed(z), z, "bessel_zero_in_order_deriv"
    )


def bessel_product_sums(x: float, z: float) -> dict[str, float]:
    """Closed-form Bessel product sums, valid where J_x(z) = 0.

    S_11 = sum_{k>=1} J_{x+k} J_{x+k+1} = (z/2) J_{x+1}^2
    S_sq = sum_{k>=1} J_{x+k}^2        = (z/2) J_{x+1} dJ_x/dx
    S_12 = sum_{k>=1} J_{x+k} J_{x+k+2} = (z/4) J_{x+1} J_{x+2}

    Raises if |J_x(z)| exceeds _PRODUCT_SUM_TOL relative to the local scale
    |J_{x+1}(z)|, since the closed forms drop terms proportional to J_x(z).
    """
    _check_domain(x, z)
    j0 = special.jv(x, z)
    j1 = special.jv(x + 1.0, z)
    j2 = special.jv(x + 2.0, z)
    scale = max(abs(j1), 1e-300)
    if abs(j0) > _PRODUCT_SUM_TOL * scale:
        raise ValueError(
            f"J_x(z) = {j0:.3e} is not zero at (x={x}, z={z}); "
            "product-sum closed forms do not apply"
        )
    djdx = bessel_j_dorder(x, z)
    return {
        "S_11": 0.5 * z * j1 * j1,
        "S_sq": 0.5 * z * j1 * djdx,
        "S_12": 0.25 * z * j1 * j2,
    }
