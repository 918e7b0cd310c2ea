"""Special-function kernel: the first Airy zeros, real-order Bessel J.

Provides the first zeros of Ai and Ai' as constants, Bessel functions of
arbitrary real order J_x(z), the derivative of J_x(z) with respect to the
order x, and the largest zeros of J_x(z) and J'_x(z) regarded as functions
of the order at fixed argument.

The order-zero solvers work in the turning-point regime x ~ z, where the
large-z zero is located at x = z - gamma z^{1/3} + ... with
gamma = |z_A| / 2^{1/3} and z_A the first zero of Ai.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "BracketError",
    "Z_A",
    "Z_A_PRIME",
    "bessel_j",
    "bessel_j_dorder",
    "bessel_zero_in_order",
    "bessel_zero_in_order_deriv",
    "order_zero_seed",
    "order_deriv_zero_seed",
]

_MAX_ARGUMENT = 1.0e7

# First zeros of Ai and Ai'.  Z_A is the nearest double to z_A; Z_A_PRIME is
# 1 ulp from the nearest double to z'_A, kept because k'_C and every seeded
# symmetric root-finder path were built on these bits.
Z_A = -2.338107410459767
Z_A_PRIME = -1.0187929716474713


class BracketError(RuntimeError):
    """No sign change found when bracketing a root (bad asymptotic seed)."""


def _gammas() -> tuple[float, float]:
    """(gamma, gamma') = (|z_A|, |z'_A|) / 2^{1/3}."""
    scale = 2.0 ** (1.0 / 3.0)
    return abs(Z_A) / scale, abs(Z_A_PRIME) / scale


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
    next root below.  The bracket is then bisected until its ends are
    adjacent doubles (about 50 evaluations of f), and the end with the
    smaller |f| is returned, so the root and one neighbouring double
    straddle the sign change.  No fixed x tolerance serves every z: at
    z = 1e6 a width of 1e-13 + 1e-15 x (brentq's) leaves |J_x(z)| at 8e-10
    of |J_{x+1/2}(z)|, and 1e-13 alone is below the spacing of doubles.
    """
    step = 0.25 * max(1.0, z ** (1.0 / 3.0))
    limit = max(1.0, 5.0 * z ** (1.0 / 3.0))

    hi = seed + step
    while (f_hi := f(hi)) <= 0.0:
        hi += step
        if hi - seed > limit:
            raise BracketError(
                f"{label}: no positive value found above seed {seed} at z={z}"
            )
    lo = seed
    while (f_lo := f(lo)) >= 0.0:
        lo -= step
        if seed - lo > limit:
            raise BracketError(
                f"{label}: no sign change found below seed {seed} at z={z}"
            )
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if (f_mid := f(mid)) > 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    root = lo if abs(f_lo) < abs(f_hi) else hi

    # Confirm no further root above: f stays positive up to the next-root gap.
    probe = root + step * np.arange(1.0, 5.0)
    if np.any(f(probe) <= 0.0):
        raise BracketError(f"{label}: root at x={root} is not the largest")
    return float(root)


def bessel_zero_in_order(z: float) -> float:
    """Largest x with J_x(z) = 0, for fixed argument z > |z_A|."""
    if not z > abs(Z_A):
        raise ValueError(f"argument must exceed |z_A| ~ 2.3381, got {z}")
    _check_domain(0.0, z)
    return _largest_root_in_order(
        lambda x: special.jv(x, z), order_zero_seed(z), z, "bessel_zero_in_order"
    )


def bessel_zero_in_order_deriv(z: float) -> float:
    """Largest x with J'_x(z) = 0 (derivative in argument), z > |z'_A|."""
    if not z > abs(Z_A_PRIME):
        raise ValueError(f"argument must exceed |z'_A| ~ 1.0188, got {z}")
    _check_domain(0.0, z)

    def j_prime(x):
        return 0.5 * (special.jv(x - 1.0, z) - special.jv(x + 1.0, z))

    return _largest_root_in_order(
        j_prime, order_deriv_zero_seed(z), z, "bessel_zero_in_order_deriv"
    )
