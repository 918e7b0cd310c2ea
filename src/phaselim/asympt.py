"""Analytic solutions and asymptotic series for the variational optima.

The constrained optima solved numerically in ``variational`` have exact
solutions in Bessel functions of real order.  For the nonnegative spectrum
the optimal amplitudes are psi_n = A J_{x+n+1}(z) with x the largest
order-zero of J_x(z); for the symmetric spectrum psi_j = A J_{x+|j|}(z)
with x the largest order-zero of dJ_x(z)/dx.  Expanding those solutions
around the Airy turning point yields

    |<e^{iTheta}>|^-2 - 1 = sum_{k=1..5} b_{2k} / <N+1>^{2k} + O(<N+1>^-12)
    2(1 - |<e^{iTheta}>|) = sum_{k=2..6} d_k / <2|J|+1>^k + ...

with coefficients that are exact rationals in |z_A|^3 and |z'_A|^3 (the
first Airy-function and Airy-derivative zeros).  The leading coefficients
are the squared scaling constants: b_2 = k_C^2, d_2 = k'_C^2.

Everything here is closed-form; the module serves as the independent
oracle against which the eigensolver curves are validated, and provides
the asymptotic upper/lower bounds on the squared phase error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import canonical, specfun
from .states import ProbeState, Spectrum

__all__ = [
    "Constants",
    "SeriesExpansion",
    "asymptotic_bounds_on_delta",
    "bessel_state_nonneg",
    "bessel_state_symmetric",
    "constants",
    "nonneg_series_expansion",
    "symmetric_series_expansion",
]

_TRUNCATION = 1e-16  # amplitude cut relative to the peak
_SERIES_REGIME = 10.0


@dataclass(frozen=True)
class Constants:
    """Scaling constants of the accuracy bounds.

    k_A bounds every covariant estimate; k_C and k_C_prime are the sharp
    constants of the nonnegative and symmetric optimal states.
    """

    k_A: float
    k_C: float
    k_C_prime: float


def constants() -> Constants:
    return Constants(
        k_A=canonical.K_A,
        k_C=2.0 * (abs(specfun.Z_A) / 3.0) ** 1.5,
        k_C_prime=4.0 * (abs(specfun.Z_A_PRIME) / 3.0) ** 1.5,
    )


@dataclass(frozen=True)
class SeriesExpansion:
    """Inverse-power series sum_k coefficients[k] / variable^exponents[k]."""

    variable: str
    exponents: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.size != len(self.exponents):
            raise ValueError("one coefficient per exponent required")
        object.__setattr__(self, "coefficients", coeffs)

    def evaluate(self, length: float, terms: int | None = None) -> float:
        """Partial sum over the first ``terms`` coefficients (all by default)."""
        take = self.coefficients.size if terms is None else int(terms)
        if not 1 <= take <= self.coefficients.size:
            raise ValueError(f"terms must be in 1..{self.coefficients.size}")
        total = 0.0
        for exponent, coeff in zip(self.exponents[:take], self.coefficients[:take]):
            total += coeff / length**exponent
        return total


def nonneg_series_expansion() -> SeriesExpansion:
    """Holevo-variance series in <N+1>: coefficients b_2, b_4, ..., b_10.

    Exact rationals in a = |z_A|^3, evaluated from ``specfun.Z_A``:
    b_2 = 4a/27, b_4 = 16a^2/1215, b_6 = 16a^2(27+40a)/688905,
    b_8 = 256a^3(3+a)/4428675, b_10 = 64a^3(2673+9252a+1120a^2)/21483502425.
    """
    a = abs(specfun.Z_A) ** 3
    coefficients = np.array(
        [
            4.0 * a / 27.0,
            16.0 * a**2 / 1215.0,
            16.0 * a**2 * (27.0 + 40.0 * a) / 688905.0,
            256.0 * a**3 * (3.0 + a) / 4428675.0,
            64.0 * a**3 * (2673.0 + 9252.0 * a + 1120.0 * a**2) / 21483502425.0,
        ]
    )
    return SeriesExpansion(
        variable="N_plus_1",
        exponents=(2, 4, 6, 8, 10),
        coefficients=coefficients,
    )


def symmetric_series_expansion() -> SeriesExpansion:
    """delta_1^2 series in <2|J|+1>: coefficients d_2 .. d_6.

    Exact rationals in p = |z'_A|^3: d_2 = 16p/27, d_3 = 32p/27,
    d_4 = 16p(111-4p)/1215, d_5 = 64p(21-4p)/1215,
    d_6 = 16p(-63 - 40488p + 160p^2)/1148175.
    """
    p = abs(specfun.Z_A_PRIME) ** 3
    coefficients = np.array(
        [
            16.0 * p / 27.0,
            32.0 * p / 27.0,
            16.0 * p * (111.0 - 4.0 * p) / 1215.0,
            64.0 * p * (21.0 - 4.0 * p) / 1215.0,
            16.0 * p * (-63.0 - 40488.0 * p + 160.0 * p**2) / 1148175.0,
        ]
    )
    return SeriesExpansion(
        variable="two_J_plus_1",
        exponents=(2, 3, 4, 5, 6),
        coefficients=coefficients,
    )


def _truncated_orders(x: float, z: float, start_offset: float) -> np.ndarray:
    """J_{x+start_offset+n}(z) for n = 0.., cut at 1e-16 of the peak."""
    block = int(10.0 * max((0.5 * z) ** (1.0 / 3.0), 2.0)) + 20
    guess = int(math.ceil(z - x - start_offset)) + block
    values = specfun.bessel_j(x + start_offset + np.arange(max(guess, 8)), z)
    peak = float(np.max(np.abs(values)))
    for _ in range(40):
        if abs(values[-1]) < _TRUNCATION * peak:
            break
        extra = specfun.bessel_j(
            x + start_offset + values.size + np.arange(block), z
        )
        values = np.concatenate([values, extra])
        peak = float(np.max(np.abs(values)))
    else:
        raise RuntimeError("amplitude tail failed to fall below truncation")
    keep = np.nonzero(np.abs(values) >= _TRUNCATION * peak)[0]
    return values[: keep[-1] + 1]


def bessel_state_nonneg(z: float) -> dict:
    """Exact optimal state on the nonnegative spectrum at Bessel argument z.

    Returns the normalized state with amplitudes proportional to
    J_{x+n+1}(z), where x is the largest order-zero of J_x(z), together
    with the closed-form mean <N> and first moment <e^{iTheta}>:

        <N+1> = z J_{x+1}(z) / [dJ_x(z)/dx] - x,
        <e^{iTheta}> = (x + <N> + 1) / z.
    """
    x = specfun.bessel_zero_in_order(z)
    j1 = specfun.bessel_j(x + 1.0, z)
    dj = specfun.bessel_j_dorder(x, z)
    nbar = z * j1 / dj - x - 1.0
    e_itheta = (x + nbar + 1.0) / z
    amplitudes = _truncated_orders(x, z, 1.0)
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    spectrum = Spectrum(kind="nonneg", cutoff=amplitudes.size - 1)
    state = ProbeState(spectrum=spectrum, amplitudes=amplitudes)
    return {"state": state, "nbar": nbar, "e_itheta": e_itheta, "x": x}


def bessel_state_symmetric(z: float) -> dict:
    """Exact optimal state on the symmetric spectrum at Bessel argument z.

    Amplitudes proportional to J_{x+|j|}(z) with x the largest order-zero
    of dJ_x(z)/dx (equivalently J_{x-1}(z) = J_{x+1}(z)).  Closed forms:

        A^-2 = J_x^2 + z [J_{x+1} dJ_x/dx - J_x dJ_{x+1}/dx],
        <e^{iTheta}> = A^2 [2 J_x J_{x+1} + z J_{x+1}^2 - z J_x J_{x+2}],
        <|J|> = z <e^{iTheta}> - x.
    """
    x = specfun.bessel_zero_in_order_deriv(z)
    j0, j1, j2 = (specfun.bessel_j(x + m, z) for m in (0.0, 1.0, 2.0))
    dj0 = specfun.bessel_j_dorder(x, z)
    dj1 = specfun.bessel_j_dorder(x + 1.0, z)
    a_inv_sq = j0**2 + z * (j1 * dj0 - j0 * dj1)
    e_itheta = (2.0 * j0 * j1 + z * j1**2 - z * j0 * j2) / a_inv_sq
    jbar_abs = z * e_itheta - x
    half = _truncated_orders(x, z, 0.0)
    amplitudes = np.concatenate([half[:0:-1], half])
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    spectrum = Spectrum(kind="symmetric", cutoff=half.size - 1)
    state = ProbeState(spectrum=spectrum, amplitudes=amplitudes)
    return {"state": state, "jbar_abs": jbar_abs, "e_itheta": e_itheta, "x": x}


def asymptotic_bounds_on_delta(
    nbar_or_jbar: float, spectrum_kind: str
) -> dict[str, float]:
    """Asymptotic lower/upper bounds on the squared phase error.

    nonneg (L = <N+1>, b_2 = k_C^2 of ``nonneg_series_expansion``):
        lower = b_2/L^2 - b_2^2/(15 L^4)   (arccos expansion)
        upper = b_2/L^2 + (pi^2-4) b_2/(8 L^3)
    symmetric (L = <2|J|+1>, d_2 = k'_C^2 and d_3 of
    ``symmetric_series_expansion``):
        lower = d_2/L^2
        upper = d_2/L^2 + d_3/L^3
    """
    if nbar_or_jbar < _SERIES_REGIME:
        warnings.warn(
            f"mean value = {nbar_or_jbar} is below the series regime "
            f"(>= {_SERIES_REGIME}); the truncation error is uncontrolled",
            RuntimeWarning,
            stacklevel=2,
        )
    if spectrum_kind == "nonneg":
        b_2 = float(nonneg_series_expansion().coefficients[0])
        length = nbar_or_jbar + 1.0
        leading = b_2 / length**2
        return {
            "lower": leading - b_2**2 / (15.0 * length**4),
            "upper": leading + (math.pi**2 - 4.0) * b_2 / (8.0 * length**3),
        }
    if spectrum_kind == "symmetric":
        expansion = symmetric_series_expansion()
        length = 2.0 * nbar_or_jbar + 1.0
        return {
            "lower": expansion.evaluate(length, terms=1),
            "upper": expansion.evaluate(length, terms=2),
        }
    raise ValueError(f"spectrum_kind must be 'nonneg' or 'symmetric', got {spectrum_kind!r}")
