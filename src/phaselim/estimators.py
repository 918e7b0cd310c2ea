"""Worked estimator examples: biased Cramér-Rao analysis and scaling claims.

Three groups of results:

* The single-photon Mach-Zehnder example with outcome probabilities
  p(+-|phi) = (1 +- v cos phi)/2 and estimates {0, pi}: the exact
  mean-square error, the (misleading) uncorrected Cramér-Rao bound, the
  bias-corrected bound that reproduces the error exactly, and the
  error-propagation value.
* Reference curves for schemes claiming sub-Heisenberg accuracy at
  isolated phase values, compared against the k_A and k_C floors.
* The m-probe scaling construction: splitting the probe budget into a
  vacuum branch and an optimal state of mean n - 1 shifted up by one
  gives a certified accuracy k_C/(m mu)^{1/(1+delta)} to leading order,
  ruling out any universal 1/sqrt(m) lower bound at fixed <N>.

Squared errors are labelled MSE/AMSE; their square roots RMSE.  AMSE is
the phase-averaged MSE (the square of the figure of merit delta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import asympt, canonical

__all__ = [
    "BiasFunction",
    "MziModel",
    "ProbeScalingPlan",
    "biased_crb",
    "mzi_bias",
    "mzi_curves",
    "probe_scaling_uncertainty",
    "reference_curves",
]


@dataclass(frozen=True)
class MziModel:
    """Single-photon Mach-Zehnder interferometer with visibility v.

    Outcome probabilities p(+-|phi) = (1 +- v cos phi)/2; the least-square
    estimates are 0 for the + outcome and pi for the - outcome.
    """

    visibility: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")

    def probabilities(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        plus = 0.5 * (1.0 + self.visibility * np.cos(phi))
        return plus, 1.0 - plus

    def fisher_information(self, phi: np.ndarray) -> np.ndarray:
        v = self.visibility
        c = np.cos(phi)
        return v**2 * np.sin(phi) ** 2 / (1.0 - v**2 * c**2)

    def exact_mse(self, phi: np.ndarray) -> np.ndarray:
        """phi^2 p(+|phi) + (pi - |phi|)^2 p(-|phi), differences mod 2 pi."""
        plus, minus = self.probabilities(phi)
        return phi**2 * plus + (math.pi - np.abs(phi)) ** 2 * minus

    def amse(self) -> float:
        """Phase average of the exact MSE: pi^2/3 - 2v in closed form."""
        return math.pi**2 / 3.0 - 2.0 * self.visibility


@dataclass(frozen=True)
class BiasFunction:
    """Bias b(phi) = <estimate> - phi and its derivative on a phi grid."""

    reference: float
    phi: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        values = np.asarray(self.values, dtype=float)
        deriv = np.asarray(self.derivative, dtype=float)
        if not phi.shape == values.shape == deriv.shape or phi.size < 3:
            raise ValueError("phi, values, derivative must share a shape (>= 3)")
        if float(np.max(np.abs(values))) > 2.0 * math.pi:
            raise ValueError("bias magnitude exceeds 2 pi")
        step = np.diff(phi)
        if np.any(step <= 0.0):
            raise ValueError("phi grid must be strictly increasing")
        central = (values[2:] - values[:-2]) / (phi[2:] - phi[:-2])
        h = float(np.max(step))
        gap = float(np.max(np.abs(central - deriv[1:-1])))
        if gap > 10.0 * h**2 + 1e-10:
            raise ValueError(
                f"derivative disagrees with central differences (gap {gap})"
            )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivative", deriv)


def mzi_bias(model: MziModel, phi_grid: np.ndarray) -> BiasFunction:
    """Self-referenced bias of the MZI estimates on phi in (0, pi).

    <estimate> = pi p(-|phi) once both estimates {0, pi} lie inside the
    reference window, so b(phi) = pi (1 - v cos phi)/2 - phi and
    b'(phi) = (pi v sin phi)/2 - 1; any reference in (0, pi) gives the
    same window, recorded as pi/2.
    """
    phi = np.asarray(phi_grid, dtype=float)
    if np.any(phi <= 0.0) or np.any(phi >= math.pi):
        raise ValueError("phi grid must lie strictly inside (0, pi)")
    v = model.visibility
    values = 0.5 * math.pi * (1.0 - v * np.cos(phi)) - phi
    derivative = 0.5 * math.pi * v * np.sin(phi) - 1.0
    return BiasFunction(
        reference=math.pi / 2.0, phi=phi, values=values, derivative=derivative
    )


def biased_crb(fisher: float, bias: float, bias_deriv: float, m: int = 1) -> float:
    """Cramér-Rao bound on the MSE with bias correction.

    [1 + b']^2 / (m F) + b^2; returns b^2 when the Fisher term vanishes
    with 1 + b' = 0, and +inf when F -> 0 with 1 + b' != 0.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    slope = 1.0 + bias_deriv
    if fisher <= 0.0:
        return bias**2 if slope == 0.0 else math.inf
    return slope**2 / (m * fisher) + bias**2


def mzi_curves(model: MziModel, phi_grid: np.ndarray) -> dict:
    """All comparison curves of the MZI example on a phi grid in (0, pi).

    Returns ``table`` with per-phi columns (exact RMSE, Fisher information,
    uncorrected CRB, bias-corrected CRB, error-propagation value, bias and
    its derivative) and ``scalars`` (AMSE = pi^2/3 - 2v, QCRB = 1/v,
    HHB = 1/(2 sqrt(m) Delta N) with m = 1 and Delta N = 1/2).
    """
    if not 0.0 < model.visibility <= 1.0:
        raise ValueError("curves require visibility in (0, 1]")
    phi = np.asarray(phi_grid, dtype=float)
    bias = mzi_bias(model, phi)
    fisher = model.fisher_information(phi)
    exact_mse = model.exact_mse(phi)
    with np.errstate(divide="ignore"):
        crb_uncorrected = 1.0 / np.sqrt(fisher)
    crb_biased = np.array(
        [
            biased_crb(float(f), float(b), float(bp))
            for f, b, bp in zip(fisher, bias.values, bias.derivative)
        ]
    )
    v = model.visibility
    error_propagation = np.sqrt(1.0 - v**2 * np.cos(phi) ** 2) / (
        v * np.abs(np.sin(phi))
    )
    table = {
        "phi": phi,
        "exact_rmse": np.sqrt(exact_mse),
        "fisher": fisher,
        "crb_uncorrected": crb_uncorrected,
        "crb_biased_rmse": np.sqrt(crb_biased),
        "error_propagation": error_propagation,
        "bias": bias.values,
        "bias_derivative": bias.derivative,
    }
    delta_n = 0.5
    scalars = {
        "amse": model.amse(),
        "qcrb": 1.0 / v,
        "hhb": 1.0 / (2.0 * delta_n),
        "delta_n": delta_n,
    }
    return {"table": table, "scalars": scalars}


def reference_curves(nbar_grid: np.ndarray, nu_exponent: float = 0.5) -> dict:
    """Claimed-violation RMSE curves against the Heisenberg floors.

    Per <N>: the two-mode superposition minimum 1/sqrt(<N>(<N>+2)), which
    exceeds 1/<N+1> identically since <N>(<N>+2) + 1 = <N+1>^2; and the
    vacuum-plus-number-state error-propagation value nu/(2<N>) with
    nu = <N>^(1 - p), which scales as <N>^-p.  Compared against 1/<N+1>
    and the k_A, k_C floors.
    """
    nbar = np.asarray(nbar_grid, dtype=float)
    if np.any(nbar <= 0.0):
        raise ValueError("nbar grid must be positive")
    k_c = asympt.constants().k_C
    nu = nbar ** (1.0 - nu_exponent)
    return {
        "nbar": nbar,
        "anisimov": 1.0 / np.sqrt(nbar * (nbar + 2.0)),
        "rivas_luis": nu / (2.0 * nbar),
        "inverse_mean": 1.0 / (nbar + 1.0),
        "heis_k_a": canonical.K_A / (nbar + 1.0),
        "heis_k_c": k_c / (nbar + 1.0),
    }


@dataclass(frozen=True)
class ProbeScalingPlan:
    """Probe-splitting plan for m copies at mean value mu.

    In the small-mu regime (mu^delta_exp <= m) the working mean is
    n = (m mu)^{1/(1+delta_exp)} and each copy is a vacuum/optimal-state
    superposition; otherwise n = mu and the optimal state is used
    directly.  ``n`` and ``regime`` are derived from (m, mu, delta_exp).
    """

    m: int
    mu: float
    delta_exp: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.mu <= 0.0 or self.delta_exp <= 0.0:
            raise ValueError("mu and delta_exp must be positive")

    @property
    def regime(self) -> str:
        return "large-mu" if self.mu**self.delta_exp > self.m else "small-mu"

    @property
    def n(self) -> float:
        if self.regime == "large-mu":
            return self.mu
        return (self.m * self.mu) ** (1.0 / (1.0 + self.delta_exp))


def probe_scaling_uncertainty(plan: ProbeScalingPlan) -> dict[str, float]:
    """Certified accuracy of the plan versus the mean-floor bound.

    ``upper_bound`` is the root of: the asymptotic upper bound on the
    squared error of the optimal state at mean n - 1 (unchanged by the
    shift up by one), plus, in the small-mu regime, the all-vacuum failure
    probability exp(-(m mu)^{delta/(1+delta)}) times the worst-case
    pi^2/3.  ``heis_floor`` is k_A / <mN + 1>.
    """
    if plan.n < 2.0:
        raise ValueError(f"plan needs n >= 2, got {plan.n}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bounds = asympt.asymptotic_bounds_on_delta(plan.n - 1.0, "nonneg")
    squared = bounds["upper"]
    p_fail = 0.0
    if plan.regime == "small-mu":
        p_fail = math.exp(-((plan.m * plan.mu) ** (plan.delta_exp / (1.0 + plan.delta_exp))))
        squared += p_fail * math.pi**2 / 3.0
    return {
        "upper_bound": math.sqrt(squared),
        "heis_floor": canonical.K_A / (plan.m * plan.mu + 1.0),
        "n": plan.n,
        "p_fail": p_fail,
    }
