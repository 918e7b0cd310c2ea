"""Constrained variational optima of phase-error metrics.

For a figure-of-merit integrand f(theta) = a_0 + sum_m a_m cos(m theta) and
a probe state psi over the generator spectrum, <f> is the quadratic form of
the symmetric matrix with entries z_|m-n|, z_0 = a_0, z_m = a_m / 2.
Minimizing <f> at fixed mean generator value (<N> or <|J|>) is a Lagrangian
eigenproblem: the optimal state is the extremal eigenvector of

    ObjectiveMatrix(f) - beta * diag(weight),

where the objective matrix is the +cos coupling (maximized, beta > 0) for
the f1/f2 surrogates and the Fourier matrix of f itself (minimized,
beta < 0) for theta^2 and f3.  Sweeping beta traces the lower convex
envelope of the (mean, metric) trade-off; ``sweep_curve`` root-finds beta
for requested mean values.

Cost functions:

    f1       = 2 - 2 cos t                      (<f1> = delta_1^2)
    f2       = 5/2 - (8/3) cos t + (1/6) cos 2t (<f2> = delta_2^2, f2 <= t^2)
    f3       = (pi^2/4 - 1)[2(1 - cos t) - (1 - cos 2t)/2] + 2(1 - cos t)
                                                (t^2 <= f3)
    theta_sq = pi^2/3 + 4 sum_m (-1)^m cos(m t)/m^2, truncated at the
               matrix dimension (exact on band-limited states)

The f1 problem also minimizes the Holevo variance, since both are monotone
in <cos Theta>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import canonical
from .eigensolve import (
    BandedSymmetric,
    EigenPair,
    ToeplitzPlusDiagonal,
    extremal_eigenpair,
)
from .states import ProbeState, Spectrum

__all__ = [
    "CostFunction",
    "OptimalPoint",
    "ProbeState",
    "Spectrum",
    "build_matrix",
    "cost_function",
    "delta3_on_f1_state",
    "solve_point",
    "sweep_curve",
    "default_cutoff",
]

_MAX_CUTOFF_DOUBLINGS = 8
_MEAN_RTOL = 1e-6
_BETA_RTOL = 1e-8
_MAX_LOG_STEP = math.log(8.0)  # largest root-finder step in log(penalty)
_LARGE_MEAN_SLOPE = -1.0 / 3.0  # d log mean / d log penalty as mean -> inf

# Maximization-form costs take the largest eigenvalue of (C - beta W) with
# beta > 0; minimization-form costs take the smallest eigenvalue of
# (Z - beta W) with beta < 0.
_MAX_FORM = ("f1", "f2")
_MIN_FORM = ("theta_sq", "f3")


@dataclass(frozen=True)
class CostFunction:
    """Finite cosine series a_0 + sum a_m cos(m theta) on [-pi, pi]."""

    name: str
    cosine_coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.cosine_coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("need at least coefficients (a_0, a_1)")
        object.__setattr__(self, "cosine_coeffs", coeffs)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        result = np.full_like(theta, self.cosine_coeffs[0])
        for m in range(1, self.cosine_coeffs.size):
            result += self.cosine_coeffs[m] * np.cos(m * theta)
        return result

    def value_from_moments(self, moms: np.ndarray) -> float:
        """<f> = a_0 + sum_m a_m Re<e^{im Theta}>."""
        c = np.real(np.asarray(moms))
        a = self.cosine_coeffs
        take = min(a.size, c.size)  # moments beyond the support width vanish
        return float(a[:take] @ c[:take])


def _theta_sq_coeffs(m_max: int) -> np.ndarray:
    m = np.arange(1, m_max + 1, dtype=float)
    return np.concatenate(([math.pi**2 / 3.0], 4.0 * (-1.0) ** m / m**2))


def cost_function(name: str, m_max: int | None = None) -> CostFunction:
    """Construct a named cost function.

    ``m_max`` is required for ``theta_sq`` (the series is truncated at the
    matrix dimension minus one); it is ignored for the fixed costs.
    """
    if name == "f1":
        return CostFunction(name, np.array([2.0, -2.0]))
    if name == "f2":
        return CostFunction(name, np.array([2.5, -8.0 / 3.0, 1.0 / 6.0]))
    if name == "f3":
        return CostFunction(
            name, np.array([canonical.F3_A0, canonical.F3_A1, canonical.F3_A2])
        )
    if name == "theta_sq":
        if m_max is None:
            raise ValueError("theta_sq requires m_max (dimension - 1)")
        return CostFunction(name, _theta_sq_coeffs(m_max))
    raise ValueError(f"unknown cost function {name!r}")


@dataclass(frozen=True)
class OptimalPoint:
    """One solved variational point with all error metrics."""

    cost: str
    beta: float
    alpha: float
    mean_constraint: float
    delta: float
    delta_H: float
    delta_1: float
    delta_2: float
    delta_3: float
    cutoff: int
    residual: float
    state: ProbeState

    def __post_init__(self) -> None:
        slack = 1e-8 * (1.0 + self.delta)
        if self.delta_1 > self.delta_H + slack:
            raise ValueError("metric chain violated: delta_1 > delta_H")
        if self.delta_1 > self.delta + slack:
            raise ValueError("metric chain violated: delta_1 > delta")
        arc = math.acos(max(min(1.0 - self.delta_1**2 / 2.0, 1.0), -1.0))
        if arc > self.delta + slack:
            raise ValueError("metric chain violated: arccos bound > delta")
        if self.delta > (math.pi / 2.0) * self.delta_1 + slack:
            raise ValueError("metric chain violated: delta > (pi/2) delta_1")

    @property
    def scale_factor(self) -> float:
        """<N+1> for nonneg spectra, <2|J|+1> for symmetric ones."""
        if self.state.spectrum.kind == "nonneg":
            return self.mean_constraint + 1.0
        return 2.0 * self.mean_constraint + 1.0


def _orientation(cost: CostFunction) -> str:
    if cost.name in _MAX_FORM:
        return "max"
    if cost.name in _MIN_FORM:
        return "min"
    raise ValueError(f"no solve orientation for cost {cost.name!r}")


def _cost_for_spectrum(cost: CostFunction, spectrum: Spectrum) -> CostFunction:
    """Re-truncate theta_sq to the spectrum dimension; others unchanged."""
    if cost.name != "theta_sq":
        return cost
    m_max = spectrum.dimension - 1
    if cost.cosine_coeffs.size == m_max + 1:
        return cost
    return cost_function("theta_sq", m_max=m_max)


def _fourier_column(cost: CostFunction, dimension: int) -> np.ndarray:
    """First column of the Fourier matrix Z: z_0 = a_0, z_m = a_m / 2."""
    a = cost.cosine_coeffs
    col = np.zeros(dimension)
    take = min(a.size, dimension)
    col[:take] = a[:take]
    col[1:take] *= 0.5
    return col


def build_matrix(
    cost: CostFunction, spectrum: Spectrum, beta: float
) -> BandedSymmetric | ToeplitzPlusDiagonal:
    """Matrix of the constrained problem: objective minus beta * diag(weight).

    For f1/f2 the objective is the +cos coupling of the maximized part
    (off-diagonal 1/2 for f1, i.e. <cos t> itself); for theta_sq/f3 it is
    the Fourier matrix Z of the cost itself.  f3, and theta_sq up to
    dimension 3, are banded; larger theta_sq matrices are returned in
    Toeplitz-plus-diagonal form and applied via FFT.
    """
    cost = _cost_for_spectrum(cost, spectrum)
    weights = spectrum.weights()
    dim = spectrum.dimension
    if _orientation(cost) == "max":
        # Maximized objective: <cos t> itself for f1 (off-diagonal 1/2; the
        # Holevo variance and delta_1 are both monotone in <cos t>), the
        # negated cosine part (8/3) cos t - (1/6) cos 2t for f2.
        if cost.name == "f1":
            part = np.array([0.0, 1.0])
        else:
            part = -cost.cosine_coeffs
        diagonals = [-beta * weights]
        for m in range(1, part.size):
            diagonals.append(np.full(dim - m, 0.5 * part[m]))
        return BandedSymmetric(diagonals)
    column = _fourier_column(cost, dim)
    if cost.cosine_coeffs.size <= 3:
        diagonals = [column[0] - beta * weights]
        for m in range(1, min(cost.cosine_coeffs.size, dim)):
            diagonals.append(np.full(dim - m, column[m]))
        return BandedSymmetric(diagonals)
    return ToeplitzPlusDiagonal(first_column=column, diagonal=-beta * weights)


def _f1_preconditioner(spectrum: Spectrum, penalty: float) -> BandedSymmetric:
    """Tridiagonal surrogate 2 - 2cos(t) + penalty * weight.

    Pointwise f1 <= theta^2 <= (pi^2/4) f1 on [-pi, pi] makes this
    spectrally equivalent to the theta_sq matrix with condition number
    <= pi^2/4.  Its banded Cholesky solve preconditions the LOPCG
    eigensolve, and its smallest eigenvector is the cold start, so the
    solve takes a few tens of mat-vecs regardless of dimension.
    """
    weights = spectrum.weights()
    return BandedSymmetric(
        [2.0 + penalty * weights, -np.ones(spectrum.dimension - 1)]
    )


def _solve_eigen(
    cost: CostFunction,
    spectrum: Spectrum,
    beta: float,
    start_vector: np.ndarray | None,
) -> tuple[float, EigenPair]:
    """Extremal eigenpair of the built matrix; returns (alpha, pair).

    f2 is solved through the positive definite complement (5/2) I - matrix,
    whose smallest eigenpair the banded Cholesky path finds quickly; the
    eigenvector is unchanged and alpha = 5/2 - value.
    """
    cost = _cost_for_spectrum(cost, spectrum)
    orientation = _orientation(cost)
    if orientation == "max" and beta < 0.0:
        raise ValueError(f"{cost.name} requires beta >= 0, got {beta}")
    if orientation == "min" and beta > 0.0:
        raise ValueError(f"{cost.name} requires beta <= 0, got {beta}")

    if cost.name == "f1":
        matrix = build_matrix(cost, spectrum, beta)
        pair = extremal_eigenpair(matrix, "largest", start_vector=start_vector)
        return pair.value, pair
    if cost.name == "f2":
        weights = spectrum.weights()
        dim = spectrum.dimension
        shifted = BandedSymmetric(
            [
                2.5 + beta * weights,
                np.full(dim - 1, -4.0 / 3.0),
                np.full(dim - 2, 1.0 / 12.0),
            ]
        )
        pair = extremal_eigenpair(shifted, "smallest", start_vector=start_vector)
        return 2.5 - pair.value, pair
    # Minimization form: smallest eigenvalue of Z - beta W (beta <= 0).
    matrix = build_matrix(cost, spectrum, beta)
    preconditioner = None
    if cost.name == "theta_sq":
        preconditioner = _f1_preconditioner(spectrum, -beta)
    pair = extremal_eigenpair(
        matrix, "smallest", start_vector=start_vector, preconditioner=preconditioner
    )
    return pair.value, pair


def _tail_mass(spectrum: Spectrum, psi: np.ndarray) -> float:
    """Probability mass on the top 1% of |eigenvalue| indices."""
    weights = spectrum.weights()
    edge = weights >= 0.99 * spectrum.cutoff
    return float((psi[edge] ** 2).sum())


def _assemble_point(
    cost: CostFunction,
    spectrum: Spectrum,
    beta: float,
    alpha: float,
    pair: EigenPair,
) -> OptimalPoint:
    state = ProbeState(spectrum=spectrum, amplitudes=pair.vector)
    metrics = canonical.state_metrics(state)
    return OptimalPoint(
        cost=cost.name,
        beta=beta,
        alpha=alpha,
        mean_constraint=state.mean_weight(),
        delta=math.sqrt(metrics["amse"]),
        delta_H=math.sqrt(metrics["holevo"])
        if math.isfinite(metrics["holevo"])
        else math.inf,
        delta_1=metrics["delta1"],
        delta_2=metrics["delta2"],
        delta_3=metrics["delta3"],
        cutoff=spectrum.cutoff,
        residual=pair.residual,
        state=state,
    )


def solve_point(
    cost: CostFunction,
    spectrum: Spectrum,
    beta: float,
    start_vector: np.ndarray | None = None,
) -> OptimalPoint:
    """Solve one Lagrangian point at fixed beta.

    For penalized solves (beta != 0) the truncation is accepted when the top
    1% of |eigenvalue| indices carry at most 1e-12 probability; otherwise the
    cutoff is doubled and the solve repeated.  At beta = 0 the cutoff itself
    is the constraint (hard-box optimum), so no doubling applies.
    """
    for _ in range(_MAX_CUTOFF_DOUBLINGS):
        alpha, pair = _solve_eigen(cost, spectrum, beta, start_vector)
        if beta == 0.0 or _tail_mass(spectrum, pair.vector) <= 1e-12:
            return _assemble_point(cost, spectrum, beta, alpha, pair)
        spectrum = spectrum.with_cutoff(2 * spectrum.cutoff)
        start_vector = None
    raise RuntimeError(
        f"cutoff still insufficient after {_MAX_CUTOFF_DOUBLINGS} doublings"
    )


def default_cutoff(target: float, factor: float = 10.0, floor: int = 100) -> int:
    """Truncation rule for a requested mean: max(floor, ceil(factor * target))."""
    return max(int(floor), math.ceil(factor * target))


def _sweep_signed_beta(cost: CostFunction, penalty: float) -> float:
    return penalty if cost.name in _MAX_FORM else -penalty


def _seed_penalty(cost: CostFunction, target: float) -> float:
    """Asymptotic Lagrange-multiplier scale for a requested mean."""
    length = target + 1.0
    if cost.name == "f1":
        return 1.8936 / length**3  # beta -> k_C^2 / <N+1>^3 on the curve
    return 3.8 / length**3  # ~ 2 k_C^2, right order for f2 and theta_sq


def _root_find_mean(
    cost: CostFunction,
    spectrum: Spectrum,
    target: float,
    seed_penalty: float,
    slope: float,
) -> OptimalPoint:
    """Safeguarded secant on f(t) = log(mean / target), t = log(penalty).

    f decreases in t (the mean falls as the penalty grows).  The first step
    is Newton with the caller's ``slope`` estimate of df/dt, later ones the
    secant through the two latest iterates (kept only while decreasing);
    steps are capped at log 8, and a step leaving the bracket, once both
    signs are seen, is replaced by bisection.  One eigensolve per trial.
    """
    weights = spectrum.weights()
    start: np.ndarray | None = None
    above = below = None  # latest t with the mean above / below the target
    previous: tuple[float, float] | None = None
    t = math.log(seed_penalty)
    for _ in range(80):
        alpha, pair = _solve_eigen(
            cost, spectrum, _sweep_signed_beta(cost, math.exp(t)), start
        )
        start = pair.vector
        mean = float(weights @ pair.vector**2)
        if abs(mean - target) <= _MEAN_RTOL * target:
            break
        f = math.log(mean / target)
        if f > 0.0:
            above = t
        else:
            below = t
        bracketed = above is not None and below is not None
        if bracketed and abs(below - above) <= _BETA_RTOL:
            break
        if previous is not None and t != previous[0]:
            secant = (f - previous[1]) / (t - previous[0])
            if secant < 0.0:
                slope = secant
        previous = (t, f)
        step = min(max(-f / slope, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        lo, hi = sorted((above, below)) if bracketed else (-math.inf, math.inf)
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    else:
        if above is None or below is None:
            raise RuntimeError(f"failed to bracket mean target {target}")
        raise RuntimeError(f"mean {mean} missed target {target} beyond tolerance")
    beta = _sweep_signed_beta(cost, math.exp(t))
    point = _assemble_point(cost, spectrum, beta, alpha, pair)
    if abs(point.mean_constraint - target) > _MEAN_RTOL * target:
        raise RuntimeError(
            f"assembled mean {point.mean_constraint} missed target {target}"
        )
    return point


def sweep_curve(
    cost: CostFunction,
    spectrum_kind: str | Spectrum,
    targets: list[float],
    cutoff_factor: float = 10.0,
    cutoff_floor: int = 100,
) -> list[OptimalPoint]:
    """Solve the constrained optimum at each requested mean value.

    ``spectrum_kind`` is 'nonneg' or 'symmetric' (or a Spectrum whose kind
    is used); the cutoff per target follows max(floor, ceil(factor*target)).
    Targets must be positive and sorted ascending; each mean lands within
    relative 1e-6 of its target.  Later targets are seeded from the last
    point as penalty ~ target^(1/s), s = d log mean / d log penalty between
    the last two points (-1/3, the large-mean asymptote, before two exist);
    s is also the root finder's first Newton slope.
    """
    kind = (
        spectrum_kind.kind if isinstance(spectrum_kind, Spectrum) else spectrum_kind
    )
    targets = [float(t) for t in targets]
    if any(t <= 0.0 for t in targets):
        raise ValueError("targets must be positive")
    if sorted(targets) != targets:
        raise ValueError("targets must be sorted ascending")

    points: list[OptimalPoint] = []
    slope = _LARGE_MEAN_SLOPE
    for target in targets:
        spectrum = Spectrum(
            kind=kind, cutoff=default_cutoff(target, cutoff_factor, cutoff_floor)
        )
        if points:
            last = points[-1]
            seed = abs(last.beta) * (target / last.mean_constraint) ** (1.0 / slope)
        else:
            seed = _seed_penalty(cost, target)
        points.append(_root_find_mean(cost, spectrum, target, seed, slope))
        if len(points) >= 2:
            a, b = points[-2], points[-1]
            rise = math.log(b.mean_constraint / a.mean_constraint)
            run = math.log(abs(b.beta) / abs(a.beta))
            if run < 0.0 < rise:
                slope = rise / run

    penalties = [abs(p.beta) for p in points]
    if any(b2 >= b1 for b1, b2 in zip(penalties, penalties[1:])):
        raise RuntimeError("penalty failed to decrease along the sweep")
    return points


def delta3_on_f1_state(point: OptimalPoint) -> float:
    """delta_3 evaluated on a stored f1-optimal state (the upper-bound curve)."""
    if point.cost != "f1":
        raise ValueError(f"point was produced by cost {point.cost!r}, not f1")
    q1, q2 = canonical.moment_deficits(point.state, 2)
    return math.sqrt(max(-canonical.F3_A1 * q1 - canonical.F3_A2 * q2, 0.0))
