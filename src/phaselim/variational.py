"""Constrained variational optima of phase-error metrics.

For a figure-of-merit integrand f(theta) = a_0 + sum_m a_m cos(m theta) and
a probe state psi over the generator spectrum, <f> is the quadratic form of
the Fourier (Toeplitz) matrix Z(f) with entries z_|m-n|, z_0 = a_0,
z_m = a_m / 2.  Minimizing <f> at a fixed mean weight <W> (<N> or <|J|>) is
a Lagrangian eigenproblem, the same for every cost: the optimal state is
the smallest eigenvector of

    Z(f) + p * diag(W),    penalty p >= 0,

and its eigenvalue is <f> + p <W>.  The mean falls as p grows, so sweeping
p traces the lower convex envelope of the (mean, metric) trade-off;
``sweep_curve`` root-finds p for requested mean values.

The public multiplier ``beta`` keeps the scale and sign of the objective
each cost was first posed with, beta = c * p:

    f1        c = 1/2   maximize <cos t> - beta <W>      (beta >= 0)
    f2        c = 1     maximize 5/2 - <f2> - beta <W>   (beta >= 0)
    theta_sq  c = -1    minimize <f> - beta <W>          (beta <= 0)
    f3        c = -1    minimize <f> - beta <W>          (beta <= 0)

Cost functions:

    f1, f2, f3  the cosine series of ``canonical.COSINE_COSTS``, with
                <f1> = delta_1^2, <f2> = delta_2^2 and f2 <= t^2 <= f3
    theta_sq    t^2, its Fourier matrix applied as D' Z(g) D at every
                dimension, g = t^2 / (2 - 2 cos t) and D the difference map
                (``canonical.theta_sq_kernel``)

The f1 problem also minimizes the Holevo variance, since both are monotone
in <cos Theta>.

Truncation is one policy for every solve.  A target mean starts at cutoff
max(_MIN_CUTOFF, ceil(_CUTOFF_PER_L * L)) in the paper's scale variable
L = <N+1> (nonneg) or <2|J|+1> (symmetric), where the optimum's tail has
decayed to ~1e-22.  A solved point is accepted when its top-1% tail mass is
at most _TAIL_RTOL * q_1, q_1 = 1 - <cos Theta> being of the order of every
metric; otherwise the cutoff doubles (``_truncated_solve``, the only
doubling loop).

A sweep seeds its first target from the asymptote of the target's regime
(``_first_seed``): perturbation theory about the vacuum at small means,
mean ~ C_f / p^2, and the paper's p -> 2 k_C^2 / L^3 (nonneg) or
4 k'_C^2 / L^3 (symmetric) at large ones.  Each later target is seeded from
the last point along the local slope d log mean / d log p that the root
finder measured there, bent by the curvature of the two asymptotes' shape
(``_penalty_shape``).  Across the trials at one cutoff only diag(p W)
changes, so the theta_sq Toeplitz part and its FFT kernel are built once
per dimension (``_theta_sq_toeplitz``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import asympt, canonical
from .eigensolve import BandedSymmetric, EigenPair, ToeplitzPlusDiagonal, extremal_eigenpair
from .states import ProbeState, Spectrum

__all__ = [
    "CostFunction",
    "OptimalPoint",
    "ProbeState",
    "Spectrum",
    "build_matrix",
    "check_dimension",
    "cost_function",
    "solve_point",
    "sweep_curve",
    "default_cutoff",
]

_MAX_CUTOFF_DOUBLINGS = 8
_CUTOFF_PER_L = 8.0  # the optimum's tail in W/L is ~1e-22 here (Airy decay)
_MIN_CUTOFF = 100  # small-mean theta_sq optima have power-law tails
_TAIL_RTOL = 1e-10  # accepted top-1% tail mass, relative to q_1
_MAX_DIMENSION = 10_000_000  # rows; ten times the largest matrix the tests solve
_MEAN_RTOL = 1e-6
_BETA_RTOL = 1e-8
_MAX_LOG_STEP = math.log(8.0)  # largest root-finder step in log(penalty)
_MAX_TRIALS = 80  # root-finder eigensolves per cutoff
_SMALL_MEAN = 0.3  # a first target below this is seeded from mean ~ C_f / p^2
_BETA_PER_PENALTY = {"f1": 0.5, "f2": 1.0, "theta_sq": -1.0, "f3": -1.0}


@dataclass(frozen=True)
class CostFunction:
    """A cost on [-pi, pi]: the finite cosine series a_0 + sum a_m cos(m theta)
    of ``cosine_coeffs``, or theta^2 itself when they are None (its Fourier
    matrix is applied in difference form, module docstring)."""

    name: str
    cosine_coeffs: np.ndarray | None

    def __post_init__(self) -> None:
        if self.cosine_coeffs is None:
            return
        coeffs = np.asarray(self.cosine_coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("need at least coefficients (a_0, a_1)")
        object.__setattr__(self, "cosine_coeffs", coeffs)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.cosine_coeffs is None:
            return theta**2
        return self.cosine_sum([np.cos(m * theta) for m in range(1, self.cosine_coeffs.size)])

    def cosine_sum(self, cosines: list[np.ndarray]) -> np.ndarray:
        """a_0 + sum_m a_m cosines[m - 1], given cosines[m - 1] = cos(m theta)
        for m = 1 up to at least the series' order, added term by term."""
        result = np.full_like(cosines[0], self.cosine_coeffs[0])
        for coeff, cosine in zip(self.cosine_coeffs[1:], cosines):
            result += coeff * cosine
        return result


def cost_function(name: str) -> CostFunction:
    """Construct a named cost function: theta_sq, or a cosine series of
    ``canonical.COSINE_COSTS`` (f1, f2, f3)."""
    if name == "theta_sq":
        return CostFunction(name, None)
    if name not in canonical.COSINE_COSTS:
        raise ValueError(f"unknown cost function {name!r}")
    return CostFunction(name, np.array(canonical.COSINE_COSTS[name]))


@dataclass(frozen=True)
class OptimalPoint:
    """One solved variational point with all error metrics.

    ``penalty`` is the p >= 0 of Z(f) + p diag(W) and ``beta`` the public
    multiplier c * p read from it (module docstring).  ``residual`` is the
    norm ||A v - rho v|| for that matrix A, rho being the state's Rayleigh
    quotient, and ``tail_mass`` the probability on the top 1% of
    |eigenvalue| indices, the number the truncation test compares with
    _TAIL_RTOL * q_1.
    """

    cost: str
    penalty: float
    mean_constraint: float
    delta: float
    delta_H: float
    delta_1: float
    delta_2: float
    delta_3: float
    cutoff: int
    residual: float
    tail_mass: float
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
    def beta(self) -> float:
        """The public multiplier c * penalty (module docstring)."""
        return _BETA_PER_PENALTY[self.cost] * self.penalty

    @property
    def scale_factor(self) -> float:
        """<N+1> for nonneg spectra, <2|J|+1> for symmetric ones."""
        return _scale(self.state.spectrum.kind, self.mean_constraint)


def _penalty(cost: CostFunction, beta: float) -> float:
    """Penalty p >= 0 of the public multiplier beta = c * p (module docstring)."""
    if cost.name not in _BETA_PER_PENALTY:
        raise ValueError(f"no beta convention for cost {cost.name!r}")
    factor = _BETA_PER_PENALTY[cost.name]
    penalty = beta / factor
    if penalty < 0.0:
        bound = ">=" if factor > 0.0 else "<="
        raise ValueError(f"{cost.name} requires beta {bound} 0, got {beta}")
    return penalty


@functools.lru_cache(maxsize=2)
def _theta_sq_toeplitz(dimension: int) -> ToeplitzPlusDiagonal:
    """Z(theta_sq) = D' Z(g) D with a zero diagonal, built and
    FFT-transformed once.

    The trials of one root finder differ only in diag(p W), so each trial
    matrix is ``with_diagonal`` of this one; its arrays are read-only.
    """
    matrix = ToeplitzPlusDiagonal(
        kernel=canonical.theta_sq_kernel(dimension + 1), diagonal=np.zeros(dimension)
    )
    for array in (matrix.diagonal, matrix._fft_kernel):
        array.flags.writeable = False
    return matrix


def _matrix(
    cost: CostFunction, spectrum: Spectrum, penalty: float
) -> BandedSymmetric | ToeplitzPlusDiagonal:
    """Z(f) + penalty * diag(weight): banded with z_0 = a_0, z_m = a_m / 2
    for a cosine series, Toeplitz plus diagonal in difference form (FFT-applied)
    for theta_sq."""
    diagonal = penalty * spectrum.weights()
    a = cost.cosine_coeffs
    if a is None:
        return _theta_sq_toeplitz(spectrum.dimension).with_diagonal(diagonal)
    take = min(a.size, spectrum.dimension)
    bands = [np.full(spectrum.dimension - m, 0.5 * a[m]) for m in range(1, take)]
    return BandedSymmetric([a[0] + diagonal, *bands])


def build_matrix(
    cost: CostFunction, spectrum: Spectrum, beta: float
) -> BandedSymmetric | ToeplitzPlusDiagonal:
    """Matrix Z(f) + p * diag(weight) of the constrained problem at ``beta``.

    Z(f) is the Fourier matrix of the cost and p = beta / c the penalty of
    the public multiplier (module docstring), so psi' A psi = <f> + p <W>
    for every cost; a beta of the wrong sign raises ValueError.  f1, f2 and
    f3 are banded; theta_sq matrices are returned in Toeplitz-plus-diagonal
    form, whose read-only Toeplitz part D' Z(g) D is shared by the matrices
    of one dimension.
    """
    return _matrix(cost, spectrum, _penalty(cost, beta))


def check_dimension(spectrum: Spectrum) -> None:
    """Raise ValueError for a spectrum over _MAX_DIMENSION rows, before any
    solve allocates its O(dimension) vectors."""
    if spectrum.dimension > _MAX_DIMENSION:
        raise ValueError(
            f"dimension {spectrum.dimension} (cutoff {spectrum.cutoff}) exceeds "
            f"the limit of {_MAX_DIMENSION} rows"
        )


def _solve_eigen(
    cost: CostFunction,
    spectrum: Spectrum,
    penalty: float,
    start_vector: np.ndarray | None,
) -> EigenPair:
    """Smallest eigenpair of Z(f) + penalty * diag(weight).

    A Toeplitz (theta_sq) matrix is preconditioned by the f3 matrix at the
    same penalty: 0.6919 f3 <= theta^2 <= f3 on [-pi, pi] makes the two
    spectrally equivalent with condition number <= 1.445.  A cold start is
    ``extremal_eigenpair``'s own: the Sturm vector of D'D + diag(p W),
    which is the f1 matrix at the same penalty.
    """
    matrix = _matrix(cost, spectrum, penalty)
    if isinstance(matrix, BandedSymmetric):
        return extremal_eigenpair(matrix, start_vector=start_vector)
    f3 = _matrix(cost_function("f3"), spectrum, penalty)
    return extremal_eigenpair(matrix, start_vector=start_vector, preconditioner=f3)


def _truncated_solve(
    cost: CostFunction,
    spectrum: Spectrum,
    penalty: float,
    start: np.ndarray | None,
    target: float | None = None,
    slope: float = 0.0,
) -> tuple[OptimalPoint, float]:
    """The one truncation loop: solve, test the tail, double the cutoff.

    Each cutoff is one eigensolve at ``penalty`` (``_solve_eigen``), or
    without one, with a mean ``target``, a root-find of the penalty that
    lands on it (``_root_find_mean``, seeded at ``penalty`` with Newton
    slope ``slope``).  The truncation is accepted when the top 1% of
    |eigenvalue| indices carry at most ``_TAIL_RTOL * q_1`` probability
    (module docstring); otherwise the cutoff is doubled and the solve
    resumes at the settled penalty and slope from the zero-padded vector.
    At p = 0 the cutoff itself is the constraint (hard-box optimum), so no
    test applies.  A spectrum over ``_MAX_DIMENSION`` rows raises
    ValueError before it is allocated; a tail still too heavy after
    ``_MAX_CUTOFF_DOUBLINGS`` doublings raises RuntimeError.  Returns the
    point and the root finder's last slope d log mean / d log penalty
    (``slope`` unchanged without a target).
    """
    for _ in range(_MAX_CUTOFF_DOUBLINGS):
        check_dimension(spectrum)
        if target is None:
            pair = _solve_eigen(cost, spectrum, penalty, start)
        else:
            penalty, pair, slope = _root_find_mean(cost, spectrum, target, penalty, slope, start)
        state = ProbeState(spectrum=spectrum, amplitudes=pair.vector)
        edge = spectrum.weights() >= 0.99 * spectrum.cutoff
        tail = float((state.amplitudes[edge] ** 2).sum())
        metrics = canonical.state_metrics(state)
        q1 = metrics["delta1"] ** 2 / 2.0
        if penalty == 0.0 or tail <= _TAIL_RTOL * q1:
            break
        state = state.with_cutoff(2 * spectrum.cutoff)
        spectrum, start = state.spectrum, state.amplitudes
    else:
        raise RuntimeError(
            f"cutoff still insufficient after {_MAX_CUTOFF_DOUBLINGS} doublings"
        )
    return OptimalPoint(
        cost=cost.name,
        penalty=penalty,
        mean_constraint=state.mean_weight(),
        delta=math.sqrt(metrics["amse"]),
        delta_H=math.sqrt(metrics["holevo"]),
        delta_1=metrics["delta1"],
        delta_2=metrics["delta2"],
        delta_3=metrics["delta3"],
        cutoff=spectrum.cutoff,
        residual=pair.residual,
        tail_mass=tail,
        state=state,
    ), slope


def solve_point(
    cost: CostFunction,
    spectrum: Spectrum,
    beta: float,
    start_vector: np.ndarray | None = None,
) -> OptimalPoint:
    """Solve one Lagrangian point at fixed public multiplier ``beta``.

    The state is the smallest eigenvector of Z(f) + p diag(weight), p the
    penalty of ``beta`` (module docstring; a beta of the wrong sign raises
    ValueError).  One eigensolve per cutoff; for p > 0 the truncation is
    tested, and the cutoff doubled, by ``_truncated_solve``.
    ``start_vector`` must match the spectrum's dimension.
    """
    return _truncated_solve(cost, spectrum, _penalty(cost, beta), start_vector)[0]


def _scale(kind: str, mean: float) -> float:
    """The paper's scale variable L: <N+1> (nonneg) or <2|J|+1> (symmetric)."""
    return mean + 1.0 if kind == "nonneg" else 2.0 * mean + 1.0


def default_cutoff(kind: str, target: float) -> int:
    """Truncation rule for a requested mean: max(_MIN_CUTOFF, ceil(_CUTOFF_PER_L L)),
    L = target + 1 (nonneg) or 2 target + 1 (symmetric)."""
    return max(_MIN_CUTOFF, math.ceil(_CUTOFF_PER_L * _scale(kind, target)))


def _penalty_shape(kind: str, mean: float) -> tuple[float, float]:
    """log p, up to a constant, and d log p / d log mean on the shape of the
    two asymptotes: p ~ mean^(-1/2) at small means and p ~ L^-3 at large
    ones, joined at L = 6/5, where both slopes are -1/2."""
    scale = _scale(kind, mean)
    if scale < 1.2:
        return 0.5 * math.log(0.2 / (scale - 1.0)) - 3.0 * math.log(1.2), -0.5
    return -3.0 * math.log(scale), -3.0 * (scale - 1.0) / scale


def _first_seed(
    cost: CostFunction, spectrum: Spectrum, target: float
) -> tuple[float, float]:
    """Penalty and slope s = d log mean / d log p seeding a sweep's first
    target, from the asymptote of its regime.

    Below _SMALL_MEAN, perturbation theory about the vacuum: psi_n ~
    -z_n / (p W_n), so mean ~ C_f / p^2 with C_f = sum_{n != 0} z_n^2 / W_n
    (1 for f1, 16/9 + 1/288 for f2, 4 zeta(5) for theta_sq on a nonneg
    spectrum, from ``canonical.theta_sq_entries`` summed to the cutoff;
    twice that on a symmetric one).  Above it, the paper's
    p -> 2 k_C^2 / L^3 (nonneg) or 4 k'_C^2 / L^3 (symmetric), L = <N+1> or
    <2|J|+1>.  The slope is that of ``_penalty_shape``.
    """
    kind = spectrum.kind
    if target < _SMALL_MEAN:
        if cost.cosine_coeffs is None:
            z = canonical.theta_sq_entries(np.arange(1, spectrum.cutoff + 1))
        else:
            z = 0.5 * cost.cosine_coeffs[1 : spectrum.cutoff + 1]
        c_f = float((z**2 / np.arange(1, z.size + 1)).sum())
        seed = math.sqrt((c_f if kind == "nonneg" else 2.0 * c_f) / target)
    else:
        constants = asympt.constants()
        if kind == "nonneg":
            seed = 2.0 * constants.k_C**2 / _scale(kind, target) ** 3
        else:
            seed = 4.0 * constants.k_C_prime**2 / _scale(kind, target) ** 3
    return seed, 1.0 / _penalty_shape(kind, target)[1]


def _root_find_mean(
    cost: CostFunction,
    spectrum: Spectrum,
    target: float,
    seed_penalty: float,
    slope: float,
    start: np.ndarray | None,
) -> tuple[float, EigenPair, float]:
    """Penalty putting the mean on ``target`` at this cutoff, its eigenpair,
    and the local slope d log mean / d log penalty there.

    Safeguarded secant on f(t) = log(mean / target), t = log(penalty); f
    decreases in t (the mean falls as the penalty grows).  The first step
    is Newton with the caller's ``slope`` estimate of df/dt, later ones the
    secant through the two latest iterates (kept only while negative); the
    returned slope is the last such secant, or ``slope`` if the first trial
    lands.  Steps are capped at log 8, and a step leaving the bracket, once
    both signs are seen, is replaced by bisection.  A target beyond this
    cutoff's reach raises RuntimeError as soon as a capped step down in
    penalty raises a mean still below it by less than _MEAN_RTOL relative:
    the mean has saturated near its hard-box (p -> 0) value.  One eigensolve
    per trial, the first from ``start``, each later one from the previous
    vector.  Only the returned pair's truncation is tested
    (``_truncated_solve``); the trial iterates at other penalties are not.
    """
    weights = spectrum.weights()
    above = below = None  # latest t with the mean above / below the target
    previous: tuple[float, float, float] | None = None  # t, f and mean
    capped_down = False  # the step to this trial was a capped step down
    t = math.log(seed_penalty)
    for _ in range(_MAX_TRIALS):
        pair = _solve_eigen(cost, spectrum, math.exp(t), start)
        start = pair.vector
        mean = float(weights @ pair.vector**2)
        f = math.log(mean / target)
        if previous is not None and t != previous[0]:
            secant = (f - previous[1]) / (t - previous[0])
            if secant < 0.0:
                slope = secant
        if abs(mean - target) <= _MEAN_RTOL * target:
            break
        if capped_down and above is None and mean - previous[2] < _MEAN_RTOL * mean:
            raise RuntimeError(
                f"mean target {target} is beyond reach at cutoff {spectrum.cutoff}: "
                f"the mean saturates at {mean}"
            )
        if f > 0.0:
            above = t
        else:
            below = t
        bracketed = above is not None and below is not None
        if bracketed and abs(below - above) <= _BETA_RTOL:
            break
        previous = (t, f, mean)
        step = min(max(-f / slope, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        lo, hi = sorted((above, below)) if bracketed else (-math.inf, math.inf)
        capped_down = step == -_MAX_LOG_STEP
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    else:
        if above is None or below is None:
            raise RuntimeError(f"failed to bracket mean target {target}")
        raise RuntimeError(f"mean {mean} missed target {target} beyond tolerance")
    return math.exp(t), pair, slope


def sweep_curve(
    cost: CostFunction,
    kind: str,
    targets: list[float],
) -> list[OptimalPoint]:
    """Solve the constrained optimum at each requested mean value.

    ``kind`` is the spectrum kind, 'nonneg' or 'symmetric'.  Each target
    starts at ``default_cutoff``, or at the last point's cutoff if that is
    larger, and its root-found point passes the same truncation test as
    ``solve_point`` (``_truncated_solve``).
    Targets must be positive and sorted ascending; each mean lands within
    relative 1e-6 of its target.  The first target is seeded from the
    asymptote of its regime (``_first_seed``).  Each later one is seeded
    from the last point as penalty ~ target^(1/s), s = d log mean / d log
    penalty as the root finder measured it there, with log p and 1/s bent
    by the change of the asymptotes' shape between the two means
    (``_penalty_shape``: exact if the curve is that shape times a constant);
    the bent s is the root finder's first Newton slope.  For a tridiagonal
    (f1) matrix the first eigensolve of each later target starts from the
    last point's vector, zero-padded to the new cutoff; a wider band (f2,
    f3) starts from the Sturm vector of its tridiagonal part, and a Toeplitz
    (theta_sq) solve from ``extremal_eigenpair``'s cold start, the f1
    matrix's eigenvector (3 % fewer mat-vecs than the padded vector, same
    time).  Later trials of one target, and
    cutoff doublings, start from the previous vector.  A target whose
    starting matrix would exceed ``_MAX_DIMENSION`` rows raises ValueError
    before any solve.
    """
    targets = [float(t) for t in targets]
    if any(t <= 0.0 for t in targets):
        raise ValueError("targets must be positive")
    if sorted(targets) != targets:
        raise ValueError("targets must be sorted ascending")
    spectra = [Spectrum(kind=kind, cutoff=default_cutoff(kind, t)) for t in targets]
    for spectrum in spectra:
        check_dimension(spectrum)

    points: list[OptimalPoint] = []
    slope = 0.0  # d log mean / d log penalty at the last point
    for target, spectrum in zip(targets, spectra):
        start = None
        if points:
            spectrum = spectrum.with_cutoff(max(spectrum.cutoff, points[-1].cutoff))
            # the measured slope, bent by the curvature of the asymptotes' shape
            mean = points[-1].mean_constraint
            shape_last, inverse_last = _penalty_shape(kind, mean)
            shape_next, inverse_next = _penalty_shape(kind, target)
            rise = math.log(target / mean)
            seed = points[-1].penalty * math.exp(
                rise / slope + shape_next - shape_last - rise * inverse_last
            )
            slope = 1.0 / (1.0 / slope + inverse_next - inverse_last)
            # Only a tridiagonal (f1) target starts from the last vector,
            # zero-padded: its warm solve (~2 ms) beats Sturm bisection
            # (~4 ms).  For a wider band (f2, f3) a widely spaced target's
            # padded start often leads Rayleigh-quotient iteration to a
            # higher pair, and the failed certificate costs up to five banded
            # LU solves before the Sturm start the cold path takes anyway.
            if cost.cosine_coeffs is not None and cost.cosine_coeffs.size == 2:
                start = points[-1].state.with_cutoff(spectrum.cutoff).amplitudes
        else:
            seed, slope = _first_seed(cost, spectrum, target)
        point, slope = _truncated_solve(cost, spectrum, seed, start, target, slope)
        if abs(point.mean_constraint - target) > _MEAN_RTOL * target:
            raise RuntimeError(
                f"assembled mean {point.mean_constraint} missed target {target}"
            )
        points.append(point)

    if any(b.penalty >= a.penalty for a, b in zip(points, points[1:])):
        raise RuntimeError("penalty failed to decrease along the sweep")
    return points

