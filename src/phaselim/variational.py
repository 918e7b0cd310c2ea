"""Constrained variational optima of phase-error metrics.

For a figure-of-merit integrand f(theta) = a_0 + sum_m a_m cos(m theta) and
a probe state psi over the generator spectrum, <f> is the quadratic form of
the Fourier (Toeplitz) matrix Z(f) with entries z_|m-n|, z_0 = a_0,
z_m = a_m / 2.  Minimizing <f> at a fixed mean weight <W>, W read only
from ``Spectrum.weights()``, is a Lagrangian eigenproblem, the same for
every cost: the optimal state is the smallest eigenvector of

    Z(f) + p * diag(W),    penalty p >= 0,

and its eigenvalue is <f> + p <W>.  The mean falls as p grows, so sweeping
p traces the lower convex envelope of the (mean, metric) trade-off;
``sweep_curve`` root-finds p for requested mean values.

``build_matrix`` takes p.  The public multiplier ``beta`` of
``solve_point`` and ``OptimalPoint.beta`` keeps the scale and sign of the
objective each cost was first posed with, beta = c * p:

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

A symmetric spectrum's matrix commutes with j -> -j, so it is solved on
its even sector, of cutoff + 1 rows (``_sector_matrix``), each pair
certified to lie below the odd sector (``_certify_even``); only the
point's state is unfolded to the full line.

A sweep seeds its first target from the asymptote of the target's regime
(``_first_seed``): perturbation theory about the vacuum at small means,
mean ~ C_f / p^2, and the paper's p -> 2 k_C^2 / L^3 (nonneg) or
4 k'_C^2 / L^3 (symmetric; 4 k'_C^2 (2 mean)^-3 above mean 3) at large
ones.  Each later target is seeded from the last point along the local
slope d log mean / d log p that the root finder measured there, bent by
the curvature of the two asymptotes' shape (``_penalty_shape``).  These
large-mean laws, like ``canonical``'s margin ``heis_k_a``, hold for
W = |j| only, and a new W must revisit them.  Across the trials at one
cutoff only diag(p W) changes, so the theta_sq Toeplitz part and its FFT
kernel are built once per dimension (``_theta_sq_toeplitz``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import asympt, canonical
from .eigensolve import BandedSymmetric, EigenPair, EigsolveError, ToeplitzPlusDiagonal
from .eigensolve import _factor_below, extremal_eigenpair
from .states import ProbeState, Spectrum

__all__ = [
    "CostFunction",
    "OptimalPoint",
    "build_matrix",
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
_SYMMETRIC_KNEE = 3.0  # symmetric means above this follow p ~ (2 mean)^-3
_BETA_PER_PENALTY = {"f1": 0.5, "f2": 1.0, "theta_sq": -1.0, "f3": -1.0}
_EVEN_MARGIN = 1e-12  # rounding allowance of _certify_even, relative to ||A||


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
        return _scale(self.state.spectrum.sides, self.mean_constraint)


def _penalty(cost: CostFunction, beta: float) -> float:
    """Penalty p >= 0 of the public multiplier beta = c * p (module docstring);
    a beta of the wrong sign, infinite or NaN raises ValueError."""
    if cost.name not in _BETA_PER_PENALTY:
        raise ValueError(f"no beta convention for cost {cost.name!r}")
    factor = _BETA_PER_PENALTY[cost.name]
    penalty = beta / factor
    if not 0.0 <= penalty < math.inf:
        bound = ">=" if factor > 0.0 else "<="
        raise ValueError(f"{cost.name} requires a finite beta {bound} 0, got {beta}")
    return penalty


@functools.lru_cache(maxsize=2)
def _theta_sq_toeplitz(dimension: int, even: bool = False) -> ToeplitzPlusDiagonal:
    """Z(theta_sq) = D' Z(g) D with a zero diagonal, or with ``even`` its
    even sector of that dimension, built and FFT-transformed once.

    The trials of one root finder differ only in diag(p W), so each trial
    matrix is ``with_diagonal`` of this one; its arrays are read-only.
    """
    size = 2 * dimension if even else dimension + 1
    matrix = ToeplitzPlusDiagonal(
        kernel=canonical.theta_sq_kernel(size), diagonal=np.zeros(dimension), even=even
    )
    for array in (matrix.diagonal, matrix._fft_kernel):
        array.flags.writeable = False
    return matrix


def build_matrix(
    cost: CostFunction, spectrum: Spectrum, penalty: float
) -> BandedSymmetric | ToeplitzPlusDiagonal:
    """Matrix Z(f) + penalty * diag(weight) of the constrained problem.

    Z(f) is the Fourier matrix of the cost, so psi' A psi = <f> + p <W> for
    every cost; a penalty that is not finite and >= 0 (p < 0, inf or NaN)
    raises ValueError.  f1, f2 and f3 are banded, with z_0 = a_0 and
    z_m = a_m / 2; theta_sq matrices are returned in Toeplitz-plus-diagonal
    form, whose read-only Toeplitz part D' Z(g) D is shared by the matrices
    of one dimension.
    """
    if not 0.0 <= penalty < math.inf:
        raise ValueError(f"the penalty must be >= 0 and finite, got {penalty}")
    diagonal = penalty * spectrum.weights()
    a = cost.cosine_coeffs
    if a is None:
        return _theta_sq_toeplitz(spectrum.dimension).with_diagonal(diagonal)
    take = min(a.size, spectrum.dimension)
    bands = [np.full(spectrum.dimension - m, 0.5 * a[m]) for m in range(1, take)]
    return BandedSymmetric([a[0] + diagonal, *bands])


def _check_rows(rows: float) -> None:
    """Raise ValueError for a matrix of over _MAX_DIMENSION rows (or an
    infinite or NaN count), before any solve allocates its O(rows) vectors."""
    if not rows <= _MAX_DIMENSION:
        raise ValueError(f"dimension {rows:.10g} exceeds the limit of {_MAX_DIMENSION} rows")


def _fold(spectrum: Spectrum, psi: np.ndarray) -> np.ndarray:
    """A state's coordinates in the solved sector: psi (nonneg), or Q' psi,
    phi_0 = psi_0 and phi_j = (psi_j + psi_-j) / sqrt 2 (symmetric)."""
    if spectrum.kind == "nonneg":
        return psi
    cutoff = spectrum.cutoff
    phi = (psi[cutoff:] + psi[cutoff::-1]) * math.sqrt(0.5)
    phi[0] = psi[cutoff]
    return phi


def _unfold(spectrum: Spectrum, phi: np.ndarray) -> np.ndarray:
    """The state Q phi, Q = [e_0, (e_j + e_-j) / sqrt 2]: an isometry, and
    the inverse of ``_fold`` on even states."""
    if spectrum.kind == "nonneg":
        return phi
    half = phi[1:] * math.sqrt(0.5)
    return np.concatenate((half[::-1], phi[:1], half))


def _sector_matrix(
    cost: CostFunction, spectrum: Spectrum, penalty: float
) -> BandedSymmetric | ToeplitzPlusDiagonal:
    """The matrix solved: ``build_matrix``'s A for a nonneg spectrum, and
    for a symmetric one, whose A commutes with j -> -j, its even sector
    Q' A Q (``_unfold``; ``_certify_even`` shows the optimum even).

    Q' A Q has weights j = 0 .. cutoff and entries z_|a-b| + z_(a+b) for
    a, b >= 1 and sqrt 2 z_b in row 0: for a band, the half line's A with
    the row-0 couplings times sqrt 2 and the Hankel terms z_(a+b) added; for
    theta_sq the ``even`` Toeplitz part, whose DST mat-vec is half the full one.
    """
    if spectrum.kind == "nonneg":
        return build_matrix(cost, spectrum, penalty)
    half = Spectrum("nonneg", spectrum.cutoff)
    if cost.cosine_coeffs is None:  # build_matrix(half) would crowd the 2-entry kernel cache
        even = _theta_sq_toeplitz(half.dimension, even=True)
        return even.with_diagonal(penalty * half.weights())
    bands = build_matrix(cost, half, penalty).diagonals
    for band in bands[1:]:
        band[0] *= math.sqrt(2.0)
    for m, coeff in enumerate(cost.cosine_coeffs[2:], start=2):
        for a in range(max(1, m - half.cutoff), m // 2 + 1):  # z_m at (a, m - a)
            bands[m - 2 * a][a] += 0.5 * coeff
    return BandedSymmetric(bands, even=True)


def _certify_even(weights: np.ndarray, penalty: float, value: float, norm: float) -> None:
    """Raise EigsolveError unless the even sector's pair, of Rayleigh
    quotient ``value``, lies below the odd sector, so that it is the optimum.

    The f1 matrix's odd sector, basis (e_j - e_-j) / sqrt 2, is
    tridiag(-1, 2 + p W_j, -1), j = 1 .. cutoff, W the sector's ``weights``;
    f1 <= f2 <= theta^2 <= f3 pointwise puts every cost's odd sector above
    it, so its L D L' factor (``_factor_below``) at the Rayleigh quotient
    rho plus _EVEN_MARGIN ||A|| certifies lambda_odd > rho >= lambda_even.
    """
    odd = BandedSymmetric([2.0 + penalty * weights[1:], np.full(weights.size - 2, -1.0)])
    if _factor_below(odd, value + _EVEN_MARGIN * norm) is None:
        raise EigsolveError(
            f"the even optimum at penalty {penalty:.6g} (eigenvalue {value:.6g}) "
            f"is not certified below the odd sector of cutoff {weights.size - 1}"
        )


def _solve_eigen(
    cost: CostFunction,
    spectrum: Spectrum,
    penalty: float,
    start_vector: np.ndarray | EigenPair | None,
    target: float | None = None,
    weights: np.ndarray | None = None,
) -> EigenPair:
    """Smallest eigenpair of Z(f) + penalty * diag(weight) on the solved
    sector (``_sector_matrix``), whose coordinates ``start_vector`` (a
    vector, or the previous trial's pair) and the result share; a symmetric
    pair is certified even (``_certify_even``).  ``weights`` is the sector's
    W, the half line's ``Spectrum.weights()``, built here unless passed.

    A Toeplitz (theta_sq) matrix is preconditioned by the f3 matrix at the
    same penalty: 0.6919 f3 <= theta^2 <= f3 on [-pi, pi] makes the two
    spectrally equivalent with condition number <= 1.445.  A cold start, of
    a Toeplitz or a banded solve, is ``extremal_eigenpair``'s own.  With a
    mean ``target`` a Toeplitz solve stops early once its mean lies
    certainly on one side of the target and off it by more than _MEAN_RTOL
    (a pair with ``converged`` False), and is otherwise solved in full with
    its mean resolved to _MEAN_RTOL; a banded solve ignores it.
    """
    if weights is None:
        weights = Spectrum("nonneg", spectrum.cutoff).weights()
    matrix = _sector_matrix(cost, spectrum, penalty)
    if isinstance(matrix, BandedSymmetric):
        pair = extremal_eigenpair(matrix, start_vector=start_vector, weights=weights)
    else:
        f3 = _sector_matrix(cost_function("f3"), spectrum, penalty)
        aim = None if target is None else (target, _MEAN_RTOL * target)
        pair = extremal_eigenpair(
            matrix, start_vector=start_vector, preconditioner=f3, weights=weights, mean_target=aim
        )
    if spectrum.kind == "symmetric":
        _certify_even(weights, penalty, pair.value, matrix.norm_bound())
    return pair


def _truncated_solve(
    cost: CostFunction,
    spectrum: Spectrum,
    penalty: float,
    start: np.ndarray | None,
    target: float | None = None,
    slope: float = 0.0,
) -> tuple[OptimalPoint, float]:
    """The one truncation loop: solve, test the tail, double the cutoff.

    ``start`` is folded into the solved sector (``_fold``) and each solved
    vector unfolded into a state.  Each cutoff is one eigensolve at
    ``penalty`` (``_solve_eigen``), or
    without one, with a mean ``target``, a root-find of the penalty that
    lands on it (``_root_find_mean``, seeded at ``penalty`` with Newton
    slope ``slope``).  The truncation is accepted when the top 1% of
    |eigenvalue| indices carry at most ``_TAIL_RTOL * q_1`` probability
    (module docstring); otherwise the cutoff is doubled and the solve
    resumes at the settled penalty and slope from the zero-padded vector.
    At p = 0 the cutoff itself is the constraint (hard-box optimum), so no
    test applies.  This loop alone judges a cutoff: the root finder only
    lands the mean at the cutoff it is given.  Each pass checks its
    dimension (``_check_rows``), so a spectrum over ``_MAX_DIMENSION`` rows
    raises ValueError before it is allocated; a tail still too heavy after
    ``_MAX_CUTOFF_DOUBLINGS`` doublings raises RuntimeError.  Returns the
    point and the root finder's last slope d log mean / d log penalty
    (``slope`` unchanged without a target).
    """
    for _ in range(_MAX_CUTOFF_DOUBLINGS):
        _check_rows(spectrum.dimension)
        if start is not None:
            start = _fold(spectrum, start)
        if target is None:
            pair = _solve_eigen(cost, spectrum, penalty, start)
        else:
            penalty, pair, slope = _root_find_mean(cost, spectrum, target, penalty, slope, start)
        state = ProbeState(spectrum=spectrum, amplitudes=_unfold(spectrum, pair.vector))
        edge = np.abs(spectrum.values()) >= 0.99 * spectrum.cutoff
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


def _scale(sides: int, mean: float) -> float:
    """The paper's scale variable L = sides * mean + 1: <N+1> or <2|J|+1>."""
    return sides * mean + 1.0


def default_cutoff(kind: str, target: float) -> int:
    """Truncation rule for a requested mean: max(_MIN_CUTOFF, ceil(_CUTOFF_PER_L L)),
    L = target + 1 (nonneg) or 2 target + 1 (symmetric).  There the hard-box
    (p -> 0) optimum's mean is at least 4 times the target (c / 2 = 4 L
    nonneg, about 0.297 c >= 4.75 target symmetric), so the mean rises
    past the target as the penalty falls.  An unknown kind raises
    ``Spectrum``'s ValueError, a dimension over _MAX_DIMENSION rows
    ValueError (``_check_rows``), checked before ceil, which fails on the
    infinite 8 L of 1e308."""
    sides = Spectrum(kind=kind, cutoff=1).sides
    cutoff = _CUTOFF_PER_L * _scale(sides, target)
    _check_rows(sides * cutoff + 1)
    return max(_MIN_CUTOFF, math.ceil(cutoff))


def _penalty_shape(spectrum: Spectrum, mean: float) -> tuple[float, float]:
    """log p, up to a constant, and d log p / d log mean on the shape of the
    two asymptotes: p ~ mean^(-1/2) at small means and p ~ L^-3 at large
    ones, joined at L = 6/5, where both slopes are -1/2.  Below a mean of
    about 1e-16, L - 1 rounds to 0 and is taken from the mean itself.

    A symmetric penalty follows (2 mean)^-3 above _SYMMETRIC_KNEE instead
    (the f1 and theta_sq optima are within 3.5 % of 4 k'_C^2 (2 mean)^-3
    there, and up to 1.5 times off L^-3), with the shape below shifted to
    stay continuous.
    """
    if spectrum.kind == "symmetric" and mean > _SYMMETRIC_KNEE:
        return -3.0 * math.log(2.0 * mean), -3.0
    shift = 0.0
    if spectrum.kind == "symmetric":
        shift = 3.0 * math.log(_scale(spectrum.sides, _SYMMETRIC_KNEE) / (2.0 * _SYMMETRIC_KNEE))
    scale = _scale(spectrum.sides, mean)
    if scale < 1.2:
        excess = scale - 1.0 or spectrum.sides * mean
        return 0.5 * math.log(0.2 / excess) - 3.0 * math.log(1.2) + shift, -0.5
    return -3.0 * math.log(scale) + shift, -3.0 * (scale - 1.0) / scale


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
    <2|J|+1>, the symmetric one in the shape of ``_penalty_shape``
    (4 k'_C^2 (2 mean)^-3 above its knee), whose slope it takes.  A seed that
    overflows (a target below about 1e-308) raises RuntimeError before any
    matrix is built.
    """
    if target < _SMALL_MEAN:
        if cost.cosine_coeffs is None:
            z = canonical.theta_sq_entries(np.arange(1, spectrum.cutoff + 1))
        else:
            z = 0.5 * cost.cosine_coeffs[1 : spectrum.cutoff + 1]
        weights = Spectrum("nonneg", spectrum.cutoff).weights()[1 : z.size + 1]
        c_f = float((z**2 / weights).sum())
        seed = math.sqrt(spectrum.sides * c_f / target)
        if math.isinf(seed):
            raise RuntimeError(
                f"mean target {target} is below reach: its first penalty overflows"
            )
    else:
        constants = asympt.constants()
        if spectrum.kind == "nonneg":
            seed = 2.0 * constants.k_C**2 / _scale(spectrum.sides, target) ** 3
        else:
            seed = 4.0 * constants.k_C_prime**2 * math.exp(_penalty_shape(spectrum, target)[0])
    return seed, 1.0 / _penalty_shape(spectrum, target)[1]


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
    both signs are seen, is replaced by bisection.  The root finder gives no
    verdict on the cutoff: ``default_cutoff`` puts the hard-box mean above
    every target, and ``_truncated_solve`` alone tests the tail.  A bracket
    narrower than _BETA_RTOL in log penalty raises RuntimeError, naming
    both its means in full: the mean jumps across the target there, which
    is below the resolution of the solve.  So does a search still off the
    target after _MAX_TRIALS trials, unbracketed or not.

    One eigensolve per trial, the first from ``start``, each later one from
    the previous pair.  Every trial is given the target: a theta_sq trial
    stops early on a certain side of it, or is solved in full with its mean
    resolved (``_solve_eigen``), so every theta_sq target with a finite
    first penalty lands.  Only the returned pair, within _MEAN_RTOL of the
    target, has its truncation tested (``_truncated_solve``).
    """
    weights = Spectrum("nonneg", spectrum.cutoff).weights()  # the sector's, for every trial
    above = below = None  # latest t and mean with the mean above / below the target
    previous: tuple[float, float] | None = None  # t and f of the last trial
    t = math.log(seed_penalty)
    for _ in range(_MAX_TRIALS):
        pair = _solve_eigen(cost, spectrum, math.exp(t), start, target, weights)
        start = pair
        mean = float(weights @ pair.vector**2)
        f = math.log(mean / target)
        if previous is not None and t != previous[0]:
            secant = (f - previous[1]) / (t - previous[0])
            if secant < 0.0:
                slope = secant
        if abs(mean - target) <= _MEAN_RTOL * target:
            break
        if f > 0.0:
            above = (t, mean)
        else:
            below = (t, mean)
        bracketed = above is not None and below is not None
        if bracketed and abs(below[0] - above[0]) <= _BETA_RTOL:
            raise RuntimeError(
                f"mean target {target} is below the resolution of the solve: "
                f"the mean jumps from {below[1]!r} to {above[1]!r} "
                f"at penalty {math.exp(t):.3g}"
            )
        previous = (t, f)
        step = min(max(-f / slope, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        lo, hi = sorted((above[0], below[0])) if bracketed else (-math.inf, math.inf)
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
    ``solve_point`` (``_truncated_solve``, the one judge of a cutoff).
    Targets must be positive and sorted ascending; each mean lands within
    relative 1e-6 of its target.  The first target is seeded from the
    asymptote of its regime (``_first_seed``).  Each later one is seeded
    from the last point as penalty ~ target^(1/s), s = d log mean / d log
    penalty as the root finder measured it there, with log p and 1/s bent
    by the change of the asymptotes' shape between the two means
    (``_penalty_shape``: exact if the curve is that shape times a constant);
    the bent s is the root finder's first Newton slope.  The first solve of
    each later f1 target starts from the last point's vector, zero-padded,
    any other from ``extremal_eigenpair``'s cold start (for theta_sq 3 %
    fewer mat-vecs than the padded vector, same time); later trials and
    cutoff doublings start from the previous vector.  If the largest
    target's starting matrix would exceed ``_MAX_DIMENSION`` rows, ValueError
    is raised before any solve.
    """
    targets = [float(t) for t in targets]
    if any(t <= 0.0 for t in targets):
        raise ValueError("targets must be positive")
    if sorted(targets) != targets:
        raise ValueError("targets must be sorted ascending")
    if targets:
        default_cutoff(kind, targets[-1])  # the largest, checked before any solve

    points: list[OptimalPoint] = []
    slope = 0.0  # d log mean / d log penalty at the last point
    for target in targets:
        spectrum = Spectrum(kind=kind, cutoff=default_cutoff(kind, target))
        start = None
        if points:
            spectrum = spectrum.with_cutoff(max(spectrum.cutoff, points[-1].cutoff))
            # the measured slope, bent by the curvature of the asymptotes' shape
            mean = points[-1].mean_constraint
            shape_last, inverse_last = _penalty_shape(spectrum, mean)
            shape_next, inverse_next = _penalty_shape(spectrum, target)
            rise = math.log(target / mean)
            seed = points[-1].penalty * math.exp(
                rise / slope + shape_next - shape_last - rise * inverse_last
            )
            slope = 1.0 / (1.0 / slope + inverse_next - inverse_last)
            # Only a tridiagonal (f1) target starts from the last vector,
            # zero-padded: its warm solve beats the cold f1 start by about a
            # fifth (15 against 19 ms at d = 80,009, 0.19 against 0.25 ms at
            # d = 809; 2-vCPU Xeon, one BLAS thread).  For a wider band (f2,
            # f3) a widely spaced target's padded start often leads
            # Rayleigh-quotient iteration to a higher pair, and the failed
            # certificate sends the solve on, after band LU solves, to the
            # f1 floor that a cold solve starts from.
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

