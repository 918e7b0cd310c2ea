"""Canonical-measurement metrics and entropy bounds.

For a probe state with amplitudes psi_n the canonical covariant measurement
has error density p(theta) = |sum_n psi_n e^{i n theta}|^2 / 2pi, a
band-limited function whose trigonometric moments <e^{im Theta}> equal
sum_n psi_{n+m} psi_n*.  ``state_metrics`` computes the standard error
metrics of a state at full relative precision (average mean-square error
over the circle from the difference kernel of theta^2, Holevo variance and
the cosine-surrogate metrics from the moment deficits of the same
differences).  ``bound_reports`` samples the densities of a batch of states
on power-of-two grids and checks the entropy-based accuracy bounds on each:

* entropic uncertainty  H(Theta) + H(G) >= ln 2pi,
* delta >= (2 pi e)^{-1/2} e^{H(Theta)}  (entropic-length bound),
* delta >= k_A / <N+1>  and the median form with <2|G-m|+1> (m the median),
* Holevo variance >= tan^2(pi / (width + 2)) for bounded support,
* the arccos sandwich between delta_1 and delta.

Max-entropy reference families (thermal, Laplace) provide the closed
forms behind the k_A bounds; ``max_entropy_bound_checks`` sweeps their
parameter grids.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len, rfft

from .states import ProbeState, Spectrum

__all__ = [
    "MaxEntropyFamily",
    "BoundReport",
    "COSINE_COSTS",
    "MARGIN_TOL",
    "bound_reports",
    "default_grid_size",
    "max_entropy_bound_checks",
    "state_metrics",
    "theta_sq_entries",
    "theta_sq_kernel",
]

K_A = math.sqrt(2.0 * math.pi / math.e**3)

# Cosine coefficients (a_0, a_1, a_2) of the surrogate costs
# f = a_0 + sum_m a_m cos(m t); each vanishes at t = 0 (a row sums to 0).
COSINE_COSTS = {
    "f1": (2.0, -2.0),  # 2 - 2 cos t
    "f2": (2.5, -8.0 / 3.0, 1.0 / 6.0),  # 5/2 - (8/3) cos t + (1/6) cos 2t
    # (pi^2/4 - 1)[2(1 - cos t) - (1 - cos 2t)/2] + 2(1 - cos t)
    "f3": (3.0 * math.pi**2 / 8.0 + 0.5, -math.pi**2 / 2.0, math.pi**2 / 8.0 - 0.5),
}

MARGIN_TOL = -1e-12  # margins this negative count as violations

_LOG_FLOOR = 1e-300
_BATCH_CELLS = 1 << 20  # _windows: grid cells at once (16 MB of complex)
_KERNEL_TAIL = 200  # theta_sq_kernel: asymptotic series from this index on
_DIRECT_TOL = 1e-18  # probability cut of the direct max-entropy sums
# parameter grids of max_entropy_bound_checks
_NBAR_GRID = np.logspace(-3, 4, 36)
_BETA_GRID = np.logspace(-3, 1.5, 28)
_R_GRID = np.linspace(0.0, 0.5, 6)

_kernel = np.empty(0)  # the cached prefix of theta_sq_kernel


@dataclass(frozen=True)
class MaxEntropyFamily:
    """Maximum-entropy distributions over integers.

    kind = 'thermal': parameter is <N> on the nonnegative integers;
    kind = 'laplace': p_n propto e^{-beta |n - g|} over all integers, with
        parameter = beta and offset r = ceil(g) - g in [0, 1/2].
    """

    kind: str
    parameter: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("thermal", "laplace"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "thermal" and self.parameter < 0.0:
            raise ValueError("thermal parameter <N> must be >= 0")
        if self.kind == "laplace":
            if self.parameter <= 0.0:
                raise ValueError("laplace beta must be > 0")
            if not 0.0 <= self.offset <= 0.5:
                raise ValueError("laplace offset r must lie in [0, 1/2]")

    def entropy(self) -> float:
        if self.kind == "thermal":
            nbar = self.parameter
            if nbar == 0.0:
                return 0.0
            return math.log(nbar + 1.0) + nbar * math.log1p(1.0 / nbar)
        # Laplace: H = ln Z + beta <|G - g|> with Z the normalization.
        beta, r = self.parameter, self.offset
        z_norm = (math.exp(-beta * r) + math.exp(-beta * (1.0 - r))) / (
            -math.expm1(-beta)
        )
        return math.log(z_norm) + beta * self.mean_abs_deviation()

    def mean_abs_deviation(self) -> float:
        """<|G - g|> for the Laplace family."""
        if self.kind != "laplace":
            raise ValueError("mean_abs_deviation applies to the laplace kind")
        beta, r = self.parameter, self.offset
        num = (math.exp(beta * r) + math.exp(-beta * r)) * (1.0 - r) + (
            math.exp(beta * (1.0 - r)) + math.exp(-beta * (1.0 - r))
        ) * r
        den = (-math.expm1(-beta)) * (math.exp(beta * r) + math.exp(beta * (1.0 - r)))
        return num / den


def default_grid_size(spectrum: Spectrum) -> int:
    """Smallest power of two >= 8 (cutoff + 1)."""
    return 1 << max(8 * (spectrum.cutoff + 1) - 1, 1).bit_length()


def _densities(psi: np.ndarray, size: int) -> np.ndarray:
    """Canonical densities, one row per row of amplitudes (zero padded on
    the right), on the grid theta_k = -pi + 2 pi k / size: one inverse FFT
    along the rows, so a row of a batch equals the density of its state."""
    # e^{i u theta_k} = (-1)^u e^{2pi i uk/size}
    padded = np.zeros((psi.shape[0], size), dtype=complex)
    padded[:, : psi.shape[1]] = (1.0 - 2.0 * (np.arange(psi.shape[1]) % 2)) * psi
    transform = ifft(padded, axis=1, overwrite_x=True)
    transform *= size
    density = transform.real**2
    density += transform.imag**2
    density /= 2.0 * math.pi
    return density


def theta_sq_entries(m: np.ndarray) -> np.ndarray:
    """Entries z_m = 2 (-1)^m / m^2 (m >= 1) of the theta^2 Fourier matrix."""
    return np.where(m % 2 == 0, 2.0, -2.0) / m**2


def theta_sq_kernel(size: int) -> np.ndarray:
    """Fourier coefficients g_0 .. g_{size-1} of g(t) = t^2 / (2 - 2 cos t).

    g is smooth on [-pi, pi] (between 1 and pi^2/4), and the symbol of
    2 - 2 cos t is that of the difference map u = D psi (u_0 = psi_0,
    u_k = psi_k - psi_{k-1}, u_d = -psi_{d-1}), so the theta^2 Fourier
    matrix of order d is exactly D' Z_{d+1}(g) D and
    <Theta^2> = u' Z(g) u / ||psi||^2.  This is the only home of the theta^2
    Fourier data: g_0 = 2 ln 2; from m = _KERNEL_TAIL on the asymptotic
    series g_m = (-1)^m [1/(2m^2) - 3/(4m^4) + 5/(2m^6) - 119/(8m^8)],
    from g's odd derivatives at pi; below it the backward recurrence
    g_{m-1} = 2 g_m - g_{m+1} - z_m with the theta^2 entries z_m
    (``theta_sq_entries``).  g does not depend on the size, so one read-only
    prefix is cached and sliced.
    """
    global _kernel
    if size > _kernel.size:
        top = max(size, 2 * _kernel.size, _KERNEL_TAIL + 2)
        g = np.empty(top)
        m = np.arange(_KERNEL_TAIL, top, dtype=float)
        inv_sq = 1.0 / m**2
        series = inv_sq * (0.5 + inv_sq * (-0.75 + inv_sq * (2.5 - 14.875 * inv_sq)))
        g[_KERNEL_TAIL:] = np.where(m % 2 == 0, series, -series)
        z = theta_sq_entries(np.arange(1, _KERNEL_TAIL + 1))
        for k in range(_KERNEL_TAIL, 1, -1):
            g[k - 1] = 2.0 * g[k] - g[k + 1] - z[k - 1]
        g[0] = 2.0 * math.log(2.0)
        g.flags.writeable = False
        _kernel = g
    return _kernel[:size]


def state_metrics(state: ProbeState) -> dict[str, float]:
    """Canonical-measurement metrics of a state, each at full relative precision.

    Returns ``amse`` = <Theta^2>, ``holevo`` = <cos Theta>^{-2} - 1 (+inf
    when <cos Theta> <= 0), and the root metrics ``delta1``, ``delta2``,
    ``delta3`` of the cosine surrogates f1, f2, f3.  <Theta^2> =
    u' Z(g) u / ||psi||^2 (``theta_sq_kernel``) is summed over the
    autocorrelation of u = D psi, from two FFTs: every term is of the size
    of the result, so nothing cancels.  The other metrics come from the
    deficits q_m = 1 - <cos m Theta>:

        holevo    = q1 (2 - q1) / (1 - q1)^2
        delta_k^2 = <f_k> = -sum_{m>=1} a_m q_m   (a_m from COSINE_COSTS)

    the last exact because each f_k vanishes at theta = 0.  The deficits
    are pairwise sums of nonnegative squares of the same u,

        2 q1 ||psi||^2 = sum_k u_k^2
        2 q2 ||psi||^2 = sum_k (u_k + u_{k+1})^2 + u_0^2 + u_d^2

    (u_k + u_{k+1} = psi_{k+1} - psi_{k-1}), so they keep full relative
    precision (error ~ log2(d) eps) for broad states with q1 ~ 1e-7, and a
    single level keeps <cos Theta> = 0 exactly (holevo = +inf).  The FFT
    lags of u would not: they round each sum as a whole, so a single level
    came out at q1 = 1 - O(1e-16) and a finite Holevo variance.
    """
    psi = state.amplitudes
    n = psi.size
    size = next_fast_len(2 * n + 1)
    u = np.zeros(size)
    u[0], u[n] = psi[0], -psi[-1]
    np.subtract(psi[1:], psi[:-1], out=u[1:n])
    r = irfft(np.abs(rfft(u)) ** 2, size)[: n + 1]
    g = theta_sq_kernel(n + 1)
    norm_sq = float(psi @ psi)
    amse = (2.0 * float(g @ r) - g[0] * r[0]) / norm_sq
    diffs = u[: n + 1]
    pairs = diffs[:-1] + diffs[1:]
    q = [
        float(np.sum(diffs * diffs)) / (2.0 * norm_sq),
        (float(np.sum(pairs * pairs)) + diffs[0] ** 2 + diffs[n] ** 2) / (2.0 * norm_sq),
    ]
    metrics = {
        "amse": amse,
        "holevo": q[0] * (2.0 - q[0]) / (1.0 - q[0]) ** 2 if q[0] < 1.0 else math.inf,
    }
    for name, coeffs in COSINE_COSTS.items():
        mean_f = -sum(a * q_m for a, q_m in zip(coeffs[1:], q))
        metrics[f"delta{name[1:]}"] = math.sqrt(max(mean_f, 0.0))
    return metrics


def _periodic_entropy(density: np.ndarray, step: float) -> np.ndarray:
    """Entropy of each density row (last axis) by the uniform grid sum."""
    terms = np.log(np.maximum(density, _LOG_FLOOR))
    terms *= density
    return -terms.sum(axis=-1) * step


def _shannon(p: np.ndarray) -> float:
    """-sum p ln p over the nonzero p."""
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


@dataclass(frozen=True)
class BoundReport:
    """Named inequality margins; a negative margin means a violation."""

    margins: dict[str, float]
    details: dict[str, float] = field(default_factory=dict)

    @property
    def violations(self) -> list[str]:
        return [name for name, margin in self.margins.items() if margin < MARGIN_TOL]

    @property
    def ok(self) -> bool:
        return not self.violations


def _windows(states: Iterable[ProbeState]) -> Iterator[list[ProbeState]]:
    """Consecutive states with at most _BATCH_CELLS grid cells together (a
    larger grid alone), read lazily so that the states are never all held."""
    window: list[ProbeState] = []
    cells = 0
    for state in states:
        size = default_grid_size(state.spectrum)
        if window and cells + size > _BATCH_CELLS:
            yield window
            window, cells = [], 0
        window.append(state)
        cells += size
    if window:
        yield window


def bound_reports(states: Iterable[ProbeState]) -> list[BoundReport]:
    """Check every accuracy bound on each probe state, in order.

    Margins reported (all must be >= 0):

    * ``entropic_ur``      H(Theta) + H(G) - ln 2pi
    * ``heis_k_a``         delta - k_A / <N+1>            (nonneg spectra)
    * ``heis_k_a_median``  delta - k_A / <2|G-m|+1>       (m = median of G)
    * ``tan_bound``        delta_H - tan(pi / (width + 2))
    * ``entropic_length``  delta - (2 pi e)^{-1/2} L
    * ``arccos_lower``     delta - arccos(1 - delta1^2 / 2)
    * ``quadratic_upper``  (pi^2/2)(1 - <cos Theta>) - delta^2

    The median m (ties broken low) minimises <|G - g|> over all g: left of
    m its slope P(G < m) - P(G >= m) is negative, right of m it is
    2 P(G <= m) - 1 >= 0.  ``g_best`` reports m.

    The states of each window (``_windows``) that share a grid size are
    evaluated together on padded arrays.  Every sum runs over a row's own
    terms in the state-alone order, so a state's report does not depend on
    the batch it shares.  The metrics come from ``state_metrics``.
    """
    reports: list[BoundReport] = []
    for window in _windows(states):
        batches: dict[int, list[int]] = {}
        for index, state in enumerate(window):
            batches.setdefault(default_grid_size(state.spectrum), []).append(index)
        done: dict[int, BoundReport] = {}
        for batch in batches.values():
            done.update(zip(batch, _batch_reports([window[index] for index in batch])))
        reports += [done[index] for index in range(len(window))]
    return reports


def _batch_reports(states: list[ProbeState]) -> list[BoundReport]:
    """``bound_reports`` for states of one grid size."""
    size = default_grid_size(states[0].spectrum)
    psi = np.zeros((len(states), max(state.dimension for state in states)))
    for row, state in enumerate(states):
        psi[row, : state.dimension] = state.amplitudes
    step = 2.0 * math.pi / size
    density = _densities(psi, size)
    if np.any(np.abs(density.sum(axis=1) * step - 1.0) > 1e-10):
        raise ValueError("a canonical density does not integrate to 1")
    h_theta = _periodic_entropy(density, step)
    del density

    p = psi * psi  # the generator probabilities, zero padded
    lowest = np.array([state.spectrum.values()[0] for state in states])
    values = lowest[:, None] + np.arange(psi.shape[1])
    median = lowest + np.argmax(np.cumsum(p, axis=1) >= 0.5, axis=1)
    # cumsum adds a row's terms in order, so its padding adds exact zeros
    mean_abs_dev = np.cumsum(np.abs(values - median[:, None]) * p, axis=1)[:, -1]

    support = psi != 0.0
    widths = psi.shape[1] - 1 - np.argmax(support[:, ::-1], axis=1) - np.argmax(support, axis=1)

    reports = []
    for row, state in enumerate(states):
        metrics = state_metrics(state)
        delta = math.sqrt(metrics["amse"])
        h = float(h_theta[row])
        dev = float(mean_abs_dev[row])
        margins = {
            "entropic_ur": h + _shannon(p[row, : state.dimension]) - math.log(2.0 * math.pi),
            "heis_k_a_median": delta - K_A / (2.0 * dev + 1.0),
        }
        details = {"g_best": float(median[row]), "mean_abs_dev": dev}
        if state.spectrum.kind == "nonneg":
            n_plus_1 = state.mean_weight() + 1.0
            margins["heis_k_a"] = delta - K_A / n_plus_1
            details["n_plus_1"] = n_plus_1
        width = int(widths[row])
        margins["tan_bound"] = math.sqrt(metrics["holevo"]) - math.tan(math.pi / (width + 2.0))
        details["support_width"] = float(width)
        margins["entropic_length"] = delta - math.exp(h) / math.sqrt(2.0 * math.pi * math.e)
        q1 = metrics["delta1"] ** 2 / 2.0
        margins["arccos_lower"] = delta - math.acos(max(min(1.0 - q1, 1.0), -1.0))
        margins["quadratic_upper"] = (math.pi**2 / 2.0) * q1 - metrics["amse"]
        details["delta"] = delta
        details["holevo"] = metrics["holevo"]
        reports.append(BoundReport(margins=margins, details=details))
    return reports


def _thermal_entropy_direct(nbar: float) -> float:
    """Direct summation of -sum p_n ln p_n for the thermal distribution.

    Probabilities are built from exact log-domain exponents (n * ln q) rather
    than repeated multiplication, so the oracle itself carries no drift.
    """
    if nbar == 0.0:
        return 0.0
    log_q = -math.log1p(1.0 / nbar)  # ln(nbar/(nbar+1)) without cancellation
    count = int(math.ceil((math.log(_DIRECT_TOL) + math.log1p(nbar)) / log_q)) + 1
    n = np.arange(min(count, 10_000_000))
    log_p = n * log_q - math.log1p(nbar)
    p = np.exp(log_p)
    return float(-(p @ log_p))


def _laplace_direct(beta: float, r: float) -> tuple[float, float]:
    """Direct summation of (<|G-g|>, H) for p_n propto e^{-beta |n - g|}.

    For g = (integer) + r with 0 <= r <= 1/2 the distances |n − g| are
    {r, 1+r, 2+r, ...} on one side and {1−r, 2−r, ...} on the other (for
    r = 0 the zero distance appears once and each positive integer twice).
    """
    count = int(math.ceil(-math.log(_DIRECT_TOL) / beta)) + 2
    k = np.arange(float(count))
    distances = np.concatenate([k + r, k + (1.0 - r)])
    log_w = -beta * distances
    w = np.exp(log_w)
    z_norm = float(w.sum())
    p = w / z_norm
    mean_dev = float(p @ distances)
    entropy = float(-(p @ (log_w - math.log(z_norm))))
    return mean_dev, entropy


def max_entropy_bound_checks() -> BoundReport:
    """Sweep the max-entropy closed forms and their bounding inequalities
    over the fixed parameter grids _NBAR_GRID and _BETA_GRID x _R_GRID.

    Margins (>= 0 required):

    * ``thermal_closed_form``: 1e-12 minus the worst closed-vs-direct gap,
      relative as gap/(1 + |closed|) since the entropies grow with the grid.
    * ``x_log_bound``: min over the grid of 1 - x ln(1 + 1/x).
    * ``laplace_closed_form``: 1e-12 minus the worst relative
      closed-vs-direct gap for (mean deviation, entropy).
    * ``laplace_entropy_bound``: min margin of
      ln(2 <|G-g|> + 1) + 1 - H(G) over the (beta, r) grid.
    * ``laplace_first_part`` / ``laplace_second_part``: the two component
      inequalities (beta r + ln Z <= ln(2<|G-g|>+1), beta(<|G-g|> - r) < 1).
    """
    worst_thermal = 0.0
    worst_xlog = math.inf
    for nbar in _NBAR_GRID:
        family = MaxEntropyFamily(kind="thermal", parameter=float(nbar))
        closed = family.entropy()
        gap = abs(closed - _thermal_entropy_direct(float(nbar)))
        worst_thermal = max(worst_thermal, gap / (1.0 + abs(closed)))
        worst_xlog = min(worst_xlog, 1.0 - float(nbar) * math.log1p(1.0 / float(nbar)))

    worst_laplace = 0.0
    bound_margin = math.inf
    first_part = math.inf
    second_part = math.inf
    for beta in _BETA_GRID:
        for r in _R_GRID:
            family = MaxEntropyFamily(kind="laplace", parameter=float(beta), offset=float(r))
            dev = family.mean_abs_deviation()
            entropy = family.entropy()
            dev_direct, entropy_direct = _laplace_direct(float(beta), float(r))
            worst_laplace = max(
                worst_laplace,
                abs(dev - dev_direct) / (1.0 + abs(dev)),
                abs(entropy - entropy_direct) / (1.0 + abs(entropy)),
            )
            bound_margin = min(
                bound_margin, math.log(2.0 * dev + 1.0) + 1.0 - entropy
            )
            log_z = entropy - beta * dev
            first_part = min(
                first_part, math.log(2.0 * dev + 1.0) - (beta * r + log_z)
            )
            second_part = min(second_part, 1.0 - beta * (dev - r))

    margins = {
        "thermal_closed_form": 1e-12 - worst_thermal,
        "x_log_bound": worst_xlog,
        "laplace_closed_form": 1e-12 - worst_laplace,
        "laplace_entropy_bound": bound_margin,
        "laplace_first_part": first_part,
        "laplace_second_part": second_part,
    }
    return BoundReport(margins=margins)
