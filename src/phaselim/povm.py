"""Finite-dimensional verification of the covariant-measurement reductions.

Any phase measurement on a possibly degenerate integer-spectrum generator
can be replaced, without changing the phase-averaged error statistics, by

1. a covariant measurement (phase-average the POVM seed), and then
2. a nondegenerate probe state measured with the canonical POVM.

This module implements both reduction steps on explicit matrices so the
identities can be checked numerically on small systems: the covariant
average, the degeneracy-removing state construction, the canonical POVM,
and the continuity bound |<Phi>_{phi+eps} - <Phi>_phi| <= 4 pi
sqrt(2 <|G|> |eps|) on the mean estimate.

Phase integrals are replaced by exact sums: every integrand is a
trigonometric polynomial of degree bounded by the eigenvalue span, so a
uniform grid of K >= 4 span + 4 points integrates it without quadrature
error.  Estimate labels live on that grid, phi_k = -pi + 2 pi k / K.  The
sums are broadcasts over the grid axis, and Tr(M_k rho_phi) for A phases is
one (A, d^2) @ (d^2, K) product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import BoundReport
from .states import Spectrum

__all__ = [
    "DegenerateSystem",
    "DensityMatrix",
    "PovmSet",
    "bias_derivative_identity",
    "canonical_povm",
    "continuity_check",
    "covariant_average",
    "error_density",
    "lemma2_reduction",
    "random_degenerate_system",
    "random_density",
    "random_povm",
    "verify_random_instance",
]

_COMPLETENESS_TOL = 1e-12
_PSD_TOL = 1e-12
_COVARIANCE_TOL = 1e-10
_PHI_SAMPLES = 16  # continuity_check: true phases on a uniform grid
_SYSTEM_DIMENSION = 6  # random_degenerate_system: total dimension
_EPS_GRID = (1e-3, 1e-2, 1e-1)  # verify_random_instance: continuity shifts


def uniform_estimates(grid_size: int) -> np.ndarray:
    """Estimate labels phi_k = -pi + 2 pi k / K."""
    return -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size


def _wrap(angle: np.ndarray | float) -> np.ndarray | float:
    """Wrap into [-pi, pi)."""
    return np.mod(np.asarray(angle) + math.pi, 2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class DegenerateSystem:
    """Integer-spectrum generator with degeneracies.

    ``eigenvalues[i]`` is the generator eigenvalue of basis vector i; an
    eigenvalue repeated D times has degeneracy D.
    """

    eigenvalues: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    @classmethod
    def from_degeneracies(
        cls, values: list[int], degeneracies: list[int]
    ) -> "DegenerateSystem":
        """System with degeneracy D(values[i]) = degeneracies[i]."""
        if len(values) != len(degeneracies) or len(set(values)) != len(values):
            raise ValueError("need distinct values with one degeneracy each")
        eigenvalues: list[int] = []
        for n, count in zip(values, degeneracies):
            if count < 1:
                raise ValueError(f"degeneracy of {n} must be >= 1, got {count}")
            eigenvalues += [int(n)] * count
        return cls(eigenvalues=tuple(eigenvalues))

    @property
    def span(self) -> int:
        return max(self.eigenvalues) - min(self.eigenvalues)

    def distinct_values(self) -> list[int]:
        return sorted(set(self.eigenvalues))

    def indices_of(self, value: int) -> list[int]:
        return [i for i, n in enumerate(self.eigenvalues) if n == value]


@dataclass(frozen=True)
class PovmSet:
    """POVM with outcomes labelled by a uniform estimate grid.

    operators[k] is the (Hermitian, positive semidefinite) effect of
    estimate phi_k = -pi + 2 pi k / K, and the effects sum to the identity.
    """

    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[0] < 1:
            raise ValueError(f"operators must be (K, d, d), got {ops.shape}")
        herm_gap = float(np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))))
        if herm_gap > _PSD_TOL:
            raise ValueError(f"effects are not Hermitian (gap {herm_gap})")
        total = ops.sum(axis=0)
        completeness = float(np.max(np.abs(total - np.eye(ops.shape[1]))))
        if completeness > _COMPLETENESS_TOL:
            raise ValueError(f"effects do not sum to identity (gap {completeness})")
        min_eig = float(np.linalg.eigvalsh(ops)[:, 0].min())
        if min_eig < -_PSD_TOL:
            raise ValueError(f"effect not positive semidefinite (min eig {min_eig})")
        object.__setattr__(self, "operators", ops)

    @property
    def grid_size(self) -> int:
        return self.operators.shape[0]

    @property
    def dimension(self) -> int:
        return self.operators.shape[1]

    def estimates(self) -> np.ndarray:
        return uniform_estimates(self.grid_size)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"entries must be square, got {mat.shape}")
        herm_gap = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_gap > _PSD_TOL:
            raise ValueError(f"not Hermitian (gap {herm_gap})")
        trace_gap = abs(complex(np.trace(mat)) - 1.0)
        if trace_gap > _COMPLETENESS_TOL:
            raise ValueError(f"trace differs from 1 by {trace_gap}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -_PSD_TOL:
            raise ValueError(f"not positive semidefinite (min eig {min_eig})")
        object.__setattr__(self, "entries", mat)

    def mean_abs_generator(self, system: DegenerateSystem) -> float:
        probs = np.real(np.diag(self.entries))
        return float(np.abs(np.asarray(system.eigenvalues, float)) @ probs)


def _phase_rows(system: DegenerateSystem, angles: np.ndarray) -> np.ndarray:
    """Row a of the result is the diagonal of e^{iG angles[a]}."""
    eigs = np.asarray(system.eigenvalues, dtype=float)
    return np.exp(1j * np.multiply.outer(angles, eigs))


def _rotate(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """diag(rows[a]) matrices[a] diag(rows[a])^dagger for every a."""
    return rows[:, :, None] * matrices * rows[:, None, :].conj()


def _traces(operators: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re Tr(operators[k] states[a]) as an (A, K) array."""
    size = operators.shape[1] ** 2
    flat_states = states.transpose(0, 2, 1).reshape(-1, size)
    return np.real(flat_states @ operators.reshape(-1, size).T)


def _shifted_states(rho: DensityMatrix, system: DegenerateSystem, phases) -> np.ndarray:
    """e^{-iG phase} rho e^{iG phase} for every phase, stacked."""
    return _rotate(rho.entries, _phase_rows(system, -np.asarray(phases, dtype=float)))


def _exact_grid_size(span: int) -> int:
    """Fewest estimate-grid points whose sums are exact for eigenvalue span
    ``span`` (module docstring)."""
    return 4 * span + 4


def _require_grid(system: DegenerateSystem, grid_size: int) -> None:
    minimum = _exact_grid_size(system.span)
    if grid_size < minimum:
        raise ValueError(
            f"grid size {grid_size} too small for eigenvalue span "
            f"{system.span}; need >= {minimum} for exact phase sums"
        )


def canonical_povm(system: DegenerateSystem, grid_size: int) -> PovmSet:
    """Canonical POVM of a nondegenerate system on a K-point estimate grid.

    Effects M_k[a, b] = e^{-i(n_a - n_b) phi_k} / K, the discretization of
    the covariant family seeded by (1/2pi) sum |n><n'|.
    """
    _require_grid(system, grid_size)
    if len(system.distinct_values()) < system.dimension:
        raise ValueError("canonical POVM is defined for nondegenerate systems")
    rows = _phase_rows(system, -uniform_estimates(grid_size))
    ops = rows[:, :, None] * rows[:, None, :].conj() / grid_size
    return PovmSet(operators=ops)


def covariant_average(povm: PovmSet, system: DegenerateSystem) -> PovmSet:
    """Covariant POVM with the same phase-averaged error statistics.

    Seed M0 = (1/2pi) sum_k e^{iG phi_k} M_k e^{-iG phi_k}; the returned
    effects are (2pi/K) e^{-iG phi_k} M0 e^{iG phi_k}.  The grid-size
    precondition makes the discrete phase sums exact, so completeness and
    positivity are preserved exactly (up to rounding).
    """
    _require_grid(system, povm.grid_size)
    if povm.dimension != system.dimension:
        raise ValueError("POVM dimension does not match the system")
    estimates = povm.estimates()
    seed = _rotate(povm.operators, _phase_rows(system, estimates)).sum(axis=0)
    seed /= 2.0 * math.pi
    ops = 2.0 * math.pi / povm.grid_size * _rotate(seed, _phase_rows(system, -estimates))
    return PovmSet(operators=ops)


def error_density(
    povm: PovmSet,
    rho: DensityMatrix,
    system: DegenerateSystem,
    phase: float = 0.0,
) -> np.ndarray:
    """Outcome probabilities p(phi_k | phase) = Tr(M_k rho_phase)."""
    return _traces(povm.operators, _shifted_states(rho, system, [phase]))[0]


def _covariant_seed_checked(povm: PovmSet, system: DegenerateSystem) -> np.ndarray:
    """Recover the seed of a covariant set, verifying covariance.

    Raises if the set is not covariant (the seed reconstructed from
    different outcomes disagrees) or if the seed violates the
    normalization blocks <n,d|M0|n,d'> = delta_{dd'} / 2 pi.
    """
    scale = povm.grid_size / (2.0 * math.pi)
    rows = _phase_rows(system, povm.estimates())
    seeds = scale * _rotate(povm.operators, rows)
    seed = seeds[0]
    if float(np.max(np.abs(seeds[1:] - seed), initial=0.0)) > _COVARIANCE_TOL:
        raise ValueError("POVM is not covariant: outcome seeds disagree")
    inv_two_pi = 1.0 / (2.0 * math.pi)
    for n in system.distinct_values():
        idx = system.indices_of(n)
        block = seed[np.ix_(idx, idx)]
        gap = float(np.max(np.abs(block - inv_two_pi * np.eye(len(idx)))))
        if gap > _COVARIANCE_TOL:
            raise ValueError(
                f"covariant seed violates the normalization block at n={n} "
                f"(gap {gap}); input cannot come from a complete POVM"
            )
    return seed


def _embedding(system: DegenerateSystem) -> tuple[Spectrum, np.ndarray]:
    """The contiguous spectrum holding the system's distinct eigenvalues
    (nonneg 0..max, or symmetric -c..c once a value is negative), and the
    index in it of each basis vector's eigenvalue."""
    values = system.distinct_values()
    if min(values) >= 0:
        spectrum = Spectrum(kind="nonneg", cutoff=max(max(values), 1))
    else:
        spectrum = Spectrum(kind="symmetric", cutoff=max(max(abs(v) for v in values), 1))
    return spectrum, np.asarray(system.eigenvalues) - int(spectrum.values()[0])


def lemma2_reduction(
    covariant: PovmSet, rho0: DensityMatrix, system: DegenerateSystem
) -> dict:
    """Degeneracy-removing state with identical statistics.

    Returns ``rho_s``, a valid density matrix on the nondegenerate spectrum,
    whose generator distribution equals that of ``rho0`` and whose canonical
    error distribution equals the covariant error distribution of ``rho0``:

        rho_s[n', n] = 2 pi sum_{d, d'} <n',d'|rho0|n,d> <n,d|M0|n',d'>.

    ``spectrum`` embeds the distinct eigenvalues into the contiguous range
    (nonneg 0..max or symmetric -c..c); missing values get zero rows.
    """
    seed = _covariant_seed_checked(covariant, system)
    spectrum, slots = _embedding(system)
    dim = spectrum.dimension
    rho_s = np.zeros((dim, dim), dtype=complex)
    # term [j, i] = <j|rho0|i><i|M0|j> lands on rho_s[n_j, n_i]
    np.add.at(rho_s, (slots[:, None], slots[None, :]), rho0.entries * seed.T)
    rho_s *= 2.0 * math.pi
    return {"rho_s": DensityMatrix(entries=rho_s), "spectrum": spectrum}


def continuity_check(
    povm: PovmSet,
    rho: DensityMatrix,
    system: DegenerateSystem,
    eps_grid: list[float],
) -> BoundReport:
    """Check |<Phi>_{phi+eps} - <Phi>_phi| <= 4 pi sqrt(2 <|G|> |eps|).

    The mean estimate uses reference phase 0, i.e. estimates taken in
    [-pi, pi) as labelled.  Returns the worst margin over a uniform grid of
    _PHI_SAMPLES phases phi and all eps values.
    """
    estimate_op = np.tensordot(povm.estimates(), povm.operators, axes=(0, 0))
    g_mean = rho.mean_abs_generator(system)
    phis = np.linspace(-math.pi, math.pi, _PHI_SAMPLES, endpoint=False)
    eps = np.asarray(eps_grid, dtype=float)
    # column 0 is the base phase, the others phi + eps
    phases = np.concatenate([phis[:, None], phis[:, None] + eps[None, :]], axis=1)
    means = _traces(estimate_op[None], _shifted_states(rho, system, phases.ravel()))
    means = means.reshape(phases.shape)
    bound = 4.0 * math.pi * np.sqrt(2.0 * g_mean * np.abs(eps))
    margins = bound - np.abs(means[:, 1:] - means[:, :1])
    worst = math.inf
    worst_at = (0.0, 0.0)
    if margins.size:
        # the first minimum in (phi, eps) order, as a scan would keep it
        i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
        worst, worst_at = float(margins[i, j]), (float(phis[i]), float(eps[j]))
    return BoundReport(
        margins={"continuity": worst},
        details={
            "mean_abs_generator": g_mean,
            "worst_phi": worst_at[0],
            "worst_eps": worst_at[1],
        },
    )


def bias_derivative_identity(
    povm: PovmSet, rho: DensityMatrix, system: DegenerateSystem, grid_index: int
) -> dict[str, float]:
    """Self-referenced bias derivative versus the antipodal density.

    At true phase phi = phi_k (a grid point), computes the bias
    b_phi(phi) with estimates wrapped into [phi - pi, phi + pi), its
    derivative b'_phi(phi) (analytically, via d rho_phi / d phi =
    -i [G, rho_phi]), and -2 pi times the outcome density at phi + pi.
    For covariant measurements with b identically zero these satisfy
    b' = -2 pi p(phi + pi | phi).
    """
    if povm.grid_size % 2 != 0:
        raise ValueError("antipodal comparison requires an even grid")
    estimates = povm.estimates()
    phi = float(estimates[grid_index])
    wrapped = phi + _wrap(estimates - phi)
    shifted = _shifted_states(rho, system, [phi])
    eigs = np.asarray(system.eigenvalues, dtype=float)
    commutator = -1j * (eigs[:, None] - eigs[None, :]) * shifted
    masses, d_masses = _traces(povm.operators, np.concatenate([shifted, commutator]))
    bias = float(wrapped @ masses) - phi
    bias_deriv = float(wrapped @ d_masses) - 1.0

    antipode = (grid_index + povm.grid_size // 2) % povm.grid_size
    density = masses[antipode] * povm.grid_size / (2.0 * math.pi)
    return {
        "bias": bias,
        "bias_derivative": bias_deriv,
        "minus_two_pi_density": -2.0 * math.pi * density,
    }


def random_povm(
    rng: np.random.Generator, dimension: int, grid_size: int
) -> PovmSet:
    """Random POVM by symmetric completion of random positive effects.

    E_k = A_k A_k^dagger with complex Gaussian A_k, normalized through
    S^{-1/2} E_k S^{-1/2} with S = sum E_k, which restores completeness
    exactly while preserving positivity.
    """
    # per outcome, the real part is drawn before the imaginary part
    draws = rng.standard_normal((grid_size, 2, dimension, dimension))
    a = draws[:, 0] + 1j * draws[:, 1]
    effects = a @ a.conj().transpose(0, 2, 1)
    total = effects.sum(axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    ops = inv_sqrt @ effects @ inv_sqrt
    ops = 0.5 * (ops + ops.conj().transpose(0, 2, 1))
    # symmetric completion leaves a rounding-level completeness defect
    defect = ops.sum(axis=0) - np.eye(dimension)
    ops[0] -= defect
    return PovmSet(operators=ops)


def random_density(rng: np.random.Generator, dimension: int) -> DensityMatrix:
    """Random full-rank density matrix rho = B B^dagger / Tr."""
    b = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal(
        (dimension, dimension)
    )
    rho = b @ b.conj().T
    return DensityMatrix(entries=rho / np.trace(rho).real)


def average_error_masses(
    povm: PovmSet, rho: DensityMatrix, system: DegenerateSystem
) -> np.ndarray:
    """Phase-averaged error masses by direct summation over the grid.

    p_bar at error phi_j is (1/K) sum_u p(outcome j+u | applied phase
    2 pi u / K): the applied phase runs over one period and the outcome
    index is read off cyclically.  This never forms the covariant seed, so
    it provides an independent route to the distribution that
    ``covariant_average`` produces.
    """
    size = povm.grid_size
    shifts = np.arange(size)
    masses = _traces(
        povm.operators, _shifted_states(rho, system, 2.0 * math.pi * shifts / size)
    )
    # row u read cyclically from outcome u: masses[u, (j + u) % K]
    cyclic = masses[shifts[:, None], (shifts[None, :] + shifts[:, None]) % size]
    return cyclic.sum(axis=0) / size


def verify_random_instance(seed: int) -> dict[str, float]:
    """Run both reduction lemmas and the continuity bound on one instance.

    Draws a random degenerate system, state, and POVM from ``seed``,
    then reports:

    * ``lemma1_gap``: covariant-average error masses versus the direct
      phase-average of the original POVM,
    * ``lemma2_gap``: canonical masses of the reduced state versus the
      covariant masses of the original state,
    * ``generator_gap``: generator distribution of the reduced state
      versus that of the original,
    * ``continuity_margin``: worst margin of the mean-estimate bound over
      the shifts _EPS_GRID.

    The estimate grid is sized from the embedded nondegenerate spectrum,
    whose span dimension - 1 is at least the system's, so every phase sum
    involved is exact.
    """
    rng = np.random.default_rng(seed)
    system = random_degenerate_system(rng)
    spectrum, slots = _embedding(system)
    grid_size = _exact_grid_size(spectrum.dimension - 1)
    rho = random_density(rng, system.dimension)
    povm = random_povm(rng, system.dimension, grid_size)

    averaged = covariant_average(povm, system)
    covariant_masses = error_density(averaged, rho, system)
    direct = average_error_masses(povm, rho, system)
    lemma1_gap = float(np.max(np.abs(covariant_masses - direct)))

    reduction = lemma2_reduction(averaged, rho, system)
    rho_s: DensityMatrix = reduction["rho_s"]
    reduced_system = DegenerateSystem(tuple(int(v) for v in spectrum.values()))
    canonical = canonical_povm(reduced_system, grid_size)
    reduced_masses = error_density(canonical, rho_s, reduced_system)
    lemma2_gap = float(np.max(np.abs(reduced_masses - covariant_masses)))

    generator_reduced = np.real(np.diag(rho_s.entries))
    generator_original = np.zeros(spectrum.dimension)
    np.add.at(generator_original, slots, np.real(np.diag(rho.entries)))
    generator_gap = float(np.max(np.abs(generator_reduced - generator_original)))

    continuity = continuity_check(povm, rho, system, list(_EPS_GRID))
    return {
        "seed": float(seed),
        "dimension": float(system.dimension),
        "grid_size": float(grid_size),
        "lemma1_gap": lemma1_gap,
        "lemma2_gap": lemma2_gap,
        "generator_gap": generator_gap,
        "continuity_margin": continuity.margins["continuity"],
    }


def random_degenerate_system(rng: np.random.Generator) -> DegenerateSystem:
    """Random degenerate integer spectrum of total dimension _SYSTEM_DIMENSION.

    The values start at -1, 0 or 1 and step up by 1 or 2, so an instance
    embeds into a symmetric spectrum when it starts at -1 and into a
    nonnegative one otherwise.
    """
    values: list[int] = []
    degeneracies: list[int] = []
    remaining = _SYSTEM_DIMENSION
    next_value = int(rng.integers(-1, 2))
    while remaining > 0:
        count = int(rng.integers(1, min(3, remaining) + 1))
        values.append(next_value)
        degeneracies.append(count)
        remaining -= count
        next_value += int(rng.integers(1, 3))
    return DegenerateSystem.from_degeneracies(values, degeneracies)
