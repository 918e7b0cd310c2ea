"""Tests for the covariant-measurement reduction machinery.

Expected values come from independent routes computed inside the tests:
direct phase-average summation over the estimate grid, the spectral
error-density construction, closed-form two-outcome models, and the
variational solver as the optimality reference.
"""

import math

import numpy as np
import pytest

from phaselim import canonical, povm, variational
from phaselim.states import ProbeState, Spectrum


def nondegenerate(count: int) -> povm.DegenerateSystem:
    return povm.DegenerateSystem.from_degeneracies(list(range(count)), [1] * count)


def pure_density(amplitudes: np.ndarray) -> povm.DensityMatrix:
    return povm.DensityMatrix(entries=np.outer(amplitudes, amplitudes.conj()))


@pytest.fixture(scope="module")
def four_level():
    return nondegenerate(4)


@pytest.fixture(scope="module")
def real_probe():
    raw = np.array([0.5, 0.6, 0.5, 0.3742])
    return raw / np.linalg.norm(raw)


class TestDomainTypes:
    def test_from_degeneracies(self):
        system = povm.DegenerateSystem.from_degeneracies([0, 1, 2], [2, 1, 3])
        assert system.dimension == 6
        assert system.span == 2
        assert system.eigenvalues == (0, 0, 1, 2, 2, 2)
        assert system.basis_labels[:2] == ((0, 1), (0, 2))
        assert system.indices_of(2) == [3, 4, 5]

    def test_degenerate_system_validation(self):
        with pytest.raises(ValueError):
            povm.DegenerateSystem.from_degeneracies([0, 0], [1, 1])
        with pytest.raises(ValueError):
            povm.DegenerateSystem.from_degeneracies([0, 1], [1, 0])
        with pytest.raises(ValueError):
            povm.DegenerateSystem(
                eigenvalues=(0, 1), basis_labels=((0, 1),), dimension=2
            )

    def test_povm_validation(self):
        eye = np.eye(2, dtype=complex)
        half = np.stack([0.5 * eye, 0.5 * eye])
        povm.PovmSet(kind="discrete-phase", operators=half)  # valid
        with pytest.raises(ValueError):  # incomplete
            povm.PovmSet(
                kind="discrete-phase", operators=np.stack([0.5 * eye, 0.4 * eye])
            )
        with pytest.raises(ValueError):  # not Hermitian
            bad = np.stack([0.5 * eye, 0.5 * eye]).astype(complex)
            bad[0, 0, 1] = 0.1
            povm.PovmSet(kind="discrete-phase", operators=bad)
        with pytest.raises(ValueError):  # not positive semidefinite
            sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
            povm.PovmSet(
                kind="discrete-phase",
                operators=np.stack([0.5 * eye + sigma_x, 0.5 * eye - sigma_x]),
            )
        with pytest.raises(ValueError):  # wrong shape
            povm.PovmSet(kind="discrete-phase", operators=np.ones((2, 2)))

    def test_density_validation(self):
        povm.DensityMatrix(entries=0.5 * np.eye(2))  # valid
        with pytest.raises(ValueError):  # trace
            povm.DensityMatrix(entries=np.eye(2))
        with pytest.raises(ValueError):  # not Hermitian
            povm.DensityMatrix(entries=np.array([[0.5, 0.2], [0.0, 0.5]]))
        with pytest.raises(ValueError):  # not positive semidefinite
            povm.DensityMatrix(entries=np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_grid_size_precondition(self, four_level):
        with pytest.raises(ValueError):
            povm.canonical_povm(four_level, 8)  # needs 4*3 + 4 = 16
        with pytest.raises(ValueError):
            ops = np.stack([np.eye(4, dtype=complex) / 8] * 8)
            povm.covariant_average(
                povm.PovmSet(kind="discrete-phase", operators=ops), four_level
            )

    def test_canonical_povm_requires_nondegenerate(self):
        system = povm.DegenerateSystem.from_degeneracies([0, 1], [2, 1])
        with pytest.raises(ValueError):
            povm.canonical_povm(system, 16)


class TestCovariantAverage:
    def test_idempotent_on_covariant_input(self, four_level):
        can = povm.canonical_povm(four_level, 32)
        averaged = povm.covariant_average(can, four_level)
        assert np.max(np.abs(averaged.operators - can.operators)) <= 1e-12
        assert averaged.kind == "covariant"

    def test_preserves_completeness_and_positivity(self, four_level):
        rng = np.random.default_rng(90125)
        averaged = povm.covariant_average(
            povm.random_povm(rng, 4, 32), four_level
        )
        total = averaged.operators.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12
        assert float(np.linalg.eigvalsh(averaged.operators)[:, 0].min()) >= -1e-12

    def test_matches_direct_phase_average(self, four_level):
        """Same error masses as averaging the original POVM over applied
        phases, summed directly on the grid without forming the seed."""
        rng = np.random.default_rng(424242)
        grid = 32
        original = povm.random_povm(rng, 4, grid)
        rho = povm.random_density(rng, 4)
        averaged_masses = povm.error_density(
            povm.covariant_average(original, four_level), rho, four_level
        )
        eigenvalues = np.asarray(four_level.eigenvalues, dtype=float)
        direct = np.zeros(grid)
        for u in range(grid):
            phase = 2.0 * math.pi * u / grid
            rotated = np.exp(-1j * eigenvalues * phase)
            shifted = rotated[:, None] * rho.entries * rotated[None, :].conj()
            masses = np.real(np.einsum("kab,ba->k", original.operators, shifted))
            direct += np.roll(masses, -u)
        direct /= grid
        assert np.max(np.abs(averaged_masses - direct)) <= 1e-10

    def test_canonical_masses_match_spectral_density(self, four_level, real_probe):
        grid = 32
        can = povm.canonical_povm(four_level, grid)
        masses = povm.error_density(can, pure_density(real_probe), four_level)
        state = ProbeState(
            spectrum=Spectrum(kind="nonneg", cutoff=3), amplitudes=real_probe
        )
        dist = canonical.canonical_distribution(state, grid)
        assert np.max(
            np.abs(masses - dist.density * 2.0 * math.pi / grid)
        ) <= 1e-10

    def test_dimension_mismatch(self, four_level):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            povm.covariant_average(povm.random_povm(rng, 3, 32), four_level)


class TestLemma2Reduction:
    def test_identity_on_nondegenerate_input(self, four_level, real_probe):
        rho = pure_density(real_probe)
        covariant = povm.covariant_average(
            povm.canonical_povm(four_level, 32), four_level
        )
        reduced = povm.lemma2_reduction(covariant, rho, four_level)
        assert np.max(np.abs(reduced["rho_s"].entries - rho.entries)) <= 1e-12
        assert reduced["spectrum"].kind == "nonneg"
        assert reduced["spectrum"].cutoff == 3

    def test_degenerate_2_1_3_example(self):
        rng = np.random.default_rng(7)
        system = povm.DegenerateSystem.from_degeneracies([0, 1, 2], [2, 1, 3])
        grid = 16
        rho0 = povm.random_density(rng, 6)
        covariant = povm.covariant_average(
            povm.random_povm(rng, 6, grid), system
        )
        covariant_masses = povm.error_density(covariant, rho0, system)
        reduced = povm.lemma2_reduction(covariant, rho0, system)
        rho_s, spectrum = reduced["rho_s"], reduced["spectrum"]
        assert spectrum.kind == "nonneg" and spectrum.cutoff == 2

        flat = nondegenerate(spectrum.dimension)
        reduced_masses = povm.error_density(
            povm.canonical_povm(flat, grid), rho_s, flat
        )
        assert np.max(np.abs(reduced_masses - covariant_masses)) <= 1e-10

        generator_reduced = np.real(np.diag(rho_s.entries))
        for n in (0, 1, 2):
            idx = system.indices_of(n)
            original = float(np.real(np.trace(rho0.entries[np.ix_(idx, idx)])))
            assert generator_reduced[n] == pytest.approx(original, abs=1e-12)

    @pytest.mark.parametrize(
        "values, degeneracies",
        [([-1, 0, 2], [1, 2, 1]), ([-2, 1], [2, 2]), ([-3, -1, 0, 1], [1, 1, 2, 1])],
        ids=["-1,0,2", "-2,1", "-3,-1,0,1"],
    )
    def test_symmetric_embedding_of_negative_values(self, values, degeneracies):
        rng = np.random.default_rng(11)
        system = povm.DegenerateSystem.from_degeneracies(values, degeneracies)
        cutoff = max(abs(v) for v in values)
        grid = 8 * cutoff + 4  # exact phase sums over the embedded span 2c
        rho0 = povm.random_density(rng, system.dimension)
        covariant = povm.covariant_average(
            povm.random_povm(rng, system.dimension, grid), system
        )
        covariant_masses = povm.error_density(covariant, rho0, system)
        reduced = povm.lemma2_reduction(covariant, rho0, system)
        rho_s, spectrum = reduced["rho_s"], reduced["spectrum"]
        assert spectrum.kind == "symmetric" and spectrum.cutoff == cutoff

        flat = povm.DegenerateSystem.from_degeneracies(
            list(range(-cutoff, cutoff + 1)), [1] * spectrum.dimension
        )
        reduced_masses = povm.error_density(
            povm.canonical_povm(flat, grid), rho_s, flat
        )
        assert np.max(np.abs(reduced_masses - covariant_masses)) <= 1e-10

        original = np.zeros(spectrum.dimension)  # missing values carry nothing
        for n in values:
            idx = system.indices_of(n)
            original[n + cutoff] = np.real(np.trace(rho0.entries[np.ix_(idx, idx)]))
        generator_reduced = np.real(np.diag(rho_s.entries))
        assert np.max(np.abs(generator_reduced - original)) <= 1e-12

    def test_reduced_state_is_valid_density(self):
        for seed in range(20):
            report = povm.verify_random_instance(seed)
            assert report["lemma1_gap"] <= 1e-10
            assert report["lemma2_gap"] <= 1e-10
            assert report["generator_gap"] <= 1e-12
            assert report["continuity_margin"] >= -1e-12

    def test_optimality_reference(self):
        """The reduced state's Holevo variance can only exceed the
        constrained minimum at the same mean."""
        rng = np.random.default_rng(7)
        system = povm.DegenerateSystem.from_degeneracies([0, 1, 2], [2, 1, 3])
        covariant = povm.covariant_average(povm.random_povm(rng, 6, 16), system)
        reduced = povm.lemma2_reduction(
            covariant, povm.random_density(rng, 6), system
        )
        rho_s, spectrum = reduced["rho_s"], reduced["spectrum"]
        flat = nondegenerate(spectrum.dimension)
        masses = povm.error_density(
            povm.canonical_povm(flat, 16), rho_s, flat
        )
        first_moment = complex(
            np.sum(np.exp(1j * povm.uniform_estimates(16)) * masses)
        )
        holevo = 1.0 / abs(first_moment) ** 2 - 1.0
        mean = float(
            np.arange(spectrum.dimension) @ np.real(np.diag(rho_s.entries))
        )
        best = variational.sweep_curve(
            variational.cost_function("f1"), "nonneg", [mean]
        )[0]
        assert holevo >= best.delta_H**2 - 1e-9

    def test_rejects_noncovariant_input(self, four_level):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            povm.lemma2_reduction(
                povm.random_povm(rng, 4, 32),
                povm.random_density(rng, 4),
                four_level,
            )


class TestContinuityBound:
    def test_zero_shift_gives_zero_difference(self):
        rng = np.random.default_rng(11)
        system = povm.DegenerateSystem.from_degeneracies([0, 1, 2], [2, 1, 3])
        report = povm.continuity_check(
            povm.random_povm(rng, 6, 16),
            povm.random_density(rng, 6),
            system,
            [0.0],
        )
        assert report.margins["continuity"] == pytest.approx(0.0, abs=1e-12)

    def test_two_outcome_interferometer(self):
        """Two-outcome single-photon model: estimates 0 and -pi, mean
        estimate -pi(1 - cos phi)/2, so the difference is at most
        (pi/2)|eps| while the bound is 4 pi sqrt(|eps|)."""
        system = nondegenerate(2)
        grid = 8
        operators = np.zeros((grid, 2, 2), dtype=complex)
        operators[grid // 2] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        operators[0] = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        two_outcome = povm.PovmSet(kind="discrete-phase", operators=operators)
        probe = pure_density(np.array([1.0, 1.0]) / math.sqrt(2.0))
        report = povm.continuity_check(two_outcome, probe, system, [0.01])
        bound = 4.0 * math.pi * math.sqrt(2.0 * 0.5 * 0.01)
        assert report.details["mean_abs_generator"] == pytest.approx(0.5, abs=1e-12)
        assert report.margins["continuity"] >= bound - 0.5 * math.pi * 0.01
        assert report.margins["continuity"] <= bound

    def test_seeded_sweep_no_violations(self):
        for seed in range(20, 40):
            report = povm.verify_random_instance(seed, eps_grid=(1e-3, 1e-2, 0.1))
            assert report["continuity_margin"] >= -1e-12


class TestBiasDerivativeIdentity:
    def test_covariant_zero_bias_and_antipodal_density(self, four_level, real_probe):
        """For the canonical measurement of a real-amplitude probe the bias
        vanishes and b' approaches -2 pi p(phi + pi | phi) as the grid is
        refined (the sawtooth-times-polynomial sum converges at 1/K^2)."""
        rho = pure_density(real_probe)
        previous = None
        for grid in (32, 64, 128):
            can = povm.canonical_povm(four_level, grid)
            result = povm.bias_derivative_identity(
                can, rho, four_level, grid_index=grid // 3
            )
            assert abs(result["bias"]) <= 1e-3
            gap = abs(
                result["bias_derivative"] - result["minus_two_pi_density"]
            )
            assert gap <= 5.0 / grid**2
            if previous is not None:
                assert gap < previous
            previous = gap

    def test_requires_even_grid(self, four_level, real_probe):
        # a 31-point POVM made by merging the last two canonical effects
        ops = povm.canonical_povm(four_level, 32).operators
        merged = np.concatenate([ops[:30], [ops[30] + ops[31]]])
        uneven = povm.PovmSet(kind="discrete-phase", operators=merged)
        with pytest.raises(ValueError):
            povm.bias_derivative_identity(
                uneven, pure_density(real_probe), four_level, grid_index=0
            )
