"""Tests for the covariant-measurement reduction machinery.

Expected values come from independent routes computed inside the tests:
direct phase-average summation over the estimate grid, the spectral
error-density construction, closed-form two-outcome models, and the
variational solver as the optimality reference.  A plain per-outcome loop
version of every grid sum is kept here as the reference for the batched
module code.
"""

import math

import numpy as np
import pytest

from phaselim import canonical, povm, variational


def nondegenerate(count: int) -> povm.DegenerateSystem:
    return povm.DegenerateSystem.from_degeneracies(list(range(count)), [1] * count)


def pure_density(amplitudes: np.ndarray) -> povm.DensityMatrix:
    return povm.DensityMatrix(entries=np.outer(amplitudes, amplitudes.conj()))


# Per-outcome loop reference: one phase, one outcome or one eigenvalue pair
# at a time, in the order the module summed them before batching.  The
# batched code sums in another order, so results agree to rounding only.
LOOP_TOL = 1e-14


def loop_rotate(system, matrix, angle):
    """e^{iG angle} matrix e^{-iG angle}."""
    u = np.exp(1j * angle * np.asarray(system.eigenvalues, dtype=float))
    return u[:, None] * matrix * u[None, :].conj()


def loop_random_povm(rng, dimension, grid_size):
    effects = np.empty((grid_size, dimension, dimension), dtype=complex)
    for k in range(grid_size):
        a = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal(
            (dimension, dimension)
        )
        effects[k] = a @ a.conj().T
    vals, vecs = np.linalg.eigh(effects.sum(axis=0))
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    ops = np.einsum("ab,kbc,cd->kad", inv_sqrt, effects, inv_sqrt)
    ops = 0.5 * (ops + ops.conj().transpose(0, 2, 1))
    ops[0] -= ops.sum(axis=0) - np.eye(dimension)
    return ops


def loop_canonical(system, grid_size):
    ops = np.empty((grid_size, system.dimension, system.dimension), dtype=complex)
    for k, phi in enumerate(povm.uniform_estimates(grid_size)):
        u = np.exp(-1j * phi * np.asarray(system.eigenvalues, dtype=float))
        ops[k] = np.outer(u, u.conj()) / grid_size
    return ops


def loop_outcome_seeds(ops, system):
    """Seed reconstructed from each outcome of a covariant set, one by one."""
    size = len(ops)
    estimates = povm.uniform_estimates(size)
    return [
        size / (2.0 * math.pi) * loop_rotate(system, ops[k], estimates[k])
        for k in range(size)
    ]


def loop_covariant_average(ops, system):
    size = len(ops)
    estimates = povm.uniform_estimates(size)
    seed = np.zeros(ops.shape[1:], dtype=complex)
    for k, phi in enumerate(estimates):
        seed += loop_rotate(system, ops[k], phi)
    seed /= 2.0 * math.pi
    return np.array(
        [2.0 * math.pi / size * loop_rotate(system, seed, -phi) for phi in estimates]
    )


def loop_error_density(ops, rho, system, phase=0.0):
    shifted = loop_rotate(system, rho, -phase)
    return np.array([np.real(np.trace(op @ shifted)) for op in ops])


def loop_average_error_masses(ops, rho, system):
    size = len(ops)
    averaged = np.zeros(size)
    for u in range(size):
        masses = loop_error_density(ops, rho, system, 2.0 * math.pi * u / size)
        averaged += np.roll(masses, -u)
    return averaged / size


def loop_reduced_state(covariant_ops, rho0, system):
    """(rho_s, offset) of the degeneracy-removing reduction, block by block."""
    seed = loop_outcome_seeds(covariant_ops, system)[0]
    values = system.distinct_values()
    offset = 0 if min(values) >= 0 else max(max(abs(v) for v in values), 1)
    dim = (max(max(values), 1) + 1) if offset == 0 else 2 * offset + 1
    rho_s = np.zeros((dim, dim), dtype=complex)
    for n in values:
        idx_n = system.indices_of(n)
        for n_p in values:
            idx_np = system.indices_of(n_p)
            block_rho = rho0[np.ix_(idx_np, idx_n)]
            block_seed = seed[np.ix_(idx_n, idx_np)]
            rho_s[n_p + offset, n + offset] = 2.0 * math.pi * np.sum(
                block_rho * block_seed.T
            )
    return rho_s, offset


def loop_continuity(ops, rho, system, eps_grid, phi_samples=16):
    """(worst margin, worst phi, worst eps), scanning phi then eps."""
    estimate_op = np.tensordot(povm.uniform_estimates(len(ops)), ops, axes=(0, 0))
    eigs = np.asarray(system.eigenvalues, dtype=float)
    g_mean = float(np.abs(eigs) @ np.real(np.diag(rho)))

    def mean_estimate(phi):
        return float(np.real(np.trace(estimate_op @ loop_rotate(system, rho, -phi))))

    worst, worst_at = math.inf, (0.0, 0.0)
    for phi in np.linspace(-math.pi, math.pi, phi_samples, endpoint=False):
        base = mean_estimate(float(phi))
        for eps in eps_grid:
            diff = abs(mean_estimate(float(phi) + float(eps)) - base)
            bound = 4.0 * math.pi * math.sqrt(2.0 * g_mean * abs(float(eps)))
            if bound - diff < worst:
                worst, worst_at = bound - diff, (float(phi), float(eps))
    return worst, worst_at[0], worst_at[1]


def random_instance(seed):
    """The system, grid size, state and POVM that verify_random_instance draws."""
    rng = np.random.default_rng(seed)
    system = povm.random_degenerate_system(rng)
    values = system.distinct_values()
    embedded = max(values) if min(values) >= 0 else 2 * max(abs(v) for v in values)
    grid = 4 * max(system.span, embedded, 1) + 4
    rho = povm.random_density(rng, system.dimension)
    return system, grid, rho, loop_random_povm(rng, system.dimension, grid)


def loop_verify_random_instance(seed, eps_grid=(1e-3, 1e-2, 1e-1)):
    system, grid, rho, ops = random_instance(seed)
    averaged = loop_covariant_average(ops, system)
    covariant_masses = loop_error_density(averaged, rho.entries, system)
    direct = loop_average_error_masses(ops, rho.entries, system)
    rho_s, offset = loop_reduced_state(averaged, rho.entries, system)
    flat = povm.DegenerateSystem.from_degeneracies(
        list(range(-offset, len(rho_s) - offset)), [1] * len(rho_s)
    )
    reduced_masses = loop_error_density(loop_canonical(flat, grid), rho_s, flat)
    generator_original = np.zeros(len(rho_s))
    for n in system.distinct_values():
        idx = system.indices_of(n)
        generator_original[n + offset] = np.real(
            np.trace(rho.entries[np.ix_(idx, idx)])
        )
    generator_reduced = np.real(np.diag(rho_s))
    return {
        "seed": float(seed),
        "dimension": float(system.dimension),
        "grid_size": float(grid),
        "lemma1_gap": float(np.max(np.abs(covariant_masses - direct))),
        "lemma2_gap": float(np.max(np.abs(reduced_masses - covariant_masses))),
        "generator_gap": float(np.max(np.abs(generator_reduced - generator_original))),
        "continuity_margin": loop_continuity(ops, rho.entries, system, eps_grid)[0],
    }


LOOP_SEEDS = range(100, 124)


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

    def test_random_systems_cover_both_embeddings(self):
        # instances starting at -1 take lemma2_reduction's symmetric branch
        lowest = {
            min(povm.random_degenerate_system(np.random.default_rng(seed)).eigenvalues)
            for seed in range(200)
        }
        assert min(lowest) < 0 <= max(lowest)

    def test_degenerate_system_validation(self):
        with pytest.raises(ValueError):
            povm.DegenerateSystem.from_degeneracies([0, 0], [1, 1])
        with pytest.raises(ValueError):
            povm.DegenerateSystem.from_degeneracies([0, 1], [1, 0])

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
        density = canonical._densities(real_probe[None], grid)[0]
        assert np.max(np.abs(masses - density * 2.0 * math.pi / grid)) <= 1e-10

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
            report = povm.verify_random_instance(seed)
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


class TestBatchedMatchesLoop:
    """The batched grid sums agree with the per-outcome loop reference."""

    @pytest.mark.parametrize("dimension, grid", [(1, 4), (4, 16), (6, 40)])
    def test_random_povm_draws_the_same_stream(self, dimension, grid):
        for seed in LOOP_SEEDS:
            batched_rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            batched = povm.random_povm(batched_rng, dimension, grid).operators
            expected = loop_random_povm(loop_rng, dimension, grid)
            assert np.max(np.abs(batched - expected)) <= LOOP_TOL
            # the generator is left in the same state
            assert batched_rng.standard_normal() == loop_rng.standard_normal()

    def test_covariant_average(self):
        for seed in LOOP_SEEDS:
            system, _, _, ops = random_instance(seed)
            averaged = povm.covariant_average(
                povm.PovmSet(kind="discrete-phase", operators=ops), system
            )
            expected = loop_covariant_average(ops, system)
            assert np.max(np.abs(averaged.operators - expected)) <= LOOP_TOL

    def test_error_density_at_several_phases(self):
        for seed in LOOP_SEEDS:
            system, _, rho, ops = random_instance(seed)
            measurement = povm.PovmSet(kind="discrete-phase", operators=ops)
            for phase in (0.0, 0.3, -1.7, math.pi, 5.0):
                masses = povm.error_density(measurement, rho, system, phase=phase)
                expected = loop_error_density(ops, rho.entries, system, phase)
                assert masses.shape == (len(ops),)
                assert np.max(np.abs(masses - expected)) <= LOOP_TOL

    def test_average_error_masses(self):
        for seed in LOOP_SEEDS:
            system, _, rho, ops = random_instance(seed)
            averaged = povm.average_error_masses(
                povm.PovmSet(kind="discrete-phase", operators=ops), rho, system
            )
            expected = loop_average_error_masses(ops, rho.entries, system)
            assert np.max(np.abs(averaged - expected)) <= LOOP_TOL

    def test_lemma2_reduced_state(self):
        for seed in LOOP_SEEDS:
            system, _, rho, ops = random_instance(seed)
            covariant = povm.covariant_average(
                povm.PovmSet(kind="discrete-phase", operators=ops), system
            )
            rho_s = povm.lemma2_reduction(covariant, rho, system)["rho_s"].entries
            expected, _ = loop_reduced_state(covariant.operators, rho.entries, system)
            assert rho_s.shape == expected.shape
            assert np.max(np.abs(rho_s - expected)) <= LOOP_TOL

    def test_lemma2_reduced_state_symmetric_embedding(self):
        """Random instances have no negative eigenvalues, so the offset
        scatter of the symmetric embedding is checked on its own."""
        rng = np.random.default_rng(29)
        for values, degeneracies in [([-1, 0, 2], [1, 2, 1]), ([-3, -1, 1], [2, 1, 2])]:
            system = povm.DegenerateSystem.from_degeneracies(values, degeneracies)
            grid = 8 * max(abs(v) for v in values) + 4
            rho = povm.random_density(rng, system.dimension)
            covariant = povm.covariant_average(
                povm.random_povm(rng, system.dimension, grid), system
            )
            reduced = povm.lemma2_reduction(covariant, rho, system)
            expected, offset = loop_reduced_state(
                covariant.operators, rho.entries, system
            )
            assert offset == reduced["spectrum"].cutoff
            assert np.max(np.abs(reduced["rho_s"].entries - expected)) <= LOOP_TOL

    def test_verify_random_instance_every_key(self):
        for seed in LOOP_SEEDS:
            report = povm.verify_random_instance(seed)
            expected = loop_verify_random_instance(seed)
            assert report.keys() == expected.keys()
            for key, value in expected.items():
                assert report[key] == pytest.approx(value, rel=0.0, abs=LOOP_TOL), key

    def test_continuity_worst_point(self):
        eps_grid = [1e-3, 1e-2, 1e-1]
        for seed in LOOP_SEEDS:
            system, _, rho, ops = random_instance(seed)
            report = povm.continuity_check(
                povm.PovmSet(kind="discrete-phase", operators=ops), rho, system, eps_grid
            )
            worst, phi, eps = loop_continuity(ops, rho.entries, system, eps_grid)
            assert report.margins["continuity"] == pytest.approx(worst, abs=LOOP_TOL)
            assert (report.details["worst_phi"], report.details["worst_eps"]) == (phi, eps)

    def test_continuity_ties_resolve_to_the_first_point(self):
        """A zero-generator system has every margin exactly 0, so the worst
        point is the first one scanned: phi = -pi, then the first eps."""
        system = nondegenerate(1)
        ops = np.full((4, 1, 1), 0.25, dtype=complex)
        rho = povm.DensityMatrix(entries=np.eye(1))
        eps_grid = [1e-2, 1e-3, 1e-1]
        report = povm.continuity_check(
            povm.PovmSet(kind="discrete-phase", operators=ops), rho, system, eps_grid
        )
        expected = loop_continuity(ops, rho.entries, system, eps_grid)
        assert expected == (0.0, -math.pi, 1e-2)
        assert report.margins["continuity"] == 0.0
        assert (report.details["worst_phi"], report.details["worst_eps"]) == (
            -math.pi,
            1e-2,
        )


class TestCovarianceCheckCoversEveryOutcome:
    @pytest.mark.parametrize("broken", [1, 16, 31], ids=["first", "middle", "last"])
    def test_single_broken_outcome_is_rejected(self, four_level, broken):
        """Move 2e-9 of effect k, spread evenly, onto the other 31 effects.

        The set stays Hermitian, positive and complete.  Outcome k's seed
        then disagrees with outcome 0's by about 3e-10, while every other
        outcome's seed moves by at most about 2e-11, below the 1e-10
        tolerance.  So only a check that reaches outcome k can reject it.
        """
        rng = np.random.default_rng(2718)
        grid = 32
        ops = povm.covariant_average(
            povm.random_povm(rng, 4, grid), four_level
        ).operators.copy()
        moved = 2e-9 * ops[broken]
        ops[broken] -= moved
        ops[np.arange(grid) != broken] += moved / (grid - 1)
        seeds = loop_outcome_seeds(ops, four_level)
        gaps = [float(np.max(np.abs(s - seeds[0]))) for s in seeds]
        assert [k for k, gap in enumerate(gaps) if gap > 1e-10] == [broken]

        broken_set = povm.PovmSet(kind="discrete-phase", operators=ops)
        rho = povm.random_density(rng, 4)
        with pytest.raises(ValueError, match="outcome seeds disagree"):
            povm.lemma2_reduction(broken_set, rho, four_level)
