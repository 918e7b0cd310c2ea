"""Canonical-measurement machinery tests: densities, moments, metrics,
entropies, and the bound reports.

Quadrature oracles are computed in-test by explicit evaluation of
|sum psi_n e^{in theta}|^2 / 2pi (no FFT), so every dual-route comparison
is independent of the module's spectral construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselim.canonical import (
    F3_A1,
    F3_A2,
    BoundReport,
    ErrorDistribution,
    GeneratorDistribution,
    MaxEntropyFamily,
    _laplace_direct,
    _thermal_entropy_direct,
    all_moments,
    canonical_distribution,
    default_grid_size,
    entropy_and_length,
    entropy_generator,
    generator_distribution,
    max_entropy_bound_checks,
    metrics_from_moments,
    moment_deficits,
    moments,
    state_metrics,
    unbias_rotation,
    verify_bounds,
)
from phaselim.states import ProbeState, Spectrum

K_A = math.sqrt(2.0 * math.pi / math.e**3)


def make_state(kind: str, amplitudes) -> ProbeState:
    amplitudes = np.asarray(amplitudes, dtype=float)
    if kind == "nonneg":
        cutoff = amplitudes.size - 1
    else:
        cutoff = (amplitudes.size - 1) // 2
    return ProbeState(
        spectrum=Spectrum(kind=kind, cutoff=cutoff),
        amplitudes=amplitudes / np.linalg.norm(amplitudes),
    )


def density_oracle(state: ProbeState, grid: np.ndarray) -> np.ndarray:
    """Direct pointwise |sum psi_n e^{in theta}|^2 / 2pi, no transforms."""
    values = state.spectrum.values().astype(float)
    amplitude = state.amplitudes @ np.exp(1j * np.outer(values, grid))
    return np.abs(amplitude) ** 2 / (2.0 * math.pi)


class TestCanonicalDistribution:
    def test_single_eigenstate_uniform(self):
        state = make_state("nonneg", [0.0, 0.0, 1.0, 0.0])
        dist = canonical_distribution(state)
        assert dist.density == pytest.approx(
            np.full(dist.grid.size, 1.0 / (2.0 * math.pi)), abs=1e-14
        )

    def test_two_level_closed_form(self):
        state = make_state("nonneg", [1.0, 1.0])
        dist = canonical_distribution(state)
        expected = (1.0 + np.cos(dist.grid)) / (2.0 * math.pi)
        assert dist.density == pytest.approx(expected, abs=1e-13)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(21)
        for kind in ("nonneg", "symmetric"):
            state = make_state(kind, rng.standard_normal(9))
            dist = canonical_distribution(state)
            assert dist.density == pytest.approx(
                density_oracle(state, dist.grid), abs=1e-12
            )

    def test_normalization_invariant(self):
        rng = np.random.default_rng(22)
        state = make_state("nonneg", rng.standard_normal(33))
        dist = canonical_distribution(state)
        assert abs(dist.normalization_check - 1.0) <= 1e-10

    def test_grid_size_validation(self):
        state = make_state("nonneg", np.ones(17))
        with pytest.raises(ValueError):
            canonical_distribution(state, 64)  # too small: aliases
        with pytest.raises(ValueError):
            canonical_distribution(state, 300)  # not a power of two

    def test_default_grid_size(self):
        assert default_grid_size(Spectrum(kind="nonneg", cutoff=1)) == 16
        assert default_grid_size(Spectrum(kind="nonneg", cutoff=31)) == 256


class TestMoments:
    def test_normalization_and_two_level(self):
        state = make_state("nonneg", [1.0, 1.0])
        moms = moments(state, 1)
        assert moms[0] == pytest.approx(1.0, abs=1e-14)
        assert moms[1] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_against_quadrature(self, kind):
        rng = np.random.default_rng(23)
        state = make_state(kind, rng.standard_normal(11))
        width = state.support_width()
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        p = density_oracle(state, grid)
        moms = moments(state, min(width, 6))
        for m, value in enumerate(moms):
            # the integrand is band-limited, so the uniform sum is exact
            quad = np.exp(1j * m * grid) @ p * (2.0 * math.pi / grid.size)
            assert value == pytest.approx(quad, abs=1e-10)

    def test_m_max_validation(self):
        state = make_state("nonneg", np.ones(4))
        with pytest.raises(ValueError):
            moments(state, 4)

    @pytest.mark.parametrize("n", [2, 3, 50, 4097, 5000])
    def test_all_moments_fft_path_matches_direct(self, n):
        rng = np.random.default_rng(24)
        state = make_state("nonneg", rng.standard_normal(n))
        psi = state.amplitudes
        fast = all_moments(state)
        assert fast.shape == (n,)
        for m in range(n):
            direct = float(psi[m:] @ psi[: n - m])
            assert fast[m].real == pytest.approx(direct, abs=1e-12)
            assert fast[m].imag == 0.0


def broad_state(kind: str) -> ProbeState:
    """A smooth state over ~2e4 levels: q_1 = 1 - <cos Theta> ~ 1e-8."""
    if kind == "nonneg":
        n = np.arange(20_001, dtype=float)
        return make_state(kind, np.sin(math.pi * (n + 1.0) / 20_002.0))
    j = np.arange(-20_000, 20_001, dtype=float)
    return make_state(kind, np.exp(-((j / 5_000.0) ** 2)))


def fsum_deficits(state: ProbeState) -> tuple[float, float]:
    """q_1, q_2 from the deficit identity with correctly rounded sums."""
    psi = state.amplitudes
    norm_sq = math.fsum(psi * psi)
    out = []
    for m in (1, 2):
        terms = np.concatenate(((psi[m:] - psi[:-m]) ** 2, psi[:m] ** 2, psi[-m:] ** 2))
        out.append(0.5 * math.fsum(terms) / norm_sq)
    return out[0], out[1]


class TestPairwiseDeficits:
    """Pairwise np.sum keeps the deficits of broad states at full precision."""

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_deficits_match_fsum_reference(self, kind):
        state = broad_state(kind)
        q1, q2 = fsum_deficits(state)
        assert 1e-9 < q1 < 1e-7
        fast = moment_deficits(state, 2)
        assert fast[0] == pytest.approx(q1, rel=1e-14)
        assert fast[1] == pytest.approx(q2, rel=1e-14)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_state_metrics_match_fsum_reference(self, kind):
        state = broad_state(kind)
        q1, q2 = fsum_deficits(state)
        metrics = state_metrics(state)
        expected = {
            "delta1": math.sqrt(2.0 * q1),
            "holevo": q1 * (2.0 - q1) / (1.0 - q1) ** 2,
            "delta2": math.sqrt((8.0 / 3.0) * q1 - q2 / 6.0),
            "delta3": math.sqrt(-F3_A1 * q1 - F3_A2 * q2),
        }
        for name, value in expected.items():
            assert metrics[name] == pytest.approx(value, rel=1e-14), name


class TestMetrics:
    def test_uniform_case(self):
        state = make_state("nonneg", [0.0, 1.0])
        # single eigenstate: only the zeroth moment survives
        metrics = metrics_from_moments(all_moments(state))
        assert metrics["amse"] == pytest.approx(math.pi**2 / 3.0, abs=1e-12)
        assert metrics["holevo"] == math.inf

    def test_two_level_values(self):
        metrics = metrics_from_moments(np.array([1.0, 0.5]))
        assert metrics["holevo"] == pytest.approx(3.0, abs=1e-14)
        assert metrics["delta1"] ** 2 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_amse_series_vs_quadrature(self, kind):
        rng = np.random.default_rng(25)
        state = make_state(kind, rng.standard_normal(7))
        metrics = metrics_from_moments(all_moments(state))
        # theta^2 is not band-limited: use a dense grid for the oracle
        dist = canonical_distribution(state, 1 << 21)
        quad = float((dist.grid**2) @ dist.density * dist.step)
        assert metrics["amse"] == pytest.approx(quad, abs=1e-10)

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            metrics_from_moments(np.array([0.7, 0.1]))


class TestUnbiasRotation:
    def test_identity_when_unbiased(self):
        moms = np.array([1.0, 0.5, 0.1], dtype=complex)
        assert unbias_rotation(moms) == pytest.approx(moms, abs=1e-15)

    def test_removes_injected_rotation(self):
        rng = np.random.default_rng(26)
        base = np.concatenate(([1.0], rng.uniform(0.1, 0.5, 4)))
        theta_av = 0.7318
        rotated = base * np.exp(1j * theta_av * np.arange(5))
        recovered = unbias_rotation(rotated)
        assert abs(recovered[1].imag) <= 1e-14
        assert recovered[1].real > 0.0
        assert recovered == pytest.approx(base.astype(complex), abs=1e-12)

    def test_holevo_invariant_under_rotation(self):
        base = np.array([1.0, 0.4, 0.2], dtype=complex)
        rotated = base * np.exp(1j * 1.1 * np.arange(3))
        holevo_before = metrics_from_moments(base)["holevo"]
        holevo_after = metrics_from_moments(unbias_rotation(rotated))["holevo"]
        assert holevo_after == pytest.approx(holevo_before, rel=1e-12)

    def test_zero_first_moment(self):
        with pytest.raises(ValueError):
            unbias_rotation(np.array([1.0, 0.0]))


class TestEntropy:
    def test_uniform(self):
        state = make_state("nonneg", [1.0, 0.0])
        result = entropy_and_length(canonical_distribution(state))
        assert result["H"] == pytest.approx(math.log(2.0 * math.pi), abs=1e-13)
        assert result["L"] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_two_level_analytic(self):
        # analytic oracle: H = ln(4 pi) - 1 for (1 + cos)/2pi
        state = make_state("nonneg", [1.0, 1.0])
        result = entropy_and_length(canonical_distribution(state, 1 << 20))
        assert result["H"] == pytest.approx(math.log(4.0 * math.pi) - 1.0, abs=1e-10)
        assert result["L"] == pytest.approx(4.0 * math.pi / math.e, rel=1e-10)

    def test_generator_entropy(self):
        point = GeneratorDistribution(
            spectrum=Spectrum(kind="nonneg", cutoff=3),
            probabilities=np.array([0.0, 1.0, 0.0, 0.0]),
        )
        assert entropy_generator(point) == 0.0
        flat = GeneratorDistribution(
            spectrum=Spectrum(kind="nonneg", cutoff=4),
            probabilities=np.full(5, 0.2),
        )
        assert entropy_generator(flat) == pytest.approx(math.log(5.0), abs=1e-14)

    def test_truncated_thermal_matches_family(self):
        nbar = 1.0
        n = np.arange(80, dtype=float)
        p = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
        dist = GeneratorDistribution(
            spectrum=Spectrum(kind="nonneg", cutoff=79), probabilities=p / p.sum()
        )
        family = MaxEntropyFamily(kind="thermal", parameter=nbar)
        assert family.entropy() == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
        assert entropy_generator(dist) == pytest.approx(family.entropy(), abs=1e-12)


class TestVerifyBounds:
    def test_single_eigenstate_equality(self):
        report = verify_bounds(make_state("nonneg", [0.0, 0.0, 1.0]))
        assert report.ok
        assert report.margins["entropic_ur"] == pytest.approx(0.0, abs=1e-12)

    def test_two_level_tan_equality(self):
        report = verify_bounds(make_state("nonneg", [1.0, 1.0]))
        assert report.ok
        assert report.margins["tan_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_random_states_all_margins(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            kind = "nonneg" if rng.random() < 0.5 else "symmetric"
            dim = int(rng.integers(2, 40))
            if kind == "symmetric":
                dim = 2 * dim + 1
            report = verify_bounds(make_state(kind, rng.standard_normal(dim)))
            assert report.ok, report.margins

    def test_heis_margin_positive_nonneg(self):
        state = make_state("nonneg", [2.0, 1.0, 0.5])
        report = verify_bounds(state)
        assert "heis_k_a" in report.margins
        assert report.margins["heis_k_a"] > 0.0
        delta = report.details["delta"]
        assert delta >= K_A / report.details["n_plus_1"]


@st.composite
def random_states(draw, max_cutoff=60):
    """Random real states of either spectrum kind; like the CLI's random
    states, some keep only a random part of their support."""
    kind = draw(st.sampled_from(["nonneg", "symmetric"]))
    spectrum = Spectrum(kind=kind, cutoff=draw(st.integers(1, max_cutoff)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(spectrum.dimension)
    if draw(st.booleans()):
        keep = rng.random(spectrum.dimension) < 0.5
        keep[draw(st.integers(0, spectrum.dimension - 1))] = True
        psi = np.where(keep, psi, 0.0)
    return ProbeState(spectrum=spectrum, amplitudes=psi / np.linalg.norm(psi))


def at_most(low: float, high: float, rel: float = 1e-12) -> bool:
    return low <= high + rel * abs(high)


class TestMetricChain:
    """delta_1 <= delta_H, delta_1 <= delta and
    arccos(1 - delta_1^2/2) <= delta <= (pi/2) delta_1 on random states."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(state=random_states())
    def test_state_metrics_chain(self, state):
        metrics = state_metrics(state)
        delta1 = metrics["delta1"]
        delta = math.sqrt(metrics["amse"])
        assert at_most(delta1, math.sqrt(metrics["holevo"]))
        assert at_most(delta1, delta)
        assert at_most(math.acos(max(1.0 - delta1**2 / 2.0, -1.0)), delta)
        assert at_most(delta, 0.5 * math.pi * delta1)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(state=random_states())
    def test_verify_bounds_margins(self, state):
        report = verify_bounds(state)
        assert min(report.margins.values()) >= -1e-12, report.margins


class TestMaxEntropyChecks:
    def test_all_margins_nonnegative(self):
        report = max_entropy_bound_checks()
        assert report.ok, report.margins

    def test_thermal_closed_form_pinned_point(self):
        family = MaxEntropyFamily(kind="thermal", parameter=1.0)
        assert family.entropy() == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert family.entropy() < math.log(2.0) + 1.0

    def test_laplace_integer_offset_direct_sum(self):
        family = MaxEntropyFamily(kind="laplace", parameter=1.0, offset=0.0)
        dev_direct, entropy_direct = _laplace_direct(1.0, 0.0)
        assert family.mean_abs_deviation() == pytest.approx(dev_direct, abs=1e-12)
        assert family.entropy() == pytest.approx(entropy_direct, abs=1e-12)

    def test_thermal_direct_sum_agrees(self):
        for nbar in (0.5, 1.0, 7.3):
            family = MaxEntropyFamily(kind="thermal", parameter=nbar)
            assert family.entropy() == pytest.approx(
                _thermal_entropy_direct(nbar), abs=1e-12
            )

    def test_laplace_bound_margin_shrinks_with_beta(self):
        def margin(beta):
            family = MaxEntropyFamily(kind="laplace", parameter=beta, offset=0.0)
            dev = family.mean_abs_deviation()
            return math.log(2.0 * dev + 1.0) + 1.0 - family.entropy()

        values = [margin(b) for b in (1.0, 1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_family_validation(self):
        with pytest.raises(ValueError):
            MaxEntropyFamily(kind="gauss", parameter=1.0)
        with pytest.raises(ValueError):
            MaxEntropyFamily(kind="laplace", parameter=-1.0)
        with pytest.raises(ValueError):
            MaxEntropyFamily(kind="laplace", parameter=1.0, offset=0.7)


class TestTypeInvariants:
    def test_error_distribution_checks(self):
        grid = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        with pytest.raises(ValueError):
            ErrorDistribution(
                grid=grid, density=np.full(16, -1.0), normalization_check=1.0
            )
        with pytest.raises(ValueError):
            ErrorDistribution(
                grid=grid,
                density=np.full(16, 1.0 / (2 * math.pi)),
                normalization_check=0.9,
            )

    def test_generator_distribution_checks(self):
        spectrum = Spectrum(kind="nonneg", cutoff=2)
        with pytest.raises(ValueError):
            GeneratorDistribution(
                spectrum=spectrum, probabilities=np.array([0.5, 0.2, 0.2])
            )

    def test_bound_report_flags_violations(self):
        report = BoundReport(margins={"good": 1.0, "bad": -1.0})
        assert report.violations == ["bad"]
        assert not report.ok
