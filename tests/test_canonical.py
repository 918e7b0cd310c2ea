"""Canonical-measurement machinery tests: densities, moment deficits, the
theta^2 kernel, metrics, entropies, and the bound reports.

Quadrature oracles are computed in-test by explicit evaluation of
|sum psi_n e^{in theta}|^2 / 2pi (no FFT), so every dual-route comparison
is independent of the module's spectral construction.
"""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselim import canonical, variational
from phaselim.canonical import (
    COSINE_COSTS,
    BoundReport,
    MaxEntropyFamily,
    _densities,
    _laplace_direct,
    _periodic_entropy,
    _shannon,
    _thermal_entropy_direct,
    bound_reports,
    default_grid_size,
    max_entropy_bound_checks,
    state_metrics,
    theta_sq_entries,
    theta_sq_kernel,
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


def density(state: ProbeState, size: int) -> np.ndarray:
    """The canonical density of one state on the grid of ``size`` points."""
    return _densities(state.amplitudes[None, :], size)[0]


def theta_grid(size: int) -> np.ndarray:
    """The grid theta_k = -pi + 2 pi k / size that the densities sample."""
    return -math.pi + 2.0 * math.pi * np.arange(size) / size


def density_oracle(state: ProbeState, grid: np.ndarray) -> np.ndarray:
    """Direct pointwise |sum psi_n e^{in theta}|^2 / 2pi, no transforms."""
    values = state.spectrum.values().astype(float)
    amplitude = state.amplitudes @ np.exp(1j * np.outer(values, grid))
    return np.abs(amplitude) ** 2 / (2.0 * math.pi)


class TestCanonicalDistribution:
    """Densities on the ``default_grid_size`` grid, as the bound reports
    sample them."""

    def test_single_eigenstate_uniform(self):
        state = make_state("nonneg", [0.0, 0.0, 1.0, 0.0])
        size = default_grid_size(state.spectrum)
        assert density(state, size) == pytest.approx(
            np.full(size, 1.0 / (2.0 * math.pi)), abs=1e-14
        )

    def test_two_level_closed_form(self):
        state = make_state("nonneg", [1.0, 1.0])
        size = default_grid_size(state.spectrum)
        expected = (1.0 + np.cos(theta_grid(size))) / (2.0 * math.pi)
        assert density(state, size) == pytest.approx(expected, abs=1e-13)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(21)
        for kind in ("nonneg", "symmetric"):
            state = make_state(kind, rng.standard_normal(9))
            size = default_grid_size(state.spectrum)
            assert density(state, size) == pytest.approx(
                density_oracle(state, theta_grid(size)), abs=1e-12
            )

    def test_normalization_invariant(self):
        rng = np.random.default_rng(22)
        state = make_state("nonneg", rng.standard_normal(33))
        size = default_grid_size(state.spectrum)
        assert abs(density(state, size).sum() * (2.0 * math.pi / size) - 1.0) <= 1e-10

    def test_default_grid_size(self):
        assert default_grid_size(Spectrum(kind="nonneg", cutoff=1)) == 16
        assert default_grid_size(Spectrum(kind="nonneg", cutoff=31)) == 256


class TestMomentDeficits:
    """The deficits q_m = 1 - <cos m Theta> as state_metrics reads them:
    delta_1^2 = 2 q_1, delta_2^2 = (8/3) q_1 - q_2 / 6."""

    def test_two_level(self):
        # psi = (1, 1)/sqrt 2: <cos Theta> = 1/2, <cos 2 Theta> = 0
        metrics = state_metrics(make_state("nonneg", [1.0, 1.0]))
        assert metrics["delta1"] ** 2 == pytest.approx(1.0, abs=1e-15)
        assert metrics["delta2"] ** 2 == pytest.approx(7.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_against_quadrature(self, kind):
        rng = np.random.default_rng(23)
        state = make_state(kind, rng.standard_normal(11))
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        p = density_oracle(state, grid)
        metrics = state_metrics(state)
        for name, coeffs in COSINE_COSTS.items():
            cost = coeffs[0] + sum(a * np.cos(m * grid) for m, a in enumerate(coeffs[1:], 1))
            # the integrand is band-limited, so the uniform sum is exact
            quad = cost @ p * (2.0 * math.pi / grid.size)
            assert metrics[f"delta{name[1:]}"] ** 2 == pytest.approx(quad, abs=1e-12), name

    @pytest.mark.parametrize(
        "kind, amplitudes",
        [
            ("nonneg", [1.0, 0.0, 1.0]),  # (|0> + |2>) / sqrt 2
            ("nonneg", [0.0, 0.0, 1.0, 0.0, 0.0]),  # one level, wider support
            ("symmetric", [0.0, 0.0, 1.0, 0.0, 0.0]),
        ],
    )
    def test_vanishing_cos_moment_is_exact(self, kind, amplitudes):
        # <cos Theta> = 0: the Holevo variance is infinite, not ~1e32, so
        # even a width-0 state meets tan(pi / (width + 2)) = tan(pi/2)
        state = make_state(kind, amplitudes)
        assert state_metrics(state)["holevo"] == math.inf
        assert bound_reports([state])[0].margins["tan_bound"] >= 0.0


def theta_sq_dense(n: int) -> np.ndarray:
    """The theta^2 Fourier matrix from its closed-form entries: pi^2/3 on the
    diagonal, 2 (-1)^m / m^2 at distance m."""
    m = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(m == 0, math.pi**2 / 3.0, 2.0 * (-1.0) ** m / np.maximum(m, 1) ** 2)


def long_double_amse(state: ProbeState) -> float:
    """<Theta^2> = (pi^2/3 c_0 + 4 sum (-1)^m c_m / m^2) / c_0 with direct
    pairwise lag sums c_m = sum psi_{n+m} psi_n, all in np.longdouble."""
    psi = state.amplitudes.astype(np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    c_0 = np.sum(psi * psi)
    total = pi * pi / 3 * c_0
    for m in range(1, psi.size):
        sign = 1 if m % 2 == 0 else -1
        total += sign * 4 * np.sum(psi[m:] * psi[:-m]) / (np.longdouble(m) * m)
    return total / c_0


class TestThetaSqKernel:
    def test_difference_form_is_the_theta_sq_matrix(self):
        d = 61
        g = theta_sq_kernel(d + 1)
        assert g[0] == 2.0 * math.log(2.0)
        i, j = np.indices((d + 1, d + 1))
        difference = np.eye(d + 1, d) - np.eye(d + 1, d, -1)  # u = D psi
        dense = difference.T @ g[np.abs(i - j)] @ difference
        assert np.abs(dense - theta_sq_dense(d)).max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 7, 60, 199, 200, 201, 1000])
    def test_coefficients_against_quadrature(self, m):
        # g_m = (1/pi) int_0^pi g(t) cos(m t) dt, g(t) = (t/2)^2 / sin^2(t/2)
        def g(t):
            return 1.0 if t == 0.0 else (0.5 * t / math.sin(0.5 * t)) ** 2

        value, _ = scipy.integrate.quad(g, 0.0, math.pi, weight="cos", wvar=m)
        # quad is good to ~3e-16 here; a wrong tail term would miss by ~1e-9
        assert theta_sq_kernel(m + 1)[m] == pytest.approx(value / math.pi, abs=1e-15)

    def test_prefix_is_shared_and_read_only(self):
        short, long = theta_sq_kernel(10), theta_sq_kernel(5000)
        assert np.array_equal(short, long[:10])
        assert not long.flags.writeable
        with pytest.raises(ValueError):
            long[0] = 1.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is plain double here",
    )
    def test_broad_state_matches_long_double_series(self):
        # q_1 ~ 1e-6: the moment series sums O(1) terms down to ~2e-6, which
        # costs float64 ~1e-10 relative; the kernel form has no cancellation
        n = np.arange(2222, dtype=float)
        state = make_state("nonneg", np.sin(math.pi * (n + 1.0) / 2223.0))
        metrics = state_metrics(state)
        assert 5e-7 < metrics["delta1"] ** 2 / 2.0 < 2e-6
        reference = long_double_amse(state)
        amse = metrics["amse"]
        assert abs(amse - reference) <= 1e-12 * reference


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
    def test_state_metrics_match_fsum_reference(self, kind):
        state = broad_state(kind)
        q1, q2 = fsum_deficits(state)
        assert 1e-9 < q1 < 1e-7
        metrics = state_metrics(state)
        expected = {
            "delta1": math.sqrt(2.0 * q1),
            "holevo": q1 * (2.0 - q1) / (1.0 - q1) ** 2,
            "delta2": math.sqrt((8.0 / 3.0) * q1 - q2 / 6.0),
            # f3's a_1 = -pi^2/2 and a_2 = pi^2/8 - 1/2, written out here
            "delta3": math.sqrt((math.pi**2 / 2.0) * q1 - (math.pi**2 / 8.0 - 0.5) * q2),
        }
        for name, value in expected.items():
            assert metrics[name] == pytest.approx(value, rel=1e-14), name


class TestMetrics:
    def test_uniform_case(self):
        # single eigenstate: the error density is flat
        metrics = state_metrics(make_state("nonneg", [0.0, 1.0]))
        assert metrics["amse"] == pytest.approx(math.pi**2 / 3.0, abs=1e-12)
        assert metrics["holevo"] == math.inf

    def test_two_level_values(self):
        # <cos Theta> = 1/2: holevo = 1/c_1^2 - 1 = 3, delta_1^2 = 2 - 2 c_1 = 1,
        # <Theta^2> = pi^2/3 + 4 (-1) c_1 = pi^2/3 - 2
        metrics = state_metrics(make_state("nonneg", [1.0, 1.0]))
        assert metrics["holevo"] == pytest.approx(3.0, abs=1e-14)
        assert metrics["delta1"] ** 2 == pytest.approx(1.0, abs=1e-14)
        assert metrics["amse"] == pytest.approx(math.pi**2 / 3.0 - 2.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_amse_series_vs_quadrature(self, kind):
        rng = np.random.default_rng(25)
        state = make_state(kind, rng.standard_normal(7))
        metrics = state_metrics(state)
        # theta^2 is not band-limited: use a dense grid for the oracle
        size = 1 << 21
        quad = float((theta_grid(size) ** 2) @ density(state, size) * (2.0 * math.pi / size))
        assert metrics["amse"] == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_amse_is_the_dense_quadratic_form(self, kind):
        rng = np.random.default_rng(28)
        state = make_state(kind, rng.standard_normal(41))
        psi = state.amplitudes
        expected = psi @ theta_sq_dense(psi.size) @ psi
        assert state_metrics(state)["amse"] == pytest.approx(expected, rel=1e-13)


class TestCostTable:
    @pytest.mark.parametrize("name", sorted(COSINE_COSTS))
    def test_each_cost_vanishes_at_zero(self, name):
        # delta_k^2 = -sum_{m>=1} a_m q_m needs f_k(0) = sum_m a_m = 0
        assert abs(sum(COSINE_COSTS[name])) <= 1e-15

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    @pytest.mark.parametrize("name", sorted(COSINE_COSTS))
    def test_metrics_are_the_cost_matrix_forms(self, name, kind):
        rng = np.random.default_rng(14)
        cost = variational.cost_function(name)
        # a two-level state has q_2 = 1 (support narrower than cos 2t)
        sizes = (2, 3, 9, 40) if kind == "nonneg" else (3, 9, 41)
        for size in sizes:
            state = make_state(kind, rng.standard_normal(size))
            matrix = variational.build_matrix(cost, state.spectrum, 0.0)
            psi = state.amplitudes
            expected = float(psi @ matrix.matvec(psi))
            metric = state_metrics(state)[f"delta{name[1:]}"] ** 2
            assert metric == pytest.approx(expected, rel=1e-12), size

    def test_theta_sq_entries_are_the_dense_matrix(self):
        dense = theta_sq_dense(12)
        assert np.array_equal(theta_sq_entries(np.arange(1, 12)), dense[0, 1:])


def error_entropy(state: ProbeState, size: int) -> float:
    """H(Theta) by the uniform grid sum of ``size`` points."""
    return float(_periodic_entropy(density(state, size), 2.0 * math.pi / size))


class TestEntropy:
    def test_uniform(self):
        state = make_state("nonneg", [1.0, 0.0])
        h = error_entropy(state, default_grid_size(state.spectrum))
        assert h == pytest.approx(math.log(2.0 * math.pi), abs=1e-13)
        assert math.exp(h) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_two_level_analytic(self):
        # analytic oracle: H = ln(4 pi) - 1 for (1 + cos)/2pi
        h = error_entropy(make_state("nonneg", [1.0, 1.0]), 1 << 20)
        assert h == pytest.approx(math.log(4.0 * math.pi) - 1.0, abs=1e-10)
        assert math.exp(h) == pytest.approx(4.0 * math.pi / math.e, rel=1e-10)

    def test_generator_entropy(self):
        assert _shannon(np.array([0.0, 1.0, 0.0, 0.0])) == 0.0
        assert _shannon(np.full(5, 0.2)) == pytest.approx(math.log(5.0), abs=1e-14)

    def test_truncated_thermal_matches_family(self):
        nbar = 1.0
        n = np.arange(80, dtype=float)
        p = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
        family = MaxEntropyFamily(kind="thermal", parameter=nbar)
        assert family.entropy() == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
        assert _shannon(p / p.sum()) == pytest.approx(family.entropy(), abs=1e-12)


class TestVerifyBounds:
    def test_single_eigenstate_equality(self):
        report = bound_reports([make_state("nonneg", [0.0, 0.0, 1.0])])[0]
        assert report.ok
        assert report.margins["entropic_ur"] == pytest.approx(0.0, abs=1e-12)

    def test_two_level_tan_equality(self):
        report = bound_reports([make_state("nonneg", [1.0, 1.0])])[0]
        assert report.ok
        assert report.margins["tan_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_random_states_all_margins(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            kind = "nonneg" if rng.random() < 0.5 else "symmetric"
            dim = int(rng.integers(2, 40))
            if kind == "symmetric":
                dim = 2 * dim + 1
            report = bound_reports([make_state(kind, rng.standard_normal(dim))])[0]
            assert report.ok, report.margins

    def test_heis_margin_positive_nonneg(self):
        state = make_state("nonneg", [2.0, 1.0, 0.5])
        report = bound_reports([state])[0]
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
        report = bound_reports([state])[0]
        assert min(report.margins.values()) >= -1e-12, report.margins


@st.composite
def single_level_states(draw, max_cutoff=60):
    """One occupied level: width 0, <cos Theta> = 0 and H(G) = 0."""
    kind = draw(st.sampled_from(["nonneg", "symmetric"]))
    spectrum = Spectrum(kind=kind, cutoff=draw(st.integers(1, max_cutoff)))
    psi = np.zeros(spectrum.dimension)
    psi[draw(st.integers(0, spectrum.dimension - 1))] = draw(st.sampled_from([1.0, -1.0]))
    return ProbeState(spectrum=spectrum, amplitudes=psi)


def reference_report(state: ProbeState) -> tuple[dict, dict]:
    """Margins and details of one state from the one-state primitives;
    <|G - m|> at the median m is summed in level order."""
    h_theta = error_entropy(state, default_grid_size(state.spectrum))
    metrics = state_metrics(state)
    delta = math.sqrt(metrics["amse"])
    values, p = state.spectrum.values(), state.amplitudes**2
    median = values[np.searchsorted(np.cumsum(p), 0.5)]
    mean_abs_dev = float(np.cumsum(np.abs(values - median) * p)[-1])
    support = np.nonzero(state.amplitudes)[0]
    width = int(support[-1] - support[0])
    q1 = metrics["delta1"] ** 2 / 2.0
    margins = {
        "entropic_ur": h_theta + _shannon(p) - math.log(2.0 * math.pi),
        "heis_k_a_median": delta - K_A / (2.0 * mean_abs_dev + 1.0),
        "tan_bound": math.sqrt(metrics["holevo"]) - math.tan(math.pi / (width + 2.0)),
        "entropic_length": delta - math.exp(h_theta) / math.sqrt(2.0 * math.pi * math.e),
        "arccos_lower": delta - math.acos(max(min(1.0 - q1, 1.0), -1.0)),
        "quadratic_upper": (math.pi**2 / 2.0) * q1 - metrics["amse"],
    }
    details = {
        "delta": delta,
        "g_best": float(median),
        "mean_abs_dev": mean_abs_dev,
        "support_width": float(width),
        "holevo": metrics["holevo"],
    }
    if state.spectrum.kind == "nonneg":
        details["n_plus_1"] = state.mean_weight() + 1.0
        margins["heis_k_a"] = delta - K_A / details["n_plus_1"]
    return margins, details


class TestBoundReports:
    """The batched reports equal the one-state reference exactly, whatever
    batch a state shares (the cell cap is drawn so that windows split)."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        states=st.lists(
            st.one_of(random_states(), single_level_states()), min_size=1, max_size=12
        ),
        cap=st.sampled_from([16, 100, 512, 2000, 1 << 20]),
    )
    def test_batch_equals_one_state_reference(self, states, cap):
        with mock.patch.object(canonical, "_BATCH_CELLS", cap):
            reports = bound_reports(states)
        assert len(reports) == len(states)
        for state, report in zip(states, reports):
            margins, details = reference_report(state)
            assert report.margins == margins
            assert report.details == details
            assert bound_reports([state])[0] == report
            if np.count_nonzero(state.amplitudes) == 1:
                assert details["support_width"] == 0.0
                assert details["holevo"] == math.inf
                assert abs(margins["entropic_ur"]) <= 1e-15

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(state=st.one_of(random_states(), single_level_states()))
    @example(state=make_state("nonneg", [1.0, 0.0, 1.0]))  # flat CDF on [0, 2]
    @example(state=make_state("symmetric", [1.0, 1.0, 1.0, 1.0, 0.0]))
    def test_median_minimises_mean_abs_deviation(self, state):
        # g_best is the median with ties broken low, and no g of the grid
        # around it (step 0.1 over +-1) has a smaller <|G - g|>
        details = bound_reports([state])[0].details
        values, p = state.spectrum.values(), state.amplitudes**2
        assert details["g_best"] == values[np.searchsorted(np.cumsum(p), 0.5)]
        for offset in np.concatenate(([-1.0, 0.0, 1.0], np.arange(-10, 11) * 0.1)):
            deviation = np.cumsum(np.abs(values - (details["g_best"] + offset)) * p)[-1]
            assert details["mean_abs_dev"] <= deviation * (1.0 + 1e-15)

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(cutoffs=st.lists(st.integers(1, 1 << 17), max_size=24))
    def test_windows_respect_the_cell_cap(self, cutoffs):
        states = [make_state("nonneg", np.ones(c + 1)) for c in cutoffs]
        windows = list(canonical._windows(iter(states)))
        assert [s for window in windows for s in window] == states
        for window in windows:
            cells = sum(default_grid_size(s.spectrum) for s in window)
            assert len(window) == 1 or cells <= canonical._BATCH_CELLS

    def test_large_state_is_a_window_of_one(self):
        small = make_state("symmetric", np.ones(41))
        large = make_state("nonneg", np.ones(100_000))  # d = 1e5: 2^20 grid cells
        windows = list(canonical._windows([small, large, small, small, large, large]))
        assert [len(window) for window in windows] == [1, 1, 2, 1, 1]


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
    def test_density_normalisation_guard(self):
        # a density that does not integrate to 1 is an error, not margins
        def scaled(psi, size):
            return (1.0 + 1e-8) * _densities(psi, size)

        with mock.patch.object(canonical, "_densities", scaled):
            with pytest.raises(ValueError, match="does not integrate to 1"):
                bound_reports([make_state("nonneg", [1.0, 1.0])])

    def test_bound_report_flags_violations(self):
        report = BoundReport(margins={"good": 1.0, "bad": -1.0})
        assert report.violations == ["bad"]
        assert not report.ok
