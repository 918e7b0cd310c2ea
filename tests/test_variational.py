"""Tests for the constrained variational solver.

Reference values are produced by independent routes: dense numpy
eigendecompositions of the explicitly densified matrices (theta^2 ones from
their closed-form entries, never from the operator's kernel), direct moment
sums, and closed forms for the two-level optimum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselim import asympt, canonical, variational
from phaselim.eigensolve import BandedSymmetric, ToeplitzPlusDiagonal
from phaselim.states import ProbeState, Spectrum
from phaselim.variational import (
    OptimalPoint,
    build_matrix,
    cost_function,
    default_cutoff,
    solve_point,
    sweep_curve,
)

K_C = 1.376083543343775


def theta_sq_dense(n: int) -> np.ndarray:
    """The theta^2 Fourier matrix from its closed-form entries: pi^2/3 on the
    diagonal, 2 (-1)^m / m^2 at distance m."""
    m = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(m == 0, math.pi**2 / 3.0, 2.0 * (-1.0) ** m / np.maximum(m, 1) ** 2)


def densify(matrix):
    """Explicit symmetric matrix: banded from its diagonals, a (theta^2)
    Toeplitz-plus-diagonal one from theta^2's closed-form entries."""
    n = matrix.dimension
    if isinstance(matrix, ToeplitzPlusDiagonal):
        return theta_sq_dense(n) + np.diag(matrix.diagonal)
    out = np.zeros((n, n))
    for off, diag in enumerate(matrix.diagonals):
        idx = np.arange(n - off)
        out[idx, idx + off] = diag
        out[idx + off, idx] = diag
    return out


def moment_value(cost, psi: np.ndarray) -> float:
    """<f> from direct lag sums c_m = sum psi_{n+m} psi_n: the cosine series
    a_0 + sum a_m c_m, or pi^2/3 + 4 sum (-1)^m c_m / m^2 for theta^2."""
    c = [float(psi @ psi)] + [float(psi[m:] @ psi[:-m]) for m in range(1, psi.size)]
    if cost.name == "theta_sq":
        m = np.arange(1, psi.size)
        return math.pi**2 / 3.0 + 4.0 * float(((-1.0) ** m * np.array(c[1:]) / m**2).sum())
    a = cost.cosine_coeffs
    return float(sum(a[m] * c[m] for m in range(min(a.size, psi.size))))


def reference_eigenpair(matrix):
    """Smallest eigenpair by dense eigh, sign fixed like the solver's."""
    values, vectors = np.linalg.eigh(densify(matrix))
    value, vector = values[0], vectors[:, 0]
    lead = vector[np.argmax(np.abs(vector) > 1e-12)]
    if lead < 0:
        vector = -vector
    return value, vector


def rayleigh_quotient(point: OptimalPoint) -> float:
    """psi' A psi at the point's state, A = Z(f) + p diag(W) at its cutoff."""
    psi = point.state.amplitudes
    matrix = build_matrix(cost_function(point.cost), point.state.spectrum, point.beta)
    return float(psi @ matrix.matvec(psi))


class TestCostFunctions:
    def test_f1_coefficients(self):
        cost = cost_function("f1")
        assert cost.cosine_coeffs == pytest.approx([2.0, -2.0])

    def test_f2_coefficients(self):
        cost = cost_function("f2")
        assert cost.cosine_coeffs == pytest.approx([2.5, -8.0 / 3.0, 1.0 / 6.0])

    def test_theta_sq_is_theta_squared(self):
        cost = cost_function("theta_sq")
        assert cost.cosine_coeffs is None
        theta = np.linspace(-math.pi, math.pi, 101)
        assert np.array_equal(cost.evaluate(theta), theta**2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cost_function("f9")

    def test_evaluate_matches_direct_formulas(self):
        theta = np.linspace(-math.pi, math.pi, 20001)
        f1 = cost_function("f1").evaluate(theta)
        assert f1 == pytest.approx(2.0 - 2.0 * np.cos(theta), abs=1e-14)
        f2 = cost_function("f2").evaluate(theta)
        direct = 2.5 - (8.0 / 3.0) * np.cos(theta) + np.cos(2 * theta) / 6.0
        assert f2 == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_series_is_summed_in_term_order(self, name):
        # a_0 + a_1 cos t + a_2 cos 2t, left to right: the bits every verify
        # inequalities margin is printed from
        a = canonical.COSINE_COSTS[name]
        theta = np.linspace(-math.pi, math.pi, 2001)
        expected = a[0] + a[1] * np.cos(theta)
        if len(a) == 3:
            expected = expected + a[2] * np.cos(2 * theta)
        assert np.array_equal(cost_function(name).evaluate(theta), expected)

    def test_f3_is_weighted_combination(self):
        theta = np.linspace(-math.pi, math.pi, 20001)
        f3 = cost_function("f3").evaluate(theta)
        direct = (math.pi**2 / 4.0 - 1.0) * (
            2.0 * (1.0 - np.cos(theta)) - (1.0 - np.cos(2 * theta)) / 2.0
        ) + 2.0 * (1.0 - np.cos(theta))
        assert f3 == pytest.approx(direct, abs=1e-13)

    def test_pointwise_inequalities_on_fine_grid(self):
        theta = np.linspace(-math.pi, math.pi, 1_000_000)
        sq = theta**2
        assert np.all(cost_function("f1").evaluate(theta) <= sq + 1e-12)
        f2 = cost_function("f2").evaluate(theta)
        assert np.all(f2 <= sq + 1e-12)
        assert np.all(f2 >= -1e-12)
        assert np.all(cost_function("f3").evaluate(theta) >= sq - 1e-12)

    def test_validation(self):
        from phaselim.variational import CostFunction

        with pytest.raises(ValueError):
            CostFunction("bad", np.array([1.0]))


class TestBuildMatrix:
    def test_f1_is_pure_cosine_coupling(self):
        matrix = build_matrix(
            cost_function("f1"), Spectrum(kind="nonneg", cutoff=4), 0.0
        )
        assert isinstance(matrix, BandedSymmetric)
        assert matrix.diagonals[0] == pytest.approx(np.full(5, 2.0), abs=0.0)
        assert matrix.diagonals[1] == pytest.approx(np.full(4, -1.0), abs=0.0)

    def test_f1_penalty_on_diagonal(self):
        matrix = build_matrix(
            cost_function("f1"), Spectrum(kind="nonneg", cutoff=3), 0.25
        )
        # f1 maximizes <cos t> - beta <n>: penalty p = 2 beta on Z(f1)
        assert matrix.diagonals[0] == pytest.approx([2.0, 2.5, 3.0, 3.5], abs=0.0)

    def test_f2_coupling(self):
        matrix = build_matrix(
            cost_function("f2"), Spectrum(kind="nonneg", cutoff=5), 0.0
        )
        assert matrix.diagonals[1] == pytest.approx(np.full(5, -4.0 / 3.0))
        assert matrix.diagonals[2] == pytest.approx(np.full(4, 1.0 / 12.0))

    def test_theta_sq_three_by_three(self):
        matrix = build_matrix(
            cost_function("theta_sq"), Spectrum(kind="nonneg", cutoff=2), 0.0
        )
        applied = np.column_stack([matrix.matvec(e) for e in np.eye(3)])
        third = math.pi**2 / 3.0
        expected = np.array(
            [[third, -2.0, 0.5], [-2.0, third, -2.0], [0.5, -2.0, third]]
        )
        assert applied == pytest.approx(expected, abs=1e-14)

    def test_symmetric_weights_are_absolute_values(self):
        matrix = build_matrix(
            cost_function("f1"), Spectrum(kind="symmetric", cutoff=2), 0.5
        )
        assert matrix.diagonals[0] == pytest.approx(
            [4.0, 3.0, 2.0, 3.0, 4.0], abs=0.0
        )
        assert matrix.dimension == 5

    def test_theta_sq_storage_by_dimension(self):
        # one form at every dimension, the smallest ones included
        cost = cost_function("theta_sq")
        for kind, cutoff in [("nonneg", 1), ("symmetric", 1), ("nonneg", 1030)]:
            matrix = build_matrix(cost, Spectrum(kind=kind, cutoff=cutoff), -0.1)
            assert isinstance(matrix, ToeplitzPlusDiagonal)

    def test_quadratic_form_reproduces_moment_values(self):
        # Every cost gives psi' M psi = <f> + p <n>, with penalty p = 2 beta
        # for f1 and p = -beta for theta_sq.
        rng = np.random.default_rng(7)
        spectrum = Spectrum(kind="nonneg", cutoff=12)
        psi = rng.normal(size=13)
        psi /= np.linalg.norm(psi)
        state = ProbeState(spectrum=spectrum, amplitudes=psi)
        mean = state.mean_weight()
        beta = 0.37
        f1 = cost_function("f1")
        form = psi @ densify(build_matrix(f1, spectrum, beta)) @ psi
        assert form == pytest.approx(
            moment_value(f1, psi) + 2.0 * beta * mean, abs=1e-12
        )
        cost = cost_function("theta_sq")
        matrix = build_matrix(cost, spectrum, -beta)
        form = psi @ matrix.matvec(psi)
        assert form == pytest.approx(moment_value(cost, psi) + beta * mean, abs=1e-12)


class TestSolvePoint:
    @pytest.mark.parametrize(
        "name, beta, cutoff",
        [
            ("f1", 0.5, 24),
            ("f2", 0.5, 24),
            ("theta_sq", -0.5, 96),
            ("f3", -0.5, 24),
        ],
    )
    def test_matches_dense_reference(self, name, beta, cutoff):
        spectrum = Spectrum(kind="nonneg", cutoff=cutoff)
        cost = cost_function(name)
        ref_value, ref_vector = reference_eigenpair(build_matrix(cost, spectrum, beta))
        point = solve_point(cost, spectrum, beta)
        assert point.cutoff == cutoff  # no doubling for these settings
        assert rayleigh_quotient(point) == pytest.approx(ref_value, abs=1e-11)
        assert point.state.amplitudes == pytest.approx(ref_vector, abs=1e-9)

    def test_toeplitz_route_matches_dense_reference(self):
        spectrum = Spectrum(kind="nonneg", cutoff=1030)
        cost = cost_function("theta_sq")
        point = solve_point(cost, spectrum, -0.5)
        values = np.linalg.eigvalsh(densify(build_matrix(cost, spectrum, -0.5)))
        assert rayleigh_quotient(point) == pytest.approx(values[0], abs=1e-11)

    def test_two_level_closed_form(self):
        point = solve_point(
            cost_function("f1"), Spectrum(kind="nonneg", cutoff=1), 0.0
        )
        assert point.mean_constraint == pytest.approx(0.5, abs=1e-12)
        assert point.delta_H == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert point.state.amplitudes == pytest.approx(
            np.full(2, math.sqrt(0.5)), abs=1e-12
        )
        assert point.delta_1**2 == pytest.approx(1.0, abs=1e-12)
        assert point.delta_3**2 == pytest.approx(
            math.pi**2 / 8.0 + 0.5, abs=1e-12
        )

    def test_beta_sign_regime(self):
        nonneg = Spectrum(kind="nonneg", cutoff=8)
        with pytest.raises(ValueError):
            solve_point(cost_function("f1"), nonneg, -0.1)
        with pytest.raises(ValueError):
            solve_point(cost_function("theta_sq"), nonneg, 0.1)

    def test_cutoff_doubles_until_tail_is_negligible(self):
        spectrum = Spectrum(kind="nonneg", cutoff=100)
        point = solve_point(cost_function("f1"), spectrum, 1e-6)
        assert point.cutoff > 100
        psi = point.state.amplitudes
        edge = point.state.spectrum.weights() >= 0.99 * point.cutoff
        assert float((psi[edge] ** 2).sum()) <= 1e-12

    def test_doubling_again_leaves_metrics_unchanged(self):
        spectrum = Spectrum(kind="nonneg", cutoff=100)
        point = solve_point(cost_function("f1"), spectrum, 1e-6)
        wider = solve_point(
            cost_function("f1"),
            point.state.spectrum.with_cutoff(2 * point.cutoff),
            1e-6,
        )
        assert abs(wider.delta_H - point.delta_H) <= 1e-6 * point.delta_H

    def test_solved_point_invariants(self):
        point = solve_point(
            cost_function("f1"), Spectrum(kind="nonneg", cutoff=40), 0.05
        )
        psi = point.state.amplitudes
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert point.residual <= 1e-9
        assert point.delta_1 <= point.delta_H + 1e-12
        assert point.delta_1 <= point.delta + 1e-12
        arc = math.acos(1.0 - point.delta_1**2 / 2.0)
        assert arc <= point.delta + 1e-12
        assert point.delta <= math.pi / 2.0 * point.delta_1 + 1e-12

    def test_mean_decreases_with_penalty(self):
        f1_means = [
            solve_point(
                cost_function("f1"), Spectrum(kind="nonneg", cutoff=60), b
            ).mean_constraint
            for b in (0.05, 0.1, 0.3, 1.0)
        ]
        assert all(a > b for a, b in zip(f1_means, f1_means[1:]))
        cost = cost_function("theta_sq")
        sq_means = [
            solve_point(cost, Spectrum(kind="nonneg", cutoff=96), -b).mean_constraint
            for b in (0.2, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(sq_means, sq_means[1:]))


# Penalty p of the public beta for each cost, from the objectives each cost
# was first posed with (f1: <cos t> - beta <W> maximized, so p = 2 beta).
PENALTY_PER_BETA = {"f1": 2.0, "f2": 1.0, "f3": -1.0, "theta_sq": -1.0}


@st.composite
def posed_problems(draw):
    """A cost, a spectrum with cutoff 1-30, a beta of the allowed sign."""
    name = draw(st.sampled_from(sorted(PENALTY_PER_BETA)))
    spectrum = Spectrum(
        kind=draw(st.sampled_from(["nonneg", "symmetric"])),
        cutoff=draw(st.integers(1, 30)),
    )
    size = draw(st.one_of(st.just(0.0), st.floats(1e-2, 5.0)))
    beta = size / PENALTY_PER_BETA[name]
    return cost_function(name), spectrum, beta


class TestSinglePosing:
    """Every cost is the smallest eigenpair of Z(f) + p diag(W), p >= 0."""

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(problem=posed_problems(), seed=st.integers(0, 2**32 - 1))
    def test_quadratic_form_is_cost_plus_penalty(self, problem, seed):
        cost, spectrum, beta = problem
        psi = np.random.default_rng(seed).normal(size=spectrum.dimension)
        psi /= np.linalg.norm(psi)
        state = ProbeState(spectrum=spectrum, amplitudes=psi)
        expected = (
            moment_value(cost, psi)
            + PENALTY_PER_BETA[cost.name] * beta * state.mean_weight()
        )
        form = psi @ build_matrix(cost, spectrum, beta).matvec(psi)
        assert form == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(problem=posed_problems())
    def test_rayleigh_quotient_is_smallest_dense_eigenvalue(self, problem):
        cost, spectrum, beta = problem
        point = solve_point(cost, spectrum, beta)
        matrix = build_matrix(cost, point.state.spectrum, beta)
        assert point.beta == beta
        assert rayleigh_quotient(point) == pytest.approx(
            np.linalg.eigvalsh(densify(matrix))[0], abs=1e-11
        )
        assert point.residual <= 1e-10 * matrix.norm_bound()


class TestOptimalPoint:
    @staticmethod
    def _point(**overrides):
        spectrum = Spectrum(kind="nonneg", cutoff=1)
        fields = dict(
            cost="f1",
            penalty=0.0,
            mean_constraint=0.5,
            delta=1.14,
            delta_H=math.sqrt(3.0),
            delta_1=1.0,
            delta_2=1.1,
            delta_3=1.32,
            cutoff=1,
            residual=0.0,
            tail_mass=0.5,
            state=ProbeState(
                spectrum=spectrum, amplitudes=np.full(2, math.sqrt(0.5))
            ),
        )
        fields.update(overrides)
        return OptimalPoint(**fields)

    def test_consistent_point_accepted(self):
        point = self._point()
        assert point.scale_factor == pytest.approx(1.5)

    def test_delta1_above_holevo_rejected(self):
        with pytest.raises(ValueError):
            self._point(delta_1=2.0, delta=2.1)

    def test_delta1_above_delta_rejected(self):
        with pytest.raises(ValueError):
            self._point(delta=0.9)

    def test_arccos_above_delta_rejected(self):
        with pytest.raises(ValueError):
            self._point(delta=1.046, delta_1=1.0)  # arccos(1/2) = 1.047...

    def test_delta_above_half_pi_delta1_rejected(self):
        with pytest.raises(ValueError):
            self._point(delta=1.6, delta_1=1.0)

    @pytest.mark.parametrize("name", sorted(PENALTY_PER_BETA))
    def test_beta_is_c_times_the_stored_penalty(self, name):
        c = {"f1": 0.5, "f2": 1.0, "f3": -1.0, "theta_sq": -1.0}[name]
        assert self._point(cost=name, penalty=0.3).beta == c * 0.3
        spectrum = Spectrum(kind="nonneg", cutoff=8)
        point = solve_point(cost_function(name), spectrum, 0.3 / PENALTY_PER_BETA[name])
        assert point.penalty == 0.3
        assert point.beta == c * point.penalty

    def test_symmetric_scale_factor(self):
        spectrum = Spectrum(kind="symmetric", cutoff=1)
        point = self._point(
            mean_constraint=3.0,
            state=ProbeState(
                spectrum=spectrum,
                amplitudes=np.array([0.5, math.sqrt(0.5), 0.5]),
            ),
        )
        assert point.scale_factor == pytest.approx(7.0)


class TestDimensionGuard:
    def test_solve_point_checks_before_solving(self, monkeypatch):
        monkeypatch.setattr(variational, "_MAX_DIMENSION", 100)
        with pytest.raises(ValueError, match="exceeds the limit of 100 rows"):
            solve_point(cost_function("f1"), Spectrum(kind="nonneg", cutoff=100), 0.1)

    def test_sweep_checks_every_target_first(self, monkeypatch):
        monkeypatch.setattr(variational, "_MAX_DIMENSION", 1000)
        solves = []
        monkeypatch.setattr(variational, "_solve_eigen", lambda *a: solves.append(a))
        with pytest.raises(ValueError, match="dimension 1609"):
            sweep_curve(cost_function("f1"), "nonneg", [1.0, 200.0])
        assert solves == []


class TestProbeStateWithCutoff:
    @pytest.mark.parametrize(
        "kind, padded",
        [("nonneg", [0.6, 0.8, 0.0, 0.0]), ("symmetric", [0.0, 0.6, 0.0, 0.8, 0.0])],
    )
    def test_zero_pads_new_levels(self, kind, padded):
        amplitudes = [0.6, 0.8] if kind == "nonneg" else [0.6, 0.0, 0.8]
        state = ProbeState(Spectrum(kind=kind, cutoff=1), np.array(amplitudes))
        wider = state.with_cutoff(2 if kind == "symmetric" else 3)
        assert wider.amplitudes.tolist() == padded
        assert wider.mean_weight() == pytest.approx(state.mean_weight(), abs=1e-15)

    def test_smaller_cutoff_rejected(self):
        state = ProbeState(Spectrum(kind="nonneg", cutoff=3), np.full(4, 0.5))
        with pytest.raises(ValueError):
            state.with_cutoff(2)


class TestDefaultCutoff:
    def test_floor_applies_to_small_targets(self):
        assert default_cutoff("nonneg", 5.0) == 100
        assert default_cutoff("symmetric", 5.0) == 100

    def test_factor_applies_to_large_targets(self):
        assert default_cutoff("nonneg", 12.3) == 107  # ceil(8 * 13.3)
        assert default_cutoff("nonneg", 1000.0) == 8008
        assert default_cutoff("symmetric", 12.3) == 205  # ceil(8 * 25.6)
        assert default_cutoff("symmetric", 1000.0) == 16008


class TestTruncation:
    TARGETS = [0.3, 10.0, 100.0]

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    @pytest.mark.parametrize("name", ["f1", "f2", "theta_sq"])
    def test_truncation_converged(self, name, kind):
        """Each sweep point is a fixed point of doubling its cutoff."""
        cost = cost_function(name)
        for point in sweep_curve(cost, kind, self.TARGETS):
            assert point.tail_mass <= 1e-10 * point.delta_1**2 / 2.0
            wider = point.state.with_cutoff(2 * point.cutoff)
            resolved = solve_point(
                cost, wider.spectrum, point.beta, start_vector=wider.amplitudes
            )
            assert resolved.cutoff == 2 * point.cutoff
            for metric in ("delta", "delta_H", "delta_1", "delta_2"):
                before, after = getattr(point, metric), getattr(resolved, metric)
                assert after == pytest.approx(before, rel=1e-9, abs=0.0), metric

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_short_cutoff_doubles_to_the_default_result(self, kind, monkeypatch):
        cost = cost_function("f1")
        targets = [5.0, 40.0 if kind == "nonneg" else 20.0]
        default = default_cutoff(kind, targets[-1])
        monkeypatch.setattr(variational, "_CUTOFF_PER_L", 1.0)
        short = default_cutoff(kind, targets[-1])
        point = sweep_curve(cost, kind, targets)[-1]
        assert short < default < point.cutoff
        assert point.tail_mass <= 1e-10 * point.delta_1**2 / 2.0
        reference = solve_point(cost, Spectrum(kind=kind, cutoff=default), point.beta)
        for metric in ("delta", "delta_H", "delta_1", "delta_2", "mean_constraint"):
            before, after = getattr(reference, metric), getattr(point, metric)
            assert after == pytest.approx(before, rel=1e-10, abs=0.0), metric

    def test_target_beyond_the_cutoff_raises_fast(self, monkeypatch):
        # at cutoff 100 the symmetric f1 mean saturates at its hard-box
        # value 30.03 as the penalty falls, so a mean of 40 is out of reach
        monkeypatch.setattr(variational, "_CUTOFF_PER_L", 1.0)
        solve = variational._solve_eigen
        calls = []
        monkeypatch.setattr(
            variational, "_solve_eigen", lambda *a: calls.append(1) or solve(*a)
        )
        saturated = r"cutoff 100: the mean saturates at 30\.03"
        with pytest.raises(RuntimeError, match=saturated):
            sweep_curve(cost_function("f1"), "symmetric", [40.0])
        assert len(calls) <= 20

    def test_heavy_tail_raises_after_the_last_doubling(self, monkeypatch):
        monkeypatch.setattr(variational, "_TAIL_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="doublings"):
            solve_point(cost_function("f1"), Spectrum(kind="nonneg", cutoff=4), 0.1)


class TestSweepCurve:
    @pytest.mark.parametrize("name", ["f1", "f2", "theta_sq", "f3"])
    def test_mean_accuracy(self, name):
        targets = [0.5, 2.0, 7.5, 30.0]
        points = sweep_curve(cost_function(name), "nonneg", targets)
        for point, target in zip(points, targets):
            assert abs(point.mean_constraint - target) <= 1e-6 * target
            assert point.cost == name

    def test_penalty_decreases_along_sweep(self):
        points = sweep_curve(cost_function("f1"), "nonneg", [1.0, 5.0, 25.0])
        penalties = [abs(p.beta) for p in points]
        assert all(a > b for a, b in zip(penalties, penalties[1:]))
        assert all(p.beta > 0 for p in points)
        points = sweep_curve(
            cost_function("theta_sq"), "nonneg", [1.0, 5.0]
        )
        assert all(p.beta < 0 for p in points)

    def test_target_validation(self):
        cost = cost_function("f1")
        with pytest.raises(ValueError):
            sweep_curve(cost, "nonneg", [-1.0])
        with pytest.raises(ValueError):
            sweep_curve(cost, "nonneg", [3.0, 2.0])
        assert sweep_curve(cost, "nonneg", []) == []

    def test_symmetric_sweep(self):
        targets = [0.5, 3.0]
        points = sweep_curve(cost_function("f1"), "symmetric", targets)
        for point, target in zip(points, targets):
            assert abs(point.mean_constraint - target) <= 1e-6 * target
            assert point.scale_factor == pytest.approx(
                2.0 * target + 1.0, rel=1e-5
            )


class TestSweepSeeding:
    @pytest.mark.parametrize("target, rtol", [(0.01, 0.1), (1000.0, 0.01)])
    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    @pytest.mark.parametrize("name", ["f1", "f2", "theta_sq"])
    def test_first_seed_near_the_solved_penalty(self, name, kind, target, rtol):
        cost = cost_function(name)
        spectrum = Spectrum(kind=kind, cutoff=default_cutoff(kind, target))
        seed, slope = variational._first_seed(cost, spectrum, target)
        (point,) = sweep_curve(cost, kind, [target])
        assert seed == pytest.approx(variational._penalty(cost, point.beta), rel=rtol)
        assert slope < 0.0

    def test_eigensolves_per_sweep(self, monkeypatch):
        # 30 + 28 + 6 = 64 solves with the large-mean seed 3.8 / (t + 1)^3
        # and the default slope -1/3
        solve = variational._solve_eigen
        calls = []
        monkeypatch.setattr(
            variational, "_solve_eigen", lambda *a: calls.append(1) or solve(*a)
        )
        theta_sq = cost_function("theta_sq")
        counts = []
        for kind in ("nonneg", "symmetric"):
            sweep_curve(theta_sq, kind, [0.01, 0.1, 1.0, 10.0, 100.0])
            counts.append(len(calls) - sum(counts))
        sweep_curve(cost_function("f1"), "symmetric", [100.0, 1000.0])
        counts.append(len(calls) - sum(counts))
        assert counts[0] <= 20 and counts[1] <= 22 and counts[2] <= 6
        assert sum(counts) <= 46

    def test_toeplitz_part_is_shared_and_read_only(self):
        spectrum = Spectrum(kind="symmetric", cutoff=300)
        cost = cost_function("theta_sq")
        rng = np.random.default_rng(7)
        x = rng.standard_normal(spectrum.dimension)
        kernel = canonical.theta_sq_kernel(spectrum.dimension + 1)
        for penalty in (1e-4, 0.3):
            matrix = variational._matrix(cost, spectrum, penalty)
            fresh = ToeplitzPlusDiagonal(
                kernel=kernel, diagonal=penalty * spectrum.weights()
            )
            assert np.array_equal(matrix.matvec(x), fresh.matvec(x))
            assert matrix.norm_bound() == fresh.norm_bound()
            shared = variational._theta_sq_toeplitz(spectrum.dimension)
            assert matrix.kernel is shared.kernel
            assert matrix._fft_kernel is shared._fft_kernel
        for array in (shared.kernel, shared.diagonal, shared._fft_kernel):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestDelta3OnF1State:
    def test_two_level_value(self):
        point = solve_point(
            cost_function("f1"), Spectrum(kind="nonneg", cutoff=1), 0.0
        )
        assert point.delta_3**2 == pytest.approx(math.pi**2 / 8.0 + 0.5, abs=1e-12)

    def test_upper_bounds_delta_on_same_state(self):
        points = sweep_curve(cost_function("f1"), "nonneg", [1.0, 10.0, 100.0])
        for point in points:
            assert point.delta_3 >= point.delta - 1e-12

    def test_scaled_value_approaches_k_c_from_above(self):
        points = sweep_curve(cost_function("f1"), "nonneg", [10.0, 30.0, 100.0])
        excesses = []
        for point in points:
            scaled = (point.mean_constraint + 1.0) * point.delta_3
            assert scaled > K_C
            excesses.append(scaled - K_C)
        assert all(a > b for a, b in zip(excesses, excesses[1:]))
        # the excess shrinks like 1/<N+1>: its product with <N+1> is stable
        products = [
            e * (p.mean_constraint + 1.0) for e, p in zip(excesses, points)
        ]
        assert max(products) <= 1.2 * min(products)


class TestThetaSqDifferenceForm:
    """theta^2 optima through the difference-form operator D' Z(g) D."""

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_eigenvalue_minus_penalty_term_is_delta_squared(self, kind):
        # psi' A psi = <theta^2> + p <W> from the operator, delta^2 from
        # state_metrics: both free of cancellation, so they agree to rounding
        targets = [0.01, 1.0, 30.0, 300.0, 1000.0]
        for point in sweep_curve(cost_function("theta_sq"), kind, targets):
            excess = rayleigh_quotient(point) - point.penalty * point.mean_constraint
            assert excess == pytest.approx(point.delta**2, rel=1e-13, abs=0.0)

    def test_mean_1e5_nonneg_solve_converges_without_doubling(self):
        # d = 800,009 at the paper's penalty 2 k_C^2 / L^3: the FFT mat-vec
        # rounds relative to ||D psi|| ~ delta_1 ~ 1e-5, so LOPCG reaches its
        # 1e-9 stop and the tail passes at the starting cutoff
        cutoff = default_cutoff("nonneg", 1e5)
        penalty = 2.0 * asympt.constants().k_C**2 / (1e5 + 1.0) ** 3
        spectrum = Spectrum(kind="nonneg", cutoff=cutoff)
        point = solve_point(cost_function("theta_sq"), spectrum, -penalty)
        assert spectrum.dimension == 800_009 and point.cutoff == cutoff
        assert point.tail_mass <= 1e-10 * point.delta_1**2 / 2.0
        assert point.mean_constraint == pytest.approx(1e5, rel=1e-3)
