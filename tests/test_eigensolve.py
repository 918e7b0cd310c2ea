"""Extremal-eigenpair solver tests against closed forms and dense references."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselim import eigensolve, variational
from phaselim.eigensolve import (
    BandedSymmetric,
    EigenPair,
    EigsolveError,
    ToeplitzPlusDiagonal,
    extremal_eigenpair,
)
from phaselim.states import Spectrum
from phaselim.variational import build_matrix, cost_function


def banded_to_dense(matrix: BandedSymmetric) -> np.ndarray:
    n = matrix.dimension
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = matrix.diagonals[0]
    for k in range(1, matrix.bandwidth + 1):
        idx = np.arange(n - k)
        dense[idx, idx + k] = matrix.diagonals[k]
        dense[idx + k, idx] = matrix.diagonals[k]
    return dense


def toeplitz_to_dense(matrix: ToeplitzPlusDiagonal) -> np.ndarray:
    """D' Z(kernel) D + diag from the stored kernel, for solver tests on
    arbitrary kernels (theta^2 references use ``theta_sq_dense``)."""
    n = matrix.dimension
    i, j = np.indices((n + 1, n + 1))
    difference = np.eye(n + 1, n) - np.eye(n + 1, n, -1)  # u = D x
    dense = difference.T @ matrix.kernel[np.abs(i - j)] @ difference
    return dense + np.diag(matrix.diagonal)


def theta_sq_dense(matrix: ToeplitzPlusDiagonal) -> np.ndarray:
    """A theta^2 matrix from closed-form entries: pi^2/3 on the diagonal,
    2 (-1)^m / m^2 at distance m, plus the matrix's diagonal."""
    m = np.abs(np.subtract.outer(np.arange(matrix.dimension), np.arange(matrix.dimension)))
    dense = np.where(m == 0, math.pi**2 / 3.0, 2.0 * (-1.0) ** m / np.maximum(m, 1) ** 2)
    return dense + np.diag(matrix.diagonal)


def positive_definite(matrix: BandedSymmetric) -> BandedSymmetric:
    """``matrix`` shifted by its norm bound plus one: eigenvalues >= 1."""
    shift = matrix.norm_bound() + 1.0
    return BandedSymmetric([matrix.diagonals[0] + shift, *matrix.diagonals[1:]])


class TestClosedForms:
    def test_two_by_two_off_half(self):
        matrix = BandedSymmetric([np.zeros(2), np.array([0.5])])
        pair = extremal_eigenpair(matrix)
        assert pair.value == pytest.approx(-0.5, abs=1e-14)
        expected = np.array([1.0, -1.0]) / math.sqrt(2)
        assert pair.vector == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100])
    def test_tridiagonal_toeplitz_family(self, n):
        matrix = BandedSymmetric([np.zeros(n), np.full(n - 1, 0.5)])
        smallest = extremal_eigenpair(matrix)
        assert smallest.value == pytest.approx(-math.cos(math.pi / (n + 1)), abs=1e-13)
        # known eigenvector: (-1)^i sin(pi (i+1)/(n+1)), its largest component
        # (the first of the two central ones for even n) positive
        i = np.arange(n)
        bottom = (-1.0) ** i * np.sin(math.pi * (i + 1) / (n + 1))
        bottom *= np.sign(bottom[(n - 1) // 2]) / np.linalg.norm(bottom)
        assert smallest.vector == pytest.approx(bottom, abs=1e-11)

    def test_dense_two_by_two_quadratic_block(self):
        # theta^2 at cutoff 1 (nonneg): Toeplitz column [pi^2/3, -2]
        z0 = math.pi**2 / 3.0
        matrix = build_matrix(
            cost_function("theta_sq"), Spectrum(kind="nonneg", cutoff=1), 0.0
        )
        jacobi = BandedSymmetric([np.full(2, z0)])
        pair = extremal_eigenpair(matrix, preconditioner=jacobi)
        assert pair.value == pytest.approx(z0 - 2.0, abs=1e-13)

    def test_dimension_one(self):
        pair = extremal_eigenpair(BandedSymmetric([np.array([4.0])]))
        assert pair.value == 4.0
        assert pair.residual == 0.0


class TestDenseReference:
    @pytest.mark.parametrize("n", [7, 40, 200])
    @pytest.mark.parametrize("which", ["smallest", "largest"])
    def test_banded_vs_full_spectrum(self, n, which):
        rng = np.random.default_rng(100 + n)
        diags = [rng.standard_normal(n), rng.standard_normal(n - 1)]
        if n > 7:
            diags.append(rng.standard_normal(n - 2))
        matrix = BandedSymmetric(diags)
        reference = np.linalg.eigvalsh(banded_to_dense(matrix))
        expected = reference[0] if which == "smallest" else reference[-1]
        # Solve sign * A + shift: the largest eigenvalue of A is minus the
        # smallest of -A.
        sign = 1.0 if which == "smallest" else -1.0
        shift = matrix.norm_bound() + 1.0
        shifted = BandedSymmetric(
            [sign * diags[0] + shift, *(sign * d for d in diags[1:])]
        )
        value = sign * (extremal_eigenpair(shifted).value - shift)
        assert value == pytest.approx(expected, rel=1e-11, abs=1e-11)

    def test_toeplitz_smallest_vs_dense(self):
        n = 120
        # positive definite: the kernel's symbol 4 + 2 sum 0.5^m cos(m t) is
        # >= 2, times 2 - 2 cos t, plus positive weights; Jacobi on the
        # main diagonal 2 (g_0 - g_1) + weight
        kernel = 0.5 ** np.arange(n + 1)
        kernel[0] = 4.0
        matrix = ToeplitzPlusDiagonal(
            kernel=kernel, diagonal=0.1 * np.arange(n, dtype=float)
        )
        jacobi = BandedSymmetric([2.0 * (kernel[0] - kernel[1]) + matrix.diagonal])
        reference = np.linalg.eigvalsh(toeplitz_to_dense(matrix))[0]
        pair = extremal_eigenpair(matrix, preconditioner=jacobi)
        assert pair.value == pytest.approx(reference, rel=1e-11)

    @pytest.mark.parametrize("name", ["f2", "f3"])
    def test_cold_wide_band_far_from_default_start(self, name):
        # No start vector: the ground state of the symmetric spectrum is
        # centred at j = 0, 1000 rows from either end of the band.
        matrix = banded_problem(name, "symmetric", 1000, 1e-5)
        assert matrix.bandwidth >= 2 and matrix.dimension == 2001
        value, vector = scipy.linalg.eigh(
            banded_to_dense(matrix), subset_by_index=[0, 0]
        )
        pair = extremal_eigenpair(matrix)
        assert pair.value == pytest.approx(value[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vector[:, 0], pair.vector), abs=1e-9
        )

    def test_cold_indefinite_pentadiagonal_matches_dense(self):
        n = 20
        matrix = BandedSymmetric(
            [np.full(n, -1.0), np.full(n - 1, 0.5), np.full(n - 2, 0.25)]
        )
        value, vector = scipy.linalg.eigh(
            banded_to_dense(matrix), subset_by_index=[0, 0]
        )
        assert value[0] < 0.0
        pair = extremal_eigenpair(matrix)
        assert pair.value == pytest.approx(value[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vector[:, 0], pair.vector), abs=1e-9
        )


class TestColdBanded:
    """Cold wide-band solves: the Sturm vector of the tridiagonal part,
    refined on the warm path, with shift bisection only when that fails."""

    @staticmethod
    def spy_on_bisection(monkeypatch):
        calls = []
        bisect = eigensolve._bisected_smallest
        monkeypatch.setattr(
            eigensolve,
            "_bisected_smallest",
            lambda *args: calls.append(args[0].dimension) or bisect(*args),
        )
        return calls

    def test_bisection_fallback_matches_dense(self, monkeypatch):
        # the n = 40 band of test_banded_vs_full_spectrum[smallest-40]: from
        # its Sturm start, RQI settles on a higher eigenpair (7.42 against
        # 5.12), so the Cholesky certificate fails
        calls = self.spy_on_bisection(monkeypatch)
        rng = np.random.default_rng(140)
        n = 40
        matrix = positive_definite(
            BandedSymmetric([rng.standard_normal(n - k) for k in range(3)])
        )
        values, vectors = dense_eigh(matrix)
        pair = extremal_eigenpair(matrix)
        assert calls == [n]
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )

    @pytest.mark.parametrize("name", ["f2", "f3"])
    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_sweep_first_seeds_certify_from_the_sturm_start(
        self, monkeypatch, name, kind
    ):
        calls = self.spy_on_bisection(monkeypatch)
        cost = cost_function(name)
        for mean in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            spectrum = Spectrum(kind=kind, cutoff=variational.default_cutoff(kind, mean))
            penalty, _ = variational._first_seed(cost, spectrum, mean)
            pair = variational._solve_eigen(cost, spectrum, penalty, None)
            matrix = build_matrix(cost, spectrum, BETA_PER_PENALTY[name] * penalty)
            assert pair.residual <= 1e-10 * matrix.norm_bound()
        assert calls == []


class TestPreconditionedToeplitz:
    """theta^2 matrices preconditioned by the f3 matrix at the same penalty,
    as ``variational`` solves them, at dimensions small enough for dense eigh."""

    @pytest.mark.parametrize(
        "kind, cutoff, penalty",
        [
            ("nonneg", 500, 3e-6),
            ("nonneg", 500, 3e-5),
            ("nonneg", 500, 3e-3),
            ("symmetric", 300, 1e-5),
            ("symmetric", 300, 1e-4),
            ("symmetric", 300, 1e-2),
        ],
    )
    @pytest.mark.parametrize("start", ["f1", "warm"])
    def test_f3_preconditioned_theta_sq_vs_dense(self, kind, cutoff, penalty, start):
        # f1: the cold solve of variational._solve_eigen, which starts from
        # the Sturm vector of D'D + diag, the f1 matrix at the same penalty
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        cost = cost_function("theta_sq")
        matrix = build_matrix(cost, spectrum, -penalty)
        f3 = build_matrix(cost_function("f3"), spectrum, -penalty)
        assert f3.bandwidth == 2
        values, vectors = np.linalg.eigh(theta_sq_dense(matrix))
        n = matrix.dimension
        vector = None
        if start == "warm":
            rng = np.random.default_rng(cutoff)
            vector = vectors[:, 0] + 1e-2 * rng.standard_normal(n) / math.sqrt(n)

        pair = variational._solve_eigen(cost, spectrum, penalty, vector)
        again = variational._solve_eigen(cost, spectrum, penalty, vector)
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        assert again.value == pair.value
        assert np.array_equal(again.vector, pair.vector)

    @pytest.mark.parametrize(
        "kind, cutoff, penalty", [("nonneg", 500, 3e-5), ("symmetric", 300, 1e-4)]
    )
    def test_cold_start_is_the_f1_sturm_vector(self, kind, cutoff, penalty):
        # D'D + diag(p W) = tridiag(-1, 2 + p W, -1) is the f1 matrix at
        # penalty p with the same bits, so a cold solve equals one started
        # from the f1 matrix's Sturm vector, and variational's cold solve is
        # that same call
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        cost = cost_function("theta_sq")
        matrix = build_matrix(cost, spectrum, -penalty)
        f3 = build_matrix(cost_function("f3"), spectrum, -penalty)
        f1 = build_matrix(cost_function("f1"), spectrum, 0.5 * penalty)
        sturm = eigensolve._tridiagonal_smallest(f1)
        cold = extremal_eigenpair(matrix, preconditioner=f3)
        started = extremal_eigenpair(matrix, start_vector=sturm, preconditioner=f3)
        assert np.array_equal(cold.vector, started.vector)
        assert cold.value == started.value
        solved = variational._solve_eigen(cost, spectrum, penalty, None)
        assert np.array_equal(solved.vector, cold.vector)
        assert solved.value == cold.value
        assert solved.residual == cold.residual

    def test_cold_f3_solve_within_matvec_budget(self, monkeypatch):
        # nonneg cutoff 1000 near mean 100: 12 mat-vecs with the f3
        # preconditioner, 20 with the f1 one
        matvecs = []
        apply = ToeplitzPlusDiagonal.matvec
        monkeypatch.setattr(
            ToeplitzPlusDiagonal,
            "matvec",
            lambda self, x: matvecs.append(1) or apply(self, x),
        )
        spectrum = Spectrum(kind="nonneg", cutoff=1000)
        cost = cost_function("theta_sq")
        penalty = 3.8 / 101.0**3
        pair = variational._solve_eigen(cost, spectrum, penalty, None)
        assert len(matvecs) <= 14
        matrix = build_matrix(cost, spectrum, -penalty)
        assert pair.residual <= 1e-10 * matrix.norm_bound()

    @pytest.mark.parametrize(
        "kind, cutoff, beta", [("nonneg", 500, -3e-5), ("symmetric", 300, -1e-4)]
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_theta_sq_vs_dense(self, kind, cutoff, beta, warm):
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        matrix = build_matrix(cost_function("theta_sq"), spectrum, beta)
        assert isinstance(matrix, ToeplitzPlusDiagonal)
        values, vectors = np.linalg.eigh(theta_sq_dense(matrix))
        n = matrix.dimension
        surrogate = BandedSymmetric(
            [2.0 - beta * spectrum.weights(), -np.ones(n - 1)]
        )
        start = None
        if warm:
            rng = np.random.default_rng(cutoff)
            start = vectors[:, 0] + 1e-2 * rng.standard_normal(n) / math.sqrt(n)
        runs = [
            extremal_eigenpair(
                matrix, start_vector=start, preconditioner=surrogate
            )
            for _ in range(2)
        ]
        pair = runs[0]
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        assert abs(pair.vector @ vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert runs[1].value == pair.value
        assert np.array_equal(runs[1].vector, pair.vector)

    def test_warm_start_refines_eigenvector(self):
        # theta^2 near mean 3e3: the beta_a eigenvector already meets the
        # residual test at beta_b, yet its mean is off by ~2e-6 relative
        spectrum = Spectrum(kind="nonneg", cutoff=30000)
        cost = cost_function("theta_sq")
        weights = spectrum.weights()

        def solve(beta, start=None):
            surrogate = BandedSymmetric(
                [2.0 - beta * weights, -np.ones(spectrum.dimension - 1)]
            )
            return extremal_eigenpair(
                build_matrix(cost, spectrum, beta),
                start_vector=start,
                preconditioner=surrogate,
            ).vector

        beta_a, beta_b = -1.4014455219e-10, -1.4014373970e-10
        warm = solve(beta_b, start=solve(beta_a))
        cold = solve(beta_b)
        assert weights @ warm**2 == pytest.approx(weights @ cold**2, rel=1e-9)


    def test_stall_raises_within_100_matvecs(self, monkeypatch):
        # ||M r|| cannot reach 1e-18 (its rounding floor, about 1e-15 with
        # the difference-form mat-vec, is far above), so the solve must end
        # in EigsolveError soon after it stops improving
        monkeypatch.setattr(eigensolve, "_VECTOR_TOL", 1e-18)
        matvecs = []
        apply = ToeplitzPlusDiagonal.matvec
        monkeypatch.setattr(
            ToeplitzPlusDiagonal,
            "matvec",
            lambda self, x: matvecs.append(1) or apply(self, x),
        )
        spectrum = Spectrum(kind="nonneg", cutoff=3000)
        penalty = 3.8 / 301.0**3
        surrogate = BandedSymmetric(
            [2.0 + penalty * spectrum.weights(), -np.ones(spectrum.dimension - 1)]
        )
        matrix = build_matrix(cost_function("theta_sq"), spectrum, -penalty)
        with pytest.raises(EigsolveError, match="stalled"):
            extremal_eigenpair(matrix, preconditioner=surrogate)
        assert len(matvecs) <= 100


# The factor c of the public beta = c * p for each banded cost.
BETA_PER_PENALTY = {"f1": 0.5, "f2": 1.0, "f3": -1.0}


def banded_problem(name, kind, cutoff, penalty):
    spectrum = Spectrum(kind=kind, cutoff=cutoff)
    return build_matrix(cost_function(name), spectrum, BETA_PER_PENALTY[name] * penalty)


def dense_eigh(matrix):
    return np.linalg.eigh(banded_to_dense(matrix))


def signed_like(reference, vector):
    """``reference`` with the sign that makes it overlap ``vector`` positively."""
    return math.copysign(1.0, reference @ vector) * reference


class TestWarmBanded:
    """Smallest banded solves from a start vector: the certified warm path
    (Rayleigh-quotient iteration, Cholesky certificate, inverse iteration)
    and its fallback to the cold solvers."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        name=st.sampled_from(sorted(BETA_PER_PENALTY)),
        kind=st.sampled_from(["nonneg", "symmetric"]),
        cutoff=st.integers(2, 60),
        log_penalty=st.floats(math.log(1e-4), math.log(5.0)),
        shift=st.floats(-2.0, 2.0),
    )
    def test_start_from_a_neighbouring_penalty(
        self, name, kind, cutoff, log_penalty, shift
    ):
        penalty = math.exp(log_penalty)
        matrix = banded_problem(name, kind, cutoff, penalty)
        neighbour = banded_problem(name, kind, cutoff, penalty * math.exp(shift))
        start = dense_eigh(neighbour)[1][:, 0]
        values, vectors = dense_eigh(matrix)
        pair = extremal_eigenpair(matrix, start_vector=start)
        assert pair.value == pytest.approx(values[0], rel=1e-11, abs=1e-13)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )
        assert pair.residual <= 1e-10 * matrix.norm_bound()

    @pytest.mark.parametrize("name", ["f1", "f2"])
    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_second_eigenvector_start_returns_smallest_pair(self, name, kind):
        matrix = banded_problem(name, kind, 200, 1e-5)
        values, vectors = dense_eigh(matrix)
        pair = extremal_eigenpair(matrix, start_vector=vectors[:, 1])
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )

    def test_warm_and_cold_agree_at_dimension_100001(self):
        # f1 near mean 1e4.  Both solvers carry ~1.5e-9 relative error in
        # <N> against an extended-precision reference at this size, so they
        # are compared to 1e-8; stopping on ||r|| <= 1e-12 ||A|| instead of
        # the vector's movement misses by ~8e-6.
        spectrum = Spectrum(kind="nonneg", cutoff=100_000)
        weights = spectrum.weights()
        f1 = cost_function("f1")
        beta = 0.5 * 3.7872 / 10001.0**3
        start = extremal_eigenpair(build_matrix(f1, spectrum, 2.0 * beta)).vector
        matrix = build_matrix(f1, spectrum, beta)
        warm = extremal_eigenpair(matrix, start_vector=start).vector
        cold = extremal_eigenpair(matrix).vector
        assert weights @ warm**2 == pytest.approx(weights @ cold**2, rel=1e-8)


class TestMatvecAndBounds:
    def test_toeplitz_matvec_matches_dense(self):
        n = 67
        rng = np.random.default_rng(2)
        matrix = ToeplitzPlusDiagonal(
            kernel=rng.standard_normal(n + 1), diagonal=rng.standard_normal(n)
        )
        dense = toeplitz_to_dense(matrix)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert matrix.matvec(x) == pytest.approx(dense @ x, abs=1e-11)

    def test_banded_matvec_matches_dense(self):
        n = 31
        rng = np.random.default_rng(3)
        matrix = BandedSymmetric(
            [rng.standard_normal(n - k) for k in range(3)]
        )
        dense = banded_to_dense(matrix)
        x = rng.standard_normal(n)
        assert matrix.matvec(x) == pytest.approx(dense @ x, abs=1e-12)

    def test_norm_bound_dominates_spectrum(self):
        rng = np.random.default_rng(4)
        n = 50
        banded = BandedSymmetric([rng.standard_normal(n - k) for k in range(2)])
        toeplitz = ToeplitzPlusDiagonal(
            kernel=rng.standard_normal(n + 1), diagonal=rng.standard_normal(n)
        )
        for matrix, ref in (
            (banded, banded_to_dense(banded)),
            (toeplitz, toeplitz_to_dense(toeplitz)),
        ):
            spectral = float(np.abs(np.linalg.eigvalsh(ref)).max())
            assert matrix.norm_bound() >= spectral - 1e-12


class TestEigenPairInvariants:
    def test_residual_unit_norm_and_sign(self):
        rng = np.random.default_rng(9)
        n = 80
        matrix = positive_definite(
            BandedSymmetric([rng.standard_normal(n - k) for k in range(3)])
        )
        pair = extremal_eigenpair(matrix)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-14
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        # sign convention: the component of largest magnitude is positive
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0.0

    def test_determinism(self):
        rng = np.random.default_rng(10)
        n = 90
        matrix = positive_definite(
            BandedSymmetric([rng.standard_normal(n - k) for k in range(3)])
        )
        a = extremal_eigenpair(matrix)
        b = extremal_eigenpair(matrix)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_monotone_in_penalty(self):
        # smallest eigenvalue of (A + p*diag(n)) is non-decreasing in p
        n = 200
        weights = np.arange(n, dtype=float)
        previous = -math.inf
        for penalty in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            matrix = BandedSymmetric([penalty * weights, np.full(n - 1, 0.5)])
            value = extremal_eigenpair(matrix).value
            assert value >= previous - 1e-14
            previous = value


class TestValidation:
    def test_bad_diagonal_lengths(self):
        with pytest.raises(ValueError):
            BandedSymmetric([np.zeros(4), np.zeros(4)])

    def test_bad_which(self):
        # only the smallest pair is solved for: a positional second argument
        # (an old ``which``) must fail instead of binding to start_vector
        with pytest.raises(TypeError):
            extremal_eigenpair(BandedSymmetric([np.zeros(3)]), "middle")

    def test_toeplitz_shape_mismatch(self):
        with pytest.raises(ValueError):
            ToeplitzPlusDiagonal(kernel=np.zeros(4), diagonal=np.zeros(4))

    def test_toeplitz_requires_preconditioner(self):
        matrix = ToeplitzPlusDiagonal(
            kernel=np.array([2.0, -1.0, 0.0]), diagonal=np.zeros(2)
        )
        with pytest.raises(ValueError, match="requires a preconditioner"):
            extremal_eigenpair(matrix)

    def test_finish_rejects_a_nan_residual(self):
        matrix = BandedSymmetric([[1.0, math.nan, 3.0], [0.5, 0.5]])
        with pytest.raises(EigsolveError, match="residual nan"):
            eigensolve._finish(matrix, np.array([1.0, 0.0, 0.0]))
