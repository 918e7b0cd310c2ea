"""Extremal-eigenpair solver tests against closed forms and dense references."""

import math
import tracemalloc

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
    """Closed forms.  The banded family is the f1 box at p = 0, tridiag(-1,
    2, -1) of order n: lambda_min is 4 sin^2(pi / (2 n + 2)), its
    eigenvector sin(pi (i + 1) / (n + 1)), all positive."""

    def test_two_by_two_f1_box(self):
        matrix = BandedSymmetric([np.full(2, 2.0), np.array([-1.0])])
        pair = extremal_eigenpair(matrix)
        assert pair.value == pytest.approx(1.0, abs=1e-14)
        assert pair.vector == pytest.approx(np.full(2, math.sqrt(0.5)), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100])
    def test_tridiagonal_toeplitz_family(self, n):
        matrix = BandedSymmetric([np.full(n, 2.0), np.full(n - 1, -1.0)])
        smallest = extremal_eigenpair(matrix)
        expected = 4.0 * math.sin(0.5 * math.pi / (n + 1)) ** 2
        assert smallest.value == pytest.approx(expected, abs=1e-13)
        bottom = np.sin(math.pi * (np.arange(n) + 1) / (n + 1))
        assert smallest.vector == pytest.approx(bottom / np.linalg.norm(bottom), abs=1e-11)

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
    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        n=st.integers(2, 200),
        log_penalty=st.floats(math.log(1e-12), math.log(1e3)),
        power=st.sampled_from([2.0, 1.0, 0.5]),
    )
    def test_banded_vs_full_spectrum(self, name, n, log_penalty, power):
        # Z(f) + p diag(W) with a smooth W = k^power, k = 0 .. n - 1: the
        # form of every band phaselim builds (W = k there), above its f1
        # matrix, so its cold solve takes the floor
        box = banded_problem(name, "nonneg", n - 1, 0.0)
        weights = np.arange(n, dtype=float) ** power
        matrix = BandedSymmetric(
            [box.diagonals[0] + math.exp(log_penalty) * weights, *box.diagonals[1:]]
        )
        values, vectors = dense_eigh(matrix)
        pair = extremal_eigenpair(matrix)
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )

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


class TestColdBanded:
    """Cold banded solves: inverse iteration from the f1 start (the ground
    state, to a few digits, of F = tridiag(-1, 2 + main - min(main), -1)) at
    its floor, the last shift that factored F, with no LU solve.  The
    contract is a band above F, as every band phaselim builds is; one that
    does not factor at the floor, or does not converge there, raises."""

    @staticmethod
    def spy_on_lu(monkeypatch):
        """The LAPACK LU solves (dgtsv, dgbsv) called, by name."""
        calls = []
        for name in ("dgtsv", "dgbsv"):
            routine = getattr(eigensolve.lapack, name)
            monkeypatch.setattr(
                eigensolve.lapack,
                name,
                lambda *args, name=name, routine=routine, **kwargs: calls.append(name)
                or routine(*args, **kwargs),
            )
        return calls

    def test_band_that_does_not_factor_at_its_floor_raises(self):
        # lambda_min < 0 lies below the floor of its f1 matrix
        n = 20
        matrix = BandedSymmetric(
            [np.full(n, -1.0), np.full(n - 1, 0.5), np.full(n - 2, 0.25)]
        )
        with pytest.raises(EigsolveError, match="does not factor at its f1 floor"):
            extremal_eigenpair(matrix)

    def test_band_that_stalls_at_its_floor_raises(self):
        # 8 + f1 lies above f1, but its lambda_min lies 8 above the floor:
        # inverse iteration there converges at a ratio near 1 and stalls
        spectrum = Spectrum(kind="symmetric", cutoff=50)
        shifted = variational.CostFunction("shifted_f1", np.array([10.0, -2.0]))
        matrix = variational._sector_matrix(shifted, spectrum, 0.1)
        weights = Spectrum("nonneg", 50).weights()
        with pytest.raises(EigsolveError, match="at the f1 floor .* did not converge"):
            extremal_eigenpair(matrix, weights=weights)

    def test_even_band_whose_warm_path_fails_takes_the_floor(self, monkeypatch):
        # from its second eigenvector RQI reaches the second pair, which the
        # certificate rejects; the floor of the folded f1 matrix then solves it
        warm = []
        warm_banded_smallest = eigensolve._warm_banded_smallest
        monkeypatch.setattr(
            eigensolve,
            "_warm_banded_smallest",
            lambda *args: warm.append(warm_banded_smallest(*args)) or warm[-1],
        )
        spectrum = Spectrum(kind="symmetric", cutoff=200)
        matrix = variational._sector_matrix(cost_function("f2"), spectrum, 1e-5)
        assert matrix.even and matrix.bandwidth == 2
        values, vectors = dense_eigh(matrix)
        pair = extremal_eigenpair(
            matrix, start_vector=vectors[:, 1], weights=Spectrum("nonneg", 200).weights()
        )
        assert warm == [None]
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert pair.vector == pytest.approx(
            signed_like(vectors[:, 0], pair.vector), abs=1e-9
        )

    @pytest.mark.parametrize("name", ["f2", "f3"])
    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_sweep_first_seeds_certify_from_the_sturm_start(
        self, monkeypatch, name, kind
    ):
        cost = cost_function(name)
        for mean in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            spectrum = Spectrum(kind=kind, cutoff=variational.default_cutoff(kind, mean))
            penalty, _ = variational._first_seed(cost, spectrum, mean)
            pair = variational._solve_eigen(cost, spectrum, penalty, None)
            matrix = build_matrix(cost, spectrum, penalty)
            assert pair.residual <= 1e-10 * matrix.norm_bound()

    def test_cold_f2_at_dimension_80009_within_factor_budget(self, monkeypatch):
        # the first seed of an f2 sweep to mean 1e4: 11 L D L' factors for
        # the f1 start and 1 pentadiagonal Cholesky factor at its floor
        lu = self.spy_on_lu(monkeypatch)
        factors = []
        factor_below = eigensolve._factor_below
        monkeypatch.setattr(
            eigensolve,
            "_factor_below",
            lambda banded, sigma: factors.append(banded.bandwidth)
            or factor_below(banded, sigma),
        )
        cost = cost_function("f2")
        spectrum = Spectrum(kind="nonneg", cutoff=variational.default_cutoff("nonneg", 1e4))
        assert spectrum.cutoff == 80_008
        penalty, _ = variational._first_seed(cost, spectrum, 1e4)
        pair = variational._solve_eigen(cost, spectrum, penalty, None)
        assert pair.residual <= 1e-10 * build_matrix(cost, spectrum, penalty).norm_bound()
        assert len(factors) <= 20
        assert "dgbsv" not in lu

    @pytest.mark.parametrize(
        "name, kind, mean", [("f2", "nonneg", 1e4), ("f3", "nonneg", 1e4), ("f2", "symmetric", 5e3)]
    )
    def test_cold_solve_at_the_floor_takes_no_lu_solve(self, monkeypatch, name, kind, mean):
        # a sweep's first seed at cutoff 80,008 (the even sector of 80,009
        # rows for the symmetric one): one Cholesky factor at the f1 floor
        # and inverse iteration, in 14 vectors of memory; an RQI step's band
        # LU took 23.5 (21.0 on the even sector)
        lu = self.spy_on_lu(monkeypatch)
        cost = cost_function(name)
        spectrum = Spectrum(kind=kind, cutoff=variational.default_cutoff(kind, mean))
        assert spectrum.cutoff == 80_008
        penalty, _ = variational._first_seed(cost, spectrum, mean)
        tracemalloc.start()
        try:
            pair = variational._solve_eigen(cost, spectrum, penalty, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = variational._sector_matrix(cost, spectrum, penalty)
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        assert lu == []
        assert peak <= 16 * 8 * matrix.dimension

    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_the_f1_floor_is_below_every_cost(self, name, kind):
        # Z(f) + p diag(W) >= F for f >= f1, so F's last factored shift
        # factors the solved sector's matrix too
        for cutoff in (1, 2, 40, 200):
            spectrum = Spectrum(kind=kind, cutoff=cutoff)
            weights = Spectrum("nonneg", cutoff).weights()
            for penalty in (0.0, 1e-6, 1e-3, 1.0, 10.0):
                matrix = variational._sector_matrix(cost_function(name), spectrum, penalty)
                _, floor = eigensolve._f1_start(
                    matrix.diagonals[0], weights if matrix.even else None
                )
                assert eigensolve._factor_below(matrix, floor) is not None, (cutoff, penalty)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_series_warm_fallback_takes_the_floor(self, monkeypatch, kind):
        # the series means 100 and 1000: the f1 warm start padded from mean
        # 100 fails its certificate at 1000, and the floor path solves it
        warm = []
        warm_banded_smallest = eigensolve._warm_banded_smallest
        monkeypatch.setattr(
            eigensolve,
            "_warm_banded_smallest",
            lambda *args: warm.append(warm_banded_smallest(*args)) or warm[-1],
        )
        points = variational.sweep_curve(cost_function("f1"), kind, [100.0, 1000.0])
        assert len(points) == 2
        assert any(vector is None for vector in warm)

    @pytest.mark.parametrize("n", [1, 2, 40, 200])
    @pytest.mark.parametrize("penalty", [0.0, 1e-3, 1.0, 1e3])
    def test_f1_start_is_the_f1_ground_state_to_a_few_digits(self, n, penalty):
        # the start of a diagonal d + c is that of d, here with min(d) = 0
        d = penalty * np.arange(n, dtype=float)
        start, _ = eigensolve._f1_start(d - 1.5)
        f1 = BandedSymmetric([2.0 + d, np.full(n - 1, -1.0)])
        vector = dense_eigh(f1)[1][:, 0]
        assert np.linalg.norm(start) == pytest.approx(1.0, abs=1e-14)
        assert start == pytest.approx(signed_like(vector, start), abs=1e-6)

    @pytest.mark.parametrize("n", [3, 40, 200])
    @pytest.mark.parametrize("penalty", [0.0, 1e-3, 1.0])
    def test_even_f1_start_is_the_folded_f1_ground_state(self, n, penalty):
        # the f1 matrix of order 2 n - 1 folded: first coupling -sqrt 2; a
        # z_2 bump at j = 1 (a folded pentadiagonal's Hankel term) is ignored
        # once j = 1 is not the diagonal's end, n >= 3
        d = penalty * np.arange(n, dtype=float)
        bumped = d + 2.5
        bumped[1] += 1.0 / 12.0
        start, _ = eigensolve._f1_start(bumped, np.arange(n, dtype=float))
        off = np.full(n - 1, -1.0)
        off[0] = -math.sqrt(2.0)
        folded = BandedSymmetric([2.0 + d, off])
        vector = dense_eigh(folded)[1][:, 0]
        assert np.linalg.norm(start) == pytest.approx(1.0, abs=1e-14)
        assert start == pytest.approx(signed_like(vector, start), abs=1e-6)

    def test_no_full_precision_tridiagonal_eigensolver(self):
        assert not hasattr(eigensolve, "eigh_tridiagonal")


class TestFactorBelow:
    """``_factor_below`` certifies a shift below lambda_min, definite band or
    not: L D L' for a tridiagonal band, lower-band Cholesky otherwise."""

    @pytest.mark.parametrize("n", [1, 2, 40, 200])
    @pytest.mark.parametrize("bandwidth", [1, 2])
    @pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
    def test_factor_exactly_below_the_smallest_eigenvalue(self, n, bandwidth, definite):
        rng = np.random.default_rng(1000 * n + 10 * bandwidth + definite)
        matrix = BandedSymmetric(
            [rng.standard_normal(n - k) for k in range(min(bandwidth, n) + 1)]
        )
        if definite:
            matrix = positive_definite(matrix)
        else:  # centre the spectrum on 0 (a 1 x 1 band: move it to -1)
            values = np.linalg.eigvalsh(banded_to_dense(matrix))
            centre = 0.5 * (values[0] + values[-1]) if n > 1 else values[0] + 1.0
            matrix = BandedSymmetric([matrix.diagonals[0] - centre, *matrix.diagonals[1:]])
        lowest = np.linalg.eigvalsh(banded_to_dense(matrix))[0]
        assert (lowest > 0.0) == definite
        margin = 1e-8 * matrix.norm_bound()
        assert eigensolve._factor_below(matrix, lowest + margin) is None
        sigma = lowest - margin
        solve = eigensolve._factor_below(matrix, sigma)
        assert solve is not None
        b = rng.standard_normal(n)
        x = solve(b)
        shifted = banded_to_dense(matrix) - sigma * np.eye(n)
        assert np.linalg.norm(shifted @ x - b) <= 1e-9 * matrix.norm_bound() * np.linalg.norm(x)


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
        # (folded to the even sector of a symmetric spectrum)
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        cost = cost_function("theta_sq")
        matrix = build_matrix(cost, spectrum, penalty)
        f3 = build_matrix(cost_function("f3"), spectrum, penalty)
        assert f3.bandwidth == 2
        values, vectors = np.linalg.eigh(theta_sq_dense(matrix))
        n = matrix.dimension
        vector = None
        if start == "warm":
            rng = np.random.default_rng(cutoff)
            noisy = vectors[:, 0] + 1e-2 * rng.standard_normal(n) / math.sqrt(n)
            vector = variational._fold(spectrum, noisy)

        pair = variational._solve_eigen(cost, spectrum, penalty, vector)
        again = variational._solve_eigen(cost, spectrum, penalty, vector)
        psi = variational._unfold(spectrum, pair.vector)
        assert pair.value == pytest.approx(values[0], rel=1e-11)
        assert psi == pytest.approx(signed_like(vectors[:, 0], psi), abs=1e-9)
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        assert again.value == pair.value
        assert np.array_equal(again.vector, pair.vector)

    @pytest.mark.parametrize(
        "kind, cutoff, penalty", [("nonneg", 500, 3e-5), ("symmetric", 300, 1e-4)]
    )
    def test_cold_start_is_the_f1_sturm_vector(self, kind, cutoff, penalty):
        # D'D + diag(p W) = tridiag(-1, 2 + p W, -1) is the f1 matrix at
        # penalty p, so a cold solve equals one started from the f1 start
        # (that matrix's ground state to a few digits), and variational's
        # cold solve is that same call.  A symmetric spectrum is solved on
        # its even sector, whose f1 start is the fold of the full one.
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        cost = cost_function("theta_sq")
        matrix = variational._sector_matrix(cost, spectrum, penalty)
        f3 = variational._sector_matrix(cost_function("f3"), spectrum, penalty)
        assert matrix.even == f3.even == (kind == "symmetric")
        weights = Spectrum("nonneg", cutoff).weights() if matrix.even else None
        start, _ = eigensolve._f1_start(matrix.diagonal, weights)
        full, _ = eigensolve._f1_start(build_matrix(cost, spectrum, penalty).diagonal)
        folded = variational._fold(spectrum, full)
        assert start == pytest.approx(signed_like(folded, start), abs=1e-6)
        cold = extremal_eigenpair(matrix, preconditioner=f3, weights=weights)
        started = extremal_eigenpair(
            matrix, start_vector=start, preconditioner=f3, weights=weights
        )
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
        matrix = build_matrix(cost, spectrum, penalty)
        assert pair.residual <= 1e-10 * matrix.norm_bound()

    @pytest.mark.parametrize(
        "kind, cutoff, penalty", [("nonneg", 500, 3e-5), ("symmetric", 300, 1e-4)]
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_theta_sq_vs_dense(self, kind, cutoff, penalty, warm):
        spectrum = Spectrum(kind=kind, cutoff=cutoff)
        matrix = build_matrix(cost_function("theta_sq"), spectrum, penalty)
        assert isinstance(matrix, ToeplitzPlusDiagonal)
        values, vectors = np.linalg.eigh(theta_sq_dense(matrix))
        n = matrix.dimension
        surrogate = BandedSymmetric(
            [2.0 + penalty * spectrum.weights(), -np.ones(n - 1)]
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
        # theta^2 near mean 3e3: the penalty_a eigenvector already meets the
        # residual test at penalty_b, yet its mean is off by ~2e-6 relative
        spectrum = Spectrum(kind="nonneg", cutoff=30000)
        cost = cost_function("theta_sq")
        weights = spectrum.weights()

        def solve(penalty, start=None):
            surrogate = BandedSymmetric(
                [2.0 + penalty * weights, -np.ones(spectrum.dimension - 1)]
            )
            return extremal_eigenpair(
                build_matrix(cost, spectrum, penalty),
                start_vector=start,
                preconditioner=surrogate,
            ).vector

        penalty_a, penalty_b = 1.4014455219e-10, 1.4014373970e-10
        warm = solve(penalty_b, start=solve(penalty_a))
        cold = solve(penalty_b)
        assert weights @ warm**2 == pytest.approx(weights @ cold**2, rel=1e-9)

    def test_mean_target_stops_a_trial_only_off_target(self):
        spectrum = Spectrum(kind="nonneg", cutoff=500)
        cost = cost_function("theta_sq")
        penalty = 3e-5
        matrix = build_matrix(cost, spectrum, penalty)
        f3 = build_matrix(cost_function("f3"), spectrum, penalty)
        weights = spectrum.weights()
        full = extremal_eigenpair(matrix, preconditioner=f3)
        mean = float(weights @ full.vector**2)
        # far off target: an early pair with its iterate's value and residual
        early = extremal_eigenpair(
            matrix, preconditioner=f3, weights=weights, mean_target=(2.0 * mean, 1e-6 * mean)
        )
        assert not early.converged
        image = matrix.matvec(early.vector)
        assert early.value == pytest.approx(early.vector @ image, rel=1e-12)
        residual = np.linalg.norm(image - early.value * early.vector)
        assert early.residual == pytest.approx(residual, rel=1e-6)
        assert early.residual > 1e-10 * matrix.norm_bound()
        assert weights @ early.vector**2 < 2.0 * mean
        # on target: solved in full, the same pair as without a target
        landed = extremal_eigenpair(
            matrix, preconditioner=f3, weights=weights, mean_target=(mean, 1e-6 * mean)
        )
        assert landed.converged and landed.value == full.value
        assert np.array_equal(landed.vector, full.vector)

    @pytest.mark.parametrize("scale", [1e3, 1e40])
    @pytest.mark.parametrize("b", [[1.0], [1.0, 0.5]])
    def test_ritz_vector_of_a_graded_projection(self, b, scale):
        # T = diag(s, 10 s) far above a = 2: c is (1, -(T - lambda)^-1 b)
        # normalized, lambda = a - b'(T - lambda)^-1 b (a fixed point here);
        # eigh loses the trailing entries, ~1e-40, once s dwarfs 1 / eps
        b = np.array(b)
        diagonal = scale * 10.0 ** np.arange(b.size)
        projected = np.diag([2.0, *diagonal])
        projected[0, 1:] = projected[1:, 0] = b
        value = 2.0
        for _ in range(5):
            value = 2.0 - b @ (b / (diagonal - value))
        expected = np.array([1.0, *(-b / (diagonal - value))])
        c = eigensolve._ritz_coefficients(projected)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(c[: b.size + 1], expected, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["nonneg", "symmetric"])
    def test_start_from_a_pair_spares_the_first_matvec(self, kind, monkeypatch):
        # a root-finder trial at p' starts from the pair at p: its image
        # A(p') x = T x + p' W x needs no mat-vec
        matvecs = []
        apply = ToeplitzPlusDiagonal.matvec
        monkeypatch.setattr(
            ToeplitzPlusDiagonal,
            "matvec",
            lambda self, x: matvecs.append(1) or apply(self, x),
        )
        spectrum = Spectrum(kind=kind, cutoff=400)
        cost = cost_function("theta_sq")
        first = variational._solve_eigen(cost, spectrum, 3e-5, None)
        matrix = variational._sector_matrix(cost, spectrum, 3e-5)
        assert first.toeplitz_image == pytest.approx(
            matrix.matvec(first.vector) - matrix.diagonal * first.vector, abs=1e-13
        )
        matvecs.clear()
        resumed = variational._solve_eigen(cost, spectrum, 2e-5, first)
        from_pair = len(matvecs)
        matvecs.clear()
        restarted = variational._solve_eigen(cost, spectrum, 2e-5, first.vector)
        assert from_pair == len(matvecs) - 1
        assert resumed.value == pytest.approx(restarted.value, rel=1e-13)
        assert resumed.vector == pytest.approx(restarted.vector, abs=1e-10)
        banded = variational._solve_eigen(cost_function("f1"), spectrum, 3e-5, None)
        assert banded.toeplitz_image is None

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
        matrix = build_matrix(cost_function("theta_sq"), spectrum, penalty)
        with pytest.raises(EigsolveError, match="stalled"):
            extremal_eigenpair(matrix, preconditioner=surrogate)
        assert len(matvecs) <= 100


def banded_problem(name, kind, cutoff, penalty):
    return build_matrix(cost_function(name), Spectrum(kind=kind, cutoff=cutoff), penalty)


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
        name=st.sampled_from(["f1", "f2", "f3"]),
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
        penalty = 3.7872 / 10001.0**3
        start = extremal_eigenpair(build_matrix(f1, spectrum, 2.0 * penalty)).vector
        matrix = build_matrix(f1, spectrum, penalty)
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
        matrix = banded_problem("f3", "nonneg", 79, 1e-3)
        pair = extremal_eigenpair(matrix)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-14
        assert pair.residual <= 1e-10 * matrix.norm_bound()
        # sign convention: the component of largest magnitude is positive
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0.0

    def test_determinism(self):
        matrix = banded_problem("f2", "nonneg", 89, 1e-3)
        a = extremal_eigenpair(matrix)
        b = extremal_eigenpair(matrix)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_monotone_in_penalty(self):
        # smallest eigenvalue of tridiag(-1, 2 + p n, -1) is non-decreasing in p
        n = 200
        weights = np.arange(n, dtype=float)
        previous = -math.inf
        for penalty in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            matrix = BandedSymmetric([2.0 + penalty * weights, np.full(n - 1, -1.0)])
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

    def test_even_kernel_is_twice_the_dimension(self):
        with pytest.raises(ValueError, match="twice as long"):
            ToeplitzPlusDiagonal(kernel=np.ones(5), diagonal=np.zeros(4), even=True)
        matrix = ToeplitzPlusDiagonal(kernel=np.ones(8), diagonal=np.zeros(4), even=True)
        assert matrix.with_diagonal(np.ones(4)).even

    def test_with_diagonal_shape_mismatch(self):
        matrix = ToeplitzPlusDiagonal(kernel=np.zeros(4), diagonal=np.zeros(3))
        with pytest.raises(ValueError, match=r"diagonal shape \(4,\) does not match"):
            matrix.with_diagonal(np.zeros(4))

    def test_banded_takes_no_mean_target(self):
        matrix = BandedSymmetric([np.ones(3), np.full(2, 0.5)])
        with pytest.raises(ValueError, match="no mean_target"):
            extremal_eigenpair(matrix, weights=np.arange(3.0), mean_target=(1.0, 1e-6))

    def test_mean_target_and_even_matrix_require_weights(self):
        toeplitz = ToeplitzPlusDiagonal(kernel=np.array([1.0, 0.0, 0.0]), diagonal=np.ones(2))
        prec = BandedSymmetric([np.full(2, 3.0), np.full(1, -1.0)])
        with pytest.raises(ValueError, match="requires weights"):
            extremal_eigenpair(toeplitz, preconditioner=prec, mean_target=(1.0, 1e-6))
        even = BandedSymmetric([np.full(3, 2.0), np.full(2, -1.0)], even=True)
        for start in (None, np.ones(3)):
            with pytest.raises(ValueError, match="requires weights"):
                extremal_eigenpair(even, start_vector=start)

    def test_toeplitz_requires_preconditioner(self):
        matrix = ToeplitzPlusDiagonal(
            kernel=np.array([2.0, -1.0, 0.0]), diagonal=np.zeros(2)
        )
        with pytest.raises(ValueError, match="requires a preconditioner"):
            extremal_eigenpair(matrix)

    def test_lopcg_raises_at_once_on_a_nan_preconditioned_residual(self, monkeypatch):
        # the definite-kernel solve does not check its input for NaN, so
        # LOPCG must stop at its first non-finite ||M r||
        matvecs = []
        apply = ToeplitzPlusDiagonal.matvec
        monkeypatch.setattr(
            ToeplitzPlusDiagonal,
            "matvec",
            lambda self, x: matvecs.append(1) or apply(self, x),
        )
        matrix = ToeplitzPlusDiagonal(kernel=np.array([2.0, 0.5, 0.0, 0.0]), diagonal=np.ones(3))
        jacobi = BandedSymmetric([np.full(3, 4.0)])
        with pytest.raises(EigsolveError, match="preconditioned residual nan"):
            extremal_eigenpair(
                matrix, start_vector=np.array([1.0, math.nan, 1.0]), preconditioner=jacobi
            )
        assert len(matvecs) == 1

    def test_preconditioner_must_be_positive_definite(self):
        matrix = ToeplitzPlusDiagonal(kernel=np.array([2.0, 0.5, 0.0]), diagonal=np.ones(2))
        indefinite = BandedSymmetric([np.array([1.0, -1.0])])
        with pytest.raises(EigsolveError, match="not positive definite"):
            extremal_eigenpair(matrix, preconditioner=indefinite)

    def test_finish_rejects_a_nan_residual(self):
        matrix = BandedSymmetric([[1.0, math.nan, 3.0], [0.5, 0.5]])
        with pytest.raises(EigsolveError, match="residual nan"):
            eigensolve._finish(matrix, np.array([1.0, 0.0, 0.0]))
