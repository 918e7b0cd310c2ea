"""Smallest eigenpair of a real symmetric matrix, one path per structure.

Every cost of the variational problem is posed as the smallest eigenpair of
Z(f) + p diag(W), so that pair is the only one solved for.

* ``BandedSymmetric`` -- main diagonal plus superdiagonals.  A cold solve
  is inverse iteration at the f1 floor, a shift already certified below
  lambda_min, with no LU solve.  A start vector is refined on a certified
  warm path of O(d) banded work (Rayleigh-quotient iteration, a factor
  certifying a shift below lambda_min, inverse iteration), the floor its
  fallback.  Every factor is LAPACK's definite kernel for the band: the
  tridiagonal L D L' (dpttrf) or the Cholesky factor in lower band storage
  (dpbtrf).
* ``ToeplitzPlusDiagonal`` -- symmetric Toeplitz part in difference form
  D' Z(g) D, applied via FFT circulant embedding (its even sector by DSTs
  of half the length), plus an arbitrary diagonal, solved by locally
  optimal preconditioned conjugate gradients (LOPCG, Knyazev 2001) with
  the banded factor of a spectrally equivalent surrogate supplied by the
  caller.  A step costs one FFT mat-vec, one banded solve and O(d) vector
  work, so the dense quadratic-cost problems reach dimension 1e6.  A trial
  of a root-find on the mean x'Wx may stop as soon as its mean lies
  certainly on one side of the target (inexact Newton, Dembo, Eisenstat &
  Steihaug 1982); the pair a root-find returns is solved in full.

A cold solve of either structure starts from the ground state of the f1
matrix tridiag(-1, 2 + d_k, -1), d_k the penalty term of its diagonal, to
a few digits (``_f1_start``).  Every matrix ``variational`` solves lies
above that f1 matrix, so the last shift that factored it, the floor, lies
below the band's lambda_min too; a band that does not factor there, or on
which inverse iteration does not converge there, raises.  A matrix marked
``even`` is the even sector, basis e_0, (e_j + e_-j)/sqrt 2, of a problem
symmetric under j -> -j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, dst, idst, irfft, next_fast_len, rfft
from scipy.linalg import lapack

__all__ = [
    "BandedSymmetric",
    "ToeplitzPlusDiagonal",
    "EigenPair",
    "EigsolveError",
    "extremal_eigenpair",
]

_RESIDUAL_FACTOR = 1e-10  # residual invariant: ||Av - av|| <= factor * ||A||
_VECTOR_TOL = 1e-9  # LOPCG stop on the preconditioned residual ||M r||
_STALL_STEPS = 10  # steps without halving the distance to the stop: stalled
_RITZ_NEWTON_STEPS = 10  # Newton steps on the Schur secular equation (quadratic)
# A LOPCG iterate x with eigenvector error e has mean x'Wx off by at most
# 2 ||(W - m) x|| ||e|| to first order, and ||e|| <= 1.445 ||M r|| / (1 - l1/l2)
# with 1.445 the f3 preconditioner's equivalence constant and l1/l2 <= 0.572,
# the ratio of the first two Airy zeros that the large-mean nonneg spectrum
# approaches: 2 * 1.445 / 0.428 = 6.8.
_MEAN_ERROR_FACTOR = 7.0
# Warm banded path (see _warm_banded_smallest)
_RQI_TOL = 1e-4  # Rayleigh-quotient iteration stops at ||r|| <= tol * |rho|
_RQI_STEPS = 10
_SHIFT_MARGIN = 1e-3  # certified shift sigma = rho - margin * |rho| - 2 ||r||
_MOVE_TOL = 1e-12  # inverse iteration stops once the unit vector moves this little
_SQRT_TWO = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)


class EigsolveError(RuntimeError):
    """Solver failed to converge or detected an unsupported matrix."""


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix stored as [main, first super, ...]; ``even``
    (module docstring) changes only the cold start."""

    diagonals: list[np.ndarray]
    even: bool = False

    def __post_init__(self) -> None:
        diags = [np.asarray(d, dtype=float) for d in self.diagonals]
        object.__setattr__(self, "diagonals", diags)
        n = diags[0].size
        if n < 1:
            raise ValueError("dimension must be >= 1")
        for k, d in enumerate(diags):
            if d.size != n - k:
                raise ValueError(
                    f"diagonal {k} has length {d.size}, expected {n - k}"
                )

    @property
    def dimension(self) -> int:
        return self.diagonals[0].size

    @property
    def bandwidth(self) -> int:
        return len(self.diagonals) - 1

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonals[0] * x
        for k in range(1, len(self.diagonals)):
            d = self.diagonals[k]
            y[:-k] += d * x[k:]
            y[k:] += d * x[:-k]
        return y

    def norm_bound(self) -> float:
        """Upper bound on the spectral norm via the infinity norm."""
        rows = np.abs(self.diagonals[0]).astype(float)
        for k in range(1, len(self.diagonals)):
            d = np.abs(self.diagonals[k])
            rows[:-k] += d
            rows[k:] += d
        return float(rows.max(initial=0.0))


@dataclass(frozen=True)
class ToeplitzPlusDiagonal:
    """Symmetric Toeplitz matrix in difference form, D' Z(kernel) D, plus a diagonal.

    D is the (d+1) x d difference map u = D x (u_0 = x_0, u_k = x_k - x_{k-1},
    u_d = -x_{d-1}) and Z(kernel) the symmetric Toeplitz matrix of order d+1
    with first column ``kernel``.  D' Z(g) D is the Toeplitz matrix of the
    symbol g(t) (2 - 2 cos t), so a symbol with a double zero at t = 0 (as
    theta^2 has) is stored as its smooth quotient g, and a mat-vec rounds
    relative to ||D x|| rather than ||x||.  Z(kernel) is applied through an
    FFT circulant embedding, so a mat-vec costs O(d log d) however dense the
    symbol is.

    With ``even`` it is Q' D' Z(g) D Q, the even sector of that of order
    2d - 1, Q = [e_0, (e_j + e_-j)/sqrt 2], and ``kernel`` has 2d entries.
    psi = Q x has an odd difference u = D psi, so Z(g) u on j >= 0 is
    (T - H) h, h_m = psi_{m+1} - psi_m, T_mk = g_|m-k|, H_mk = g_{m+k+1}:
    a DST-II of h times the DCT-I of g_0 .. g_M, then a DST-III (Martucci,
    IEEE Trans. Signal Process. 42 (1994) 1038), exact at a fast M >= 2d.
    Q' D' maps that y to -2 y_0 and sqrt 2 (y_{j-1} - y_j).
    """

    kernel: np.ndarray
    diagonal: np.ndarray
    even: bool = False
    _fft_kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _fft_size: int = field(init=False, repr=False, compare=False)
    _toeplitz_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.kernel, dtype=float)
        diag = np.asarray(self.diagonal, dtype=float)
        n = g.size
        if g.ndim != 1 or diag.ndim != 1 or n != diag.size + (diag.size if self.even else 1):
            raise ValueError("kernel must be one longer (even: twice as long) than the diagonal")
        if diag.size < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "kernel", g)
        object.__setattr__(self, "diagonal", diag)
        if self.even:
            size = next_fast_len(n, real=True)
            padded = np.zeros(size + 1)
            padded[:n] = g
            transformed = dct(padded, type=1)[1:]
        else:
            size = next_fast_len(2 * n, real=True)
            embedded = np.zeros(size)
            embedded[:n] = g
            embedded[size - n + 1 :] = g[1:][::-1]
            transformed = rfft(embedded)
        # D' Z(g) D has entries t_m = 2 g_m - g_{m-1} - g_{m+1} (g_{-1} = g_1)
        column = 2.0 * g[:-1] - g[1:] - np.concatenate((g[1:2], g[:-2]))
        norm = abs(column[0]) + 2.0 * np.abs(column[1:]).sum()
        object.__setattr__(self, "_fft_size", size)
        object.__setattr__(self, "_fft_kernel", transformed)
        object.__setattr__(self, "_toeplitz_norm", float(norm))

    def with_diagonal(self, diagonal: np.ndarray) -> "ToeplitzPlusDiagonal":
        """The same Toeplitz part plus another diagonal, sharing the kernel
        and its FFT instead of transforming them again."""
        diag = np.asarray(diagonal, dtype=float)
        if diag.shape != self.diagonal.shape:
            raise ValueError(
                f"diagonal shape {diag.shape} does not match the matrix's "
                f"{self.diagonal.shape}"
            )
        other = object.__new__(ToeplitzPlusDiagonal)
        object.__setattr__(other, "diagonal", diag)
        for name in ("kernel", "even", "_fft_size", "_fft_kernel", "_toeplitz_norm"):
            object.__setattr__(other, name, getattr(self, name))
        return other

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.dimension
        u = np.zeros(self._fft_size)
        if self.even:
            psi = x * _SQRT_HALF
            psi[0] = x[0]
            np.subtract(psi[1:], psi[:-1], out=u[: n - 1])
            u[n - 1] = -psi[-1]
            y = idst(dst(u, type=2, overwrite_x=True) * self._fft_kernel, type=2)
            out = np.empty(n)
            out[0] = -2.0 * y[0]
            np.subtract(y[: n - 1], y[1:n], out=out[1:])
            out[1:] *= _SQRT_TWO
        else:
            u[0], u[n] = x[0], -x[-1]
            np.subtract(x[1:], x[:-1], out=u[1:n])
            y = irfft(rfft(u) * self._fft_kernel, self._fft_size)
            out = y[:n] - y[1 : n + 1]
        out += self.diagonal * x
        return out

    def norm_bound(self) -> float:
        """The infinity norm of the Toeplitz part (of the full order if
        ``even``) plus that of the diagonal."""
        return self._toeplitz_norm + float(np.abs(self.diagonal).max(initial=0.0))


@dataclass(frozen=True)
class EigenPair:
    """Extremal eigenvalue with unit eigenvector and residual norm.

    ``converged`` is False only for a LOPCG trial stopped once its mean was
    resolved (``extremal_eigenpair``'s ``mean_target``): its value is the
    Rayleigh quotient and its residual the iterate's, above the tolerance.
    ``toeplitz_image``, the vector's image under a ``ToeplitzPlusDiagonal``'s
    Toeplitz part, spares the first mat-vec of a solve started from the pair.
    """

    value: float
    vector: np.ndarray
    residual: float
    converged: bool = True
    toeplitz_image: np.ndarray | None = field(default=None, repr=False, compare=False)


Matrix = BandedSymmetric | ToeplitzPlusDiagonal


def _canonical_pair(matrix, value, x, image, residual, converged=True) -> EigenPair:
    """The pair of unit vector x and its image A x, signed so that x's largest
    component (the first within rel 1e-8 of it) is positive."""
    top = np.argmax(np.abs(x) >= (1.0 - 1e-8) * np.abs(x).max())
    sign = -1.0 if x[top] < 0.0 else 1.0
    toeplitz_image = None
    if isinstance(matrix, ToeplitzPlusDiagonal):
        toeplitz_image = sign * (image - matrix.diagonal * x)
    return EigenPair(value, sign * x, residual, converged, toeplitz_image)


def _stalled(history: list[float]) -> bool:
    """True once the last _STALL_STEPS values failed to halve the best before them."""
    if len(history) <= _STALL_STEPS:
        return False
    return min(history[-_STALL_STEPS:]) > 0.5 * min(history[:-_STALL_STEPS])


def _finish(matrix: Matrix, vector: np.ndarray) -> EigenPair:
    vector = vector / np.linalg.norm(vector)
    image = matrix.matvec(vector)
    value = float(vector @ image)  # Rayleigh quotient polish
    residual = float(np.linalg.norm(image - value * vector))
    bound = _RESIDUAL_FACTOR * max(matrix.norm_bound(), 1e-300)
    if not residual <= bound:  # a NaN residual or value fails too
        raise EigsolveError(f"residual {residual:.3e} exceeds tolerance {bound:.3e}")
    return _canonical_pair(matrix, value, vector, image, residual)


def _factor_below(banded: BandedSymmetric, sigma: float):
    """The solve x -> (A - sigma I)^-1 x, or None when A - sigma I is not
    positive definite, that is when sigma >= lambda_min (Sylvester).

    A tridiagonal band is factored as L D L' (dpttrf): its pivots are the
    Sturm sequence of A - sigma I, so a factor certifies sigma < lambda_min
    with the backward-error bound of Sturm bisection.  Any other band,
    dimension 1 included, gets its Cholesky factor in lower band storage
    (dpbtrf).
    """
    main = banded.diagonals[0] - sigma
    if banded.bandwidth == 1 and main.size > 1:
        d, e, info = lapack.dpttrf(main, banded.diagonals[1], overwrite_d=1)
        return None if info else lambda b: lapack.dpttrs(d, e, b)[0]
    lower = np.zeros((banded.bandwidth + 1, main.size))  # row k: subdiagonal k
    lower[0] = main
    for k in range(1, banded.bandwidth + 1):
        lower[k, :-k] = banded.diagonals[k]
    factor, info = lapack.dpbtrf(lower, lower=1, overwrite_ab=1)
    return None if info else lambda b: lapack.dpbtrs(factor, b, lower=1)[0]


def _f1_start(
    diagonal: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """The ground state, to a few digits, of the f1 matrix F = tridiag(-1,
    2 + d, -1), d = ``diagonal`` - min(``diagonal``): the cold start of every
    solve; and the floor, the largest shift F was factored at (< lambda_min(F)).
    Given an even sector's ``weights`` W it is the fold of that of order
    N = 2 n - 1 (first coupling -sqrt 2), and d = p W with p read from the
    diagonal's ends: a folded band's Hankel term z_2 at j = 1 would be a barrier.

    d is the penalty term p W of every matrix ``variational`` solves, as W
    vanishes at n = 0 and at j = 0.  Each such matrix Z(f) + p diag(W) has
    f >= f1 on [-pi, pi] (f2 - f1 = (1 - cos t)^2 / 3), so Z(f - f1) >= 0
    puts it above F on either sector, and the floor lies below its
    lambda_min too: the shift of a cold banded solve.
    lambda_min(F) lies between 4 sin^2(pi / (2 N + 2)), that of
    tridiag(-1, 2, -1) (N = n if not even), and the Rayleigh quotient
    (2 + sum d) / N of the vector of ones of order N, so a shift is bisected
    geometrically on the L D L' test to within 1 % of lambda_min, and three
    steps of inverse iteration from the ones vector follow, with no mat-vec.
    """
    n = diagonal.size
    d = diagonal - diagonal.min()
    off, x = np.full(n - 1, -1.0), np.ones(n)
    order, total = n, float(d.sum())
    if weights is not None:
        d = (diagonal[-1] - diagonal[0]) / weights[-1] * weights
        off[:1], x[1:] = -_SQRT_TWO, _SQRT_TWO
        order, total = 2 * n - 1, 2.0 * float(d.sum())
    f1 = BandedSymmetric([2.0 + d, off])
    lo, hi = 4.0 * math.sin(0.5 * math.pi / (order + 1)) ** 2, (2.0 + total) / order
    # 0.99 lo < lambda_min is the shift kept if none in (lo, hi) factors,
    # as at d = 0; the f1 matrix itself is definite should rounding fail it
    floor = 0.99 * lo
    solve = _factor_below(f1, floor)
    if solve is None:
        floor, solve = 0.0, _factor_below(f1, 0.0)
    while hi > 1.01 * lo:
        sigma = math.sqrt(lo * hi)
        below = _factor_below(f1, sigma)
        if below is None:
            hi = sigma
        else:
            lo = floor = sigma
            solve = below
    for _ in range(3):
        x = solve(x)
        x /= np.linalg.norm(x)
    return x, floor


def _inverse_iteration(solve, x: np.ndarray, maxiter: int) -> np.ndarray | None:
    """Inverse iteration with ``solve`` = (A - sigma I)^-1 from
    ``_factor_below``, sigma < lambda_min: the smallest eigenvector once the
    unit vector moves <= _MOVE_TOL, None if that movement stalls.  Stopping
    on ||r|| alone would not do: at d ~ 1e5 the gap is ~4e-8, so
    ||r|| = 1e-12 ||A|| still leaves a vector error ~ ||r|| / gap ~ 1e-4.
    """
    moves: list[float] = []
    for _ in range(maxiter):
        y = solve(x)
        y /= np.linalg.norm(y)
        moves.append(float(np.linalg.norm(y - x)))
        x = y
        if moves[-1] <= _MOVE_TOL:
            return x
        if _stalled(moves):
            return None
    return None


def _warm_banded_smallest(
    banded: BandedSymmetric, x: np.ndarray, maxiter: int
) -> np.ndarray | None:
    """Smallest eigenvector from a nearby start, or None when not certified.

    Rayleigh-quotient iteration (LU solves of (A - rho I) y = x, dgtsv for a
    tridiagonal band and dgbsv for a wider one, whose band storage is built
    at the first step taken) runs until ||r|| <= _RQI_TOL |rho|.
    A - sigma I, sigma = rho - _SHIFT_MARGIN |rho| - 2 ||r||, has a definite
    factor (``_factor_below``) only if sigma < lambda_min, so
    ``_inverse_iteration`` with it reaches the smallest eigenvector whatever
    eigenvector RQI approached.  Only a warm solve takes this path: a cold
    one starts below lambda_min already (``_f1_start``'s floor).
    """
    u, main = banded.bandwidth, banded.diagonals[0]
    tridiagonal = u == 1 and main.size > 1
    general = None
    x = x / np.linalg.norm(x)
    for _ in range(_RQI_STEPS):
        ax = banded.matvec(x)
        rho = float(x @ ax)
        r_norm = float(np.linalg.norm(ax - rho * x))
        if r_norm <= _RQI_TOL * abs(rho):
            break
        if tridiagonal:
            off = banded.diagonals[1]
            *_, y, info = lapack.dgtsv(off, main - rho, off, x)
        else:
            if general is None:  # dgbsv storage: A_ij at row 2u + i - j
                general = np.zeros((3 * u + 1, main.size))
                for k in range(1, u + 1):
                    general[2 * u - k, k:] = general[2 * u + k, :-k] = banded.diagonals[k]
            general[2 * u] = main - rho
            *_, y, info = lapack.dgbsv(u, u, general, x)
        y_norm = np.linalg.norm(y)
        if info or not np.isfinite(y_norm) or y_norm == 0.0:
            return None
        x = y / y_norm
    else:
        return None
    solve = _factor_below(banded, rho - _SHIFT_MARGIN * abs(rho) - 2.0 * r_norm)
    return None if solve is None else _inverse_iteration(solve, x, maxiter)


def _ritz_coefficients(projected: np.ndarray) -> np.ndarray:
    """The smallest Ritz vector of LOPCG's symmetric 2x2 or 3x3 projection
    P = [[a, b'], [b, T]], a = x'Ax.  Where T - 2a I is definite and a > 0,
    it is c = (1, -(T - lambda I)^-1 b) normalized, lambda the root of the
    convex secular equation lambda = a - b'(T - lambda I)^-1 b that Newton's
    method descends to from a: each entry keeps its relative accuracy
    however graded P is, while eigh's error is relative to ||P||, so that at
    p >~ 1e32 it returns c = (1, 0, 0) and LOPCG never moves (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl. 13 (1992) 1204).  Elsewhere, eigh."""
    padded = np.diag([0.0, 0.0, projected[1, 1]])  # a 2x2 P as T = t_11 I, b_2 = 0
    padded[: len(projected), : len(projected)] = projected
    (a, b1, b2), (_, t11, t12), (_, _, t22) = padded.tolist()
    if not (a > 0.0 and t11 > 2.0 * a and (t11 - 2.0 * a) * (t22 - 2.0 * a) > t12 * t12):
        return np.linalg.eigh(projected)[1][:, 0]
    value = a
    for _ in range(_RITZ_NEWTON_STEPS):
        d11, d22 = t11 - value, t22 - value
        det = d11 * d22 - t12 * t12
        y1, y2 = (d22 * b1 - t12 * b2) / det, (d11 * b2 - t12 * b1) / det
        step = (value - a + b1 * y1 + b2 * y2) / (1.0 + y1 * y1 + y2 * y2)
        if not value - step < value:
            break
        value -= step
    c = np.array([1.0, -y1, -y2])
    return c / np.linalg.norm(c)


def _lopcg_smallest(
    matrix: ToeplitzPlusDiagonal,
    apply_prec,
    x: np.ndarray,
    maxiter: int,
    weights: np.ndarray | None = None,
    mean_target: tuple[float, float] | None = None,
    toeplitz_image: np.ndarray | None = None,
) -> EigenPair:
    """Smallest eigenpair by single-vector LOPCG.

    Each step is a Rayleigh-Ritz projection onto span{x, M r, p}, where
    r = A x - (x'Ax) x, M is the preconditioner and p is the previous
    update direction.  M r and p are orthonormalized by Gram-Schmidt applied
    twice (their images by the same combinations), so the 3x3 projection is
    a table of dot products; p is kept orthogonal to the old x, and one that
    is zero or dependent on the other two (norm < 1e-8 left) is dropped;
    ``_ritz_coefficients`` gives the Ritz vector.  It stops at ||r|| <=
    1e-12 ||A|| and ||M r|| <= _VECTOR_TOL: as M ~ A^-1, ||M r|| tracks the
    eigenvector error; ||r|| alone leaves it loose.  That pair passes
    ``_finish``.  Both measures have a rounding floor (||M r|| one near
    eps ||A|| / lambda_min); a solve whose distance to the stop has not
    halved in _STALL_STEPS steps raises instead of running on to maxiter.

    With ``mean_target`` = (target, tolerance), a trial of a root-find on
    the mean m = x'Wx (W the ``weights``) also needs e <= ``tolerance`` to
    stop, e = _MEAN_ERROR_FACTOR ||(W - m) x|| ||M r|| its mean error bound.
    It stops early once the unit iterate misses the target by more than
    ``tolerance`` and by over 100 e, so the side of the target it lies on
    is certain.  That pair has ``converged`` False and skips ``_finish``.
    Given the start's ``toeplitz_image``, no mat-vec begins it.
    """
    tol = 1e-2 * _RESIDUAL_FACTOR * matrix.norm_bound()
    x_norm = np.linalg.norm(x)
    x = x / x_norm
    if toeplitz_image is None:
        ax = matrix.matvec(x)
    else:
        ax = toeplitz_image / x_norm + matrix.diagonal * x
    p = ap = np.zeros_like(x)
    distances: list[float] = []
    for _ in range(maxiter):
        value = float(x @ ax)
        r = ax - value * x
        w = apply_prec(r)
        w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm):  # a NaN in the matrix or the start
            raise EigsolveError(f"preconditioned residual {w_norm} in LOPCG")
        distance = max(np.linalg.norm(r) / tol, w_norm / _VECTOR_TOL)
        if mean_target is not None:
            target, tolerance = mean_target
            x_norm = np.linalg.norm(x)
            unit = x / x_norm
            mean = float(weights @ unit**2)
            miss = abs(mean - target)
            error = _MEAN_ERROR_FACTOR * np.linalg.norm((weights - mean) * unit) * w_norm
            distance = max(distance, error / tolerance)
        distances.append(distance)
        if distance <= 1.0:
            return _finish(matrix, x)
        if mean_target is not None and miss > tolerance and 100.0 * error <= miss:
            residual = float(np.linalg.norm(r))
            return _canonical_pair(matrix, value, unit, ax / x_norm, residual, False)
        if _stalled(distances):
            raise EigsolveError(
                f"LOPCG stalled at residual {np.linalg.norm(r):.3e} and "
                f"preconditioned residual {w_norm:.3e} after {len(distances)} "
                f"iterations (targets {tol:.3e} and {_VECTOR_TOL:.0e})"
            )
        w /= w_norm
        scale = 1.0 / max(np.linalg.norm(p), 1e-300)  # p = 0 is dropped below
        basis, images = [x], [ax]
        for v, av in ((w, matrix.matvec(w)), (scale * p, scale * ap)):
            for _ in range(2):
                for q, aq in zip(basis, images):
                    dot = q @ v
                    v, av = v - dot * q, av - dot * aq
            v_norm = np.linalg.norm(v)
            if v_norm >= 1e-8 or len(basis) == 1:  # keeps M r, drops a dependent p
                basis.append(v / v_norm)
                images.append(av / v_norm)
        projected = np.array([[q @ aq for aq in images] for q in basis])
        c = _ritz_coefficients(0.5 * (projected + projected.T))
        p = sum(ci * q for ci, q in zip(c[1:], basis[1:]))
        ap = sum(ci * aq for ci, aq in zip(c[1:], images[1:]))
        x, ax = c[0] * x + p, c[0] * ax + ap
    raise EigsolveError(
        f"LOPCG did not reach residual {tol:.3e} and preconditioned residual "
        f"{_VECTOR_TOL:.0e} in {maxiter} iterations"
    )


def extremal_eigenpair(
    matrix: Matrix,
    *,
    start_vector: np.ndarray | EigenPair | None = None,
    preconditioner: BandedSymmetric | None = None,
    weights: np.ndarray | None = None,
    mean_target: tuple[float, float] | None = None,
) -> EigenPair:
    """Smallest eigenpair of a real symmetric matrix.

    ``start_vector`` may be an earlier pair; one of a Toeplitz solve with
    the same Toeplitz part spares the first mat-vec (``toeplitz_image``).
    ``weights`` is the W of the diagonal's penalty term p W, which an
    ``even`` matrix (for its f1 start) and a ``mean_target`` require.

    A ``BandedSymmetric`` solve refines ``start_vector`` on the certified
    warm path (``_warm_banded_smallest``).  Without one, or should that
    fail, it runs inverse iteration from the f1 start of its main diagonal
    at the floor (``_f1_start``), factored for the band itself
    (``_factor_below``), with no LU solve.  So a band must lie above its f1
    matrix, as every matrix ``variational`` solves does: one that does not
    factor at the floor, or on which inverse iteration does not converge
    within ``maxiter`` steps there, raises ``EigsolveError``.

    A ``ToeplitzPlusDiagonal`` solve requires ``preconditioner``, a positive
    definite banded matrix spectrally equivalent to ``matrix``: its definite
    factor (``_factor_below``) preconditions LOPCG.  Without
    ``start_vector`` LOPCG starts from the f1 start of the diagonal, the
    ground state of D'D + diag (the kernel replaced by (1, 0, 0, ...)); it
    stops only at a preconditioned residual <= 1e-9, so any start is refined.

    ``mean_target`` = (target, tolerance), for a Toeplitz solve only,
    marks a trial of a root-find on the mean x'Wx: LOPCG may return it
    early, with ``converged`` False, once its mean lies certainly on one
    side of the target and outside ``tolerance`` of it
    (``_lopcg_smallest``).  A pair the root-find can accept, within
    ``tolerance`` of the target, is solved in full, its mean included.

    Every other pair ends with the same check, residual <= 1e-10 ||A||.
    Deterministic for fixed inputs; raises ``EigsolveError`` on
    non-convergence (LOPCG also when its progress stalls).
    """
    if isinstance(matrix, ToeplitzPlusDiagonal) and preconditioner is None:
        raise ValueError("a ToeplitzPlusDiagonal solve requires a preconditioner")
    if isinstance(matrix, BandedSymmetric) and mean_target is not None:
        raise ValueError("a BandedSymmetric solve takes no mean_target")
    if weights is None and (mean_target is not None or matrix.even):
        raise ValueError("a mean_target or an even matrix requires weights")
    maxiter = max(200, int(50.0 * np.sqrt(matrix.dimension)))
    toeplitz = isinstance(matrix, ToeplitzPlusDiagonal)
    toeplitz_image = None
    if isinstance(start_vector, EigenPair):
        start_vector, toeplitz_image = start_vector.vector, start_vector.toeplitz_image
    if start_vector is not None:
        start_vector = np.asarray(start_vector, dtype=float)
    diagonal = matrix.diagonal if toeplitz else matrix.diagonals[0]
    even_weights = weights if matrix.even else None
    if toeplitz:
        if start_vector is None:
            start_vector = _f1_start(diagonal, even_weights)[0]
        prec = _factor_below(preconditioner, 0.0)
        if prec is None:
            raise EigsolveError("the preconditioner is not positive definite")
        return _lopcg_smallest(
            matrix, prec, start_vector, maxiter, weights, mean_target, toeplitz_image
        )

    vec = None
    if start_vector is not None:
        vec = _warm_banded_smallest(matrix, start_vector, maxiter)
    if vec is None:
        start_vector, floor = _f1_start(diagonal, even_weights)
        solve = _factor_below(matrix, floor)
        if solve is None:
            raise EigsolveError(f"the band does not factor at its f1 floor {floor:.6e}")
        vec = _inverse_iteration(solve, start_vector, maxiter)
        if vec is None:
            raise EigsolveError(f"inverse iteration at the f1 floor {floor:.6e} did not converge")
    return _finish(matrix, vec)
