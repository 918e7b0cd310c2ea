"""Smallest eigenpair of a real symmetric matrix, one path per structure.

Every cost of the variational problem is posed as the smallest eigenpair of
Z(f) + p diag(W), so that pair is the only one solved for.

* ``BandedSymmetric`` -- main diagonal plus superdiagonals.  A start vector
  is refined on a certified warm path of O(d) banded work (Rayleigh-quotient
  iteration, a Cholesky certificate of a shift below lambda_min, inverse
  iteration).  A cold solve starts from the Sturm-bisection eigenvector of
  the tridiagonal part, the answer for bandwidth <= 1 and the warm path's
  start for a wider band.
* ``ToeplitzPlusDiagonal`` -- symmetric Toeplitz part in difference form
  D' Z(g) D, applied via FFT circulant embedding, plus an arbitrary
  diagonal, solved by locally optimal preconditioned conjugate gradients
  (LOPCG, Knyazev 2001) with the banded Cholesky factor of a spectrally
  equivalent surrogate supplied by the caller.  A cold solve starts from
  the Sturm vector of D'D + diag, tridiag(-1, 2 + d_k, -1).  A step costs
  one FFT mat-vec, one banded solve and O(d) vector work, so the dense
  quadratic-cost problems reach dimension 1e6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal, solve_banded

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
# Warm banded path (see _warm_banded_smallest)
_RQI_TOL = 1e-4  # Rayleigh-quotient iteration stops at ||r|| <= tol * |rho|
_RQI_STEPS = 10
_SHIFT_MARGIN = 1e-3  # certified shift sigma = rho - margin * |rho| - 2 ||r||
_MOVE_TOL = 1e-12  # inverse iteration stops once the unit vector moves this little
_BISECT_TOL = 1e-10  # bisected shift: final bracket width relative to ||A||


class EigsolveError(RuntimeError):
    """Solver failed to converge or detected an unsupported matrix."""


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix stored as [main, first super, ...]."""

    diagonals: list[np.ndarray]

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

    def to_upper_banded(self) -> np.ndarray:
        """LAPACK upper-banded storage (row u-k holds superdiagonal k)."""
        n, u = self.dimension, self.bandwidth
        ab = np.zeros((u + 1, n))
        ab[u] = self.diagonals[0]
        for k in range(1, u + 1):
            ab[u - k, k:] = self.diagonals[k]
        return ab


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
    """

    kernel: np.ndarray
    diagonal: np.ndarray
    _fft_kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _fft_size: int = field(init=False, repr=False, compare=False)
    _toeplitz_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.kernel, dtype=float)
        diag = np.asarray(self.diagonal, dtype=float)
        if g.ndim != 1 or diag.ndim != 1 or g.size != diag.size + 1:
            raise ValueError("kernel must be one longer than the diagonal")
        if diag.size < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "kernel", g)
        object.__setattr__(self, "diagonal", diag)
        n = g.size
        size = next_fast_len(2 * n)
        embedded = np.zeros(size)
        embedded[:n] = g
        embedded[size - n + 1 :] = g[1:][::-1]
        # D' Z(g) D has entries t_m = 2 g_m - g_{m-1} - g_{m+1} (g_{-1} = g_1)
        column = 2.0 * g[:-1] - g[1:] - np.concatenate((g[1:2], g[:-2]))
        norm = abs(column[0]) + 2.0 * np.abs(column[1:]).sum()
        object.__setattr__(self, "_fft_size", size)
        object.__setattr__(self, "_fft_kernel", rfft(embedded))
        object.__setattr__(self, "_toeplitz_norm", float(norm))

    def with_diagonal(self, diagonal: np.ndarray) -> "ToeplitzPlusDiagonal":
        """The same Toeplitz part plus another diagonal, sharing the kernel
        and its FFT instead of transforming them again."""
        diag = np.asarray(diagonal, dtype=float)
        if diag.shape != self.diagonal.shape:
            raise ValueError("kernel must be one longer than the diagonal")
        other = object.__new__(ToeplitzPlusDiagonal)
        object.__setattr__(other, "diagonal", diag)
        for name in ("kernel", "_fft_size", "_fft_kernel", "_toeplitz_norm"):
            object.__setattr__(other, name, getattr(self, name))
        return other

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.dimension
        u = np.zeros(self._fft_size)
        u[0], u[n] = x[0], -x[-1]
        np.subtract(x[1:], x[:-1], out=u[1:n])
        y = irfft(rfft(u) * self._fft_kernel, self._fft_size)
        out = y[:n] - y[1 : n + 1]
        out += self.diagonal * x
        return out

    def norm_bound(self) -> float:
        """The infinity norm of the Toeplitz part plus that of the diagonal."""
        return self._toeplitz_norm + float(np.abs(self.diagonal).max(initial=0.0))


@dataclass(frozen=True)
class EigenPair:
    """Extremal eigenvalue with unit eigenvector and residual norm."""

    value: float
    vector: np.ndarray
    residual: float


Matrix = BandedSymmetric | ToeplitzPlusDiagonal


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Make the largest component (the first within rel 1e-8 of it) positive."""
    top = np.argmax(np.abs(v) >= (1.0 - 1e-8) * np.abs(v).max())
    return -v if v[top] < 0.0 else v


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
    return EigenPair(value=value, vector=_canonical_sign(vector), residual=residual)


def _banded_cholesky_apply(banded: BandedSymmetric):
    factor = cholesky_banded(banded.to_upper_banded(), lower=False)
    return lambda b: cho_solve_banded((factor, False), b)


def _tridiagonal_smallest(banded: BandedSymmetric) -> np.ndarray:
    main = banded.diagonals[0]
    off = banded.diagonals[1] if banded.bandwidth else np.zeros(main.size - 1)
    _, vecs = eigh_tridiagonal(main, off, select="i", select_range=(0, 0))
    return vecs[:, 0]


def _inverse_iteration(
    factor: np.ndarray, x: np.ndarray, maxiter: int
) -> np.ndarray | None:
    """Inverse iteration with the banded Cholesky factor of A - sigma I,
    sigma < lambda_min: the smallest eigenvector once the unit vector moves
    <= _MOVE_TOL, None if that movement stalls.  Stopping on ||r|| alone
    would not do: at d ~ 1e5 the gap is ~4e-8, so ||r|| = 1e-12 ||A|| still
    leaves a vector error ~ ||r|| / gap ~ 1e-4.
    """
    moves: list[float] = []
    for _ in range(maxiter):
        y = cho_solve_banded((factor, False), x, check_finite=False)
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

    Rayleigh-quotient iteration (banded LU solves of (A - rho I) y = x)
    runs until ||r|| <= _RQI_TOL |rho|.  The banded Cholesky factor of
    A - sigma I, sigma = rho - _SHIFT_MARGIN |rho| - 2 ||r||, exists only if
    sigma < lambda_min, so ``_inverse_iteration`` with it reaches the
    smallest eigenvector whatever eigenvector RQI approached.
    """
    u = banded.bandwidth
    upper = banded.to_upper_banded()
    general = np.vstack((upper, np.zeros((u, banded.dimension))))  # LU storage
    for k in range(1, u + 1):
        general[u + k, :-k] = banded.diagonals[k]
    x = x / np.linalg.norm(x)
    for _ in range(_RQI_STEPS):
        ax = banded.matvec(x)
        rho = float(x @ ax)
        r_norm = float(np.linalg.norm(ax - rho * x))
        if r_norm <= _RQI_TOL * abs(rho):
            break
        general[u] = upper[u] - rho
        try:
            y = solve_banded((u, u), general, x, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        y_norm = np.linalg.norm(y)
        if not np.isfinite(y_norm) or y_norm == 0.0:
            return None
        x = y / y_norm
    else:
        return None
    sigma = rho - _SHIFT_MARGIN * abs(rho) - 2.0 * r_norm
    upper[u] -= sigma
    try:
        factor = cholesky_banded(upper, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return _inverse_iteration(factor, x, maxiter)


def _bisected_smallest(
    banded: BandedSymmetric, x: np.ndarray, maxiter: int
) -> np.ndarray:
    """Smallest eigenvector of any band, from a unit x the warm path rejected.

    A - sigma I has a Cholesky factor iff sigma < lambda_min (Sylvester), so
    sigma is bisected on that test from [-2 ||A||, x'Ax] to a width of
    _BISECT_TOL ||A||, and inverse iteration runs at the largest shift that
    factored.
    """
    u = banded.bandwidth
    upper = banded.to_upper_banded()
    main = upper[u].copy()

    def factor_at(sigma: float) -> np.ndarray:
        upper[u] = main - sigma
        return cholesky_banded(upper, lower=False, check_finite=False)

    scale = max(banded.norm_bound(), 1e-300)
    lo, hi = -2.0 * scale, float(x @ banded.matvec(x))
    factor = factor_at(lo)  # A - lo I >= ||A|| I
    while hi - lo > _BISECT_TOL * scale:
        sigma = 0.5 * (lo + hi)
        try:
            factor, lo = factor_at(sigma), sigma
        except np.linalg.LinAlgError:
            hi = sigma
    vec = _inverse_iteration(factor, x, maxiter)
    if vec is None:
        raise EigsolveError(f"inverse iteration at the bisected shift {lo:.6e} stalled")
    return vec


def _lopcg_smallest(
    matrix: ToeplitzPlusDiagonal,
    apply_prec,
    x: np.ndarray,
    maxiter: int,
) -> np.ndarray:
    """Smallest eigenvector by single-vector LOPCG.

    Each step is a Rayleigh-Ritz projection onto span{x, M r, p}, where
    r = A x - (x'Ax) x, M is the preconditioner and p is the previous
    update direction.  M r and p are orthonormalized by Gram-Schmidt applied
    twice (their images by the same combinations), so the 3x3 projection is
    a table of dot products; p is kept orthogonal to the old x, and one that
    is zero or dependent on the other two (norm < 1e-8 left) is dropped.
    It stops at ||r|| <= 1e-12 ||A|| and ||M r|| <= _VECTOR_TOL: as M ~ A^-1,
    ||M r|| tracks the eigenvector error; ||r|| alone leaves it loose.
    Both measures have a rounding floor (||M r|| one near eps ||A|| /
    lambda_min); a solve whose distance to the stop has not halved in
    _STALL_STEPS steps raises instead of running on to ``maxiter``.
    """
    tol = 1e-2 * _RESIDUAL_FACTOR * matrix.norm_bound()
    x = x / np.linalg.norm(x)
    ax = matrix.matvec(x)
    p = ap = np.zeros_like(x)
    distances: list[float] = []
    for _ in range(maxiter):
        value = float(x @ ax)
        r = ax - value * x
        w = apply_prec(r)
        w_norm = np.linalg.norm(w)
        distances.append(max(np.linalg.norm(r) / tol, w_norm / _VECTOR_TOL))
        if distances[-1] <= 1.0:
            return x
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
        _, coeffs = np.linalg.eigh(0.5 * (projected + projected.T))
        c = coeffs[:, 0]
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
    start_vector: np.ndarray | None = None,
    preconditioner: BandedSymmetric | None = None,
) -> EigenPair:
    """Smallest eigenpair of a real symmetric matrix.

    A ``BandedSymmetric`` solve refines ``start_vector`` on the certified
    warm path (``_warm_banded_smallest``).  Without a start, or if that
    fails, it starts from the Sturm-bisection eigenvector of the tridiagonal
    part: the answer for bandwidth <= 1, refined on the warm path for a
    wider band, and should that fail too, by inverse iteration at a shift
    bisected on the Cholesky test (``_bisected_smallest``).  Any band is
    solved, definite or not.

    A ``ToeplitzPlusDiagonal`` solve requires ``preconditioner``, a positive
    definite banded matrix spectrally equivalent to ``matrix``: its banded
    Cholesky solve preconditions LOPCG.  Without ``start_vector`` LOPCG
    starts from the Sturm-bisection eigenvector of D'D + diag, the matrix
    with its kernel replaced by (1, 0, 0, ...): tridiag(-1, 2 + d_k, -1),
    the f1 matrix Z(2 - 2 cos t) + diag when the diagonal is a penalty
    term.  LOPCG stops only once the preconditioned residual is <= 1e-9, so
    a warm start is refined.

    Every path ends with the same check, residual <= 1e-10 ||A||.
    Deterministic for fixed inputs; raises ``EigsolveError`` on
    non-convergence (LOPCG also when its progress stalls).
    """
    if isinstance(matrix, ToeplitzPlusDiagonal) and preconditioner is None:
        raise ValueError("a ToeplitzPlusDiagonal solve requires a preconditioner")
    n = matrix.dimension
    if n == 1:
        value = float(matrix.matvec(np.ones(1))[0])
        return EigenPair(value=value, vector=np.ones(1), residual=0.0)

    maxiter = max(200, int(50.0 * np.sqrt(n)))
    if start_vector is not None:
        start_vector = np.asarray(start_vector, dtype=float)
    if isinstance(matrix, ToeplitzPlusDiagonal):
        prec = _banded_cholesky_apply(preconditioner)
        if start_vector is None:  # the Sturm vector of D'D + diag
            difference = [2.0 + matrix.diagonal, np.full(n - 1, -1.0)]
            start_vector = _tridiagonal_smallest(BandedSymmetric(difference))
        return _finish(matrix, _lopcg_smallest(matrix, prec, start_vector, maxiter))

    if start_vector is not None:
        vec = _warm_banded_smallest(matrix, start_vector, maxiter)
        if vec is not None:
            return _finish(matrix, vec)
    sturm = _tridiagonal_smallest(BandedSymmetric(matrix.diagonals[:2]))
    if matrix.bandwidth <= 1:
        return _finish(matrix, sturm)
    vec = _warm_banded_smallest(matrix, sturm, maxiter)
    if vec is None:
        vec = _bisected_smallest(matrix, sturm, maxiter)
    return _finish(matrix, vec)
