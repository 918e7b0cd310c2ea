"""Smallest eigenpair of a real symmetric matrix, one path per structure.

Every cost of the variational problem is posed as the smallest eigenpair of
Z(f) + p diag(W), so that pair is the only one solved for.

* ``BandedSymmetric`` -- main diagonal plus superdiagonals.  A start vector
  is refined on a certified warm path of O(d) banded work (Rayleigh-quotient
  iteration, a Cholesky certificate of a shift below lambda_min, inverse
  iteration).  The cold path is Sturm bisection for bandwidth <= 1 and
  Lanczos on the banded Cholesky inverse (shift-invert) for a wider band.
* ``ToeplitzPlusDiagonal`` -- symmetric Toeplitz part applied via FFT
  circulant embedding plus an arbitrary diagonal, solved by locally optimal
  preconditioned conjugate gradients (LOPCG, Knyazev 2001) with the banded
  Cholesky factor of a spectrally equivalent surrogate supplied by the
  caller.  A step costs one FFT mat-vec, one banded solve and O(d) vector
  work, so the dense quadratic-cost problems reach dimension 1e6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft
from scipy.linalg import (
    cho_solve_banded,
    cholesky_banded,
    eigh_tridiagonal,
    solve_banded,
)
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

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
    """Symmetric Toeplitz matrix (first column given) plus a diagonal.

    The Toeplitz part is applied through an FFT circulant embedding, so a
    mat-vec costs O(d log d) regardless of how dense the symbol is.
    """

    first_column: np.ndarray
    diagonal: np.ndarray
    _fft_kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _fft_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        col = np.asarray(self.first_column, dtype=float)
        diag = np.asarray(self.diagonal, dtype=float)
        if col.ndim != 1 or diag.ndim != 1 or col.size != diag.size:
            raise ValueError("first_column and diagonal must match in length")
        if col.size < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "first_column", col)
        object.__setattr__(self, "diagonal", diag)
        n = col.size
        size = next_fast_len(2 * n)
        kernel = np.zeros(size)
        kernel[:n] = col
        if n > 1:
            kernel[size - n + 1 :] = col[1:][::-1]
        object.__setattr__(self, "_fft_size", size)
        object.__setattr__(self, "_fft_kernel", rfft(kernel))

    def with_diagonal(self, diagonal: np.ndarray) -> "ToeplitzPlusDiagonal":
        """The same Toeplitz part plus another diagonal, sharing the first
        column and the FFT kernel instead of transforming them again."""
        diag = np.asarray(diagonal, dtype=float)
        if diag.shape != self.diagonal.shape:
            raise ValueError("first_column and diagonal must match in length")
        other = object.__new__(ToeplitzPlusDiagonal)
        object.__setattr__(other, "first_column", self.first_column)
        object.__setattr__(other, "diagonal", diag)
        object.__setattr__(other, "_fft_size", self._fft_size)
        object.__setattr__(other, "_fft_kernel", self._fft_kernel)
        return other

    @property
    def dimension(self) -> int:
        return self.first_column.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.dimension
        y = irfft(rfft(x, self._fft_size) * self._fft_kernel, self._fft_size)[:n]
        return y + self.diagonal * x

    def norm_bound(self) -> float:
        col = np.abs(self.first_column)
        return float(col[0] + 2.0 * col[1:].sum() + np.abs(self.diagonal).max(initial=0.0))


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


def _default_start(n: int) -> np.ndarray:
    """Deterministic geometric profile concentrated at low indices."""
    v = 0.99 ** np.arange(n, dtype=float)
    return v / np.linalg.norm(v)


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
    if banded.bandwidth > 1:
        raise ValueError(f"bandwidth {banded.bandwidth} is not tridiagonal")
    main = banded.diagonals[0]
    off = banded.diagonals[1] if banded.bandwidth else np.zeros(main.size - 1)
    _, vecs = eigh_tridiagonal(main, off, select="i", select_range=(0, 0))
    return vecs[:, 0]


def _shift_invert_smallest(
    banded: BandedSymmetric, v0: np.ndarray, maxiter: int
) -> np.ndarray:
    """Smallest eigenvector of a positive definite band by ARPACK on A^-1.

    A^-1 is positive definite, so its largest-magnitude eigenvalue (ARPACK's
    default target) is 1 / lambda_min.  ncv is small: ARPACK fills the whole
    basis before its first convergence test, so a warm start still pays ncv
    applies.  A run that does not converge is retried once from a perturbed
    deterministic start vector.
    """
    n = banded.dimension
    try:
        apply_inverse = _banded_cholesky_apply(banded)
    except np.linalg.LinAlgError:
        raise EigsolveError(
            f"banded matrix (d = {n}) is not positive definite: Cholesky failed"
        ) from None
    op = LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    options = dict(k=1, ncv=min(n, 6), tol=1e-13)
    try:
        _, vecs = eigsh(op, v0=v0, maxiter=maxiter, **options)
    except ArpackNoConvergence:
        bump = np.cos(1.0 + np.arange(n, dtype=float))
        v1 = v0 + 0.1 * np.linalg.norm(v0) * bump / np.linalg.norm(bump)
        try:
            _, vecs = eigsh(op, v0=v1, maxiter=2 * maxiter, **options)
        except ArpackNoConvergence as exc:
            raise EigsolveError(f"shift-invert Lanczos: {exc}") from None
    return vecs[:, 0]


def _warm_banded_smallest(
    banded: BandedSymmetric, x: np.ndarray, maxiter: int
) -> np.ndarray | None:
    """Smallest eigenvector from a nearby start, or None when not certified.

    Rayleigh-quotient iteration (banded LU solves of (A - rho I) y = x)
    runs until ||r|| <= _RQI_TOL |rho|.  The banded Cholesky factor of
    A - sigma I, sigma = rho - _SHIFT_MARGIN |rho| - 2 ||r||, exists only if
    sigma < lambda_min, so inverse iteration with it converges to the
    smallest eigenvector whatever eigenvector RQI approached; it runs until
    the unit vector moves <= _MOVE_TOL, or gives up once that movement has
    stalled.  Stopping on ||r|| alone would not do: at d ~ 1e5 the gap is
    ~4e-8, so ||r|| = 1e-12 ||A|| still leaves a vector error ~ ||r|| / gap
    ~ 1e-4.
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

    A ``BandedSymmetric`` solve with ``start_vector`` runs Rayleigh-quotient
    iteration from it, certifies a shift sigma < lambda_min by a banded
    Cholesky factorization of A - sigma I, and refines the vector by inverse
    iteration with that factor until it moves <= 1e-12 (see
    ``_warm_banded_smallest``).  If that fails, or without a start vector,
    the cold path runs: Sturm bisection for bandwidth <= 1, otherwise
    shift-invert Lanczos from the start vector (a fixed profile without
    one).  A fallback is not an error; a band wider than 1 that is not
    positive definite is (``EigsolveError``).

    A ``ToeplitzPlusDiagonal`` solve requires ``preconditioner``, a positive
    definite banded matrix spectrally equivalent to ``matrix``: its banded
    Cholesky solve preconditions LOPCG, and its smallest eigenvector (cold
    banded path) is the start without ``start_vector``.  LOPCG stops only
    once the preconditioned residual is <= 1e-9, so a warm start is refined.

    Every path ends with the same check, residual <= 1e-10 ||A||.
    Deterministic for fixed inputs; raises ``EigsolveError`` on
    non-convergence (shift-invert after one restart from a perturbed start
    vector, LOPCG also when its progress stalls).
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
        if start_vector is None:
            start_vector = extremal_eigenpair(preconditioner).vector
        return _finish(matrix, _lopcg_smallest(matrix, prec, start_vector, maxiter))

    if start_vector is not None:
        vec = _warm_banded_smallest(matrix, start_vector, maxiter)
        if vec is not None:
            return _finish(matrix, vec)
    if matrix.bandwidth <= 1:
        return _finish(matrix, _tridiagonal_smallest(matrix))
    if start_vector is None:
        start_vector = _default_start(n)
    return _finish(matrix, _shift_invert_smallest(matrix, start_vector, maxiter))
