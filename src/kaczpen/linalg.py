"""Dense linear algebra kernels used by the row-action solvers.

Vectors are 1-d float64 numpy arrays.  Matrices are wrapped in
:class:`DenseMatrix`, which freezes the entries, caches the squared row
norms that the samplers and step rules consume, names the first row they
cannot use, and keeps, from first use, the one SVD x* and lambda_min use.
"""

from __future__ import annotations

import functools

import numpy as np


class ConvergenceError(Exception):
    """A routine stopped without a result that passes its tolerance or
    certificate (a sweep cap reached, or a projection left uncertified)."""


class InconsistentSystemError(Exception):
    """The equality system has no solution at the working tolerance."""


class NumericFailureError(Exception):
    """An iterate left the finite range; carries the iteration index."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"non-finite iterate at iteration {iteration}")


class NoEstimateError(Exception):
    """No sampled point contributed to the constant estimate."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce x to a finite 1-d float64 array, optionally of length n."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


class DenseMatrix:
    """Immutable dense matrix with cached row geometry.

    Attributes
    ----------
    data : (m, n) read-only float64 array
    row_norms_sq : (m,) array, row_norms_sq[i] = sum_j data[i, j]**2
    frobenius_sq : float, sum of row_norms_sq (inf when it overflows)
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        m, n = a.shape
        if m < 1 or n < 1:
            raise ValueError("matrix must have at least one row and column")
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        a.flags.writeable = False
        self.data = a
        self.rows = m
        self.cols = n
        # a sum beyond the float64 range is inf, which unusable_row names
        with np.errstate(over="ignore"):
            rn = (a * a).sum(axis=1)
            self.frobenius_sq = float(rn.sum())
        rn.flags.writeable = False
        self.row_norms_sq = rn

    def row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.rows:
            raise ValueError(f"row index {i} out of range for {self.rows} rows")
        return self.data[i]

    def unusable_row(self) -> tuple[int, str] | None:
        """(i, reason) for the first row that the sampling weights
        ||a_i||^2 / ||A||_F^2 and the step denominators cannot use: a zero
        row, one whose squares underflow to 0 or whose squared norm
        overflows, else the row where the running sum of squared norms
        leaves float64 (the last row when only the pairwise total does)."""
        rn = self.row_norms_sq
        if self.frobenius_sq < np.inf and rn.min() > 0.0:  # a finite sum has no inf term
            return None
        bad = np.flatnonzero((rn == 0.0) | (rn == np.inf))
        if bad.size:
            i = int(bad[0])
            if rn[i] == np.inf:
                return i, "squared row norm overflows"
            zero = not self.data[i].any()
            return i, "row is identically zero" if zero else "squared row norm underflows to 0"
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.cumsum(rn) == np.inf)
        i = int(over[0]) if over.size else self.rows - 1
        return i, "the sum of squared row norms is beyond the float64 range (max 1.8e308)"

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The thin SVD A = U diag(s) V^T, as read-only (u, s, vt, keep):
        keep marks the singular values that count as nonzero, those whose
        squares (the eigenvalues of A A^T) exceed 1e-10 * ||A A^T||_F."""
        u, s, vt = np.linalg.svd(self.data, full_matrices=False)
        with np.errstate(over="ignore", invalid="ignore"):
            s_sq = s * s
            # ||A A^T||_F is the 2-norm of the eigenvalues s_i^2 of A A^T
            gram_norm = float(np.sqrt(s_sq @ s_sq))
            if gram_norm == np.inf:
                # it overflows float64: compare the squares scaled by the largest
                s_sq = (s / s[0]) ** 2
                gram_norm = float(np.sqrt(s_sq @ s_sq))
            keep = s_sq > 1e-10 * gram_norm
        for v in (u, s, vt, keep):
            v.flags.writeable = False
        return u, s, vt, keep

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u[t] . v[t] (v may be one vector for all rows); the stacked
    matmul takes the same dot as the scalar float(u[t] @ v[t])."""
    if v.ndim == 1:
        v = np.broadcast_to(v, u.shape)
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def lambda_min_variants(a: DenseMatrix) -> tuple[float, float]:
    """The rate constant of A, plain and restricted to positives, from
    a.svd: (lambda_min, lambda_min_pos), where lambda_min is the smallest of
    the min(m, n) squared singular values, the eigenvalues of A^T A on
    row(A) (0 when a.svd drops it as zero), and lambda_min_pos is the
    smallest kept one (0 if there is none)."""
    _, s, _, keep = a.svd
    lam_pos = float(s[keep][-1] ** 2) if keep.any() else 0.0
    return (lam_pos if keep[-1] else 0.0), lam_pos


def least_norm_solution(a: DenseMatrix, b, x0) -> np.ndarray:
    """Solution of Ax = b closest to x0.

    Computes x0 - A^+ (A x0 - b) from the thin SVD a.svd, whose dropped
    singular values count as zero.  Raises InconsistentSystemError
    when the residual check ||A x - b||_inf <= 1e-8 * (1 + ||b||_inf) fails,
    which it also does when A x0, x or A x overflows the float64 range.
    """
    b = as_vector(b, a.rows)
    x0 = as_vector(x0, a.cols)
    u, s, vt, keep = a.svd
    with np.errstate(over="ignore", invalid="ignore"):
        r0 = a.data @ x0 - b
        x = x0 - vt[keep].T @ ((u[:, keep].T @ r0) / s[keep])
        resid = float(np.abs(a.data @ x - b).max())
    # written so that a nan residual (an overflow on the way) fails it too
    if not resid <= 1e-8 * (1.0 + float(np.abs(b).max())):
        cause = (
            f"system residual {resid:.3e} exceeds tolerance"
            if np.isfinite(resid)
            else f"the solve overflows the float64 range (max {np.finfo(np.float64).max:.3e})"
        )
        raise InconsistentSystemError(f"{cause}; no solution found")
    return x
