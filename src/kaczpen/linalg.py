"""Dense linear algebra kernels used by the row-action solvers.

Vectors are 1-d float64 numpy arrays.  Matrices are wrapped in
:class:`DenseMatrix`, which freezes the entries and caches the squared
row norms that the samplers and step rules consume on every iteration.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(Exception):
    """A routine stopped without a result that passes its tolerance or
    certificate (a sweep cap reached, or a projection left uncertified)."""


class InconsistentSystemError(Exception):
    """The equality system has no solution at the working tolerance."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce x to a finite 1-d float64 array, optionally of length n."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


class DenseMatrix:
    """Immutable dense matrix with cached row geometry.

    Attributes
    ----------
    data : (m, n) read-only float64 array
    row_norms_sq : (m,) array, row_norms_sq[i] = sum_j data[i, j]**2
    frobenius_sq : float, sum of row_norms_sq
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        m, n = a.shape
        if m < 1 or n < 1:
            raise ValueError("matrix must have at least one row and column")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        a.flags.writeable = False
        self.data = a
        self.rows = m
        self.cols = n
        rn = (a * a).sum(axis=1)
        rn.flags.writeable = False
        self.row_norms_sq = rn
        self.frobenius_sq = float(rn.sum())

    def row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.rows:
            raise ValueError(f"row index {i} out of range for {self.rows} rows")
        return self.data[i]

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def gram_matrix(a: DenseMatrix) -> DenseMatrix:
    """A^T A with symmetry exact by construction (upper triangle mirrored)."""
    g = a.data.T @ a.data
    u = np.triu(g)
    return DenseMatrix(u + np.triu(g, 1).T)


# an eigenvalue of a Gram matrix (A^T A or A A^T) at or below this multiple
# of the matrix's Frobenius norm counts as zero
_PINV_REL_TOL = 1e-10


def lambda_min_variants(a: DenseMatrix) -> tuple[float, float]:
    """Smallest eigenvalue of A^T A, plain and restricted to positives.

    Returns (lambda_min, lambda_min_pos) where lambda_min is clamped to 0
    when it sits within 1e-10 * ||A^T A||_F of 0, and lambda_min_pos is
    the smallest eigenvalue above that threshold (0 if there is none).
    """
    g = gram_matrix(a)
    w = np.linalg.eigvalsh(g.data)
    thresh = _PINV_REL_TOL * float(np.sqrt(g.frobenius_sq))
    lam_min = float(w[0])
    if abs(lam_min) <= thresh:
        lam_min = 0.0
    above = w[w > thresh]
    lam_pos = float(above[0]) if above.size else 0.0
    return lam_min, lam_pos


def least_norm_solution(a: DenseMatrix, b, x0) -> np.ndarray:
    """Solution of Ax = b closest to x0.

    Computes x0 - A^+ (A x0 - b) from a thin SVD A = U S V^T.  Singular
    values whose squares (the eigenvalues of A A^T) fall at or below
    1e-10 * ||A A^T||_F are treated as zero.  Raises InconsistentSystemError
    when the residual check ||A x - b||_inf <= 1e-8 * (1 + ||b||_inf) fails,
    which it also does when A x0, x or A x overflows the float64 range.
    """
    b = as_vector(b, a.rows)
    x0 = as_vector(x0, a.cols)
    u, s, vt = np.linalg.svd(a.data, full_matrices=False)
    s_sq = s * s
    # ||A A^T||_F is the 2-norm of the eigenvalues s_i^2 of A A^T
    keep = s_sq > _PINV_REL_TOL * float(np.sqrt(s_sq @ s_sq))
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
