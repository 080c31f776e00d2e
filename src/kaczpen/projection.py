"""Euclidean projection onto a polyhedron {y : Ay <= b} by dual
coordinate ascent (Hildreth's method).

The primal iterate y = x - A^T lam is kept incrementally while the dual
variables are swept cyclically.  Each row update is the one-dimensional
ascent step clipped at zero:

    lam_i <- max(0, lam_i + (a_i . y - b_i) / ||a_i||^2)
"""

from __future__ import annotations

import numpy as np

from .linalg import ConvergenceError, DenseMatrix, as_vector

_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_SWEEPS = 100_000
_FEAS_REL_TOL = 1e-8
_COMP_SLACK_TOL = 1e-8


def _hildreth(x, a: DenseMatrix, b, tol: float, max_sweeps: int):
    """Returns (y, lam, sweeps).  Stops when the largest single-update
    primal movement in a sweep drops to tol."""
    y = x.copy()
    # The sweep is scalar code, so it runs on Python floats and a list of
    # row views: numpy scalars cost several times more per operation and
    # give the same IEEE results.
    lam = [0.0] * a.rows
    rows = list(a.data)
    bounds = b.tolist()
    norms_sq = a.row_norms_sq.tolist()
    norms = np.sqrt(a.row_norms_sq).tolist()
    for sweep in range(1, max_sweeps + 1):
        moved = 0.0
        for i, row in enumerate(rows):
            r = float(row @ y) - bounds[i]
            lam_i = lam[i]
            new_lam = lam_i + r / norms_sq[i]
            if new_lam < 0.0:
                new_lam = 0.0
            d = new_lam - lam_i
            if d != 0.0:
                y -= d * row
                lam[i] = new_lam
                step = abs(d) * norms[i]
                if step > moved:
                    moved = step
        if moved <= tol:
            return y, np.array(lam), sweep
    raise ConvergenceError(
        f"projection sweeps exhausted with residual movement {moved:.3e}"
    )


def project_polyhedron(
    x,
    a: DenseMatrix,
    b,
    tol: float = _DEFAULT_TOL,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Project x onto {y : Ay <= b} (assumed nonempty).

    The returned point is checked for feasibility at 1e-8 * (1 + ||b||_inf)
    and for the dual optimality certificate (nonnegative multipliers with
    small complementary slackness); violation raises ConvergenceError.
    """
    x = as_vector(x, a.cols)
    b = as_vector(b, a.rows)
    if np.any(a.row_norms_sq == 0.0):
        raise ValueError("polyhedron rows must be nonzero")
    y, lam, _ = _hildreth(x, a, b, tol, max_sweeps)
    slack = a.data @ y - b
    b_scale = 1.0 + float(np.abs(b).max())
    feas_gap = max(float(slack.max()), 0.0)
    if feas_gap > _FEAS_REL_TOL * b_scale:
        raise ConvergenceError(
            f"projection result infeasible by {feas_gap:.3e}"
        )
    comp = float(np.abs(lam * slack).max())
    lam_scale = max(1.0, float(lam.max()) if lam.size else 1.0)
    if comp > _COMP_SLACK_TOL * lam_scale * b_scale:
        raise ConvergenceError(
            f"complementary slackness violated by {comp:.3e}"
        )
    return y


def distance_to_feasible(x, problem) -> float:
    """Euclidean distance from x to the feasible set of an inequality
    problem."""
    from .problems import ProblemKind

    if problem.kind is not ProblemKind.LF:
        raise ValueError("distance_to_feasible needs a feasibility problem")
    x = as_vector(x, problem.n)
    y = project_polyhedron(x, problem.a, problem.b)
    return float(np.sqrt(((x - y) ** 2).sum()))
