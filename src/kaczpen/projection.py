"""Euclidean projection onto a polyhedron {y : Ay <= b}.

Projecting x is a least-distance problem: y = x + u with the shortest u
such that A u <= -h, h = Ax - b.  Lawson & Hanson (Solving Least Squares
Problems, 1974, ch. 23) solve it exactly, in finitely many steps, with
one nonnegative least-squares problem

    min_{w >= 0} ||E w - e_{n+1}||,   E = [A^T; h^T / t]

(the sign of the first block does not change the norm).  At the
solution -r_{n+1} = ||r||^2 = 1 / (1 + d^2 / t^2), r = E w - e_{n+1} and d
the distance from x to the polyhedron.  The scale t = max_i h_i / ||a_i||
is a lower bound on d, so d / t is at least one and usually close to it,
and r_{n+1} stays away from zero however far x is.  The projection is
y = x - A^T lam with multipliers lam = t w / -r_{n+1}.  The NNLS runs the
Lawson-Hanson active-set method, started with the rows violated at x as
its passive set; each passive-set solve is one small Gram system
(`np.linalg.solve`), with `np.linalg.lstsq` for rank-deficient sets.
The Gram system squares the condition number of the passive columns,
which near a degenerate vertex (more tight rows than columns) can cost
the result its certificate; the method then reruns with QR solves.

Hildreth's dual coordinate ascent is kept as the reference and as the
fallback, taken only when neither exact run yields a result that passes
the certificate below (or both reach their step limit).  It sweeps the dual
variables cyclically while keeping y = x - A^T lam, each row update
being the one-dimensional ascent step clipped at zero:

    lam_i <- max(0, lam_i + (a_i . y - b_i) / ||a_i||^2)

Whichever path produced it, a result is returned only after it passes
the feasibility and complementary-slackness certificate.
"""

from __future__ import annotations

import numpy as np

from .linalg import ConvergenceError, DenseMatrix, as_vector

_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_SWEEPS = 100_000
_FEAS_REL_TOL = 1e-8
_COMP_SLACK_TOL = 1e-8
# a slack below this multiple of |b_i| + ||a_i|| ||y|| is rounding noise
_NOISE = 1e3 * np.finfo(np.float64).eps


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


def _passive_solve(c, f, use_qr: bool):
    """The w minimizing ||c^T w - f|| for the passive rows c of E^T.  The
    Gram system squares the condition number of c and QR does not; lstsq
    takes the rank-deficient sets."""
    try:
        if not use_qr:
            return np.linalg.solve(c @ c.T, c[:, -1])
        if c.shape[0] <= c.shape[1]:
            q, r = np.linalg.qr(c.T)
            return np.linalg.solve(r, q[-1])
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(c.T, f, rcond=None)[0]


def _least_distance(x, a: DenseMatrix, b, use_qr: bool = False):
    """Exact projection by Lawson-Hanson NNLS on the least-distance form,
    with Gram (or, with use_qr, QR) passive-set solves.

    Returns (y, lam), or None when the step limit (3m + 30 passive-set
    solves) is reached or the first residual is not positive.  In exact
    arithmetic every outer step lowers the NNLS residual
    ||r||^2 = -r_{n+1}; once rounding stops that, the best iterate so far
    is returned for the certificate to judge.
    """
    rows = a.data
    m, n = a.shape
    h = rows @ x - b
    norms = np.sqrt(a.row_norms_sq)
    floor_b = _NOISE * np.abs(b)
    floor_a = _NOISE * norms
    passive = h > floor_b + floor_a * np.sqrt(x @ x)
    if not passive.any():
        return x.copy(), np.zeros(m)
    scale = float(np.max(h / norms))
    ext = np.column_stack([rows, h / scale])
    f = np.zeros(n + 1)
    f[-1] = 1.0
    w = np.zeros(m)
    best = None
    best_resid = np.inf
    for _ in range(3 * m + 30):
        idx = np.flatnonzero(passive)
        s = _passive_solve(ext[idx], f, use_qr)
        bad = s <= 0.0
        if bad.any():
            wp = w[idx]
            fresh = bad & (wp == 0.0)
            if fresh.any():
                # rows that entered at zero (the warm start, or a row that
                # rounding says adds nothing) leave without moving w
                passive[idx[fresh]] = False
                continue
            # move from w toward s until a coefficient reaches zero
            sel = np.flatnonzero(bad)
            ratios = wp[sel] / (wp[sel] - s[sel])
            k = int(np.argmin(ratios))
            wp += ratios[k] * (s - wp)
            wp[sel[k]] = 0.0
            wp[wp < 0.0] = 0.0
            w[idx] = wp
            passive[idx[wp == 0.0]] = False
            continue
        w[:] = 0.0
        w[idx] = s
        resid = 1.0 - float(ext[:, -1] @ w)
        if not 0.0 < resid < best_resid:
            return best
        best_resid = resid
        lam = w * (scale / resid)
        y = x - rows.T @ lam
        best = (y, lam)
        slack = rows @ y - b
        enter = ~passive & (slack > floor_b + floor_a * np.sqrt(y @ y))
        if not enter.any():
            return best
        passive[int(np.argmax(np.where(enter, slack, -np.inf)))] = True
    return None


def _certificate_error(a: DenseMatrix, b, y, lam) -> str | None:
    """Why (y, lam) is not a certified projection, or None if it is."""
    slack = a.data @ y - b
    b_scale = 1.0 + float(np.abs(b).max())
    feas_gap = max(float(slack.max()), 0.0)
    if feas_gap > _FEAS_REL_TOL * b_scale:
        return f"projection result infeasible by {feas_gap:.3e}"
    comp = float(np.abs(lam * slack).max())
    lam_scale = max(1.0, float(lam.max()) if lam.size else 1.0)
    if comp > _COMP_SLACK_TOL * lam_scale * b_scale:
        return f"complementary slackness violated by {comp:.3e}"
    return None


def project_polyhedron(
    x,
    a: DenseMatrix,
    b,
    tol: float = _DEFAULT_TOL,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Project x onto {y : Ay <= b} (assumed nonempty).

    The exact least-distance solve runs first, with Gram and then QR
    passive-set solves; Hildreth's sweeps (with tol and max_sweeps) run
    only if neither result passes the certificate.  The returned point is checked for feasibility at
    1e-8 * (1 + ||b||_inf) and for the dual optimality certificate
    (nonnegative multipliers with small complementary slackness);
    violation raises ConvergenceError.
    """
    x = as_vector(x, a.cols)
    b = as_vector(b, a.rows)
    if np.any(a.row_norms_sq == 0.0):
        raise ValueError("polyhedron rows must be nonzero")
    for use_qr in (False, True):
        exact = _least_distance(x, a, b, use_qr)
        if exact is not None and _certificate_error(a, b, *exact) is None:
            return exact[0]
    y, lam, _ = _hildreth(x, a, b, tol, max_sweeps)
    error = _certificate_error(a, b, y, lam)
    if error is not None:
        raise ConvergenceError(error)
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
