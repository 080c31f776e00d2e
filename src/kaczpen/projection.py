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
Lawson-Hanson active-set method, started cold with the rows violated at x
as its passive set; each passive-set solve is one small Gram system
(`np.linalg.solve`), with `np.linalg.lstsq` for rank-deficient sets.
The Gram system squares the condition number of the passive columns,
which near a degenerate vertex (more tight rows than columns) can cost
the result its certificate; the method then reruns with QR solves.
Each run stops after 3m + 30 passive-set solves, so a projection does
bounded work.  A point too large to square (beyond 2^500) that neither
run certifies is projected again at unit scale, scaled by a power of two
(a point so far that h_i / ||a_i|| overflows skips the full-scale solves),
and a result that leaves the float64 range when scaled back is refused.

Callers that project a sequence of nearby points (the stride points of a
traced run, the Monte Carlo checkpoints, the rows of an enumeration
oracle) pass a start set: the rows lam > 0 of the previous projection, a
row mask handed from call to call, as in the warm-started active sets of
Bro & de Jong's FNNLS (J. Chemometrics 11, 1997).  A Gram run then starts
its passive set there, and start rows that do not belong leave as rows
that entered at zero.  Its result is kept only when it is certified and
nondegenerate with room to spare (strictly complementary, with
independent support rows, see _settled): its active set is then the
only one any run can end on, and the result is bit for bit the cold
one.  Otherwise the cold runs follow.

A result is returned only after it passes the feasibility and
complementary-slackness certificate (with y = x - A^T lam and lam >= 0
by construction, that is the full KKT system of the projection).  When
neither run's result passes, the projection fails with both reasons.

Hildreth's dual coordinate ascent is kept as an independent reference
projector for the property suites.  It sweeps the dual variables
cyclically while keeping y = x - A^T lam, each row update being the
one-dimensional ascent step clipped at zero:

    lam_i <- max(0, lam_i + (a_i . y - b_i) / ||a_i||^2)
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ConvergenceError, DenseMatrix, as_vector

# uncertified points and bounds beyond this magnitude are rescaled
_SCALE_LIMIT = 2.0**500
_FEAS_REL_TOL = 1e-8
_COMP_SLACK_TOL = 1e-8
# a slack below this multiple of |b_i| + ||a_i|| ||y|| is rounding noise
_NOISE = 1e3 * np.finfo(np.float64).eps
# a warm-started result is kept only when every row clears this many
# noise floors and its support's Gram matrix has at most this condition
# number (see _settled)
_SETTLED_MARGIN = 1e3
_SETTLED_KAPPA = 1e4


def _hildreth(x, a: DenseMatrix, b, tol: float, max_sweeps: int):
    """Returns (y, lam, sweeps).  Stops when the largest single-update
    primal movement in a sweep drops to tol; raises ConvergenceError
    after max_sweeps sweeps.  Not a runtime path: the reference projector
    of verify's projection-certificates check and of the tests."""
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


def _floors(a: DenseMatrix, b):
    """The set-up _least_distance needs once per system: the row norms and
    the noise floors of its slack test (_NOISE |b_i| and _NOISE ||a_i||)."""
    norms = np.sqrt(a.row_norms_sq)
    return norms, _NOISE * np.abs(b), _NOISE * norms


def _least_distance(x, a: DenseMatrix, b, use_qr: bool = False, start=None, floors=None):
    """Exact projection by Lawson-Hanson NNLS on the least-distance form,
    with Gram (or, with use_qr, QR) passive-set solves.

    The passive set starts at the rows violated at x or, when given, at
    the nonempty boolean row mask start; floors is _floors(a, b), formed
    here when not given.  Returns (y, lam), or None when the step
    limit (3m + 30 passive-set solves) is reached, the first residual is
    not positive, or x is too far for this scale (h_i / ||a_i|| overflows).
    In exact arithmetic every outer step lowers the NNLS residual
    ||r||^2 = -r_{n+1}; once rounding stops that, the best iterate so far
    is returned for the certificate to judge.
    """
    rows = a.data
    m, n = a.shape
    h = rows @ x - b
    norms, floor_b, floor_a = _floors(a, b) if floors is None else floors
    passive = h > floor_b + floor_a * np.sqrt(x @ x)
    if not passive.any():
        return x.copy(), np.zeros(m)
    with np.errstate(over="ignore"):
        scale = float(np.max(h / norms))
    if not math.isfinite(scale):
        return None
    if start is not None:
        passive = start.copy()
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
                # rows that entered at zero (the start set, or a row that
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
    # `not <=` so that a NaN gap fails, where `>` would let it through
    if not feas_gap <= _FEAS_REL_TOL * b_scale:
        return f"projection result infeasible by {feas_gap:.3e}"
    comp = float(np.abs(lam * slack).max())
    lam_scale = max(1.0, float(lam.max()) if lam.size else 1.0)
    if not comp <= _COMP_SLACK_TOL * lam_scale * b_scale:
        return f"complementary slackness violated by {comp:.3e}"
    return None


def _settled(a: DenseMatrix, b, y, lam, floors) -> bool:
    """Whether (y, lam) is a nondegenerate projection, with room to spare.

    Each row either carries a multiplier that moves its own slack by more
    than _SETTLED_MARGIN noise floors (lam_i ||a_i||^2) and is tight to
    within one floor, or has a slack below minus _SETTLED_MARGIN floors:
    strict complementarity, solved to rounding level.  And the support
    rows are linearly independent, their Gram matrix's condition number
    at most _SETTLED_KAPPA.  The active set and multipliers are then
    unique, so a run from any other start set ends on the same passive
    set and computes the same (y, lam)."""
    _, floor_b, floor_a = floors
    floor = floor_b + floor_a * np.sqrt(y @ y)
    margin = _SETTLED_MARGIN * floor
    slack = a.data @ y - b
    held = lam * a.row_norms_sq > margin
    if not np.where(held, np.abs(slack) <= floor, slack < -margin).all():
        return False
    support = a.data[held]
    if not 0 < len(support) <= a.cols:
        return False
    eig = np.linalg.eigvalsh(support @ support.T)
    return bool(eig[0] * _SETTLED_KAPPA > eig[-1])


def _certified(x, a: DenseMatrix, b, start=None, floors=None):
    """The certified projection (y, lam) of a finite x, y = x - A^T lam,
    for project_polyhedron and _warm_distance.

    With a nonempty row mask start, a Gram run starts its passive set
    there (see _least_distance); its result is kept when certified and
    either zero (x is feasible) or _settled.  Otherwise the cold runs
    follow: the Gram run, the QR rerun and the unit-scale solve, each
    started at the rows violated at x.
    """
    floors = _floors(a, b) if floors is None else floors
    if start is not None and start.any():
        warm = _least_distance(x, a, b, False, start, floors)
        if (
            warm is not None
            and _certificate_error(a, b, *warm) is None
            and (not warm[1].any() or _settled(a, b, *warm, floors))
        ):
            return warm
    errors = []
    for use_qr in (False, True):
        exact = _least_distance(x, a, b, use_qr, None, floors)
        if exact is None:
            errors.append("stopped without a result")
            continue
        error = _certificate_error(a, b, *exact)
        if error is None:
            return exact
        errors.append(error)
    big = max(float(np.abs(x).max()), float(np.abs(b).max()))
    if big > _SCALE_LIMIT:
        # The projection commutes with scaling x and b together, and scaling
        # by a power of two is exact: a point too large to square is solved
        # (and certified) again at unit scale, with the floors of the
        # scaled b.
        e = math.frexp(big)[1]
        y, lam = _certified(np.ldexp(x, -e), a, np.ldexp(b, -e))
        with np.errstate(over="ignore"):
            y, lam = np.ldexp(y, e), np.ldexp(lam, e)
        if not np.isfinite(y).all():
            raise ConvergenceError(
                "projection lies beyond the float64 range (largest finite value 1.8e308)"
            )
        return y, lam
    raise ConvergenceError(
        f"projection not certified: Gram run: {errors[0]}; QR run: {errors[1]}"
    )


def project_polyhedron(x, a: DenseMatrix, b) -> np.ndarray:
    """Project x onto {y : Ay <= b} (assumed nonempty).

    Runs the exact least-distance solve with Gram passive-set solves and,
    if its result fails the certificate, again with QR solves.  A result
    is certified when it is feasible to 1e-8 * (1 + ||b||_inf) and its
    nonnegative multipliers have small complementary slackness.  When
    neither result is certified, a point or bound beyond 2^500 is
    projected again at unit scale, and otherwise ConvergenceError names
    both runs' certificate errors.  ConvergenceError also names the float64
    range when the unit-scale result, scaled back, leaves it.
    """
    x = as_vector(x, a.cols)
    b = as_vector(b, a.rows)
    if np.any(a.row_norms_sq == 0.0):
        raise ValueError("polyhedron rows must be nonzero")
    return _certified(x, a, b)[0]


def _distance(x, y) -> float:
    return float(np.sqrt(((x - y) ** 2).sum()))


def _warm_distance(x, problem, start=None) -> tuple[float, np.ndarray]:
    """distance_to_feasible without its checks, and the rows lam > 0 of the
    projection, the start for a nearby point's.

    x must be a finite vector of length n: nothing is checked again, as
    the problem's rows and b were checked when it was built, and the
    floors are formed once per problem and kept on it.  start is a boolean
    row mask the passive set starts from (see _certified); None or an
    empty mask starts cold, at the rows violated at x.
    """
    floors = problem.memo("projection_floors", lambda: _floors(problem.a, problem.b))
    y, lam = _certified(x, problem.a, problem.b, start, floors)
    return _distance(x, y), lam > 0.0


def distance_to_feasible(x, problem) -> float:
    """Euclidean distance from x to the feasible set of an inequality
    problem."""
    from .problems import ProblemKind

    if problem.kind is not ProblemKind.LF:
        raise ValueError("distance_to_feasible needs a feasibility problem")
    return _warm_distance(as_vector(x, problem.n), problem)[0]
