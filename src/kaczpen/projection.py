"""Euclidean projection onto a polyhedron {y : Ay <= b}, for a stack of
points at once.

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

The one Lawson-Hanson loop (_least_distance) takes a stack of K points
and advances them in lockstep.  The set-up (h, the cold start sets, the
scales t and E) is stacked, and each lockstep step makes every point's
next passive-set solve as one stacked Gram product and one stacked solve
per passive-set size; the rest of a point's step runs on its own rows of
the stacked arrays.  np.matmul, np.linalg.solve, np.linalg.qr and
np.linalg.eigvalsh take each slice of a stack as the 2-D call on that
slice alone, and every dot and matrix-vector product keeps the shapes
and strides of a one-point run (the column h / t is dotted in place, a
strided dot, which OpenBLAS rounds unlike a unit-stride one), so a
point's result does not depend on the points stacked with it.  A stack
in which one Gram matrix is singular is solved set by set.  Every point
keeps its own step limit, best iterate, QR rerun and rescaling.  A
single point is a stack of one.  The certificate and the _settled test
are stacked too.

Callers that project nearby points (the stride points of a traced run,
the Monte Carlo checkpoints, the rows of an enumeration oracle) pass a
start set: the rows lam > 0 of an earlier projection, a row mask, as in
the warm-started active sets of Bro & de Jong's FNNLS (J. Chemometrics
11, 1997).  A Gram run then starts its passive set there, and start rows
that do not belong leave as rows that entered at zero.  Its result is
kept only when it is certified and nondegenerate with room to spare
(strictly complementary, with independent support rows, see _settled):
its active set is then the only one any run can end on, and the result
is bit for bit the cold one.  Otherwise the cold runs follow.  A start
set that is the cold one (the rows violated at x) starts the cold runs
at once: its Gram run would be the cold Gram run.

A result is returned only after it passes the feasibility and
complementary-slackness certificate (with y = x - A^T lam and lam >= 0
by construction, that is the full KKT system of the projection).  When
neither run's result passes, each is refined once on its support
(see _refined), which certifies results that the cancellation in
x - A^T lam left infeasible near an apex; when no refined result passes
either, that point's projection fails with both runs' reasons.

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
# _certified projects a stack in blocks whose copies of E, (points, m,
# n + 1), take at most this many bytes (one point per block at least)
_BLOCK_BYTES = 1 << 21


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
    """The w minimizing ||c^T w - f|| for one set c, (k, n + 1), of
    passive rows of E^T, or for each set of a stack c, (G, k, n + 1).
    The Gram system squares the condition number of c and QR does not;
    lstsq takes the rank-deficient sets, and a stack in which one Gram
    matrix is singular is solved set by set."""
    ct = c.T if c.ndim == 2 else c.transpose(0, 2, 1)
    try:
        if not use_qr:
            return np.linalg.solve(c @ ct, c[..., -1:])[..., 0]
        if c.shape[-2] <= c.shape[-1]:
            q, r = np.linalg.qr(ct)
            return np.linalg.solve(r, q[..., -1, :, None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    if c.ndim == 3:
        return np.array([_passive_solve(set_, f, use_qr) for set_ in c])
    return np.linalg.lstsq(ct, f, rcond=None)[0]


def _passive_solves(ext, points, idxs, f, use_qr: bool) -> list:
    """The passive-set solve of each point: point points[i]'s E is
    ext[points[i]] and its passive rows are idxs[i].  The sets of one
    size are one stacked _passive_solve."""
    if len(points) == 1:
        return [_passive_solve(ext[points[0]][idxs[0]], f, use_qr)]
    sizes = [len(idx) for idx in idxs]
    groups = {}
    for i, k in enumerate(sizes):
        groups.setdefault(k, []).append(i)
    sols = [None] * len(points)
    for k, members in groups.items():
        if k == 0:
            stack = np.zeros((len(members), 0))
        else:
            at = np.array([points[i] for i in members])
            stack = _passive_solve(ext[at[:, None], np.array([idxs[i] for i in members])], f, use_qr)
        for i, s in zip(members, stack):
            sols[i] = s
    return sols


def _floors(a: DenseMatrix, b):
    """The set-up _least_distance needs once per system: the row norms and
    the noise floors of its slack test (_NOISE |b_i| and _NOISE ||a_i||)."""
    norms = np.sqrt(a.row_norms_sq)
    return norms, _NOISE * np.abs(b), _NOISE * norms


def _violated(xs, a: DenseMatrix, b, floors):
    """(h, cold): h = A x - b for each row x of xs, and the rows violated
    there past the noise floors, each point's cold start set."""
    _, floor_b, floor_a = floors
    h = np.matmul(a.data, xs[:, :, None])[:, :, 0] - b
    return h, h > floor_b + floor_a * np.sqrt(np.matmul(xs[:, None], xs[:, :, None])[:, 0])


def _least_distance(
    xs, a: DenseMatrix, b, use_qr: bool = False, starts=None, floors=None, violated=None
) -> list:
    """Exact projections of the rows of xs by Lawson-Hanson NNLS on the
    least-distance form, the points in lockstep, with Gram (or, with
    use_qr, QR) passive-set solves.

    Point p's passive set starts at the rows violated at x_p or, when
    given, at the boolean row mask starts[p]; floors is _floors(a, b) and
    violated is _violated(xs, a, b, floors), each formed here when not
    given.  Returns one entry per point: (y, lam), or None when the point
    reaches the step limit (3m + 30 passive-set solves), its first
    residual is not positive, or it is too far for this scale
    (h_i / ||a_i|| overflows).  In exact arithmetic every outer step
    lowers the NNLS residual ||r||^2 = -r_{n+1}; once rounding stops
    that, the best iterate so far is the point's result, for the
    certificate to judge.  Each lockstep step solves every iterating
    point's passive set (see _passive_solves); the rest of a point's
    step is its own, on its rows of the stacked arrays.
    """
    rows = a.data
    m, n = a.shape
    floors = _floors(a, b) if floors is None else floors
    norms, floor_b, floor_a = floors
    h, cold = _violated(xs, a, b, floors) if violated is None else violated
    with np.errstate(over="ignore"):
        scale = (h / norms).max(axis=1)
    results = [None] * len(xs)
    feasible = ~cold.any(axis=1)
    for p in np.flatnonzero(feasible).tolist():
        results[p] = (xs[p].copy(), np.zeros(m))
    live = ~feasible & np.isfinite(scale)
    if live.all():
        pick, live = slice(None), list(range(len(xs)))
    else:
        pick = np.flatnonzero(live)
        live = pick.tolist()
        if not live:
            return results
        xs, h, scale = xs[pick], h[pick], scale[pick]
    # a copy, which the run updates in place
    passive = np.array((cold if starts is None else starts)[pick])
    ext = np.empty((len(live), m, n + 1))
    ext[:, :, :n] = rows
    ext[:, :, n] = h / scale[:, None]
    scales = scale.tolist()
    f = np.zeros(n + 1)
    f[-1] = 1.0
    w = np.zeros(passive.shape)
    best = [None] * len(live)
    best_resid = [np.inf] * len(live)
    # each point's own rows of the stacked arrays: x, w, passive mask and
    # the column h / t, a strided view dotted in place
    own = [(xs[j], w[j], passive[j], ext[j, :, -1]) for j in range(len(live))]
    going = list(range(len(live)))  # the points still iterating
    for _ in range(3 * m + 30):
        idxs = [own[j][2].nonzero()[0] for j in going]
        sols = _passive_solves(ext, going, idxs, f, use_qr)
        still = []
        for j, idx, s in zip(going, idxs, sols):
            x, wj, pj, hj = own[j]
            bad = s <= 0.0
            if bad.any():
                still.append(j)
                wp = wj[idx]
                fresh = bad & (wp == 0.0)
                if fresh.any():
                    # rows that entered at zero (the start set, or a row
                    # that rounding says adds nothing) leave without moving w
                    pj[idx[fresh]] = False
                    continue
                # move from w toward s until a coefficient reaches zero
                sel = bad.nonzero()[0]
                ratios = wp[sel] / (wp[sel] - s[sel])
                k = ratios.argmin()
                wp += ratios[k] * (s - wp)
                wp[sel[k]] = 0.0
                wp[wp < 0.0] = 0.0
                wj[idx] = wp
                pj[idx[wp == 0.0]] = False
                continue
            wj[:] = 0.0
            wj[idx] = s
            resid = 1.0 - float(hj @ wj)
            if not 0.0 < resid < best_resid[j]:
                results[live[j]] = best[j]
                continue
            best_resid[j] = resid
            with np.errstate(over="ignore"):
                lam = wj * (scales[j] / resid)
            y = x - rows.T @ lam
            best[j] = (y, lam)
            slack = rows @ y - b
            enter = ~pj & (slack > floor_b + floor_a * math.sqrt(y @ y))
            if not enter.any():
                results[live[j]] = best[j]
                continue
            pj[np.where(enter, slack, -np.inf).argmax()] = True
            still.append(j)
        going = still
        if not going:
            break
    return results


def _certificate_errors(a: DenseMatrix, b, results) -> list:
    """Why each (y, lam) of results is not a certified projection, or
    None where it is; a None result stopped without one."""
    held = [result for result in results if result is not None]
    if not held:
        return ["stopped without a result"] * len(results)
    ys = np.array([result[0] for result in held])
    lams = np.array([result[1] for result in held])
    slack = np.matmul(a.data, ys[:, :, None])[:, :, 0] - b
    b_scale = 1.0 + float(np.abs(b).max())
    errors = []
    for gap, comp, lam_max in zip(
        slack.max(axis=1).tolist(), np.abs(lams * slack).max(axis=1).tolist(), lams.max(axis=1).tolist()
    ):
        gap = max(gap, 0.0)
        # `not <=` so that a NaN gap fails, where `>` would let it through
        if not gap <= _FEAS_REL_TOL * b_scale:
            errors.append(f"projection result infeasible by {gap:.3e}")
        elif not comp <= _COMP_SLACK_TOL * max(1.0, lam_max) * b_scale:
            errors.append(f"complementary slackness violated by {comp:.3e}")
        else:
            errors.append(None)
    reasons = iter(errors)
    return [
        "stopped without a result" if result is None else next(reasons) for result in results
    ]


def _certificate_error(a: DenseMatrix, b, y, lam) -> str | None:
    """Why (y, lam) is not a certified projection, or None if it is."""
    return _certificate_errors(a, b, [(y, lam)])[0]


def _settled(a: DenseMatrix, b, ys, lams, floors) -> np.ndarray:
    """Whether each (y, lam), a row of ys and of lams, is a nondegenerate
    projection, with room to spare.

    Each row either carries a multiplier that moves its own slack by more
    than _SETTLED_MARGIN noise floors (lam_i ||a_i||^2) and is tight to
    within one floor, or has a slack below minus _SETTLED_MARGIN floors:
    strict complementarity, solved to rounding level.  And the support
    rows are linearly independent, their Gram matrix's condition number
    at most _SETTLED_KAPPA.  The active set and multipliers are then
    unique, so a run from any other start set ends on the same passive
    set and computes the same (y, lam).  The Gram matrices of the
    supports of one size are one stacked eigvalsh."""
    _, floor_b, floor_a = floors
    floor = floor_b + floor_a * np.sqrt(np.matmul(ys[:, None], ys[:, :, None])[:, 0])
    margin = _SETTLED_MARGIN * floor
    slack = np.matmul(a.data, ys[:, :, None])[:, :, 0] - b
    held = lams * a.row_norms_sq > margin
    counts = held.sum(axis=1)
    settled = np.where(held, np.abs(slack) <= floor, slack < -margin).all(axis=1)
    settled &= (0 < counts) & (counts <= a.cols)
    by_size = {}
    for p, k in zip(settled.nonzero()[0].tolist(), counts[settled].tolist()):
        by_size.setdefault(k, []).append(p)
    for k, pts in by_size.items():
        support = a.data[held[pts].nonzero()[1]].reshape(len(pts), k, a.cols)
        eig = np.linalg.eigvalsh(np.matmul(support, support.transpose(0, 2, 1)))
        settled[pts] = eig[:, 0] * _SETTLED_KAPPA > eig[:, -1]
    return settled


def _refined(a: DenseMatrix, b, y, lam):
    """One step of iterative refinement of an uncertified (y, lam) on its
    support J (lam > 0): d solves A_J A_J^T d = A_J y - b_J, and
    y - A_J^T d and lam_J + d replace y and lam_J.  Near an apex y = x -
    A^T lam is formed by cancellation from a much longer x, and its slacks
    carry rounding that grows with ||x||; the step removes it.  Returns
    the refined pair when its multipliers stay nonnegative and it passes
    the certificate, else None."""
    held = lam > 0.0
    if not held.any():
        return None
    rows = a.data[held]
    try:
        d = np.linalg.solve(rows @ rows.T, rows @ y - b[held])
    except np.linalg.LinAlgError:
        return None
    lam = lam.copy()
    lam[held] += d
    if (lam < 0.0).any():
        return None
    y = y - rows.T @ d
    return (y, lam) if _certificate_error(a, b, y, lam) is None else None


def _certified(xs, a: DenseMatrix, b, starts=None, floors=None):
    """The certified projections y = x - A^T lam of the finite rows x of
    xs, for project_polyhedron and _warm_distances: (results, errors),
    per point its (y, lam) and None, or None and its ConvergenceError.

    Point p with a nonempty row mask starts[p] other than its cold start
    set starts a Gram run there (see _least_distance); its result is kept
    when certified and either zero (x is feasible) or _settled.  The
    other points take the cold runs: the Gram run, the QR rerun on the
    points it leaves uncertified, then, point by point, the unit-scale
    solve or the refinement of each run's result (see _uncertified).
    Each run is one lockstep call on its points, in blocks of at most
    _BLOCK_BYTES of E.
    """
    m, n = a.shape
    block = max(1, _BLOCK_BYTES // (8 * m * (n + 1)))
    if len(xs) > block:
        parts = [
            _certified(xs[i : i + block], a, b, None if starts is None else starts[i : i + block], floors)
            for i in range(0, len(xs), block)
        ]
        return [r for part in parts for r in part[0]], [e for part in parts for e in part[1]]
    floors = _floors(a, b) if floors is None else floors
    h, cold = _violated(xs, a, b, floors)
    results = [None] * len(xs)
    errors = [None] * len(xs)
    todo = None  # the points to project cold, None for all
    if starts is not None:
        # a start set that is the cold one would only repeat the cold run
        warm = np.flatnonzero(starts.any(axis=1) & (starts != cold).any(axis=1)).tolist()
        if warm:
            found = _least_distance(xs[warm], a, b, False, starts[warm], floors, (h[warm], cold[warm]))
            ok = [j for j, reason in enumerate(_certificate_errors(a, b, found)) if reason is None]
            moved = [j for j in ok if found[j][1].any()]
            if moved:
                ys = np.array([found[j][0] for j in moved])
                lams = np.array([found[j][1] for j in moved])
                unsettled = {j for j, s in zip(moved, _settled(a, b, ys, lams, floors)) if not s}
                ok = [j for j in ok if j not in unsettled]
            for j in ok:
                results[warm[j]] = found[j]
            if ok:
                todo = [p for p, result in enumerate(results) if result is None]
    runs = {}  # each failed cold run's (reason, result)
    for use_qr in (False, True):
        if todo is None:
            todo = list(range(len(xs)))
            found = _least_distance(xs, a, b, use_qr, None, floors, (h, cold))
        elif not todo:
            return results, errors
        else:
            found = _least_distance(xs[todo], a, b, use_qr, None, floors, (h[todo], cold[todo]))
        still = []
        for p, result, reason in zip(todo, found, _certificate_errors(a, b, found)):
            if reason is None:
                results[p] = result
            else:
                runs.setdefault(p, []).append((reason, result))
                still.append(p)
        todo = still
    for p in todo:
        results[p], errors[p] = _uncertified(xs[p], a, b, runs[p])
    return results, errors


def _uncertified(x, a: DenseMatrix, b, runs):
    """(result, error) for a point whose two cold runs failed, with their
    (reason, result) in runs: the unit-scale solve of a point or bound
    beyond 2^500, else the first refined run result that is certified,
    else the ConvergenceError naming both runs' reasons."""
    big = max(float(np.abs(x).max()), float(np.abs(b).max()))
    if big > _SCALE_LIMIT:
        # The projection commutes with scaling x and b together, and scaling
        # by a power of two is exact: a point too large to square is solved
        # (and certified) again at unit scale, with the floors of the
        # scaled b.
        e = math.frexp(big)[1]
        results, errors = _certified(np.ldexp(x, -e)[None], a, np.ldexp(b, -e))
        if errors[0] is not None:
            return None, errors[0]
        with np.errstate(over="ignore"):
            y, lam = np.ldexp(results[0][0], e), np.ldexp(results[0][1], e)
        if not np.isfinite(y).all():
            return None, ConvergenceError(
                "projection lies beyond the float64 range (largest finite value 1.8e308)"
            )
        return (y, lam), None
    for _, result in runs:
        refined = None if result is None else _refined(a, b, *result)
        if refined is not None:
            return refined, None
    return None, ConvergenceError(
        f"projection not certified: Gram run: {runs[0][0]}; QR run: {runs[1][0]}"
    )


def project_polyhedron(x, a: DenseMatrix, b) -> np.ndarray:
    """Project x onto {y : Ay <= b} (assumed nonempty).

    Runs the exact least-distance solve with Gram passive-set solves and,
    if its result fails the certificate, again with QR solves.  A result
    is certified when it is feasible to 1e-8 * (1 + ||b||_inf) and its
    nonnegative multipliers have small complementary slackness.  When
    neither result is certified, a point or bound beyond 2^500 is
    projected again at unit scale, and otherwise each result is refined
    once on its support; ConvergenceError names both runs' certificate
    errors when no refined result is certified either.  ConvergenceError
    also names the float64 range when the unit-scale result, scaled back,
    leaves it.
    """
    x = as_vector(x, a.cols)
    b = as_vector(b, a.rows)
    bad = a.unusable_row()
    if bad is not None:
        raise ValueError("row %d: %s" % bad)
    results, errors = _certified(x[None], a, b)
    if errors[0] is not None:
        raise errors[0]
    return results[0][0]


def _warm_distances(xs, problem, start=None):
    """distance_to_feasible of each row x of xs without its checks, the
    rows lam > 0 of each projection (the start for nearby points'), and
    each point's ConvergenceError or None: (dists, supports, errors).  A
    failed point's distance is NaN and its support empty.  Called by
    distance_to_feasible and by solvers._stacked_errors, the one source of
    squared errors for traces, Monte Carlo checkpoints and oracles.

    xs must be a finite (K, n) array: nothing is checked again, as the
    problem's rows and b were checked when it was built, and the floors
    are formed once per problem and kept on it.  start is the boolean row
    mask the passive sets start from, one for all points or a (K, m) array
    of one per point (see _certified); None or an empty mask starts cold.
    """
    floors = problem.memo("projection_floors", lambda: _floors(problem.a, problem.b))
    starts = None if start is None else np.broadcast_to(start, (len(xs), problem.m))
    results, errors = _certified(xs, problem.a, problem.b, starts, floors)
    if errors.count(None) < len(errors):
        failed = (np.full(problem.n, np.nan), np.zeros(problem.m))
        results = [failed if result is None else result for result in results]
    ys = np.array([result[0] for result in results]).reshape(xs.shape)
    supports = np.array([result[1] for result in results]).reshape(len(xs), problem.m) > 0.0
    # summed per row, as ((x - y) ** 2).sum() sums one point
    return np.sqrt(((xs - ys) ** 2).sum(axis=1)), supports, errors


def distance_to_feasible(x, problem) -> float:
    """Euclidean distance from x to the feasible set of an inequality
    problem."""
    from .problems import ProblemKind

    if problem.kind is not ProblemKind.LF:
        raise ValueError("distance_to_feasible needs a feasibility problem")
    dists, _, errors = _warm_distances(as_vector(x, problem.n)[None], problem)
    if errors[0] is not None:
        raise errors[0]
    return float(dists[0])
