"""Verification-side analysis: the per-step contraction factor, Lyapunov values,
the Hoffman-constant estimate, exact one-step expectations, and Monte
Carlo error curves.

The expectation helpers enumerate every row with its sampling weight, so
they are exact oracles (up to floating point) rather than estimates, and
the test suites lean on them to check the per-step contraction bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .linalg import (
    DenseMatrix,
    NoEstimateError,
    NumericFailureError,
    as_vector,
    lambda_min_variants,
    row_dots,
)
from .problems import Problem, ProblemKind
from .projection import distance_to_feasible, project_polyhedron
from .sampling import RowDistribution, make_rng
from .solvers import _DRAW_BLOCK, Method, SolverConfig, SolverState

__all__ = [
    "instance_rate_factor",
    "lyapunov_ls",
    "lyapunov_lf",
    "HoffmanEstimate",
    "NoEstimateError",
    "hoffman_ball",
    "hoffman_estimate",
    "envelope_factor",
    "ExpectedStepReport",
    "exact_expected_step",
    "AdaptiveStepReport",
    "adaptive_step_report",
    "CurveReport",
    "monte_carlo_error_curve",
]

# enumeration oracles refuse systems with more rows than this
_ENUMERATION_CAP = 10_000


def _damping(method: Method, rho: float) -> float:
    """Damping of the step family at penalty rho: rho (rho + 2) / (1 + rho)^2
    for the penalty step, rho / (1 + rho) for the multiplier step, and 1
    for the plain step (its penalty-free limit)."""
    if rho == np.inf:
        # both damped steps are the plain one there
        return 1.0
    if method is Method.RPK:
        try:
            return rho * (rho + 2.0) / ((1.0 + rho) ** 2)
        except OverflowError:
            # (1 + rho)^2 is beyond float64, where the damping rounds to 1
            return 1.0
    if method is Method.RAK:
        return rho / (1.0 + rho)
    return 1.0


def lyapunov_ls(x, x_star, z: float, rho: float) -> float:
    """||x - x*||^2 + z^2 / rho."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    solvers._check_multiplier(z, False)
    x = as_vector(x)
    x_star = as_vector(x_star, x.shape[0])
    return float(solvers._stacked_error_sq(x[None], x_star)[0]) + z * z / rho


def lyapunov_lf(x, problem: Problem, z: float, rho: float) -> float:
    """d(x, feasible set)^2 + z^2 / rho with z >= 0."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    solvers._check_multiplier(z, True)
    d = distance_to_feasible(x, problem)
    return d * d + z * z / rho


def instance_rate_factor(
    problem: Problem, method: Method, rho: float, conditioning: float
) -> float:
    """Per-step contraction factor valid for arbitrary row norms.

    conditioning is the smallest of the min(m, n) eigenvalues of A^T A
    (lambda_min) for equality systems and the residual-to-distance
    constant L for feasibility systems.  With unit rows this is
    1 - damping(rho) lambda_min / m (Strohmer & Vershynin, 2009) or
    1 - damping(rho) / (m L^2); in general the damping is evaluated at
    rho * min_i ||a_i||^2 (each row's effective penalty is rho ||a_i||^2
    and the damping grows with it, so the smallest row gives a uniform
    lower bound on per-row progress) and the row count is replaced by
    ||A||_F^2, the normalizer of the sampling weights.  For equality systems:

        E ||x' - x*||^2 <= (1 - damping(rho s_min) lambda_min / ||A||_F^2) ||x - x*||^2

    which follows from summing the per-row progress r_i^2 / s_i weighted by
    s_i / ||A||_F^2 and bounding sum_i r_i^2 >= lambda_min ||x - x*||^2.
    That holds for every error in row(A), where steps keep it (Gower &
    Richtarik, 2015): every run measured from the solution nearest its start.
    The multiplier method's dual term contracts by at least the same
    damping, so the bound covers its Lyapunov value too.  For feasibility
    systems the same sum over the positive parts r_i+ and Hoffman's
    ||r+|| >= d(x, X) / L give (Leventhal & Lewis, 2010)

        E d(x', X)^2 <= (1 - damping(rho s_min) / (||A||_F^2 L^2)) d(x, X)^2
    """
    if isinstance(method, str):
        method = Method(method)
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    damping = _damping(method, rho * float(problem.a.row_norms_sq.min()))
    weight = problem.a.frobenius_sq
    if problem.kind is ProblemKind.LS:
        if conditioning < 0.0:
            raise ValueError("smallest eigenvalue must be nonnegative")
        return 1.0 - damping * conditioning / weight
    if conditioning <= 0.0:
        raise ValueError("the distance constant L must be positive")
    return 1.0 - damping / (weight * conditioning**2)


@dataclass(frozen=True)
class HoffmanEstimate:
    """Lower bound on the residual-to-distance constant, from sampling."""

    value: float
    n_contributing: int
    n_samples: int


def hoffman_ball(problem: Problem) -> tuple[np.ndarray, float]:
    """Centre and default radius of the ball the Hoffman estimate samples.

    The centre is the planted point, or the projection of the origin onto
    the feasible set when no point was planted; the radius is
    2 (1 + ||centre||).  The ball is computed once per problem and kept on
    it, so the default estimate, which needs the radius before
    hoffman_estimate needs the centre, projects the origin once.
    """

    def build():
        center = problem.x_planted
        if center is None:
            center = project_polyhedron(np.zeros(problem.n), problem.a, problem.b)
            center.flags.writeable = False
        return center, 2.0 * (1.0 + float(np.sqrt(center @ center)))

    return problem.memo("hoffman_ball", build)


# a sample is projected unless its ratio bound times 1 + _SKIP_MARGIN falls
# below the best ratio so far (the margin is derived in hoffman_estimate)
_SKIP_MARGIN = 1e-6
# projected-gradient steps that tighten bound (iii) from its start at r+
_DUAL_STEPS = 20
# bound (iii) is used only where 2 (m + n + 1) eps kappa(A A^T), a bound on
# the relative rounding of its step lengths, is at most this
_LEAST_NORM_ROUNDING = 1e-8


def _least_norm_step_factor(a: DenseMatrix) -> tuple[np.ndarray, float] | None:
    """M = S^-1 U^T from the SVD A = U S V^T kept on a, so that
    ||M v|| = sqrt(v^T G^-1 v) (M^T M = G^-1, G = A A^T) is the length of
    the least-norm step A^T mu with G mu = v, and lambda_min(G) = s_min^2;
    or None when m > n or 2 (m + n + 1) eps (s_max / s_min)^2 exceeds
    _LEAST_NORM_ROUNDING (a zero s_min fails it)."""
    m, n = a.shape
    if m > n:
        return None
    u, s, _, _ = a.svd
    if not s[-1] > 0.0:
        return None
    with np.errstate(over="ignore"):
        kappa = (s[0] / s[-1]) ** 2
    if not 2.0 * (m + n + 1) * np.finfo(np.float64).eps * kappa <= _LEAST_NORM_ROUNDING:
        return None
    return (u / s).T, float(s[-1] ** 2)


def _hoffman_samples(
    problem: Problem, n_samples: int, radius: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hoffman_estimate's contributing samples, in draw order: their
    points, ||r+|| and the upper bounds U on their ratios."""
    center, _ = hoffman_ball(problem)
    rng = make_rng(seed)
    n = problem.n
    b_scale = 1.0 + float(np.abs(problem.b).max())
    directions = np.empty((n_samples, n))
    draws = []
    for t in range(n_samples):
        directions[t] = rng.standard_normal(n)
        draws.append(rng.random())
    norms = np.sqrt(row_dots(directions, directions))
    drawn = norms != 0.0
    scales = np.array([radius * u ** (1.0 / n) for u in draws])[drawn]
    # the stacked matmuls take each sample's a @ point and r+ @ r+ as the
    # matrix-vector and vector dots of one sample at a time
    points = center + scales[:, None] * directions[drawn] / norms[drawn, None]
    residuals = np.matmul(problem.a.data, points[:, :, None])[:, :, 0] - problem.b
    r_plus = np.maximum(residuals, 0.0)
    r_norms = np.sqrt(row_dots(r_plus, r_plus))
    keep = ~(r_norms <= 1e-12 * b_scale)
    if not keep.any():
        raise NoEstimateError(
            f"all {n_samples} sampled points were feasible; grow the radius"
        )
    points, residuals, r_plus, r_norms = points[keep], residuals[keep], r_plus[keep], r_norms[keep]
    reach = np.linalg.norm(points - center, axis=1)
    factor = _least_norm_step_factor(problem.a)
    if factor is not None:
        root, alpha = factor
        gram_inv = root.T @ root
        v = r_plus
        for _ in range(_DUAL_STEPS):
            v = np.maximum(residuals, v - alpha * (v @ gram_inv))
        reach = np.minimum(reach, np.linalg.norm(v @ root.T, axis=1))
    return points, r_norms, reach / r_norms


def hoffman_estimate(
    problem: Problem, n_samples: int, radius: float, seed: int
) -> HoffmanEstimate:
    """Estimate the constant L with d(x, X) <= L ||(Ax - b)+||_2.

    Samples points uniformly from the ball of the given radius around the
    centre c given by hoffman_ball (each sample draws standard_normal(n),
    then random(), from the seeded PCG64 stream), skips feasible ones, and
    maximizes the ratio d(x, X) / ||(Ax - b)+||_2 over the rest.  The
    maximum can only grow with more samples under the same seed.

    The maximum is found by a bounded search that returns, bit for bit,
    the value and contributing count of projecting every contributing
    sample.  All samples are drawn first and their points and residuals
    formed together, with the per-sample arithmetic of one draw at a time.
    Each contributing sample x, with r = Ax - b, gets an upper bound U on
    its ratio, the smaller of

    (i)   ||x - c|| / ||r+||, as c is feasible;
    (iii) ||M v|| / ||r+|| for a v >= r, when m <= n and
          _least_norm_step_factor gives M = S^-1 U^T from the SVD
          A = U S V^T, with M^T M = G^-1 for G = A A^T.  For any v >= r,
          y = x - A^T G^-1 v is feasible, as Ay = Ax - v <= b, and
          ||x - y||^2 = v^T G^-1 v = ||M v||^2;
          the minimum over v >= r is d(x, X)^2 exactly.  v starts at r+,
          where y is x minus the least-norm step A^T mu with G mu = r+,
          and takes _DUAL_STEPS projected-gradient steps
          v <- max(r, v - lambda_min(G) v G^-1), all samples in one
          product per step.  The elementwise max keeps v >= r exactly, so
          every iterate is a certified bound whatever the step's rounding;
          the step length lambda_min(G) = 1 / lambda_max(G^-1) makes each
          step descend.

    Samples are projected in descending order of U, and the search stops
    at the first one with U (1 + delta) < best, the largest ratio so far;
    no later sample can raise it.

    The margin delta = 1e-6 covers the distance between the exact
    quantities that bound each other and the computed ones:

    - the centre: a planted point satisfies its system to
      1e-10 (1 + ||b||_inf), the file's witness tolerance, and a projected
      origin to 1e-8 (1 + ||b||_inf), the projection certificate's
      feasibility tolerance, so c lies within that relative order of X
      and bound (i) can be short by as much;
    - the projection: the certificate accepts a result by its slacks
      (feasibility and complementarity to 1e-8), not by its distance,
      whose rounding grows with the rows' conditioning.  On 3 x 23
      systems a computed distance came out up to 1.1e-10 relative above
      the exact one at kappa(A A^T) = 1e6, just outside bound (iii)'s
      gate, and up to 2.5e-7 at 5.9e9, which delta still covers; inside
      the gate the tests find every bound within 1e-8 relative of the
      projected ratio;
    - the factor's rounding: the SVD is backward stable (its U and s
      are, to about eps per entry, those of A + E with
      ||E|| <= p eps ||A||, p a modest multiple of m + n), so ||M v|| is
      off by about p eps kappa(A) relative for every v, with
      kappa(A) = s_max / s_min = sqrt(kappa(G)).  The gate
      2 (m + n + 1) eps kappa(G) <= 1e-8, the bound that forming and
      factoring G would need, keeps that near 1e-4 sqrt((m + n) eps),
      1e-10 at m + n = 1e4, so the computed kappa, off by as little,
      needs no safety term.  The projected-gradient steps add no error
      of their own: each iterate is an exact v >= r, and only its final
      norm is rounded, as above.

    Inside the gate their sum is of order 1e-8, far below delta; the
    bounds' own rounding (n eps) is smaller still.  On the package's
    instances the errors actually incurred are at rounding level.
    Bound (iii) is tight, so on wide systems the search usually projects
    one sample; tall systems (m > n, G singular) use bound (i) alone.

    Errors: ValueError for bad arguments and NoEstimateError when no
    sample contributes, as without the search.  A projection that is not
    certified raises ConvergenceError, but only for a sample the search
    projects: a skipped sample's projection can no longer raise, and of
    two failing samples the one with the larger bound raises first.
    """
    if problem.kind is not ProblemKind.LF:
        raise ValueError("hoffman_estimate needs a feasibility problem")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    points, r_norms, bounds = _hoffman_samples(problem, n_samples, radius, seed)
    best = 0.0
    # NaN bounds sort last; only an overflowed sample has one, and its ratio
    # (NaN or 0) cannot raise the maximum
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] * (1.0 + _SKIP_MARGIN) < best:
            break
        ratio = distance_to_feasible(points[i], problem) / float(r_norms[i])
        if ratio > best:
            best = ratio
    return HoffmanEstimate(value=best, n_contributing=len(points), n_samples=n_samples)


def _lambda_min(problem: Problem) -> float:
    """lambda_min_variants' lambda_min: the smallest of the min(m, n)
    eigenvalues of A^T A, taken on row(A), from the SVD kept on problem.a."""
    return lambda_min_variants(problem.a)[0]


# the feasibility constant L is estimated from this many samples, drawn
# from a stream with this fixed seed
_L_SAMPLES = 64
_L_SEED = 999_983


def _hoffman_l(problem: Problem) -> float:
    """The feasibility constant L that envelope_factor uses: hoffman_estimate
    with _L_SAMPLES samples over hoffman_ball's default ball at the fixed
    seed _L_SEED, computed once per problem and kept on it.  It is only a
    sampled lower bound on L, and nan when no sample contributes."""

    def build():
        radius = hoffman_ball(problem)[1]
        try:
            return hoffman_estimate(problem, _L_SAMPLES, radius, _L_SEED).value
        except NoEstimateError:
            return float("nan")

    return problem.memo("hoffman_l", build)


def envelope_factor(problem: Problem, method: Method, rho: float) -> float:
    """The per-step factor of solve's summary and compare's envelope:
    instance_rate_factor at penalty rho, with _lambda_min's constant for
    equality systems, a true bound on errors in row(A), and _hoffman_l's
    sampled L for feasibility systems, so the factor is nan when no sample
    contributes.  It depends on the problem, method and rho alone."""
    if problem.kind is ProblemKind.LS:
        conditioning = _lambda_min(problem)
    else:
        conditioning = _hoffman_l(problem)
    # a nan L passes instance_rate_factor's checks and gives a nan factor
    return instance_rate_factor(problem, method, rho, conditioning)


def _enumerate_rows(
    problem: Problem, state: SolverState, method: Method, rho: float, rho_next: float
):
    """The enumeration oracles' shared core: the state's z, the squared
    error at its x, and the row-weighted expectations over one step,
    E[err'], E[z'^2] and E[err' + z'^2 / rho_next].  Every row's step comes
    from one call of the step kernel over all m rows.

    The errors (to the solution nearest the origin, or to the feasible
    set) are solvers._error_sq at x and one solvers._stacked_errors call
    on the rows that move (every equality row), each projection started
    from x's support; a row that does not move keeps the base error, and
    the first moving row whose projection fails raises its error.  Steps
    that carry no multiplier keep z.
    """
    if problem.m > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration over {problem.m} rows exceeds the cap of {_ENUMERATION_CAP} rows"
        )
    a, lf = problem.a, problem.kind is ProblemKind.LF
    x = as_vector(state.x, problem.n)
    z = float(state.z)
    solvers._check_multiplier(z, lf and method is Method.RAK)
    base_err, support = solvers._error_sq(problem, x, None)
    x_new, coef, moves = solvers._step_rows(
        a.data, x, problem.b, a.row_norms_sq, method, z, rho, lf
    )
    err = np.full(problem.m, base_err)
    # moves, not coef != 0: a moving row's coef can underflow to 0
    moving = np.flatnonzero(np.broadcast_to(moves, (problem.m,)))
    errs, _, failures = solvers._stacked_errors(problem, x_new[moving], None, support)
    for failure in filter(None, failures):
        raise failure
    err[moving] = errs
    zs = coef if method is Method.RAK else np.full(problem.m, z)
    w = RowDistribution(a).probabilities
    # summed left to right in row order, as accumulate adds; np.sum's
    # pairwise sum would round differently
    sums = np.add.accumulate([w * err, w * zs * zs, w * (err + zs * zs / rho_next)], axis=1)
    exp_err, exp_zsq, exp_next = sums[:, -1].tolist()
    return z, base_err, exp_err, exp_zsq, exp_next


@dataclass(frozen=True)
class ExpectedStepReport:
    """Row-enumerated one-step expectations from a fixed state.

    error_sq is squared distance to the solution set (equality: to the
    solution nearest the origin; feasibility: to the feasible set).
    The lyapunov fields add z^2 / rho and are filled for the multiplier
    method only.
    """

    method: Method
    kind: ProblemKind
    rho: float
    base_error_sq: float
    expected_error_sq: float
    base_lyapunov: float | None
    expected_lyapunov: float | None
    expected_dual_sq: float


def exact_expected_step(
    problem: Problem,
    state: SolverState,
    method: Method,
    rho: float,
) -> ExpectedStepReport:
    """Exact E_i over the row distribution of the post-step error (and
    Lyapunov value for the multiplier method), by full enumeration."""
    if isinstance(method, str):
        method = Method(method)
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    z, base_err, exp_err, exp_zsq, _ = _enumerate_rows(problem, state, method, rho, rho)
    if method is Method.RAK:
        base_lyap = base_err + z * z / rho
        exp_lyap = exp_err + exp_zsq / rho
    else:
        base_lyap = None
        exp_lyap = None
    return ExpectedStepReport(
        method=method,
        kind=problem.kind,
        rho=rho,
        base_error_sq=base_err,
        expected_error_sq=exp_err,
        base_lyapunov=base_lyap,
        expected_lyapunov=exp_lyap,
        expected_dual_sq=exp_zsq,
    )


@dataclass(frozen=True)
class AdaptiveStepReport:
    """Both sides of the growing-penalty per-step Lyapunov inequality."""

    lhs: float
    rhs: float
    slack: float
    expected_dual_sq: float


def adaptive_step_report(problem: Problem, state: SolverState, c: float) -> AdaptiveStepReport:
    """Evaluate the multiplier method's per-step inequality under the
    geometric penalty schedule rho' = c rho, for any row norms and shape.

    The left side is the exact row-enumerated expectation of the Lyapunov
    value at the next iterate, with the dual term weighted by 1 / rho'.
    The right side subtracts from the current Lyapunov value the
    contraction term, the dual decay term, and the schedule surcharge
    (c - 1) / (c rho) E_i[z'^2].  On an equality system a step on row i
    lowers the fixed-penalty value by exactly (rho r_i^2 + s_i z^2) /
    (1 + rho s_i), s_i = ||a_i||^2; weighted by w_i = s_i / ||A||_F^2 this
    is at least damping(rho s_min) ||r||^2 / ||A||_F^2 plus the dual decay
    z^2 sum_i w_i s_i / (1 + rho s_i), with equality on unit rows.  For
    feasibility systems r is the positive-part residual, which avoids the
    unknown distance constant and implies the rate form.
    """
    if not c >= 1.0:
        raise ValueError("schedule factor c must be at least 1")
    rho = state.rho
    if not rho > 0.0:
        raise ValueError("state.rho must be positive")
    z, base_err, _, exp_zsq, lhs = _enumerate_rows(problem, state, Method.RAK, rho, c * rho)
    a, s = problem.a, problem.a.row_norms_sq
    r = a.data @ as_vector(state.x, problem.n) - problem.b
    if problem.kind is ProblemKind.LF:
        r = np.maximum(r, 0.0)
    contraction = _damping(Method.RAK, rho * float(s.min())) * float(r @ r) / a.frobenius_sq
    dual_decay = z * z * float(RowDistribution(a).probabilities @ (s / (1.0 + rho * s)))

    base_lyap = base_err + z * z / rho
    surcharge = (c - 1.0) / (c * rho) * exp_zsq
    rhs = base_lyap - contraction - dual_decay - surcharge
    return AdaptiveStepReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, expected_dual_sq=exp_zsq)


@dataclass(frozen=True)
class CurveReport:
    """Mean error trajectory over seeded trials plus the theoretical
    envelope per_step_factor**k * initial_value."""

    method: Method
    checkpoints: list[int]
    means: list[float]
    envelope: list[float]
    per_step_factor: float
    initial_value: float
    n_trials: int


def monte_carlo_error_curve(
    problem: Problem,
    cfg: SolverConfig,
    n_trials: int,
    checkpoints: list[int],
) -> CurveReport:
    """Mean squared error (Lyapunov value for the multiplier method) at
    the given iteration checkpoints, averaged over n_trials runs.

    Trial t is the run of run_solver on the same problem with seed
    cfg.seed + t, and a checkpoint value is solvers.error_sq_of (plus
    z^2 / rho for the multiplier method) at its state after exactly that
    many iterations, so a single trial reproduces the solve trace's
    lyapunov column (at its fresh records) bit for bit.  A checkpoint
    k > 0 is one solvers._stacked_errors call on all trials, each
    projection started from the trial's support at the previous
    checkpoint, or at its first from x0's, with the cold start's result
    bit for bit (see projection._certified); at k = 0 every trial is at
    x0, whose initial value is taken, unprojected.
    All trials advance together in one pass to the largest checkpoint:
    trial t's iterate is row t of an (n_trials, n) array, and every step
    calls the step kernel on all trials at once.  The steps run in
    segments, each ending at the next checkpoint, at the end of the draw
    block or where its gathered rows, b and ||a_i||^2 reach
    solvers._METRIC_BYTES.  A segment gathers them once, step-major, and
    checks x once, at its end, as run_solver checks a chunk; one that
    fails is replayed from its saved (x, z, rho) with a check after every
    step.  Checkpoints are taken after the check.  The trials share one
    RowDistribution, built once per curve; trial t keeps its own PCG64
    stream, seeded cfg.seed + t, and draws its rows ahead in blocks of
    random(count), as its run_solver sampler would, and every trial's
    block is mapped to rows in one search, so a trial adds only its
    stream's set-up and its steps.  The residuals come from stacked
    products, which round exactly like the scalar row @ x, and stacked
    errors are each point's error_sq_of, so the means are bit for bit
    those of per-trial reruns.  rho follows run_solver's schedule, with
    advance_rho called only while solvers._rho_moves holds.  Means
    accumulate in trial order.  A non-finite iterate raises
    NumericFailureError for the lowest-index trial that produces one, at
    its first such iteration.

    The rows are used as given, by the runs, the metric and the envelope
    alike; a caller that wants unit rows passes normalize_rows(problem).
    The envelope uses envelope_factor at rho0, the fixed-penalty instance
    factor that solve prints at any seed, which is a true expectation
    bound for equality systems.  For feasibility problems the distance
    constant is a sampled lower bound on the true one, so that envelope is
    a reference curve rather than a guarantee, and nan past k = 0 when no
    sample contributes to the estimate.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    ks = sorted(int(k) for k in checkpoints)
    if ks[0] < 0:
        raise ValueError("checkpoints must be nonnegative")
    is_ls = problem.kind is ProblemKind.LS
    method = cfg.method

    x0 = np.zeros(problem.n) if cfg.x0 is None else as_vector(cfg.x0, problem.n)
    x_star = solvers.solution_nearest(problem, cfg.x0) if is_ls else None
    initial, support = solvers._error_sq(problem, x0, x_star)

    a, b, norms_sq = problem.a.data, problem.b, problem.a.row_norms_sq
    distribution = RowDistribution(problem.a)
    rngs = [make_rng(cfg.seed + t) for t in range(n_trials)]
    x = np.tile(x0, (n_trials, 1))
    z = np.zeros(n_trials)
    rho = cfg.rho0
    moving = solvers._rho_moves(method, rho, cfg.c, cfg.rho_max)
    sums = [0.0 for _ in ks]
    # each trial's projection support at its last checkpoint, x0's before
    supports = support if support is None else np.broadcast_to(support, (n_trials, problem.m))
    failed_at = None
    next_j = 0

    def add_checkpoints(k: int) -> None:
        nonlocal next_j, supports
        while next_j < len(ks) and ks[next_j] == k:
            if k == 0:
                # every trial is at x0, whose error is initial (and z = 0)
                errs = np.full(len(x), initial)
            else:
                errs, supports, failures = solvers._stacked_errors(problem, x, x_star, supports)
                for failure in filter(None, failures):
                    raise failure  # the lowest trial's, as a loop over the trials meets it
            if method is Method.RAK:
                errs += z * z / rho
            for err in errs.tolist():
                sums[next_j] += err
            next_j += 1

    add_checkpoints(0)
    # a segment's gathered rows, b and ||a_i||^2 stay within the byte budget
    segment = max(1, solvers._METRIC_BYTES // (8 * n_trials * (problem.n + 2)))
    k = 0
    while k < ks[-1]:
        j = k % _DRAW_BLOCK
        if j == 0:
            # trial t's block is random(count) from its own stream, mapped
            # to rows with the others' in one search
            count = min(_DRAW_BLOCK, ks[-1] - k)
            drawn = distribution.rows(np.stack([rng.random(count) for rng in rngs]))
        # to the next checkpoint, the block's end or the budget, and step-major,
        # so each step reads a C-contiguous (trials, n) slice
        end = min(ks[next_j], k - j + count, k + segment)
        idx = drawn[:, j : j + end - k].T
        seg_a, seg_b, seg_norms = a[idx], b[idx], norms_sq[idx]
        saved = (x, z, rho, moving)
        # the replay only finds each failing trial's first non-finite step
        for careful in (False, True):
            if careful:
                x, z, rho, moving = saved
            for step in range(end - k):
                x, coef, _ = solvers._step_rows(
                    seg_a[step], x, seg_b[step], seg_norms[step], method, z, rho, not is_ls
                )
                if method is Method.RAK:
                    z = coef
                if careful:
                    finite = np.isfinite(x).all(axis=1)
                    if not finite.all():
                        # later trials no longer matter: trial bad fails first in
                        # trial order unless an earlier one fails later on
                        bad = int(np.argmin(finite))
                        failed_at = k + step + 1
                        if bad == 0:
                            raise NumericFailureError(failed_at)
                        rngs, drawn = rngs[:bad], drawn[:bad]
                        x, z = x[:bad], z[:bad]
                        seg_a, seg_b, seg_norms = (
                            v[:, :bad] for v in (seg_a, seg_b, seg_norms)
                        )
                        supports = supports if supports is None else supports[:bad]
                if moving:
                    rho = solvers.advance_rho(rho, cfg.c, cfg.rho_max)
                    moving = solvers._rho_moves(method, rho, cfg.c, cfg.rho_max)
            if careful or np.isfinite(x).all():
                break
        k = end
        add_checkpoints(k)
    if failed_at is not None:
        raise NumericFailureError(failed_at)
    means = [s / n_trials for s in sums]

    factor = envelope_factor(problem, method, cfg.rho0)
    envelope = [factor**k * initial for k in ks]
    return CurveReport(
        method=method,
        checkpoints=ks,
        means=means,
        envelope=envelope,
        per_step_factor=factor,
        initial_value=initial,
        n_trials=n_trials,
    )
