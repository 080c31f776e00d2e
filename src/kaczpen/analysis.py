"""Verification-side analysis: contraction constants, Lyapunov values,
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
from .linalg import DenseMatrix, as_vector, lambda_min_variants, least_norm_solution
from .problems import Problem, ProblemKind
from .projection import distance_to_feasible, project_polyhedron
from .sampling import build_sampler, make_rng
from .solvers import _DRAW_BLOCK, Method, NumericFailureError, SolverConfig, SolverState

__all__ = [
    "RateConstants",
    "rate_constants",
    "instance_rate_factor",
    "lyapunov_ls",
    "lyapunov_lf",
    "HoffmanEstimate",
    "NoEstimateError",
    "hoffman_ball",
    "hoffman_estimate",
    "ExpectedStepReport",
    "exact_expected_step",
    "AdaptiveStepReport",
    "adaptive_step_report",
    "CurveReport",
    "monte_carlo_error_curve",
]

# enumeration oracles refuse systems with more rows than this
_ENUMERATION_CAP = 10_000


class NoEstimateError(Exception):
    """No sampled point contributed to the constant estimate."""


@dataclass(frozen=True)
class RateConstants:
    """Damping factor of the step family and the per-step contraction
    factor it yields.  The factor is meaningful for unit-norm rows."""

    damping: float
    per_step_factor: float


def _damping(method: Method, rho: float) -> float:
    """Damping of the step family at penalty rho: rho (rho + 2) / (1 + rho)^2
    for the penalty step, rho / (1 + rho) for the multiplier step, and 1
    for the plain step (its penalty-free limit)."""
    if method is Method.RPK:
        return rho * (rho + 2.0) / ((1.0 + rho) ** 2)
    if method is Method.RAK:
        return rho / (1.0 + rho)
    return 1.0


def _contraction_factor(
    method: Method, kind: ProblemKind, rho: float, conditioning: float,
    s_min: float, weight: float,
) -> tuple[float, float]:
    """(damping, per-step factor), the damping taken at rho * s_min:
    1 - damping lambda_min / weight (LS) or 1 - damping s_min / (weight L^2)
    (LF).  s_min is the smallest squared row norm and weight the sampling
    weights' normalizer: m for unit rows, ||A||_F^2 in general."""
    damping = _damping(method, rho * s_min)
    if kind is ProblemKind.LS:
        if conditioning < 0.0:
            raise ValueError("smallest eigenvalue must be nonnegative")
        return damping, 1.0 - damping * conditioning / weight
    if conditioning <= 0.0:
        raise ValueError("the distance constant L must be positive")
    return damping, 1.0 - damping * s_min / (weight * conditioning**2)


def rate_constants(
    method: Method, kind: ProblemKind, rho: float, conditioning: float, m: int
) -> RateConstants:
    """Per-step contraction constants for unit-norm rows.

    conditioning is the smallest eigenvalue of A^T A for equality systems
    and the residual-to-distance constant L for feasibility systems; the
    damping is _damping(method, rho).
    """
    if isinstance(method, str):
        method = Method(method)
    if isinstance(kind, str):
        kind = ProblemKind(kind)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    # unit rows: s_min = 1 leaves rho and the damping unchanged bit for bit
    damping, factor = _contraction_factor(method, kind, rho, conditioning, 1.0, m)
    return RateConstants(damping=damping, per_step_factor=factor)


def lyapunov_ls(x, x_star, z: float, rho: float) -> float:
    """||x - x*||^2 + z^2 / rho."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    x = as_vector(x)
    x_star = as_vector(x_star, x.shape[0])
    d = x - x_star
    return float(d @ d) + z * z / rho


def lyapunov_lf(x, problem: Problem, z: float, rho: float) -> float:
    """d(x, feasible set)^2 + z^2 / rho with z >= 0."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if z < 0.0:
        raise ValueError("multiplier z must be nonnegative in feasibility mode")
    d = distance_to_feasible(x, problem)
    return d * d + z * z / rho


def instance_rate_factor(
    problem: Problem, method: Method, rho: float, conditioning: float
) -> float:
    """Per-step envelope factor valid for arbitrary row norms.

    With unit rows this reduces exactly to rate_constants; in general the
    damping is evaluated at rho * min_i ||a_i||^2 (each row's effective
    penalty is rho ||a_i||^2 and the damping grows with it, so the
    smallest row gives a uniform lower bound on per-row progress) and the
    row count is replaced by ||A||_F^2, the normalizer of the sampling
    weights.  For equality systems:

        E ||x' - x*||^2 <= (1 - damping(rho s_min) lambda_min / ||A||_F^2) ||x - x*||^2

    which follows from summing the per-row progress s_i r_i^2 weighted by
    s_i / ||A||_F^2 and bounding sum_i r_i^2 >= lambda_min ||x - x*||^2.
    The multiplier method's dual term contracts by at least the same
    damping, so the bound covers its Lyapunov value too.  For feasibility
    systems the same substitution is applied to the unit-row form (it can
    only push the factor toward 1 when rows are uneven).
    """
    if isinstance(method, str):
        method = Method(method)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    s_min = float(problem.a.row_norms_sq.min())
    return _contraction_factor(
        method, problem.kind, rho, conditioning, s_min, problem.a.frobenius_sq
    )[1]


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
    ball = problem.__dict__.get("_hoffman_ball")
    if ball is None:
        center = problem.x_planted
        if center is None:
            center = project_polyhedron(np.zeros(problem.n), problem.a, problem.b)
            center.flags.writeable = False
        ball = (center, 2.0 * (1.0 + float(np.sqrt(center @ center))))
        # a frozen dataclass takes a cached attribute through object.__setattr__
        object.__setattr__(problem, "_hoffman_ball", ball)
    return ball


# a sample is projected unless its ratio bound times 1 + _SKIP_MARGIN falls
# below the best ratio so far (the margin is derived in hoffman_estimate)
_SKIP_MARGIN = 1e-6
# projected-gradient steps that tighten bound (iii) from its start at r+
_DUAL_STEPS = 20
# bound (iii) is used only where its relative rounding is below this
_CHOLESKY_ROUNDING = 1e-8
# eigvalsh's eigenvalues are taken to be off by up to this many times
# m eps lambda_max, the order of its rounding
_EIGVALSH_SAFETY = 10.0


def _least_norm_step_factor(a: DenseMatrix) -> tuple[np.ndarray, float] | None:
    """The inverse of the Cholesky factor C of G = A A^T, so that
    ||C^-1 v|| = sqrt(v^T G^-1 v) is the length of the least-norm step
    A^T mu with G mu = v, and lambda_min(G); or None when m > n, G is not
    safely positive definite, or the rounding bound
    2 (m + n + 1) eps kappa(G) exceeds _CHOLESKY_ROUNDING.

    kappa(G) = lambda_max / lambda_min is taken from eigvalsh, whose
    eigenvalues are off by at most about m eps lambda_max.  With
    s = _EIGVALSH_SAFETY m eps lambda_max the gate uses
    (lambda_max + s) / (lambda_min - s), an upper bound on the exact
    kappa, and needs lambda_min > s."""
    m, n = a.shape
    if m > n:
        return None
    gram = a.data @ a.data.T
    eps = np.finfo(np.float64).eps
    try:
        eig = np.linalg.eigvalsh(gram)
        lam_min, lam_max = float(eig[0]), float(eig[-1])
        slack = _EIGVALSH_SAFETY * m * eps * lam_max
        # a NaN eigenvalue (overflowed gram) fails `>` and turns the bound off
        kappa = (lam_max + slack) / (lam_min - slack) if lam_min > slack else np.inf
        if not 2.0 * (m + n + 1) * eps * kappa <= _CHOLESKY_ROUNDING:
            return None
        inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return None
    return inv, lam_min


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
    norms = np.sqrt(_row_dots(directions, directions))
    drawn = norms != 0.0
    scales = np.array([radius * u ** (1.0 / n) for u in draws])[drawn]
    # the stacked matmuls take each sample's a @ point and r+ @ r+ as the
    # matrix-vector and vector dots of one sample at a time
    points = center + scales[:, None] * directions[drawn] / norms[drawn, None]
    residuals = np.matmul(problem.a.data, points[:, :, None])[:, :, 0] - problem.b
    r_plus = np.maximum(residuals, 0.0)
    r_norms = np.sqrt(_row_dots(r_plus, r_plus))
    keep = ~(r_norms <= 1e-12 * b_scale)
    if not keep.any():
        raise NoEstimateError(
            f"all {n_samples} sampled points were feasible; grow the radius"
        )
    points, residuals, r_plus, r_norms = points[keep], residuals[keep], r_plus[keep], r_norms[keep]
    reach = np.linalg.norm(points - center, axis=1)
    factor = _least_norm_step_factor(problem.a)
    if factor is not None:
        inv, alpha = factor
        gram_inv = inv.T @ inv
        v = r_plus
        for _ in range(_DUAL_STEPS):
            v = np.maximum(residuals, v - alpha * (v @ gram_inv))
        reach = np.minimum(reach, np.linalg.norm(v @ inv.T, axis=1))
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
    (iii) ||C^-1 v|| / ||r+|| for a v >= r, when m <= n and
          _least_norm_step_factor gives the inverse Cholesky factor C^-1
          of G = A A^T.  For any v >= r, y = x - A^T G^-1 v is feasible,
          as Ay = Ax - v <= b, and ||x - y||^2 = v^T G^-1 v = ||C^-1 v||^2;
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
    - the projection: a computed distance comes from a result the
      certificate accepts when it is feasible, and complementary, to
      1e-8 relative, so it can exceed the exact distance by that order;
    - the factor's rounding: forming G, factoring it and inverting the
      factor perturb v^T G^-1 v by at most 2 (m + n + 1) eps kappa(G)
      relative, for every v, and bound (iii) is used only where that is
      at most 1e-8.  The projected-gradient steps add no error of their
      own: each iterate is an exact v >= r, and only its final norm is
      rounded, as above.  kappa(G) is the spectral condition number from
      eigvalsh, whose own rounding (at most about m eps lambda_max in
      each eigenvalue) is covered tenfold before kappa enters the gate.

    Their sum, about 3e-8 relative at worst, stays more than 30 times
    below delta; the bounds' own rounding (n eps) is smaller still.  On the
    package's instances the errors actually incurred are at rounding
    level.  Bound (iii) is tight, so on wide systems the search usually
    projects one sample; tall systems (m > n, G singular) use bound (i)
    alone.

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


def _sampled_hoffman_l(problem: Problem, seed: int, n_samples: int = 200) -> float:
    """The seeded estimate of L that stands in for the true constant in the
    envelopes and summary factors: hoffman_estimate over hoffman_ball's
    default ball, seeded with the run seed plus 999,983."""
    _, radius = hoffman_ball(problem)
    return hoffman_estimate(problem, n_samples, radius, seed + 999_983).value


def _sampling_weights(a: DenseMatrix) -> np.ndarray:
    return a.row_norms_sq / a.frobenius_sq


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u[t] . v[t] (v may be one vector for all rows); the stacked
    matmul takes the same dot as the scalar float(u[t] @ v[t])."""
    if v.ndim == 1:
        v = np.broadcast_to(v, u.shape)
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _enumerate_rows(problem: Problem, state: SolverState, method: Method, rho: float, x_star):
    """The enumeration oracles' shared core: the state's z, the squared
    error at its x, and each row's squared error and multiplier z' after
    one step on that row, from one call of the step kernel over all m rows.

    The error is the squared distance to x_star (equality; by default the
    solution nearest the origin) or to the feasible set (feasibility, where
    a row that does not move keeps the base error).  Steps that carry no
    multiplier keep z.
    """
    if problem.m > _ENUMERATION_CAP:
        raise ValueError(f"enumeration over {problem.m} rows exceeds the cap")
    a, lf = problem.a, problem.kind is ProblemKind.LF
    x = as_vector(state.x, problem.n)
    z = float(state.z)
    if lf:
        if method is Method.RAK and z < 0.0:
            raise ValueError("multiplier z must be nonnegative in feasibility mode")
        base_dist = distance_to_feasible(x, problem)
        base_err = base_dist * base_dist
    else:
        if x_star is None:
            x_star = least_norm_solution(a, problem.b, np.zeros(problem.n))
        d = x - x_star
        base_err = float(d @ d)
    z_arg, rho_arg = solvers._kernel_args(method, z, rho)
    coef, moves = solvers._step_coef(
        _row_dots(a.data, x) - problem.b, z_arg, a.row_norms_sq, rho_arg, lf
    )
    x_new = x - coef[:, None] * a.data
    if lf:
        err = np.full(problem.m, base_err)
        for i in np.flatnonzero(moves):
            # an array of its own, as the step functions return
            dist = distance_to_feasible(x_new[i].copy(), problem)
            err[i] = dist * dist
        coef = np.where(moves, coef, 0.0)
    else:
        d = x_new - x_star
        err = _row_dots(d, d)
    return z, base_err, err, (coef if method is Method.RAK else np.full(problem.m, z))


@dataclass(frozen=True)
class ExpectedStepReport:
    """Row-enumerated one-step expectations from a fixed state.

    error_sq is squared distance to the solution set (equality: to the
    solution nearest the run start; feasibility: to the feasible set).
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
    x_star: np.ndarray | None = None,
) -> ExpectedStepReport:
    """Exact E_i over the row distribution of the post-step error (and
    Lyapunov value for the multiplier method), by full enumeration."""
    if isinstance(method, str):
        method = Method(method)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    z, base_err, errs, zs = _enumerate_rows(problem, state, method, rho, x_star)
    exp_err = 0.0
    exp_zsq = 0.0
    # summed row by row in row order; a vectorised sum would round differently
    for w, err, z_new in zip(_sampling_weights(problem.a), errs, zs):
        exp_err += w * err
        exp_zsq += w * z_new * z_new

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


def adaptive_step_report(
    problem: Problem,
    state: SolverState,
    c: float,
    x_star: np.ndarray | None = None,
) -> AdaptiveStepReport:
    """Evaluate the multiplier method's per-step inequality under the
    geometric penalty schedule rho' = c rho.

    The left side is the exact row-enumerated expectation of the Lyapunov
    value at the next iterate, with the dual term weighted by 1 / rho'.
    The right side subtracts from the current Lyapunov value the
    contraction term, the dual decay term, and the schedule surcharge
    (c - 1) / (c rho) E_i[z'^2].  For feasibility systems the contraction
    term uses the positive-part residual directly, which avoids the
    unknown distance constant and implies the rate form.  Requires unit
    row norms; the expectation only matches the bound in that scaling.
    """
    if c < 1.0:
        raise ValueError("schedule factor c must be at least 1")
    drift = float(np.abs(problem.a.row_norms_sq - 1.0).max())
    if drift > 1e-8:
        raise ValueError("the inequality is stated for unit-norm rows")
    rho = state.rho
    if rho <= 0.0:
        raise ValueError("state.rho must be positive")
    z, base_err, errs, zs = _enumerate_rows(problem, state, Method.RAK, rho, x_star)
    rho_next = c * rho
    m = problem.m
    if problem.kind is ProblemKind.LS:
        lam_min, _ = lambda_min_variants(problem.a)
        contraction = rho * lam_min / (m * (1.0 + rho)) * base_err
    else:
        x = as_vector(state.x, problem.n)
        r_plus = np.maximum(problem.a.data @ x - problem.b, 0.0)
        contraction = rho / (m * (1.0 + rho)) * float(r_plus @ r_plus)

    lhs = 0.0
    exp_zsq = 0.0
    # summed row by row in row order; a vectorised sum would round differently
    for w, err, z_new in zip(_sampling_weights(problem.a), errs, zs):
        lhs += w * (err + z_new * z_new / rho_next)
        exp_zsq += w * z_new * z_new

    base_lyap = base_err + z * z / rho
    surcharge = (c - 1.0) / (c * rho) * exp_zsq
    rhs = base_lyap - contraction - z * z / (1.0 + rho) - surcharge
    return AdaptiveStepReport(
        lhs=lhs, rhs=rhs, slack=rhs - lhs, expected_dual_sq=exp_zsq
    )


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
    hoffman_l: float | None = None,
) -> CurveReport:
    """Mean squared error (Lyapunov value for the multiplier method) at
    the given iteration checkpoints, averaged over n_trials runs.

    Trial t is the run of run_solver on the same problem with seed
    cfg.seed + t, and a checkpoint value is solvers.error_sq_of (plus
    z^2 / rho for the multiplier method) at its state after exactly that
    many iterations, so a single trial reproduces the solve trace's
    lyapunov column (at its fresh records) bit for bit.  All trials
    advance together in one pass
    to the largest checkpoint: trial t's iterate is row t of an
    (n_trials, n) array, its rows come from its own sampler, drawn ahead
    in blocks, and every step calls the step kernel on all trials at once.
    The residuals come from a stacked matmul, which rounds exactly like
    the scalar row @ x, so the means are bit for bit those of per-trial
    reruns.  Means accumulate in trial order.  A non-finite iterate raises
    NumericFailureError for the lowest-index trial that produces one, at
    its first such iteration.

    The rows are used as given, by the runs, the metric and the envelope
    alike; a caller that wants unit rows passes normalize_rows(problem).
    The envelope uses the fixed-penalty instance factor at rho0, which is
    a true expectation bound for equality systems.  For feasibility
    problems the distance constant is taken from hoffman_l or, failing
    that, a seeded internal estimate; the estimate is only a sampled lower
    bound on the true constant, so that envelope is a reference curve
    rather than a guarantee.
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
    x_star = least_norm_solution(problem.a, problem.b, x0) if is_ls else None
    initial = solvers.error_sq_of(problem, x0, x_star)

    a, b, norms_sq = problem.a.data, problem.b, problem.a.row_norms_sq
    samplers = [build_sampler(problem.a, cfg.seed + t) for t in range(n_trials)]
    x = np.tile(x0, (n_trials, 1))
    z = np.zeros(n_trials)
    rho = cfg.rho0
    sums = [0.0 for _ in ks]
    failed_at = None
    next_j = 0

    def add_checkpoints(k: int) -> None:
        nonlocal next_j
        while next_j < len(ks) and ks[next_j] == k:
            for t in range(len(x)):
                # an array of its own, as run_solver's state.x is
                err = solvers.error_sq_of(problem, x[t].copy(), x_star)
                if method is Method.RAK:
                    zt = float(z[t])
                    err += zt * zt / rho
                sums[next_j] += err
            next_j += 1

    add_checkpoints(0)
    for k in range(1, ks[-1] + 1):
        j = (k - 1) % _DRAW_BLOCK
        if j == 0:
            count = min(_DRAW_BLOCK, ks[-1] - k + 1)
            drawn = np.stack([s.sample_rows(count) for s in samplers])
        idx = drawn[:, j]
        rows = a[idx]
        z_arg, rho_arg = solvers._kernel_args(method, z, rho)
        coef, moves = solvers._step_coef(
            _row_dots(rows, x) - b[idx], z_arg, norms_sq[idx], rho_arg, not is_ls
        )
        step = x - coef[:, None] * rows
        if is_ls:
            x = step
        else:
            # the step functions leave x (and zero z) when the row does not move
            x = np.where(moves[:, None], step, x)
            coef = np.where(moves, coef, 0.0)
        if method is Method.RAK:
            z = coef
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            # later trials no longer matter: trial bad fails first in
            # trial order unless an earlier one fails later on
            bad = int(np.argmin(finite))
            failed_at = k
            if bad == 0:
                break
            samplers, drawn = samplers[:bad], drawn[:bad]
            x, z = x[:bad], z[:bad]
        if method is not Method.RK:
            rho = solvers.advance_rho(rho, cfg.c, cfg.rho_max)
        add_checkpoints(k)
    if failed_at is not None:
        raise NumericFailureError(failed_at)
    means = [s / n_trials for s in sums]

    if is_ls:
        lam_min, _ = lambda_min_variants(problem.a)
        conditioning = lam_min
    else:
        if hoffman_l is None:
            hoffman_l = _sampled_hoffman_l(problem, cfg.seed)
        conditioning = hoffman_l
    factor = instance_rate_factor(problem, method, cfg.rho0, conditioning)
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
