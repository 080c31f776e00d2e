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
from .problems import Problem, ProblemKind, normalize_rows
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
    2 (1 + ||centre||).
    """
    center = problem.x_planted
    if center is None:
        center = project_polyhedron(np.zeros(problem.n), problem.a, problem.b)
    return center, 2.0 * (1.0 + float(np.sqrt(center @ center)))


def hoffman_estimate(
    problem: Problem, n_samples: int, radius: float, seed: int
) -> HoffmanEstimate:
    """Estimate the constant L with d(x, X) <= L ||(Ax - b)+||_2.

    Samples points uniformly from the ball of the given radius around the
    centre given by hoffman_ball, skips feasible ones, and maximizes the ratio
    d(x, X) / ||(Ax - b)+||_2 over the rest.  The maximum can only grow
    with more samples under the same seed.
    """
    if problem.kind is not ProblemKind.LF:
        raise ValueError("hoffman_estimate needs a feasibility problem")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center, _ = hoffman_ball(problem)
    rng = make_rng(seed)
    n = problem.n
    b_scale = 1.0 + float(np.abs(problem.b).max())
    best = 0.0
    contributing = 0
    for _ in range(n_samples):
        direction = rng.standard_normal(n)
        u = rng.random()
        norm = float(np.sqrt(direction @ direction))
        if norm == 0.0:
            continue
        point = center + radius * u ** (1.0 / n) * direction / norm
        r_plus = np.maximum(problem.a.data @ point - problem.b, 0.0)
        r_norm = float(np.sqrt(r_plus @ r_plus))
        if r_norm <= 1e-12 * b_scale:
            continue
        ratio = distance_to_feasible(point, problem) / r_norm
        contributing += 1
        if ratio > best:
            best = ratio
    if contributing == 0:
        raise NoEstimateError(
            f"all {n_samples} sampled points were feasible; grow the radius"
        )
    return HoffmanEstimate(value=best, n_contributing=contributing, n_samples=n_samples)


def _sampled_hoffman_l(problem: Problem, seed: int, n_samples: int = 200) -> float:
    """The seeded estimate of L that stands in for the true constant in the
    envelopes and summary factors: hoffman_estimate over hoffman_ball's
    default ball, seeded with the run seed plus 999,983."""
    _, radius = hoffman_ball(problem)
    return hoffman_estimate(problem, n_samples, radius, seed + 999_983).value


def _sampling_weights(a: DenseMatrix) -> np.ndarray:
    return a.row_norms_sq / a.frobenius_sq


def _scalar_multiplier(state: SolverState) -> float:
    """The state's single multiplier z; the enumeration oracles follow one
    z through a step, so per-row multipliers are refused."""
    if np.ndim(state.z) != 0:
        raise ValueError(
            "per-row multipliers (z_per_row states) are not supported by "
            "the enumeration oracles; pass a state with one scalar z"
        )
    return float(state.z)


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
    z = _scalar_multiplier(state)
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

    Trial t is the run of run_solver with seed cfg.seed + t, and a
    checkpoint value is the metric of its state after exactly that many
    iterations, so a single trial reproduces the solve trace.  All trials
    advance together in one pass to the largest checkpoint: trial t's
    iterate is row t of an (n_trials, n) array, its rows come from its own
    sampler, drawn ahead in blocks, and every step calls the step kernel
    on all trials at once.  The residuals come from a stacked matmul,
    which rounds exactly like the scalar row @ x, so the means are bit for
    bit those of per-trial reruns.  Means accumulate in trial order.  A non-finite iterate raises NumericFailureError for the
    lowest-index trial that produces one, at its first such iteration.

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
    if is_ls:
        x_star = least_norm_solution(problem.a, problem.b, x0)
        d0 = x0 - x_star
        initial = float(d0 @ d0)
    else:
        x_star = None
        initial = distance_to_feasible(x0, problem) ** 2

    # the rows the solver runs on; the metric stays on the given problem
    run = problem
    if cfg.normalize and not problem.normalized:
        run = normalize_rows(problem)
    a, b, norms_sq = run.a.data, run.b, run.a.row_norms_sq
    per_row = cfg.z_per_row and method is Method.RAK
    samplers = [build_sampler(run.a, cfg.seed + t) for t in range(n_trials)]
    x = np.tile(x0, (n_trials, 1))
    z = np.zeros((n_trials, run.m) if per_row else n_trials)
    rho = cfg.rho0
    sums = [0.0 for _ in ks]
    failed_at = None
    next_j = 0

    def add_checkpoints(k: int) -> None:
        nonlocal next_j
        while next_j < len(ks) and ks[next_j] == k:
            for t in range(len(x)):
                # an array of its own, as run_solver's state.x is
                xt = x[t].copy()
                if is_ls:
                    d = xt - x_star
                    err = float(d @ d)
                else:
                    err = distance_to_feasible(xt, problem) ** 2
                if method is Method.RAK:
                    err += float(np.sum(np.square(z[t]))) / rho
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
        # trial t's multiplier: z[t, idx[t]] per row, else z[t]
        at = (np.arange(len(x)), idx) if per_row else slice(None)
        z_arg, rho_arg = solvers._kernel_args(method, z[at], rho)
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
            z[at] = coef
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
