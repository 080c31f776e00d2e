"""Verification-side analysis: contraction constants, Lyapunov values,
projections, exact one-step expectations, and Monte Carlo error curves.

The expectation helpers enumerate every row with its sampling weight, so
they are exact oracles (up to floating point) rather than estimates, and
the test suites lean on them to check the per-step contraction bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, as_vector, lambda_min_variants, least_norm_solution
from .problems import Problem, ProblemKind
from .projection import distance_to_feasible, project_polyhedron
from .sampling import make_rng
from .solvers import (
    Method,
    SolverConfig,
    SolverState,
    rak_step_lf,
    rak_step_ls,
    rk_step_lf,
    rk_step_ls,
    rpk_step_lf,
    rpk_step_ls,
    run_solver,
)

__all__ = [
    "RateConstants",
    "rate_constants",
    "instance_rate_factor",
    "lyapunov_ls",
    "lyapunov_lf",
    "project_affine",
    "project_polyhedron",
    "distance_to_feasible",
    "HoffmanEstimate",
    "NoEstimateError",
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


def rate_constants(
    method: Method, kind: ProblemKind, rho: float, conditioning: float, m: int
) -> RateConstants:
    """Per-step contraction constants.

    conditioning is the smallest eigenvalue of A^T A for equality systems
    and the residual-to-distance constant L for feasibility systems.  The
    damping is rho (rho + 2) / (1 + rho)^2 for the penalty step,
    rho / (1 + rho) for the multiplier step, and 1 for the plain step
    (its penalty-free limit).
    """
    if isinstance(method, str):
        method = Method(method)
    if isinstance(kind, str):
        kind = ProblemKind(kind)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    if method is Method.RPK:
        damping = rho * (rho + 2.0) / ((1.0 + rho) ** 2)
    elif method is Method.RAK:
        damping = rho / (1.0 + rho)
    else:
        damping = 1.0
    if kind is ProblemKind.LS:
        if conditioning < 0.0:
            raise ValueError("smallest eigenvalue must be nonnegative")
        factor = 1.0 - damping * conditioning / m
    else:
        if conditioning <= 0.0:
            raise ValueError("the distance constant L must be positive")
        factor = 1.0 - damping / (m * conditioning**2)
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


def project_affine(x, a: DenseMatrix, b) -> np.ndarray:
    """Projection of x onto {y : Ay = b} (the solution nearest x)."""
    return least_norm_solution(a, b, x)


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
    f_sq = problem.a.frobenius_sq
    rho_eff = rho * s_min
    if method is Method.RPK:
        damping = rho_eff * (rho_eff + 2.0) / ((1.0 + rho_eff) ** 2)
    elif method is Method.RAK:
        damping = rho_eff / (1.0 + rho_eff)
    else:
        damping = 1.0
    if problem.kind is ProblemKind.LS:
        if conditioning < 0.0:
            raise ValueError("smallest eigenvalue must be nonnegative")
        return 1.0 - damping * conditioning / f_sq
    if conditioning <= 0.0:
        raise ValueError("the distance constant L must be positive")
    return 1.0 - damping * s_min / (f_sq * conditioning**2)


@dataclass(frozen=True)
class HoffmanEstimate:
    """Lower bound on the residual-to-distance constant, from sampling."""

    value: float
    n_contributing: int
    n_samples: int


def hoffman_estimate(
    problem: Problem, n_samples: int, radius: float, seed: int
) -> HoffmanEstimate:
    """Estimate the constant L with d(x, X) <= L ||(Ax - b)+||_2.

    Samples points uniformly from the ball of the given radius around the
    planted point (or around the projection of the origin when no point
    was planted), skips feasible ones, and maximizes the ratio
    d(x, X) / ||(Ax - b)+||_2 over the rest.  The maximum can only grow
    with more samples under the same seed.
    """
    if problem.kind is not ProblemKind.LF:
        raise ValueError("hoffman_estimate needs a feasibility problem")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = problem.x_planted
    if center is None:
        center = project_polyhedron(np.zeros(problem.n), problem.a, problem.b)
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


def _apply_step(problem: Problem, x, z: float, method: Method, rho: float, i: int):
    """One step of the given family on row i; returns (x', z')."""
    a, b = problem.a, problem.b
    if problem.kind is ProblemKind.LS:
        if method is Method.RK:
            return rk_step_ls(x, a, b, i), z
        if method is Method.RPK:
            return rpk_step_ls(x, a, b, i, rho), z
        return rak_step_ls(x, z, a, b, i, rho)
    if method is Method.RK:
        return rk_step_lf(x, a, b, i), z
    if method is Method.RPK:
        return rpk_step_lf(x, a, b, i, rho), z
    return rak_step_lf(x, z, a, b, i, rho)


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
    if problem.m > _ENUMERATION_CAP:
        raise ValueError(f"enumeration over {problem.m} rows exceeds the cap")
    x = as_vector(state.x, problem.n)
    z = _scalar_multiplier(state)
    is_ls = problem.kind is ProblemKind.LS
    if is_ls:
        if x_star is None:
            x_star = least_norm_solution(problem.a, problem.b, np.zeros(problem.n))
        d = x - x_star
        base_err = float(d @ d)
    else:
        base_dist = distance_to_feasible(x, problem)
        base_err = base_dist * base_dist

    weights = _sampling_weights(problem.a)
    exp_err = 0.0
    exp_zsq = 0.0
    for i in range(problem.m):
        x_new, z_new = _apply_step(problem, x, z, method, rho, i)
        if is_ls:
            d = x_new - x_star
            err = float(d @ d)
        elif x_new is x:
            err = base_err
        else:
            dist = distance_to_feasible(x_new, problem)
            err = dist * dist
        exp_err += weights[i] * err
        exp_zsq += weights[i] * z_new * z_new

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
    x = as_vector(state.x, problem.n)
    z = _scalar_multiplier(state)
    rho_next = c * rho
    is_ls = problem.kind is ProblemKind.LS
    m = problem.m

    if is_ls:
        if x_star is None:
            x_star = least_norm_solution(problem.a, problem.b, np.zeros(problem.n))
        d = x - x_star
        base_err = float(d @ d)
        lam_min, _ = lambda_min_variants(problem.a)
        contraction = rho * lam_min / (m * (1.0 + rho)) * base_err
    else:
        if z < 0.0:
            raise ValueError("multiplier z must be nonnegative in feasibility mode")
        base_dist = distance_to_feasible(x, problem)
        base_err = base_dist * base_dist
        r_plus = np.maximum(problem.a.data @ x - problem.b, 0.0)
        contraction = rho / (m * (1.0 + rho)) * float(r_plus @ r_plus)

    weights = _sampling_weights(problem.a)
    lhs = 0.0
    exp_zsq = 0.0
    for i in range(m):
        x_new, z_new = _apply_step(problem, x, z, Method.RAK, rho, i)
        if is_ls:
            dn = x_new - x_star
            err = float(dn @ dn)
        elif x_new is x:
            err = base_err
        else:
            dist = distance_to_feasible(x_new, problem)
            err = dist * dist
        lhs += weights[i] * (err + z_new * z_new / rho_next)
        exp_zsq += weights[i] * z_new * z_new

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

    Trial t reruns the solver with seed cfg.seed + t; a checkpoint value
    is the metric of the state after exactly that many iterations, so a
    single trial reproduces the solve trace.  Means accumulate in trial
    order.  The envelope uses the fixed-penalty instance factor at rho0,
    which is a true expectation bound for equality systems.  For
    feasibility problems the distance constant is taken from hoffman_l
    or, failing that, a seeded internal estimate; the estimate is only a
    sampled lower bound on the true constant, so that envelope is a
    reference curve rather than a guarantee.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    ks = sorted(int(k) for k in checkpoints)
    if ks[0] < 0:
        raise ValueError("checkpoints must be nonnegative")
    is_ls = problem.kind is ProblemKind.LS

    x0 = np.zeros(problem.n) if cfg.x0 is None else as_vector(cfg.x0, problem.n)
    if is_ls:
        x_star = least_norm_solution(problem.a, problem.b, x0)
        d0 = x0 - x_star
        initial = float(d0 @ d0)
    else:
        x_star = None
        initial = distance_to_feasible(x0, problem) ** 2

    def metric(state: SolverState) -> float:
        if is_ls:
            d = state.x - x_star
            err = float(d @ d)
        else:
            err = distance_to_feasible(state.x, problem) ** 2
        if cfg.method is Method.RAK:
            zsq = float(np.sum(np.square(state.z)))
            err += zsq / state.rho
        return err

    sums = [0.0 for _ in ks]
    for t in range(n_trials):
        for j, k in enumerate(ks):
            run_cfg = SolverConfig(
                method=cfg.method,
                max_iters=k,
                rho0=cfg.rho0,
                c=cfg.c,
                rho_max=cfg.rho_max,
                seed=cfg.seed + t,
                normalize=cfg.normalize,
                x0=cfg.x0,
                z_per_row=cfg.z_per_row,
            )
            state = run_solver(problem, run_cfg)
            sums[j] += metric(state)
    means = [s / n_trials for s in sums]

    if is_ls:
        lam_min, _ = lambda_min_variants(problem.a)
        conditioning = lam_min
    else:
        if hoffman_l is None:
            center = problem.x_planted
            if center is None:
                center = project_polyhedron(
                    np.zeros(problem.n), problem.a, problem.b
                )
            radius = 2.0 * (1.0 + float(np.sqrt(center @ center)))
            est = hoffman_estimate(
                problem, n_samples=200, radius=radius, seed=cfg.seed + 999_983
            )
            hoffman_l = est.value
        conditioning = hoffman_l
    factor = instance_rate_factor(problem, cfg.method, cfg.rho0, conditioning)
    envelope = [factor**k * initial for k in ks]
    return CurveReport(
        method=cfg.method,
        checkpoints=ks,
        means=means,
        envelope=envelope,
        per_step_factor=factor,
        initial_value=initial,
        n_trials=n_trials,
    )
