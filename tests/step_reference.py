"""Reference copies of the step code the single step kernel replaced.

The six step bodies, the per-method dispatcher and the two row-enumeration
oracles below are verbatim copies of the implementations that each wrote
the step formula out on its own; gram_lambda_min is the eigvalsh formula
for lambda_min(A^T A) those oracles used; reference_run is their solver loop
without tracing (one sample_row draw and one SolverState per step), and
reference_solve is that loop with tracing and the residual stop, checking
x after every step as run_solver did before it checked once per draw
block.  The tests require the kernel-based code to reproduce all of them
bit for bit.
"""

from __future__ import annotations

import numpy as np

from kaczpen.analysis import (
    AdaptiveStepReport,
    ExpectedStepReport,
    _ENUMERATION_CAP,
)
from kaczpen.linalg import DenseMatrix, as_vector, least_norm_solution
from kaczpen.problems import Problem, ProblemKind
from kaczpen.projection import distance_to_feasible
from kaczpen.sampling import RowDistribution, build_sampler
from kaczpen.solvers import Method, NumericFailureError, SolverConfig, SolverState, advance_rho
from kaczpen.traces import TraceRecord


def bits(value) -> bytes:
    """The float64 bytes of a number or array, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=np.float64).tobytes()


def record_bits(records) -> list:
    """Trace records with every float field as bytes, so NaN fields and
    signed zeros compare exactly."""
    return [
        (r.k, r.row, bits(r.rho), bits(r.error_sq), bits(r.residual), bits(r.z),
         bits(r.lyapunov), r.fresh)
        for r in records
    ]


def assert_same_report(got, ref) -> None:
    """Every field of two oracle reports is the same object or float bits."""
    assert type(got) is type(ref)
    for name in got.__dataclass_fields__:
        g, r = getattr(got, name), getattr(ref, name)
        if isinstance(r, (float, np.floating)):
            assert bits(g) == bits(r), (name, g, r)
        else:
            assert g == r, (name, g, r)


def gram_lambda_min(a: DenseMatrix) -> tuple[float, float]:
    """Smallest eigenvalue of A^T A, plain and restricted to positives.

    Returns (lambda_min, lambda_min_pos) where lambda_min is clamped to 0
    when it sits within 1e-10 * ||A^T A||_F of 0, and lambda_min_pos is
    the smallest eigenvalue above that threshold (0 if there is none).
    """
    # numpy forms A^T A with syrk, so it is exactly symmetric
    g = a.data.T @ a.data
    w = np.linalg.eigvalsh(g)
    with np.errstate(over="ignore"):
        fro = float(np.sqrt((g * g).sum(axis=1).sum()))
    if fro == np.inf:
        # the squares overflow float64: factor out the largest entry first
        top = float(np.abs(g).max())
        fro = top * float(np.sqrt(((g / top) ** 2).sum()))
    thresh = 1e-10 * fro
    lam_min = float(w[0])
    if abs(lam_min) <= thresh:
        lam_min = 0.0
    above = w[w > thresh]
    lam_pos = float(above[0]) if above.size else 0.0
    return lam_min, lam_pos


def _check_step_args(x, a: DenseMatrix, i: int):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.cols,):
        raise ValueError(f"x has shape {x.shape}, expected ({a.cols},)")
    if not 0 <= i < a.rows:
        raise ValueError(f"row index {i} out of range for {a.rows} rows")
    return x


def rk_step_ls(x, a: DenseMatrix, b, i: int) -> np.ndarray:
    """Project x onto the hyperplane a_i . x = b_i."""
    x = _check_step_args(x, a, i)
    row = a.row(i)
    r = float(row @ x) - b[i]
    return x - (r / a.row_norms_sq[i]) * row


def rk_step_lf(x, a: DenseMatrix, b, i: int) -> np.ndarray:
    """Project x onto the halfspace a_i . x <= b_i (no-op when inside)."""
    x = _check_step_args(x, a, i)
    row = a.row(i)
    r = float(row @ x) - b[i]
    if r <= 0.0:
        return x
    return x - (r / a.row_norms_sq[i]) * row


def rpk_step_ls(x, a: DenseMatrix, b, i: int, rho: float) -> np.ndarray:
    """Damped projection: the residual shrinks by 1/(1 + rho ||a_i||^2)."""
    x = _check_step_args(x, a, i)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    row = a.row(i)
    r = float(row @ x) - b[i]
    return x - (r / (1.0 / rho + a.row_norms_sq[i])) * row


def rpk_step_lf(x, a: DenseMatrix, b, i: int, rho: float) -> np.ndarray:
    """Damped halfspace projection driven by the positive part of the
    residual; inactive rows leave x unchanged."""
    x = _check_step_args(x, a, i)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    row = a.row(i)
    r = float(row @ x) - b[i]
    if r <= 0.0:
        return x
    return x - (r / (1.0 / rho + a.row_norms_sq[i])) * row


def rak_step_ls(x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """Multiplier-carrying step for equalities.

    The refreshed multiplier solves the one-row augmented subproblem in
    closed form, and x moves along the sampled row by that amount:

        z' = (a_i . x - b_i + z / rho) / (1 / rho + ||a_i||^2)
        x' = x - z' a_i

    which makes z' = z + rho (a_i . x' - b_i) hold identically.
    """
    x = _check_step_args(x, a, i)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    row = a.row(i)
    r = float(row @ x) - b[i]
    z_new = (r + z / rho) / (1.0 / rho + a.row_norms_sq[i])
    return x - z_new * row, z_new


def rak_step_lf(x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """Multiplier-carrying step for inequalities; z stays nonnegative.

    When z + rho (a_i . x - b_i) < 0 the multiplier is driven to 0 and
    x does not move.
    """
    x = _check_step_args(x, a, i)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if z < 0.0:
        raise ValueError("multiplier z must be nonnegative in feasibility mode")
    row = a.row(i)
    r = float(row @ x) - b[i]
    arg = r + z / rho
    if arg <= 0.0:
        return x, 0.0
    z_new = arg / (1.0 / rho + a.row_norms_sq[i])
    return x - z_new * row, z_new



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



def reference_expected_step(
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
    z = float(state.z)
    is_ls = problem.kind is ProblemKind.LS
    if is_ls:
        if x_star is None:
            x_star = least_norm_solution(problem.a, problem.b, np.zeros(problem.n))
        d = x - x_star
        base_err = float(d @ d)
    else:
        base_dist = distance_to_feasible(x, problem)
        base_err = base_dist * base_dist

    weights = RowDistribution(problem.a).probabilities
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


def reference_adaptive_report(
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
    z = float(state.z)
    rho_next = c * rho
    is_ls = problem.kind is ProblemKind.LS
    m = problem.m

    if is_ls:
        if x_star is None:
            x_star = least_norm_solution(problem.a, problem.b, np.zeros(problem.n))
        d = x - x_star
        base_err = float(d @ d)
        lam_min, _ = gram_lambda_min(problem.a)
        contraction = rho * lam_min / (m * (1.0 + rho)) * base_err
    else:
        if z < 0.0:
            raise ValueError("multiplier z must be nonnegative in feasibility mode")
        base_dist = distance_to_feasible(x, problem)
        base_err = base_dist * base_dist
        r_plus = np.maximum(problem.a.data @ x - problem.b, 0.0)
        contraction = rho / (m * (1.0 + rho)) * float(r_plus @ r_plus)

    weights = RowDistribution(problem.a).probabilities
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


def reference_run(problem: Problem, method: Method, max_iters: int, rho0: float = 1.0,
                  c: float = 1.0, rho_max: float = 1e12, seed: int = 0, x0=None):
    """The step-by-step solver loop over the reference steps, untraced.
    Returns the final state and each step's (row, z record, rho)."""
    a, b = problem.a, problem.b
    is_ls = problem.kind is ProblemKind.LS
    x = np.zeros(a.cols) if x0 is None else as_vector(x0, a.cols).copy()
    z = 0.0
    rho = rho0
    sampler = build_sampler(a, seed)
    state = SolverState(x=x, z=z, rho=rho, k=0)
    steps = []
    for k in range(1, max_iters + 1):
        i = sampler.sample_row()
        if method is Method.RK:
            x = rk_step_ls(x, a, b, i) if is_ls else rk_step_lf(x, a, b, i)
            z_rec = 0.0
        elif method is Method.RPK:
            x = (
                rpk_step_ls(x, a, b, i, rho)
                if is_ls
                else rpk_step_lf(x, a, b, i, rho)
            )
            z_rec = 0.0
        else:
            if is_ls:
                x, z = rak_step_ls(x, z, a, b, i, rho)
            else:
                x, z = rak_step_lf(x, z, a, b, i, rho)
            z_rec = z
        if not np.all(np.isfinite(x)):
            raise NumericFailureError(k)
        if method is not Method.RK:
            rho = advance_rho(rho, c, rho_max)
        state = SolverState(x=x, z=z, rho=rho, k=k)
        steps.append((i, z_rec, rho))
    return state, steps


def reference_solve(problem: Problem, cfg: SolverConfig, trace_sink=None, x_star=None):
    """run_solver's loop as it was with a finiteness check after every
    step, over the reference steps and one sample_row draw per iteration:
    the same trace records, residual stop and NumericFailureError."""
    a, b = problem.a, problem.b
    is_ls = problem.kind is ProblemKind.LS
    method = cfg.method
    x = np.zeros(a.cols) if cfg.x0 is None else as_vector(cfg.x0, a.cols).copy()
    z = 0.0
    rho = cfg.rho0
    sampler = build_sampler(a, cfg.seed)
    tracing = trace_sink is not None
    need_residual = tracing or cfg.residual_tol is not None
    if tracing and is_ls and x_star is None:
        x_star = least_norm_solution(a, b, x)

    def residual_of(v):
        r = a.data @ v - b
        return float(np.abs(r).max()) if is_ls else max(float(r.max()), 0.0)

    def error_of(v):
        if is_ls:
            d = v - x_star
            return float(d @ d)
        # squared as a product, the package's definition (** goes through pow)
        dist = distance_to_feasible(v, problem)
        return dist * dist

    residual = residual_of(x) if need_residual else 0.0
    error_sq = error_of(x) if tracing else 0.0
    if tracing:
        trace_sink(TraceRecord(0, -1, rho, error_sq, residual, 0.0, error_sq, True))
    if cfg.residual_tol is not None and residual <= cfg.residual_tol:
        return SolverState(x=x, z=z, rho=rho, k=0)
    k = 0
    for k in range(1, cfg.max_iters + 1):
        i = sampler.sample_row()
        x, z_new = _apply_step(problem, x, z, method, rho, i)
        if method is Method.RAK:
            z = z_new
        if not np.all(np.isfinite(x)):
            raise NumericFailureError(k)
        if method is not Method.RK:
            rho = advance_rho(rho, cfg.c, cfg.rho_max)
        if need_residual:
            residual = residual_of(x)
        if tracing:
            fresh = is_ls or k % cfg.trace_stride == 0
            if fresh:
                error_sq = error_of(x)
            if method is Method.RAK:
                trace_sink(TraceRecord(k, i, rho, error_sq, residual, z_new,
                                       error_sq + z * z / rho, fresh))
            else:
                trace_sink(TraceRecord(k, i, rho, error_sq, residual, 0.0, error_sq, fresh))
        if cfg.residual_tol is not None and residual <= cfg.residual_tol:
            break
    return SolverState(x=x, z=z, rho=rho, k=k)
