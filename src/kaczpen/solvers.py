"""Randomized row-action solvers.

Three families share one step.  Each samples a row i and moves x along it,

    x' = x - coef a_i,   coef = arg / (1 / rho + ||a_i||^2),

with r = a_i . x - b_i.  The penalty step takes arg = r, which shortens
the projection by the factor rho ||a_i||^2 / (1 + rho ||a_i||^2); the
multiplier step takes arg = r + z / rho and carries the refreshed
multiplier z' = coef to the next iteration; the plain step is the penalty
step at 1 / rho = 0, the exact projection.  On feasibility rows x moves
only when arg > 0, the positive-part clip.  The formula lives in one
kernel, _step_coef, which works on a float or on an array of independent
steps: the six public step functions wrap it for one row, run_solver calls
it once per iteration, and the analysis module calls it on all Monte Carlo
trials, or all rows of an enumeration oracle, at once.  An optional
geometric schedule grows rho by a factor c >= 1 each iteration up to a
cap, which drives the damped steps toward the plain projection.

A run uses the problem it is given, rows as they are (a caller that wants
unit rows passes normalize_rows(problem)); residual_of and error_sq_of are
the one definition of a run's residual and squared error.  SolverConfig
is validated once, when built; run_solver reads the rows, b and
||a_i||^2 into lists once and updates x in place.  It checks x once per
draw block (a non-finite x stays non-finite under the step); a block that
fails the check or raises is replayed from its starting (x, z, rho),
checking every step, so NumericFailureError names the first failing k.
Trace records reach the sink only after their block passes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DenseMatrix, as_vector, least_norm_solution
from .problems import Problem, ProblemKind
from .projection import distance_to_feasible
from .sampling import build_sampler
from .traces import TraceRecord

# rows a run, or each Monte Carlo trial, draws ahead in one sample_rows
# call, so the index buffer stays this size whatever the horizon
_DRAW_BLOCK = 256


class NumericFailureError(Exception):
    """An iterate left the finite range; carries the iteration index."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"non-finite iterate at iteration {iteration}")


class Method(enum.Enum):
    RK = "rk"
    RPK = "rpk"
    RAK = "rak"


def _step_coef(r, z, norm_sq, rho, lf: bool):
    """The one step formula: the coefficient coef of x' = x - coef a_i
    and whether the row moves, elementwise.

    r is the residual a_i . x - b_i and arg = r + z / rho; z is None for
    the steps that carry no multiplier, which take arg = r exactly, and
    rho is inf for the plain step, whose denominator 1 / rho + ||a_i||^2
    is then ||a_i||^2 exactly.  An equality row always moves; a
    feasibility row moves unless arg <= 0 (so a nan arg moves x).  The
    arguments may be floats (one iterate) or (T,) arrays (T trials, or
    every row of a system) alike.
    """
    arg = r if z is None else r + z / rho
    coef = arg / (1.0 / rho + norm_sq)
    if not lf:
        return coef, True
    # `^ True` negates a bool and a bool array alike
    return coef, (arg <= 0.0) ^ True


def _kernel_args(method: Method, z, rho: float):
    """The (z, rho) the kernel takes for a method: only the multiplier
    step carries z, and the plain step is the kernel at 1 / rho = 0."""
    return (z if method is Method.RAK else None), (math.inf if method is Method.RK else rho)


def _check_step_args(x, a: DenseMatrix, i: int, rho: float = math.inf):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.cols,):
        raise ValueError(f"x has shape {x.shape}, expected ({a.cols},)")
    if not 0 <= i < a.rows:
        raise ValueError(f"row index {i} out of range for {a.rows} rows")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return x


def _row_step(x, z, a: DenseMatrix, b, i: int, rho: float, lf: bool):
    """One kernel step on row i: (x', coef), or (x itself, 0.0) when the
    row does not move."""
    row = a.data[i]
    coef, moves = _step_coef(float(row @ x) - b[i], z, a.row_norms_sq[i], rho, lf)
    if not moves:
        return x, 0.0
    return x - coef * row, coef


def rk_step_ls(x, a: DenseMatrix, b, i: int) -> np.ndarray:
    """Project x onto the hyperplane a_i . x = b_i."""
    return _row_step(_check_step_args(x, a, i), None, a, b, i, math.inf, False)[0]


def rk_step_lf(x, a: DenseMatrix, b, i: int) -> np.ndarray:
    """Project x onto the halfspace a_i . x <= b_i (no-op when inside)."""
    return _row_step(_check_step_args(x, a, i), None, a, b, i, math.inf, True)[0]


def rpk_step_ls(x, a: DenseMatrix, b, i: int, rho: float) -> np.ndarray:
    """Damped projection: the residual shrinks by 1/(1 + rho ||a_i||^2)."""
    return _row_step(_check_step_args(x, a, i, rho), None, a, b, i, rho, False)[0]


def rpk_step_lf(x, a: DenseMatrix, b, i: int, rho: float) -> np.ndarray:
    """Damped halfspace projection driven by the positive part of the
    residual; inactive rows leave x unchanged."""
    return _row_step(_check_step_args(x, a, i, rho), None, a, b, i, rho, True)[0]


def rak_step_ls(x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """Multiplier-carrying step for equalities.

    The refreshed multiplier solves the one-row augmented subproblem in
    closed form, and x moves along the sampled row by that amount:

        z' = (a_i . x - b_i + z / rho) / (1 / rho + ||a_i||^2)
        x' = x - z' a_i

    which makes z' = z + rho (a_i . x' - b_i) hold identically.
    """
    return _row_step(_check_step_args(x, a, i, rho), z, a, b, i, rho, False)


def rak_step_lf(x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """Multiplier-carrying step for inequalities; z stays nonnegative.

    When z + rho (a_i . x - b_i) < 0 the multiplier is driven to 0 and
    x does not move.
    """
    x = _check_step_args(x, a, i, rho)
    if z < 0.0:
        raise ValueError("multiplier z must be nonnegative in feasibility mode")
    return _row_step(x, z, a, b, i, rho, True)


def residual_of(problem: Problem, x: np.ndarray) -> float:
    """The residual of x: max |Ax - b| for equalities, max(max(Ax - b), 0)
    for feasibility."""
    r = problem.a.data @ x - problem.b
    return float(np.abs(r).max()) if problem.kind is ProblemKind.LS else max(float(r.max()), 0.0)


def error_sq_of(problem: Problem, x: np.ndarray, x_star: np.ndarray | None) -> float:
    """The squared error of x: ||x - x_star||^2 for equalities, d(x, X)^2
    (X the feasible set) for feasibility, where x_star is unused."""
    if problem.kind is ProblemKind.LS:
        d = x - x_star
        return float(d @ d)
    return distance_to_feasible(x, problem) ** 2


def advance_rho(rho: float, c: float, rho_max: float) -> float:
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if c < 1.0:
        raise ValueError("schedule factor c must be at least 1")
    return min(c * rho, rho_max)


@dataclass
class SolverConfig:
    """Run parameters.  For method RK the penalty fields are recorded in
    summaries but have no effect on the iteration."""

    method: Method
    max_iters: int
    rho0: float = 1.0
    c: float = 1.0
    rho_max: float = 1e12
    seed: int = 0
    residual_tol: float | None = None
    x0: np.ndarray | None = None
    trace_stride: int = 10

    def __post_init__(self):
        if isinstance(self.method, str):
            self.method = Method(self.method)
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        # NaN passes every comparison below; only rho_max may be inf (no cap)
        for name in ("rho0", "c", "rho_max", "residual_tol"):
            value = getattr(self, name)
            if value is not None and (math.isnan(value) or name != "rho_max" and math.isinf(value)):
                raise ValueError(f"{name} must not be {value}")
        if self.rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if self.c < 1.0:
            raise ValueError("schedule factor c must be at least 1")
        if self.rho_max < self.rho0:
            raise ValueError("rho_max must be at least rho0")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")
        if self.residual_tol is not None and self.residual_tol < 0.0:
            raise ValueError("residual_tol must be nonnegative")


@dataclass
class SolverState:
    x: np.ndarray
    z: float
    rho: float
    k: int


def run_solver(
    problem: Problem,
    cfg: SolverConfig,
    trace_sink: Callable[[TraceRecord], None] | None = None,
    x_star: np.ndarray | None = None,
) -> SolverState:
    """Run the configured method and return the final state.

    When a trace sink is given it receives one record per iteration plus a
    k = 0 snapshot (row -1), so a run of K steps emits K + 1 records.  For
    equality problems error_sq is the squared distance to the solution
    nearest the start (x_star may be passed in to skip recomputing it);
    for feasibility problems it is the squared distance to the feasible
    set, refreshed every cfg.trace_stride iterations.  Without a sink the
    loop skips all distance and residual work unless residual_tol asks
    for the latter.
    """
    a, b = problem.a, problem.b
    n = a.cols
    is_ls = problem.kind is ProblemKind.LS
    method = cfg.method

    x = np.zeros(n) if cfg.x0 is None else as_vector(cfg.x0, n).copy()
    z = 0.0
    rho = cfg.rho0
    sampler = build_sampler(a, cfg.seed)

    tracing = trace_sink is not None
    need_residual = tracing or cfg.residual_tol is not None
    if tracing and is_ls and x_star is None:
        x_star = least_norm_solution(a, b, x)

    residual = residual_of(problem, x) if need_residual else 0.0
    error_sq = error_sq_of(problem, x, x_star) if tracing else 0.0
    if tracing:
        trace_sink(TraceRecord(0, -1, rho, error_sq, residual, 0.0, error_sq, True))
    tol = cfg.residual_tol
    if tol is not None and residual <= tol:
        return SolverState(x=x, z=z, rho=rho, k=0)

    rows, bs, norms_sq = list(a.data), b.tolist(), a.row_norms_sq.tolist()
    lf, rak, scheduled = not is_ls, method is Method.RAK, method is not Method.RK
    c, rho_max, stride = cfg.c, cfg.rho_max, cfg.trace_stride
    tmp = np.empty(n)
    k = 0
    for start in range(0, cfg.max_iters, _DRAW_BLOCK):
        block = sampler.sample_rows(min(_DRAW_BLOCK, cfg.max_iters - start)).tolist()
        saved = (x.copy(), z, rho, k, error_sq)
        for careful in (False, True):
            if careful:
                x[:], z, rho, k, error_sq = saved
            z_arg, rho_arg = _kernel_args(method, z, rho)
            records = []
            emit = trace_sink if careful else records.append
            try:
                for i in block:
                    k += 1
                    row = rows[i]
                    coef, moves = _step_coef(float(row.dot(x)) - bs[i], z_arg, norms_sq[i], rho_arg, lf)
                    if moves:
                        np.multiply(row, coef, tmp)
                        np.subtract(x, tmp, x)
                    else:
                        coef = 0.0
                    if rak:
                        z = z_arg = coef
                    if careful and not np.isfinite(x).all():
                        raise NumericFailureError(k)
                    if scheduled:
                        rho = rho_arg = advance_rho(rho, c, rho_max)
                    if need_residual:
                        residual = residual_of(problem, x)
                    if tracing:
                        fresh = is_ls or k % stride == 0
                        if fresh:
                            error_sq = error_sq_of(problem, x, x_star)
                        lyap = error_sq + z * z / rho if rak else error_sq
                        emit(TraceRecord(k, i, rho, error_sq, residual, coef if rak else 0.0, lyap, fresh))
                    if tol is not None and residual <= tol:
                        break
            except Exception:  # replayed: it recurs, or a non-finite x comes first
                if careful:
                    raise
                continue
            if np.isfinite(x).all():
                break
        for rec in records:
            trace_sink(rec)
        if tol is not None and residual <= tol:
            break
    return SolverState(x=x, z=z, rho=rho, k=k)
