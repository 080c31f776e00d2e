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
it once per iteration, and _step_rows applies it to all Monte Carlo
trials, all rows of an enumeration oracle, or all of verify's step
cases, at once.  An optional geometric schedule grows rho by a factor
c >= 1 each iteration up to a cap, which drives the damped steps toward
the plain projection.  rho moves only while _rho_moves holds: a damped
method, c != 1 and rho below rho_max.  At c = 1, and from the step that
reaches the cap on, advance_rho would return rho itself, so run_solver
and the Monte Carlo curve decide this once per run, and again after each
step that moves rho, and call advance_rho only while it holds.

A run uses the problem it is given, rows as they are (a caller that wants
unit rows passes normalize_rows(problem)).  residual_of (stacked:
_stacked_residuals) is the one definition of a residual, and
_stacked_errors (one point: error_sq_of) that of a stack's squared
errors, of either kind: ||x - x*||^2 by _stacked_error_sq, or d * d, d
the certified distance from one projection._warm_distances call.  The
trace records, analysis's Monte Carlo checkpoints and enumeration
oracles read it (lyapunov_ls and lyapunov_lf square alike).  SolverConfig
is validated once, when built; run_solver reads the rows, b and
||a_i||^2 into lists once and updates x in place.  It draws its rows a
chunk at a time, each chunk in one sample_rows call (any split of the
stream gives the same rows), and checks x once per chunk (a non-finite x
stays non-finite under the step), as the Monte Carlo curve checks its
segments of steps.  The pass over a chunk only steps.
When a metric is needed (a trace sink or residual_tol) it also keeps
each step's x in a preallocated buffer, with its row, z and rho.  A
chunk that fails the check is replayed from its starting (x, z, rho, and
whether rho moves) with a check after every step, only to find the first
non-finite k; the steps before it are kept.  The kept steps of
every chunk then take one metric path: every residual comes from one
_stacked_residuals call for the whole chunk, and the errors of its fresh
points (every kept step of an equality run, the stride points of a
feasibility run) from one _stacked_errors call, each projection started
from the support of the chunk before's last stride point (the first
chunk's cold; the same result as a cold start, bit for bit, see
projection._certified).  A residual_tol stop is the first kept step at
or below the tolerance: the records end there and (x, z, rho) are
restored from that step.  Trace records go to the sink one at a time
as they are built, so a stride point whose projection failed leaves the
sink holding the records before it and then raises its error, and
NumericFailureError is raised after the records of the steps before the
failure, unless a stop came first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DenseMatrix,
    NumericFailureError,
    as_vector,
    least_norm_solution,
    row_dots,
)
from .problems import Problem, ProblemKind
from .projection import _warm_distances
from .sampling import build_sampler
from .traces import TraceRecord

# the most rows a run, or each Monte Carlo trial, draws ahead in one call,
# so the index buffer stays this size whatever the horizon
_DRAW_BLOCK = 256
# bytes that a loop keeps for one chunk of steps: a run needing per-step
# metrics keeps each step's x, (chunk, n), and its residual vector,
# (chunk, m); a Monte Carlo segment gathers each step's rows, b and
# ||a_i||^2 for every trial, (chunk, trials, n + 2).
# A residual_tol stop wastes the rest of its chunk, so chunks stay short:
# 64 KiB gives 109 steps at 60x15, where twelve --tol 1e-8 solves took
# 37.0 ms against 40.3 ms with whole 256-draw chunks (2-core x86_64).
_METRIC_BYTES = 1 << 16


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


def _step_rows(rows, x, b, norms_sq, method: Method, z, rho, lf: bool):
    """The kernel on many independent steps at once: row t of rows, with
    b[t], norms_sq[t], z[t] and rho[t] (or z, rho itself when it is one
    value), steps x[t] (or x itself when x is one vector).  Returns
    (x_new, coef, moves); where a row does not move, x_new keeps x and
    coef is 0, as the step functions leave x and zero z."""
    z_arg, rho_arg = _kernel_args(method, z, rho)
    coef, moves = _step_coef(row_dots(rows, x) - b, z_arg, norms_sq, rho_arg, lf)
    x_new = x - coef[:, None] * rows
    if lf:
        x_new = np.where(moves[:, None], x_new, x)
        coef = np.where(moves, coef, 0.0)
    return x_new, coef, moves


def _check_step_args(x, a: DenseMatrix, i: int, rho: float = math.inf):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.cols,):
        raise ValueError(f"x has shape {x.shape}, expected ({a.cols},)")
    if not 0 <= i < a.rows:
        raise ValueError(f"row index {i} out of range for {a.rows} rows")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    return x


def _check_multiplier(z, lf: bool) -> None:
    """Refuse a multiplier no step can use: a non-finite z, or, in
    feasibility mode, a negative one."""
    if lf and not z >= 0.0:
        raise ValueError("multiplier z must be nonnegative in feasibility mode")
    if not math.isfinite(z):
        raise ValueError("multiplier z must be finite")


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
    x = _check_step_args(x, a, i, rho)
    _check_multiplier(z, False)
    return _row_step(x, z, a, b, i, rho, False)


def rak_step_lf(x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """Multiplier-carrying step for inequalities; z stays nonnegative.

    When z + rho (a_i . x - b_i) < 0 the multiplier is driven to 0 and
    x does not move.
    """
    x = _check_step_args(x, a, i, rho)
    _check_multiplier(z, True)
    return _row_step(x, z, a, b, i, rho, True)


def residual_of(problem: Problem, x: np.ndarray) -> float:
    """The residual of x: max |Ax - b| for equalities, max(max(Ax - b), 0)
    for feasibility."""
    return _stacked_residuals(problem, np.asarray(x)[None])[0]


def solution_nearest(problem: Problem, x0: np.ndarray | None = None) -> np.ndarray:
    """The equality system's solution nearest x0, by least_norm_solution;
    the one nearest the origin (x0 None) is kept on the problem."""
    if x0 is None:
        return problem.memo("x_star", lambda: solution_nearest(problem, np.zeros(problem.n)))
    return least_norm_solution(problem.a, problem.b, x0)


def error_sq_of(problem: Problem, x: np.ndarray, x_star: np.ndarray | None = None) -> float:
    """The squared error of x: ||x - x_star||^2 for equalities, x_star by
    default the solution nearest the origin, and d(x, X)^2 (X the feasible
    set) for feasibility, where x_star is unused."""
    return _error_sq(problem, x, x_star)[0]


def _error_sq(problem: Problem, x: np.ndarray, x_star):
    """(error_sq_of, support): _stacked_errors on x alone, raising its
    failure; support (None for equalities) is the rows lam > 0 of x's
    projection, the start for the next points of a run."""
    errs, supports, failures = _stacked_errors(problem, np.asarray(x)[None], x_star)
    if failures[0] is not None:
        raise failures[0]
    return float(errs[0]), None if supports is None else supports[0]


def _stacked_errors(problem: Problem, xs: np.ndarray, x_star=None, start=None):
    """(errs, supports, failures): error_sq_of of each row x of xs, the
    supports of its projection and its ConvergenceError or None.  Equality
    errors are to x_star (by default the solution nearest the origin),
    with no supports or failures; each feasibility projection starts from
    start (one row mask or one per point, None for cold)."""
    if problem.kind is ProblemKind.LS:
        x_star = solution_nearest(problem) if x_star is None else x_star
        return _stacked_error_sq(xs, x_star), None, [None] * len(xs)
    dists, supports, failures = _warm_distances(xs, problem, start)
    return dists * dists, supports, failures


def _stacked_error_sq(xs: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """||x - x_star||^2 for each row x of xs, by one stacked dot that takes
    each as the scalar d @ d of that x alone."""
    d = xs - x_star
    return row_dots(d, d)


def _stacked_residuals(problem: Problem, xs: np.ndarray) -> list[float]:
    """The residual of each row x of xs, the rule residual_of reads: the
    stacked matmul takes each A x as the matrix-vector product of that x
    alone, where the GEMM xs @ A^T would round some of them differently,
    so a row's residual does not depend on the rows stacked with it."""
    r = np.matmul(problem.a.data, xs[:, :, None])[:, :, 0]
    r -= problem.b
    if problem.kind is ProblemKind.LS:
        return np.abs(r, out=r).max(axis=1).tolist()
    return [max(v, 0.0) for v in r.max(axis=1).tolist()]


def _trace_records(problem, xs, kept, residuals, k0, error_sq, support, x_star, stride, rak, sink):
    """Send sink the trace records of steps k0 + 1, k0 + 2, ... one at a
    time, from each step's (row, z, rho) in kept, its x in xs and its
    residual, and return the last error_sq and the support (rows lam > 0)
    of the last stride point projected, the next chunk's start.
    The errors of the chunk's stride points (every step at stride 1)
    come from one _stacked_errors call, every projection started from the
    support carried in, and each is carried to the records up to the
    next.  A stride point whose projection failed raises its error once
    the records before it are sent."""
    if stride == 1:
        points = xs[: len(kept)]  # every kept step: a slice, not a copy
    else:
        points = xs[[j for j in range(len(kept)) if (k0 + j + 1) % stride == 0]]
    if len(points):
        errors, supports, failures = _stacked_errors(problem, points, x_star, support)
        errors = errors.tolist()
        support = support if supports is None else supports[-1]
    q = 0
    for j, (i, z, rho) in enumerate(kept):
        k = k0 + j + 1
        fresh = k % stride == 0
        if fresh:
            if failures[q] is not None:
                raise failures[q]
            error_sq = errors[q]
            q += 1
        lyap = error_sq + z * z / rho if rak else error_sq
        sink(TraceRecord(k, i, rho, error_sq, residuals[j], z if rak else 0.0, lyap, fresh))
    return error_sq, support


def _check_numbers(values: dict, may_be_inf: tuple) -> None:
    """Refuse a NaN value, which passes every comparison, and an infinite
    one unless its name is in may_be_inf; None is not checked."""
    for name, value in values.items():
        if value is not None and (math.isnan(value) or name not in may_be_inf and math.isinf(value)):
            raise ValueError(f"{name} must not be {value}")


def advance_rho(rho: float, c: float, rho_max: float) -> float:
    """One step of the schedule rho_k = min(c^k rho0, rho_max), under
    SolverConfig's rules: c finite and at least 1, rho positive and at
    most rho_max; rho and rho_max may be inf (no cap, or a rho that
    overflowed under none)."""
    _check_numbers({"rho": rho, "c": c, "rho_max": rho_max}, ("rho", "rho_max"))
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if c < 1.0:
        raise ValueError("schedule factor c must be at least 1")
    if rho_max < rho:
        raise ValueError("rho_max must be at least rho")
    return min(c * rho, rho_max)


def _rho_moves(method: Method, rho: float, c: float, rho_max: float) -> bool:
    """Whether advance_rho can change rho: the plain step takes no
    schedule, and for c = 1 or rho = rho_max it returns rho itself."""
    return method is not Method.RK and c != 1.0 and rho < rho_max


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
        _check_numbers(
            {name: getattr(self, name) for name in ("rho0", "c", "rho_max", "residual_tol")},
            ("rho_max",),
        )
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
) -> SolverState:
    """Run the configured method and return the final state.

    When a trace sink is given it receives one record per iteration plus a
    k = 0 snapshot (row -1), so a run of K steps emits K + 1 records.  For
    equality problems error_sq is the squared distance to the solution
    nearest the start (solution_nearest); for feasibility problems it is
    the squared distance to the feasible set, refreshed every
    cfg.trace_stride iterations.  Without a sink the loop skips all
    distance and residual work unless residual_tol asks for the latter.
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
    x_star = solution_nearest(problem, cfg.x0) if tracing and is_ls else None

    residual = residual_of(problem, x) if need_residual else 0.0
    error_sq = error_sq_of(problem, x, x_star) if tracing else 0.0
    # the first chunk has no chunk before it: its stride points start cold,
    # as the support at x0 is left behind within the chunk's first steps
    support = None
    if tracing:
        trace_sink(TraceRecord(0, -1, rho, error_sq, residual, 0.0, error_sq, True))
    tol = cfg.residual_tol
    if tol is not None and residual <= tol:
        return SolverState(x=x, z=z, rho=rho, k=0)

    rows, bs, norms_sq = list(a.data), b.tolist(), a.row_norms_sq.tolist()
    lf, rak = not is_ls, method is Method.RAK
    # every equality record is fresh
    c, rho_max, stride = cfg.c, cfg.rho_max, cfg.trace_stride if lf else 1
    moving = _rho_moves(method, rho, c, rho_max)
    # a ufunc takes a 0-d operand faster than a Python float, with the same product
    tmp, coef_arr = np.empty(n), np.empty(())
    multiply, subtract = np.multiply, np.subtract
    chunk = _DRAW_BLOCK
    if need_residual:
        chunk = max(1, min(_DRAW_BLOCK, _METRIC_BYTES // (8 * (n + a.rows))))
        xs = np.empty((chunk, n))
    k = 0
    for start in range(0, cfg.max_iters, chunk):
        part = sampler.sample_rows(min(chunk, cfg.max_iters - start)).tolist()
        k0, saved = k, (x.copy(), z, rho, moving)
        failed = None
        # the replay only finds the first non-finite k of a failed chunk
        for careful in (False, True):
            if careful:
                x[:], z, rho, moving = saved
            z_arg, rho_arg = _kernel_args(method, z, rho)
            kept = []  # each kept step's (row, z, rho); its x is in xs
            for i in part:
                row = rows[i]
                coef, moves = _step_coef(float(row.dot(x)) - bs[i], z_arg, norms_sq[i], rho_arg, lf)
                if moves:
                    coef_arr[()] = coef
                    multiply(row, coef_arr, tmp)
                    subtract(x, tmp, x)
                else:
                    coef = 0.0
                if rak:
                    z = z_arg = coef
                if careful:
                    # only the replay counts its steps
                    k += 1
                    if not np.isfinite(x).all():
                        failed = k
                        break
                if moving:
                    rho = rho_arg = advance_rho(rho, c, rho_max)
                    moving = _rho_moves(method, rho, c, rho_max)
                if need_residual:
                    xs[len(kept)] = x
                    kept.append((i, z, rho))
            if careful or np.isfinite(x).all():
                break
        if failed is None:
            k = k0 + len(part)
        if kept:
            # every kept x is finite: a non-finite x stays non-finite
            res = _stacked_residuals(problem, xs[: len(kept)])
            if tol is not None:
                stop = next((j for j, r in enumerate(res) if r <= tol), None)
                if stop is not None:
                    del kept[stop + 1 :]
                    x[:] = xs[stop]
                    _, z, rho = kept[stop]
                    k = k0 + stop + 1
            residual = res[len(kept) - 1]
            if tracing:
                error_sq, support = _trace_records(
                    problem, xs, kept, res, k0, error_sq, support, x_star, stride, rak,
                    trace_sink,
                )
        if tol is not None and residual <= tol:
            break
        if failed is not None:
            raise NumericFailureError(failed)
    return SolverState(x=x, z=z, rho=rho, k=k)
