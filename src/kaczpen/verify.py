"""Seeded property suites behind the CLI verify command.

Every check returns a PropertyResult whose detail line records the worst
measured slack, so a run documents how much margin each property had.
Counts are parameters: the CLI uses fast defaults, the acceptance tests
rerun the same checks at their full sizes.

The one-step identities (the steps suite but rho-schedule) draw their
cases one at a time in the documented PCG64 order (a uniform on [lo, hi)
is lo + (hi - lo) * random(), numpy's uniform bit for bit), on block
problems suite_steps builds once per run, and stack them: each check
then steps every case through one solvers._step_rows call per
method, the kernel compare's Monte Carlo curve and the enumeration oracles
run, and takes every a_i . x with row_dots, the scalar float(a_i @ x) bit
for bit.  The public per-row step functions run on the first case of every
_BLOCK-case block, and a result that is not bit for bit the stacked row's
fails the property.  A NaN margin fails its property too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import analysis, solvers
from .analysis import (
    adaptive_step_report, envelope_factor, exact_expected_step, hoffman_estimate,
    monte_carlo_error_curve,
)
from .linalg import ConvergenceError, DenseMatrix, row_dots
from .problems import (
    Problem, ProblemKind, generate_consistent_ls, generate_feasible_lf, normalize_rows,
)
from .projection import _hildreth, distance_to_feasible, project_polyhedron
from .sampling import make_rng
from .solvers import Method, SolverConfig, SolverState, residual_of, run_solver
from .traces import TraceRecord


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> PropertyResult:
    return PropertyResult(name=name, passed=bool(passed), detail=detail)


def _normalized_ls(m: int, n: int, seed: int) -> Problem:
    return normalize_rows(generate_consistent_ls(m, n, seed))


def _normalized_lf(m: int, n: int, seed: int, active_fraction: float) -> Problem:
    return normalize_rows(generate_feasible_lf(m, n, seed, active_fraction))


def _worst(pick, *values: float) -> float:
    """pick (max or min) of values, NaN if any is NaN: Python's max and min
    keep a value over a later NaN, and a NaN margin must fail its property."""
    return np.nan if any(v != v for v in values) else pick(values)


def _scaled(problem: Problem, rows: str) -> Problem:
    """Unit rows for rows="unit"; the rows as generated otherwise."""
    return normalize_rows(problem) if rows == "unit" else problem


# the step checks generate one problem per this many cases
_BLOCK = 50


@dataclass(frozen=True)
class _StepCases:
    """Step cases stacked for solvers._step_rows: case t steps x[t] on row
    index[t] of problems[t // _BLOCK], whose row, bound and squared norm are
    rows[t], b[t] and norms_sq[t], at penalty rho[t] with multiplier z[t]."""

    problems: list[Problem]
    index: tuple[int, ...]
    rows: np.ndarray
    b: np.ndarray
    norms_sq: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    z: np.ndarray


def _stack_cases(problems: list[Problem], drawn: list[tuple]) -> _StepCases:
    """Stack the drawn (i, x, rho, z) of each case with its row, bound and
    squared norm; a check needs at least one case."""
    if not drawn:
        raise ValueError("count must be positive")
    index, xs, rhos, zs = zip(*drawn)
    blocks = np.arange(len(index)) // _BLOCK

    def pick(per_problem):
        return np.stack(per_problem)[blocks, index]

    return _StepCases(
        problems, index, pick([p.a.data for p in problems]), pick([p.b for p in problems]),
        pick([p.a.row_norms_sq for p in problems]), np.array(xs), np.array(rhos), np.array(zs),
    )


def _ls_blocks(seed: int, count: int) -> list[Problem]:
    """The 20x10 unit-row problems of count equality step cases, one per _BLOCK."""
    return [_normalized_ls(20, 10, seed + 1000 + t) for t in range(0, count, _BLOCK)]


def _step_cases(
    seed: int, count: int, rho_hi: float, arg_floor: float, z_span: float, blocks=()
) -> _StepCases:
    """Draw count equality cases on blocks, _ls_blocks(seed, n) for an n of
    at least count, built here when not given.  Each case draws its row i,
    rho, z (when z_span > 0) and then x until the step argument is bounded
    away from zero, so relative identity checks stay well conditioned."""
    rng = make_rng(seed)
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    log_range = float(np.log10(rho_hi)) - -1.0
    problems, drawn = blocks or _ls_blocks(seed, count), []
    for t in range(count):
        if t % _BLOCK == 0:
            problem = problems[t // _BLOCK]
            rows, b, m, n = list(problem.a.data), problem.b.tolist(), problem.m, problem.n
        i = int(integers(m))
        rho = 10.0 ** (-1.0 + log_range * random())
        z = -z_span + (z_span - -z_span) * random() if z_span > 0.0 else 0.0
        for _ in range(200):
            x = normal(n)
            r = float(rows[i] @ x) - b[i]
            if abs(r + z / rho) >= arg_floor and abs(r) >= arg_floor:
                break
        drawn.append((i, x, rho, z))
    return _stack_cases(problems, drawn)


def _slack_cases(seed: int, count: int) -> _StepCases:
    """Draw count feasibility cases on slack rows, one 10x6 unit-row
    problem per _BLOCK.  Each case draws its row i, rho, then x near the
    planted point until a_i . x - b_i = r < -1e-3, then z in
    [0, min(1, 0.9 rho |r|)), so that z + rho r < 0; a row with no such x
    in 200 draws is refused."""
    rng = make_rng(seed)
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    problems, drawn = [], []
    for t in range(count):
        if t % _BLOCK == 0:
            problem = _normalized_lf(10, 6, seed + 2000 + t, 0.0)
            problems.append(problem)
            rows, b, m, n = list(problem.a.data), problem.b.tolist(), problem.m, problem.n
        i = int(integers(m))
        rho = 10.0 ** (-1.0 + 2.0 * random())
        for _ in range(200):
            x = problem.x_planted + 0.3 * normal(n)
            r = float(rows[i] @ x) - b[i]
            if r < -1e-3:
                break
        else:
            raise ValueError(f"case {t}: no point with row {i} slack in 200 draws")
        z = min(1.0, -r * rho * 0.9) * random()
        drawn.append((i, x, rho, z))
    return _stack_cases(problems, drawn)


def _public_step(method: Method, lf: bool, x, z: float, a: DenseMatrix, b, i: int, rho: float):
    """(name, x', z') of the public step function of (method, lf) on one
    case; z' is 0.0 for the steps that carry no multiplier."""
    name = f"{method.value}_step_{'lf' if lf else 'ls'}"
    step = getattr(solvers, name)
    if method is Method.RAK:
        return (name, *step(x, z, a, b, i, rho))
    if method is Method.RPK:
        return name, step(x, a, b, i, rho), 0.0
    return name, step(x, a, b, i), 0.0


def _stacked_steps(cases: _StepCases, method: Method, lf: bool):
    """(x', coef, moves, mismatch) of every case from one
    solvers._step_rows call.  The public step function also runs on the
    first case of every block; mismatch names the first whose x' (x itself
    where the row does not move) or z' is not bit for bit the stacked
    row's, and is None when all agree."""
    x_new, coef, moves = solvers._step_rows(
        cases.rows, cases.x, cases.b, cases.norms_sq, method, cases.z, cases.rho, lf
    )
    for t in range(0, len(cases.index), _BLOCK):
        problem, x = cases.problems[t // _BLOCK], cases.x[t]
        name, x_pub, z_pub = _public_step(
            method, lf, x, float(cases.z[t]), problem.a, problem.b, cases.index[t],
            float(cases.rho[t]),
        )
        same_x = np.array_equal(x_pub, x_new[t]) if not lf or moves[t] else x_pub is x
        if not (same_x and (method is not Method.RAK or z_pub == coef[t])):
            return x_new, coef, moves, f"case {t}: {name} differs from the stacked step"
    return x_new, coef, moves, None


def _checked(name: str, mismatch: str | None, passed: bool, detail: str) -> PropertyResult:
    """A stacked check's result, failed with the mismatch's detail when a
    public step function disagrees with the kernel."""
    return _result(name, mismatch is None and passed, mismatch or detail)


def check_rpk_ls_residual_contraction(seed: int, count: int = 300, blocks=()) -> PropertyResult:
    """Post-step row residual equals the pre-step residual divided by
    1 + rho ||a_i||^2, to 1e-12 relative."""
    cases = _step_cases(seed, count, 10.0, 0.3, 0.0, blocks)
    x_new, _, _, mismatch = _stacked_steps(cases, Method.RPK, False)
    r_pre = row_dots(cases.rows, cases.x) - cases.b
    r_post = row_dots(cases.rows, x_new) - cases.b
    expected = r_pre / (1.0 + cases.rho * cases.norms_sq)
    worst = float(np.max(np.abs(r_post - expected) / np.abs(expected)))
    return _checked(
        "rpk-ls-residual-contraction", mismatch, worst <= 1e-12, f"max_rel_err={worst:.3e}"
    )


def check_rak_ls_dual_identity(seed: int, count: int = 300, blocks=()) -> PropertyResult:
    """The refreshed multiplier satisfies z' = z + rho (a_i . x' - b_i)
    to 1e-12 relative."""
    cases = _step_cases(seed, count, 2.0, 0.3, 3.0, blocks)
    x_new, z_new, _, mismatch = _stacked_steps(cases, Method.RAK, False)
    recomputed = cases.z + cases.rho * (row_dots(cases.rows, x_new) - cases.b)
    worst = float(np.max(np.abs(z_new - recomputed) / np.abs(z_new)))
    return _checked("rak-ls-dual-identity", mismatch, worst <= 1e-12, f"max_rel_err={worst:.3e}")


def check_rk_ls_projection(seed: int, count: int = 200, blocks=()) -> PropertyResult:
    """The plain step lands on the sampled hyperplane."""
    cases = _step_cases(seed, count, 10.0, 0.1, 0.0, blocks)
    x_new, _, _, mismatch = _stacked_steps(cases, Method.RK, False)
    worst = float(np.max(np.abs(row_dots(cases.rows, x_new) - cases.b)))
    return _checked("rk-ls-projection", mismatch, worst <= 1e-12, f"max_residual={worst:.3e}")


def check_lf_inactive_noop(seed: int, count: int = 200) -> PropertyResult:
    """Feasibility steps leave x untouched on satisfied rows, and the
    multiplier step zeroes z when z + rho r < 0."""
    cases = _slack_cases(seed, count)
    moved = np.zeros(count, dtype=bool)
    for method in (Method.RPK, Method.RK, Method.RAK):
        x_new, coef, moves, mismatch = _stacked_steps(cases, method, True)
        if mismatch is not None:
            return _result("lf-inactive-noop", False, mismatch)
        moved |= moves | (coef != 0.0) | (x_new != cases.x).any(axis=1)
    if moved.any():
        t = int(np.argmax(moved))
        return _result("lf-inactive-noop", False, f"case {t} moved on a slack row")
    return _result("lf-inactive-noop", True, f"{count} cases held exactly")


def check_penalty_limit_matches_rk(
    seed: int, count: int = 300, rho: float = 1e12, tol: float = 1e-6, blocks=()
) -> PropertyResult:
    """At huge rho the damped and multiplier steps (z = 0) coincide with
    the plain projection on unit-norm rows."""
    cases = replace(_step_cases(seed, count, 10.0, 0.0, 0.0, blocks), rho=np.full(count, rho))
    x_rk, _, _, m_rk = _stacked_steps(cases, Method.RK, False)
    x_rpk, _, _, m_rpk = _stacked_steps(cases, Method.RPK, False)
    x_rak, _, _, m_rak = _stacked_steps(cases, Method.RAK, False)
    worst = float(_worst(max, np.abs(x_rpk - x_rk).max(), np.abs(x_rak - x_rk).max()))
    return _checked(
        "penalty-limit-matches-rk", m_rk or m_rpk or m_rak, worst <= tol, f"max_gap={worst:.3e}"
    )


def check_rho_schedule(seed: int) -> PropertyResult:
    """Traced rho follows min(c^k rho0, rho_max) and c = 1 reproduces the
    fixed-penalty iteration bit for bit."""
    problem = _normalized_ls(12, 6, seed + 3000)
    rho0, c, cap = 0.5, 1.7, 50.0
    records: list[TraceRecord] = []
    cfg = SolverConfig(
        method=Method.RPK, max_iters=40, rho0=rho0, c=c, rho_max=cap, seed=seed
    )
    run_solver(problem, cfg, trace_sink=records.append)
    expected = rho0
    worst = 0.0
    exact = True
    for rec in records:
        if rec.k > 0:
            expected = min(expected * c, cap)
        exact = exact and rec.rho == expected
        closed = min(rho0 * c**rec.k, cap)
        worst = _worst(max, worst, abs(rec.rho - closed) / closed)
    if not exact:
        return _result("rho-schedule", False, "iterated schedule mismatch")

    cfg1 = SolverConfig(method=Method.RPK, max_iters=40, rho0=2.0, c=1.0, seed=seed)
    state = run_solver(problem, cfg1)
    x = np.zeros(problem.n)
    sampler = solvers.build_sampler(problem.a, seed)
    for _ in range(40):
        i = sampler.sample_row()
        x = solvers.rpk_step_ls(x, problem.a, problem.b, i, 2.0)
    fixed_ok = np.array_equal(state.x, x) and state.rho == 2.0
    return _result(
        "rho-schedule",
        fixed_ok and worst <= 1e-12,
        f"closed_form_rel_gap={worst:.3e} fixed_penalty_bitwise={fixed_ok}",
    )


def _random_ls_state(problem: Problem, rng, z_span: float, wide: bool = False) -> SolverState:
    """A wide system's state is x* + A^T y, whose error lies in row(A)."""
    if wide:
        x = solvers.solution_nearest(problem) + problem.a.data.T @ rng.standard_normal(problem.m)
    else:
        x = 2.0 * rng.standard_normal(problem.n)
    z = float(rng.uniform(-z_span, z_span)) if z_span > 0.0 else 0.0
    return SolverState(x=x, z=z, rho=1.0, k=0)


def _tracked(rep, method: Method) -> tuple[float, float]:
    """(current, expected) of the value a bound tracks: the Lyapunov value
    for the multiplier method, the squared error for the others."""
    if method is Method.RAK:
        return rep.base_lyapunov, rep.expected_lyapunov
    return rep.base_error_sq, rep.expected_error_sq


def check_ls_expected_contraction(
    seed: int,
    method: Method,
    n_problems: int = 10,
    n_states: int = 2,
    rhos=(0.1, 1.0, 10.0),
    z_span: float = 0.0,
    rows: str = "unit",
) -> PropertyResult:
    """Enumerated E_i of the post-step error (Lyapunov value for the
    multiplier method) sits below the per-step factor that solve and
    compare print (envelope_factor) times the current value, within 1e-10.

    Instances are 20x10 with unit rows ("unit") or rows as generated
    ("raw"), or 10x20 as generated ("wide"), whose states x* + A^T y keep
    the error in row(A); there every factor must also be below 1."""
    suffix = "" if rows == "unit" else f"-{rows}"
    name = f"{method.value}-ls-expected-contraction{suffix}"
    rng = make_rng(seed)
    min_slack = np.inf
    max_factor = -np.inf
    shape = (10, 20) if rows == "wide" else (20, 10)
    for p in range(n_problems):
        problem = _scaled(generate_consistent_ls(*shape, seed + 4000 + p), rows)
        for _ in range(n_states):
            state = _random_ls_state(problem, rng, z_span, wide=rows == "wide")
            for rho in rhos:
                rep = exact_expected_step(problem, state, method, rho)
                factor = envelope_factor(problem, method, rho)
                max_factor = _worst(max, max_factor, factor)
                base, expected = _tracked(rep, method)
                min_slack = _worst(min, min_slack, factor * base - expected)
    detail = f"min_slack={min_slack:.3e}"
    if rows == "wide":
        detail += f" max_factor={max_factor!r}"
    passed = min_slack >= -1e-10 and (rows != "wide" or max_factor < 1.0)
    return _result(name, passed, detail)


def check_ls_expected_tightness(seed: int, method: Method) -> PropertyResult:
    """On the identity system the contraction bound is met with equality
    (z = 0; also any z when m = 1, where the dual decay term is covered).
    There lambda_min = 1, every ||a_i||^2 = 1 and ||A||_F^2 = m exactly."""
    name = f"{method.value}-ls-expected-tightness"
    rng = make_rng(seed)
    worst = 0.0
    for m in (1, 2, 6):
        a = DenseMatrix(np.eye(m))
        b = rng.standard_normal(m)
        problem = Problem(kind=ProblemKind.LS, a=a, b=b, x_planted=b)
        for rho in (0.1, 1.0, 10.0):
            for _ in range(3):
                x = 2.0 * rng.standard_normal(m)
                z = float(rng.uniform(-5.0, 5.0)) if m == 1 else 0.0
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = exact_expected_step(problem, state, method, rho)
                factor = envelope_factor(problem, method, rho)
                base, expected = _tracked(rep, method)
                bound = factor * base
                worst = _worst(max, worst, abs(bound - expected) / max(1.0, bound))
    return _result(name, worst <= 1e-12, f"max_equality_gap={worst:.3e}")


def check_factor_grid() -> PropertyResult:
    """Damping is monotone in rho, the penalty family damps harder than
    the multiplier family, and both approach the plain step's factor; the
    factors are envelope_factor's on the 4x4 and 2x2 identity systems."""
    eye4, eye2 = (
        Problem(kind=ProblemKind.LS, a=DenseMatrix(np.eye(m)), b=np.zeros(m))
        for m in (4, 2)
    )
    rhos = [0.1, 0.5, 1.0, 2.0, 10.0, 1e6]
    prev_rpk = prev_rak = -np.inf
    ok = True
    for rho in rhos:
        rpk, rak = analysis._damping(Method.RPK, rho), analysis._damping(Method.RAK, rho)
        ok = ok and rpk >= prev_rpk and rak >= prev_rak and rpk >= rak
        ok = ok and envelope_factor(eye4, Method.RPK, rho) <= envelope_factor(eye4, Method.RAK, rho)
        prev_rpk, prev_rak = rpk, rak
    limit = envelope_factor(eye4, Method.RPK, 1e12)
    ok = ok and abs(limit - envelope_factor(eye4, Method.RK, 1.0)) <= 1e-9
    ok = ok and abs(envelope_factor(eye2, Method.RPK, 1.0) - 0.625) <= 1e-15
    ok = ok and abs(envelope_factor(eye2, Method.RAK, 1.0) - 0.75) <= 1e-15
    return _result("factor-grid", ok, "monotone, ordered, correct limits")


def check_adaptive_slack(
    seed: int, n_problems: int = 4, rhos=(0.5, 2.0), rows: str = "unit"
) -> PropertyResult:
    """The growing-penalty per-step inequality holds with nonnegative
    slack, and c = 1 reduces it to the fixed-penalty form; on unit-row
    equality states it holds with equality, so their slack is rounding.
    Slack is taken relative to max(1, |lhs|), as the Lyapunov values scale
    with the instance. Instances are 16x8 with unit rows ("unit") or rows
    as generated ("raw")."""
    rng = make_rng(seed)
    min_rel = np.inf
    for p in range(n_problems):
        problem = _scaled(generate_consistent_ls(16, 8, seed + 5000 + p), rows)
        for rho in rhos:
            for c in (1.0, 2.0, 5.0):
                x = 2.0 * rng.standard_normal(problem.n)
                z = float(rng.uniform(-3.0, 3.0))
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = adaptive_step_report(problem, state, c)
                min_rel = _worst(min, min_rel, rep.slack / max(1.0, abs(rep.lhs)))
        lf = _scaled(generate_feasible_lf(16, 8, seed + 5500 + p, 0.3), rows)
        for rho in rhos:
            for c in (1.0, 2.0):
                x = lf.x_planted + rng.standard_normal(lf.n)
                z = float(rng.uniform(0.0, 3.0))
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = adaptive_step_report(lf, state, c)
                min_rel = _worst(min, min_rel, rep.slack / max(1.0, abs(rep.lhs)))
    name = "adaptive-penalty-slack" + ("" if rows == "unit" else f"-{rows}")
    return _result(name, min_rel >= -1e-12, f"min_rel_slack={min_rel:.3e}")


def check_mc_envelope(
    seed: int,
    method: Method,
    n_trials: int = 60,
    checkpoints=(25, 50),
    margin: float = 1.10,
) -> PropertyResult:
    """Trial means stay under the theoretical envelope times a 10% pad."""
    name = f"{method.value}-mc-envelope"
    problem = _normalized_ls(20, 10, seed + 6000)
    cfg = SolverConfig(method=method, max_iters=max(checkpoints), rho0=1.0, c=1.0, seed=seed)
    curve = monte_carlo_error_curve(problem, cfg, n_trials, list(checkpoints))
    worst = 0.0
    for mean, env in zip(curve.means, curve.envelope):
        worst = _worst(max, worst, mean / env)
    return _result(name, worst <= margin, f"max_mean_over_envelope={worst:.4f}")


def check_lf_step_distance_monotone(seed: int, count: int = 60) -> PropertyResult:
    """Each feasibility step can only move x closer to the feasible set."""
    rng = make_rng(seed)
    worst = -np.inf
    for t in range(count):
        problem = generate_feasible_lf(8, 5, seed + 7000 + t, 0.25)
        x = problem.x_planted + 1.5 * rng.standard_normal(problem.n)
        base = distance_to_feasible(x, problem)
        for i in range(problem.m):
            for x_new in (
                solvers.rk_step_lf(x, problem.a, problem.b, i),
                solvers.rpk_step_lf(x, problem.a, problem.b, i, 1.5),
            ):
                if x_new is x:
                    continue
                d = distance_to_feasible(x_new, problem)
                worst = _worst(max, worst, d - base)
    return _result(
        "lf-step-distance-monotone", worst <= 1e-10, f"max_increase={worst:.3e}"
    )


def check_lf_expected_decrease(
    seed: int, method: Method, n_problems: int = 4, n_states: int = 1
) -> PropertyResult:
    """Enumerated E_i of the post-step squared distance (Lyapunov value
    for the multiplier method) does not exceed the current one."""
    name = f"{method.value}-lf-expected-decrease"
    rng = make_rng(seed)
    min_slack = np.inf
    for p in range(n_problems):
        problem = _normalized_lf(20, 10, seed + 8000 + p, 0.3)
        for _ in range(n_states):
            x = problem.x_planted + rng.standard_normal(problem.n)
            z = float(rng.uniform(0.0, 2.0)) if method is Method.RAK else 0.0
            state = SolverState(x=x, z=z, rho=1.0, k=0)
            for rho in (0.5, 1.0, 4.0):
                rep = exact_expected_step(problem, state, method, rho)
                base, expected = _tracked(rep, method)
                min_slack = _worst(min, min_slack, base - expected)
    return _result(name, min_slack >= -1e-10, f"min_slack={min_slack:.3e}")


def check_projection_certificates(seed: int, count: int = 8) -> PropertyResult:
    """Projection output is feasible, dual-certified, and idempotent,
    feasible inputs are fixed points, and the exact projector agrees with
    Hildreth's sweeps on the same point.  A projector that gives up
    (ConvergenceError) fails the property with its message."""
    name = "projection-certificates"
    rng = make_rng(seed)
    worst = 0.0
    try:
        for t in range(count):
            problem = generate_feasible_lf(12, 6, seed + 9000 + t, 0.3)
            x = problem.x_planted + 2.0 * rng.standard_normal(problem.n)
            y, lam, _ = _hildreth(x, problem.a, problem.b, 1e-12, 100_000)
            slack = problem.a.data @ y - problem.b
            feas = max(float(slack.max()), 0.0)
            comp = float(np.abs(lam * slack).max())
            neg = max(0.0, -float(lam.min()))
            exact = project_polyhedron(x, problem.a, problem.b)
            agree = float(np.abs(exact - y).max())
            y2 = project_polyhedron(y, problem.a, problem.b)
            drift = float(np.abs(y2 - y).max())
            fixed = project_polyhedron(problem.x_planted, problem.a, problem.b)
            inside = float(np.abs(fixed - problem.x_planted).max())
            worst = _worst(max, worst, feas, comp, neg, agree, drift, inside)
    except ConvergenceError as exc:
        return _result(name, False, str(exc))
    return _result(name, worst <= 1e-8, f"max_violation={worst:.3e}")


def check_hoffman_halfspace(seed: int) -> PropertyResult:
    """For one unit-norm halfspace the residual-to-distance constant is
    exactly 1."""
    a = DenseMatrix([[0.6, 0.8]])
    problem = Problem(
        kind=ProblemKind.LF,
        a=a,
        b=np.array([1.0]),
        x_planted=np.array([0.0, 0.0]),
    )
    est = hoffman_estimate(problem, n_samples=200, radius=10.0, seed=seed)
    gap = abs(est.value - 1.0)
    return _result(
        "hoffman-halfspace-unit",
        gap <= 1e-8 and est.n_contributing > 0,
        f"estimate={est.value!r} contributing={est.n_contributing}",
    )


def check_lf_run_feasibility(
    seed: int,
    n_problems: int = 2,
    iters: int = 3000,
    tol: float = 1e-6,
    active_fraction: float = 0.0,
) -> PropertyResult:
    """Long runs drive the positive-part residual to the target.

    Instances keep a strict-slack witness by default: planting the
    witness on many boundaries at once can produce feasible cones so
    narrow that no member of this step family reaches the target within
    the iteration budget (the limiting rate depends on the instance's
    distance constant alone).  Tight-active geometry is exercised by the
    per-step and projection checks instead.
    """
    worst = 0.0
    for p in range(n_problems):
        problem = _normalized_lf(20, 10, seed + 9500 + p, active_fraction)
        for method in (Method.RPK, Method.RAK):
            cfg = SolverConfig(
                method=method, max_iters=iters, rho0=1.0, c=1.1, seed=seed + p
            )
            worst = _worst(max, worst, residual_of(problem, run_solver(problem, cfg).x))
    return _result("lf-run-feasibility", worst <= tol, f"max_final_residual={worst:.3e}")


def suite_steps(seed: int) -> list[PropertyResult]:
    blocks = _ls_blocks(seed, 300)  # built once, for this run's four equality checks
    return [
        check_rpk_ls_residual_contraction(seed, blocks=blocks),
        check_rak_ls_dual_identity(seed, blocks=blocks),
        check_rk_ls_projection(seed, blocks=blocks),
        check_lf_inactive_noop(seed),
        check_penalty_limit_matches_rk(seed, blocks=blocks),
        check_rho_schedule(seed),
    ]


# raw rows (||a_i||^2 about n) multiply the effective penalty rho ||a_i||^2;
# rho down to 0.01 takes it below the unit-row instances' smallest
_RAW_RHOS = (0.01, 0.1, 1.0, 10.0)


def suite_theorems(seed: int) -> list[PropertyResult]:
    return [
        check_ls_expected_contraction(seed, Method.RPK),
        check_ls_expected_contraction(seed, Method.RAK, z_span=5.0),
        check_ls_expected_contraction(seed, Method.RPK, rhos=_RAW_RHOS, rows="raw"),
        check_ls_expected_contraction(seed, Method.RAK, rhos=_RAW_RHOS, z_span=5.0, rows="raw"),
        check_ls_expected_contraction(seed, Method.RK, rows="wide"),
        check_ls_expected_contraction(seed, Method.RAK, z_span=5.0, rows="wide"),
        check_ls_expected_tightness(seed, Method.RPK),
        check_ls_expected_tightness(seed, Method.RAK),
        check_factor_grid(),
        check_adaptive_slack(seed),
        check_adaptive_slack(seed, rhos=_RAW_RHOS, rows="raw"),
        check_mc_envelope(seed, Method.RPK),
        check_mc_envelope(seed, Method.RAK),
    ]


def suite_lf(seed: int) -> list[PropertyResult]:
    return [
        check_lf_step_distance_monotone(seed),
        check_lf_expected_decrease(seed, Method.RPK),
        check_lf_expected_decrease(seed, Method.RAK),
        check_projection_certificates(seed),
        check_hoffman_halfspace(seed),
        check_lf_run_feasibility(seed),
    ]


SUITES = {
    "steps": suite_steps,
    "theorems": suite_theorems,
    "lf": suite_lf,
}


def run_suites(name: str, seed: int) -> list[PropertyResult]:
    if name == "all":
        results = []
        for key in ("steps", "theorems", "lf"):
            results.extend(SUITES[key](seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
