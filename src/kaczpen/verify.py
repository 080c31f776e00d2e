"""Seeded property suites behind the CLI verify command.

Every check returns a PropertyResult whose detail line records the worst
measured slack, so a run documents how much margin each property had.
Counts are parameters: the CLI uses fast defaults, the acceptance tests
rerun the same checks at their full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, solvers
from .analysis import (
    adaptive_step_report,
    envelope_factor,
    exact_expected_step,
    hoffman_estimate,
    monte_carlo_error_curve,
)
from .linalg import ConvergenceError, DenseMatrix
from .problems import (
    Problem,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    normalize_rows,
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


def _step_tuples(seed: int, count: int, rho_hi: float, arg_floor: float, z_span: float):
    """Yield (problem, x, i, rho, z) with the step argument bounded away
    from zero so relative identity checks stay well conditioned."""
    rng = make_rng(seed)
    problem = None
    for t in range(count):
        if t % 50 == 0:
            problem = _normalized_ls(20, 10, seed + 1000 + t)
        i = int(rng.integers(problem.m))
        rho = float(10.0 ** rng.uniform(-1.0, np.log10(rho_hi)))
        z = float(rng.uniform(-z_span, z_span)) if z_span > 0.0 else 0.0
        row = problem.a.row(i)
        for _ in range(200):
            x = rng.standard_normal(problem.n)
            r = float(row @ x) - problem.b[i]
            if abs(r + z / rho) >= arg_floor and abs(r) >= arg_floor:
                break
        yield problem, x, i, rho, z


def check_rpk_ls_residual_contraction(seed: int, count: int = 300) -> PropertyResult:
    """Post-step row residual equals the pre-step residual divided by
    1 + rho ||a_i||^2, to 1e-12 relative."""
    worst = 0.0
    for problem, x, i, rho, _ in _step_tuples(seed, count, 10.0, 0.3, 0.0):
        row = problem.a.row(i)
        r_pre = float(row @ x) - problem.b[i]
        x_new = solvers.rpk_step_ls(x, problem.a, problem.b, i, rho)
        r_post = float(row @ x_new) - problem.b[i]
        expected = r_pre / (1.0 + rho * problem.a.row_norms_sq[i])
        rel = abs(r_post - expected) / abs(expected)
        worst = max(worst, rel)
    return _result(
        "rpk-ls-residual-contraction", worst <= 1e-12, f"max_rel_err={worst:.3e}"
    )


def check_rak_ls_dual_identity(seed: int, count: int = 300) -> PropertyResult:
    """The refreshed multiplier satisfies z' = z + rho (a_i . x' - b_i)
    to 1e-12 relative."""
    worst = 0.0
    for problem, x, i, rho, z in _step_tuples(seed, count, 2.0, 0.3, 3.0):
        x_new, z_new = solvers.rak_step_ls(x, z, problem.a, problem.b, i, rho)
        row = problem.a.row(i)
        recomputed = z + rho * (float(row @ x_new) - problem.b[i])
        rel = abs(z_new - recomputed) / abs(z_new)
        worst = max(worst, rel)
    return _result("rak-ls-dual-identity", worst <= 1e-12, f"max_rel_err={worst:.3e}")


def check_rk_ls_projection(seed: int, count: int = 200) -> PropertyResult:
    """The plain step lands on the sampled hyperplane."""
    worst = 0.0
    for problem, x, i, _, _ in _step_tuples(seed, count, 10.0, 0.1, 0.0):
        x_new = solvers.rk_step_ls(x, problem.a, problem.b, i)
        row = problem.a.row(i)
        gap = abs(float(row @ x_new) - problem.b[i])
        worst = max(worst, gap)
    return _result("rk-ls-projection", worst <= 1e-12, f"max_residual={worst:.3e}")


def check_lf_inactive_noop(seed: int, count: int = 200) -> PropertyResult:
    """Feasibility steps leave x untouched on satisfied rows, and the
    multiplier step zeroes z when z + rho r < 0."""
    rng = make_rng(seed)
    ok = True
    for t in range(count):
        problem = _normalized_lf(10, 6, seed + 2000 + t, 0.0)
        i = int(rng.integers(problem.m))
        row = problem.a.row(i)
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        for _ in range(200):
            x = problem.x_planted + 0.3 * rng.standard_normal(problem.n)
            if float(row @ x) - problem.b[i] < -1e-3:
                break
        x_rpk = solvers.rpk_step_lf(x, problem.a, problem.b, i, rho)
        x_rk = solvers.rk_step_lf(x, problem.a, problem.b, i)
        r = float(row @ x) - problem.b[i]
        z = float(rng.uniform(0.0, min(1.0, -r * rho * 0.9)))
        x_rak, z_new = solvers.rak_step_lf(x, z, problem.a, problem.b, i, rho)
        ok = ok and x_rpk is x and x_rk is x and x_rak is x and z_new == 0.0
        if not ok:
            return _result("lf-inactive-noop", False, f"case {t} moved on a slack row")
    return _result("lf-inactive-noop", True, f"{count} cases held exactly")


def check_penalty_limit_matches_rk(
    seed: int, count: int = 300, rho: float = 1e12, tol: float = 1e-6
) -> PropertyResult:
    """At huge rho the damped and multiplier steps (z = 0) coincide with
    the plain projection on unit-norm rows."""
    worst = 0.0
    for problem, x, i, _, _ in _step_tuples(seed, count, 10.0, 0.0, 0.0):
        x_rk = solvers.rk_step_ls(x, problem.a, problem.b, i)
        x_rpk = solvers.rpk_step_ls(x, problem.a, problem.b, i, rho)
        x_rak, _ = solvers.rak_step_ls(x, 0.0, problem.a, problem.b, i, rho)
        worst = max(
            worst,
            float(np.abs(x_rpk - x_rk).max()),
            float(np.abs(x_rak - x_rk).max()),
        )
    return _result("penalty-limit-matches-rk", worst <= tol, f"max_gap={worst:.3e}")


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
        worst = max(worst, abs(rec.rho - closed) / closed)
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


def _random_ls_state(problem: Problem, rng, z_span: float) -> SolverState:
    x = 2.0 * rng.standard_normal(problem.n)
    z = float(rng.uniform(-z_span, z_span)) if z_span > 0.0 else 0.0
    return SolverState(x=x, z=z, rho=1.0, k=0)


def check_ls_expected_contraction(
    seed: int,
    method: Method,
    n_problems: int = 10,
    n_states: int = 2,
    rhos=(0.1, 1.0, 10.0),
    z_span: float = 0.0,
) -> PropertyResult:
    """Enumerated E_i of the post-step error (Lyapunov value for the
    multiplier method) sits below the per-step factor that solve and
    compare print (envelope_factor) times the current value, within 1e-10."""
    name = f"{method.value}-ls-expected-contraction"
    rng = make_rng(seed)
    min_slack = np.inf
    for p in range(n_problems):
        problem = _normalized_ls(20, 10, seed + 4000 + p)
        for _ in range(n_states):
            state = _random_ls_state(problem, rng, z_span)
            for rho in rhos:
                rep = exact_expected_step(problem, state, method, rho)
                factor = envelope_factor(problem, method, rho, seed)
                if method is Method.RAK:
                    bound = factor * (rep.base_error_sq + state.z**2 / rho)
                    slack = bound - rep.expected_lyapunov
                else:
                    bound = factor * rep.base_error_sq
                    slack = bound - rep.expected_error_sq
                if slack < min_slack:
                    min_slack = slack
    return _result(name, min_slack >= -1e-10, f"min_slack={min_slack:.3e}")


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
                factor = envelope_factor(problem, method, rho, seed)
                if method is Method.RAK:
                    base = rep.base_error_sq + z * z / rho
                    gap = abs(factor * base - rep.expected_lyapunov)
                    scale = max(1.0, factor * base)
                else:
                    gap = abs(factor * rep.base_error_sq - rep.expected_error_sq)
                    scale = max(1.0, factor * rep.base_error_sq)
                worst = max(worst, gap / scale)
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
        ok = ok and envelope_factor(eye4, Method.RPK, rho, 0) <= envelope_factor(
            eye4, Method.RAK, rho, 0
        )
        prev_rpk, prev_rak = rpk, rak
    limit = envelope_factor(eye4, Method.RPK, 1e12, 0)
    ok = ok and abs(limit - envelope_factor(eye4, Method.RK, 1.0, 0)) <= 1e-9
    ok = ok and abs(envelope_factor(eye2, Method.RPK, 1.0, 0) - 0.625) <= 1e-15
    ok = ok and abs(envelope_factor(eye2, Method.RAK, 1.0, 0) - 0.75) <= 1e-15
    return _result("factor-grid", ok, "monotone, ordered, correct limits")


def check_adaptive_slack(seed: int, n_problems: int = 4) -> PropertyResult:
    """The growing-penalty per-step inequality holds with nonnegative
    slack, and c = 1 reduces it to the fixed-penalty form."""
    rng = make_rng(seed)
    min_slack = np.inf
    for p in range(n_problems):
        problem = _normalized_ls(16, 8, seed + 5000 + p)
        for rho in (0.5, 2.0):
            for c in (1.0, 2.0, 5.0):
                x = 2.0 * rng.standard_normal(problem.n)
                z = float(rng.uniform(-3.0, 3.0))
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = adaptive_step_report(problem, state, c)
                min_slack = min(min_slack, rep.slack)
        lf = _normalized_lf(16, 8, seed + 5500 + p, 0.3)
        for rho in (0.5, 2.0):
            for c in (1.0, 2.0):
                x = lf.x_planted + rng.standard_normal(lf.n)
                z = float(rng.uniform(0.0, 3.0))
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = adaptive_step_report(lf, state, c)
                min_slack = min(min_slack, rep.slack)
    return _result("adaptive-penalty-slack", min_slack >= -1e-10, f"min_slack={min_slack:.3e}")


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
        worst = max(worst, mean / env)
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
                worst = max(worst, d - base)
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
                if method is Method.RAK:
                    slack = (
                        rep.base_error_sq + z * z / rho
                    ) - rep.expected_lyapunov
                else:
                    slack = rep.base_error_sq - rep.expected_error_sq
                min_slack = min(min_slack, slack)
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
            worst = max(worst, feas, comp, neg, agree, drift, inside)
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
            worst = max(worst, residual_of(problem, run_solver(problem, cfg).x))
    return _result("lf-run-feasibility", worst <= tol, f"max_final_residual={worst:.3e}")


def suite_steps(seed: int) -> list[PropertyResult]:
    return [
        check_rpk_ls_residual_contraction(seed),
        check_rak_ls_dual_identity(seed),
        check_rk_ls_projection(seed),
        check_lf_inactive_noop(seed),
        check_penalty_limit_matches_rk(seed),
        check_rho_schedule(seed),
    ]


def suite_theorems(seed: int) -> list[PropertyResult]:
    return [
        check_ls_expected_contraction(seed, Method.RPK),
        check_ls_expected_contraction(seed, Method.RAK, z_span=5.0),
        check_ls_expected_tightness(seed, Method.RPK),
        check_ls_expected_tightness(seed, Method.RAK),
        check_factor_grid(),
        check_adaptive_slack(seed),
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
