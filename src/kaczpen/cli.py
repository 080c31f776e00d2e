"""Command line harness: generate problems, run solvers, compare methods
against their theoretical envelopes, run the property suites, and plot
traces.

Exit codes: 0 success, 1 a verification suite reported a failing
property, 2 usage error, 3 runtime failure (bad files, non-convergence,
numeric breakdown).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .analysis import (
    NoEstimateError,
    _sampled_hoffman_l,
    instance_rate_factor,
    monte_carlo_error_curve,
)
from .fileio import atomic_write_text, format_float
from .linalg import (
    ConvergenceError,
    InconsistentSystemError,
    lambda_min_variants,
    least_norm_solution,
)
from .problems import (
    Problem,
    ProblemFormatError,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    load_problem,
    normalize_rows,
    save_problem,
)
from .solvers import (
    Method,
    NumericFailureError,
    SolverConfig,
    error_sq_of,
    residual_of,
    run_solver,
)
from .svgchart import render_chart
from .traces import RunSummary, TraceFormatError, parse_trace_csv, write_trace_csv
from .verify import run_suites


class UsageError(Exception):
    pass


def _parse_methods(text: str) -> list[Method]:
    methods = []
    for token in text.split(","):
        token = token.strip()
        try:
            methods.append(Method(token))
        except ValueError:
            raise UsageError(f"unknown method {token!r}") from None
    if not methods:
        raise UsageError("no methods given")
    return methods


def _parse_checkpoints(text: str) -> list[int]:
    try:
        ks = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"bad checkpoint list {text!r}") from None
    if not ks or any(k < 0 for k in ks):
        raise UsageError("checkpoints must be nonnegative integers")
    return sorted(set(ks))


def _estimate_factor(problem: Problem, method: Method, rho0: float, seed: int) -> float:
    """Theoretical per-step factor for the summary line.  For feasibility
    problems the distance constant comes from a seeded sampling estimate
    and the factor degrades to nan when no sample contributes."""
    if problem.kind is ProblemKind.LS:
        conditioning = lambda_min_variants(problem.a)[0]
    else:
        try:
            conditioning = _sampled_hoffman_l(problem, seed, n_samples=64)
        except NoEstimateError:
            return float("nan")
    return instance_rate_factor(problem, method, rho0, conditioning)


def cmd_generate(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise UsageError("--rows and --cols must be positive")
    kind = ProblemKind(args.kind)
    if kind is ProblemKind.LS:
        if args.active_fraction is not None:
            raise UsageError("--active-fraction applies to lf problems only")
        problem = generate_consistent_ls(args.rows, args.cols, args.seed)
    else:
        fraction = 0.0 if args.active_fraction is None else args.active_fraction
        if not 0.0 <= fraction <= 1.0:
            raise UsageError("--active-fraction must lie in [0, 1]")
        problem = generate_feasible_lf(args.rows, args.cols, args.seed, fraction)
    if args.normalize:
        problem = normalize_rows(problem)
    save_problem(problem, args.output)
    fro = float(np.sqrt(problem.a.frobenius_sq))
    print(
        f"generated kind={kind.value} m={problem.m} n={problem.n} "
        f"frobenius_norm={format_float(fro)} path={args.output}"
    )
    return 0


def _load_run_problem(args) -> Problem:
    """The problem a solve or compare run uses throughout: the file's rows,
    scaled to unit norm under --normalize."""
    problem = load_problem(args.problem)
    if args.normalize and not problem.normalized:
        problem = normalize_rows(problem)
    return problem


def _solver_config(args, method: Method, max_iters: int, trace_stride: int = 10) -> SolverConfig:
    try:
        return SolverConfig(
            method=method,
            max_iters=max_iters,
            rho0=args.rho0,
            c=args.c,
            rho_max=args.rho_max,
            seed=args.seed,
            residual_tol=args.tol,
            trace_stride=trace_stride,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_solve(args) -> int:
    problem = _load_run_problem(args)
    cfg = _solver_config(args, Method(args.method), args.iters, args.trace_stride)
    # x* serves both the trace's error_sq and the summary's final error
    x_star = (
        least_norm_solution(problem.a, problem.b, np.zeros(problem.n))
        if problem.kind is ProblemKind.LS
        else None
    )
    records = []
    sink = records.append if args.trace else None
    start = time.perf_counter()
    state = run_solver(problem, cfg, trace_sink=sink, x_star=x_star)
    wall = time.perf_counter() - start
    if args.trace:
        write_trace_csv(records, args.trace)
    # a fresh last record holds error_sq_of at this same x
    if records and records[-1].k == state.k and records[-1].fresh:
        final_error_sq = records[-1].error_sq
    else:
        final_error_sq = error_sq_of(problem, state.x, x_star)

    summary = RunSummary(
        method=cfg.method.value,
        kind=problem.kind.value,
        m=problem.m,
        n=problem.n,
        rho0=cfg.rho0,
        c=cfg.c,
        seed=cfg.seed,
        iterations_executed=state.k,
        final_error_sq=final_error_sq,
        final_residual=residual_of(problem, state.x),
        per_step_factor=_estimate_factor(problem, cfg.method, cfg.rho0, cfg.seed),
        wall_time_seconds=wall,
    )
    print(summary.as_line())
    return 0


def cmd_compare(args) -> int:
    if args.tol is not None:
        raise UsageError(
            "compare takes no --tol: its means are taken at fixed checkpoints"
        )
    problem = _load_run_problem(args)
    methods = _parse_methods(args.methods)
    checkpoints = _parse_checkpoints(args.checkpoints)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    cfgs = [_solver_config(args, method, max(checkpoints)) for method in methods]
    # one estimate of L per problem, shared by every method
    hoffman_l = _sampled_hoffman_l(problem, args.seed) if problem.kind is ProblemKind.LF else None
    lines = ["method,checkpoint,mean_error_sq,envelope"]
    for cfg in cfgs:
        curve = monte_carlo_error_curve(
            problem, cfg, args.trials, checkpoints, hoffman_l=hoffman_l
        )
        for k, mean, env in zip(curve.checkpoints, curve.means, curve.envelope):
            lines.append(
                f"{cfg.method.value},{k},{format_float(mean)},{format_float(env)}"
            )
    text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    results = run_suites(args.suite, args.seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name} {res.detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


def cmd_plot(args) -> int:
    series = []
    for path in args.traces:
        records = parse_trace_csv(path)
        label = os.path.splitext(os.path.basename(path))[0]
        xs = [float(r.k) for r in records]
        ys = [r.error_sq for r in records]
        series.append((label, xs, ys))
    svg = render_chart(series, y_label="error_sq", log_y=args.log_y)
    atomic_write_text(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczpen",
        description="Randomized row-action solvers for linear systems and feasibility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random problem file")
    p.add_argument("--kind", choices=["ls", "lf"], required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--active-fraction",
        type=float,
        default=None,
        help="fraction of rows tight at the planted point (lf only)",
    )
    p.add_argument("--normalize", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one solver on a problem file")
    p.add_argument("problem")
    p.add_argument("--method", choices=["rk", "rpk", "rak"], required=True)
    p.add_argument("--rho0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--rho-max", dest="rho_max", type=float, default=1e12)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--trace", default=None, help="write a per-iteration CSV here")
    p.add_argument("--trace-stride", dest="trace_stride", type=int, default=10)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="mean error curves vs envelopes")
    p.add_argument("problem")
    p.add_argument("--methods", default="rk,rpk,rak")
    p.add_argument("--rho0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--rho-max", dest="rho_max", type=float, default=1e12)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument(
        "--suite", choices=["steps", "theorems", "lf", "all"], default="all"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render trace CSVs to an SVG chart")
    p.add_argument("traces", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log-y", dest="log_y", action="store_true")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        ProblemFormatError,
        TraceFormatError,
        ConvergenceError,
        InconsistentSystemError,
        NumericFailureError,
        NoEstimateError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
