"""End-to-end command line behavior: generate, solve, compare, verify, plot."""

import importlib.util
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import kaczpen
from kaczpen.cli import _solver_config, build_parser, main
from kaczpen.fileio import format_float
from kaczpen.linalg import DenseMatrix
from kaczpen.problems import Problem, ProblemKind, load_problem, save_problem
from kaczpen.solvers import Method
from kaczpen.traces import parse_trace_csv


def run_cli(capsys, *argv):
    capsys.readouterr()  # drop anything buffered by fixtures
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


def test_generate_ls_writes_file_and_summary(capsys, tmp_path):
    out = str(tmp_path / "p.txt")
    code, stdout, _ = run_cli(
        capsys, "generate", "--kind", "ls", "--rows", "6", "--cols", "4",
        "--seed", "3", "-o", out,
    )
    assert code == 0
    assert "generated kind=ls m=6 n=4" in stdout
    p = load_problem(out)
    assert (p.m, p.n) == (6, 4)
    assert p.x_planted is not None


def test_generate_byte_identical_reruns(capsys, tmp_path):
    out1 = str(tmp_path / "a.txt")
    out2 = str(tmp_path / "b.txt")
    args = ["generate", "--kind", "lf", "--rows", "5", "--cols", "3",
            "--seed", "7", "--active-fraction", "0.4"]
    assert main(args + ["-o", out1]) == 0
    assert main(args + ["-o", out2]) == 0
    capsys.readouterr()
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize(
    "message, expected",
    [
        ("Unable to allocate 298. GiB for an array with shape (200000, 200000)",
         "error: Unable to allocate 298. GiB for an array with shape (200000, 200000)\n"),
        ("", "error: out of memory\n"),
    ],
    ids=["numpy-message", "bare"],
)
def test_generate_out_of_memory_exits_3(capsys, tmp_path, monkeypatch, message, expected):
    """An input too large for memory is a runtime failure with one error
    line, not a traceback with exit 1 (a failed verify property)."""

    def refuse(m, n, seed):
        raise MemoryError(message)

    monkeypatch.setattr("kaczpen.cli.generate_consistent_ls", refuse)
    out = tmp_path / "p.txt"
    code, stdout, stderr = run_cli(
        capsys, "generate", "--kind", "ls", "--rows", "200000", "--cols", "200000",
        "-o", str(out),
    )
    assert (code, stdout, stderr) == (3, "", expected)
    assert not out.exists()


def test_generate_active_fraction_ls_is_usage_error(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "generate", "--kind", "ls", "--rows", "3", "--cols", "2",
        "--active-fraction", "0.5", "-o", str(tmp_path / "p.txt"),
    )
    assert code == 2
    assert "active-fraction" in stderr


def test_generate_active_fraction_out_of_range(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "generate", "--kind", "lf", "--rows", "3", "--cols", "2",
        "--active-fraction", "1.5", "-o", str(tmp_path / "p.txt"),
    )
    assert code == 2


def test_generate_normalize_flag(capsys, tmp_path):
    out = str(tmp_path / "p.txt")
    code, _, _ = run_cli(
        capsys, "generate", "--kind", "ls", "--rows", "4", "--cols", "3",
        "--normalize", "-o", out,
    )
    assert code == 0
    p = load_problem(out)
    assert p.normalized


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["generate", "solve", "compare", "verify"])
def test_negative_seed_is_usage_error(capsys, tmp_path, command):
    """The seeded streams take nonnegative seeds only: a negative --seed is
    a usage error (exit 2) that names the flag, not a runtime failure."""
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "ls", "--rows", "4", "--cols", "3", "-o", path]) == 0
    argv = {
        "generate": ["generate", "--kind", "ls", "--rows", "4", "--cols", "3", "-o", path],
        "solve": ["solve", path, "--method", "rk", "--iters", "5"],
        "compare": ["compare", path, "--trials", "2", "--checkpoints", "0,5"],
        "verify": ["verify", "--suite", "steps"],
    }[command]
    code, _, stderr = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert "--seed" in stderr


# ---------------------------------------------------------------------------
# solve


@pytest.fixture()
def ls_problem(tmp_path):
    path = str(tmp_path / "ls.txt")
    assert main(["generate", "--kind", "ls", "--rows", "8", "--cols", "5",
                 "--seed", "11", "-o", path]) == 0
    return path


@pytest.fixture()
def lf_problem(tmp_path):
    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", "8", "--cols", "5",
                 "--seed", "12", "--active-fraction", "0.25", "-o", path]) == 0
    return path


def test_solve_writes_trace_with_k_plus_one_rows(capsys, tmp_path, ls_problem):
    trace = str(tmp_path / "t.csv")
    code, stdout, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rpk", "--iters", "100",
        "--trace", trace,
    )
    assert code == 0
    records = parse_trace_csv(trace)
    assert len(records) == 101
    assert "method=rpk" in stdout
    assert "iterations_executed=100" in stdout


def test_solve_zero_iters_single_row(capsys, tmp_path, ls_problem):
    trace = str(tmp_path / "t.csv")
    code, _, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rak", "--iters", "0",
        "--trace", trace,
    )
    assert code == 0
    records = parse_trace_csv(trace)
    assert len(records) == 1
    assert records[0].row == -1


def test_solve_rk_echoes_rho0(capsys, tmp_path, ls_problem):
    trace = str(tmp_path / "t.csv")
    code, stdout, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rk", "--rho0", "5",
        "--iters", "10", "--trace", trace,
    )
    assert code == 0
    records = parse_trace_csv(trace)
    assert all(r.rho == 5.0 for r in records)
    assert "rho0=5" in stdout


def test_solve_traces_byte_identical(capsys, tmp_path, ls_problem):
    t1 = str(tmp_path / "a.csv")
    t2 = str(tmp_path / "b.csv")
    args = ["solve", ls_problem, "--method", "rak", "--iters", "50",
            "--seed", "4"]
    assert main(args + ["--trace", t1]) == 0
    assert main(args + ["--trace", t2]) == 0
    capsys.readouterr()
    assert open(t1, "rb").read() == open(t2, "rb").read()


def test_solve_tol_stops_early(capsys, tmp_path):
    # identity-like very well conditioned system converges fast
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "ls", "--rows", "4", "--cols", "4",
                 "--seed", "5", "-o", path]) == 0
    trace = str(tmp_path / "t.csv")
    code, stdout, _ = run_cli(
        capsys, "solve", path, "--method", "rk", "--iters", "100000",
        "--tol", "1e-10", "--trace", trace,
    )
    assert code == 0
    records = parse_trace_csv(trace)
    assert records[-1].k < 100000
    assert records[-1].residual <= 1e-10


IDENTITY_ZERO = "kaczmarz-problem v1 ls 2 2\n1 0 0\n0 1 0\n"


def test_solve_start_within_tol_runs_no_steps(capsys, tmp_path):
    """The start x = 0 solves the system, so --tol stops the run before its
    first step, and a traced run writes the k = 0 record alone."""
    path = tmp_path / "p.txt"
    path.write_text(IDENTITY_ZERO)
    trace = str(tmp_path / "t.csv")
    for extra in ([], ["--trace", trace]):
        code, stdout, stderr = run_cli(
            capsys, "solve", str(path), "--method", "rk", "--iters", "100", "--tol", "1e-9",
            *extra,
        )
        assert code == 0, stderr
        assert " iterations_executed=0 " in stdout
    records = parse_trace_csv(trace)
    assert [(r.k, r.row) for r in records] == [(0, -1)]


@pytest.mark.parametrize(
    "flag, value, message",
    [("--trace-stride", "0", "trace_stride must be positive"),
     ("--tol", "-1", "residual_tol must be nonnegative")],
)
def test_solve_bad_stride_or_tol_exits_2(capsys, tmp_path, flag, value, message):
    path = tmp_path / "p.txt"
    path.write_text(IDENTITY_ZERO)
    code, stdout, stderr = run_cli(
        capsys, "solve", str(path), "--method", "rk", "--iters", "5", flag, value
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--methods", "", "unknown method ''"),
     ("--checkpoints", ",", "checkpoints must be nonnegative integers"),
     ("--trials", "0", "--trials must be positive")],
)
def test_compare_bad_list_or_trials_exits_2(capsys, tmp_path, flag, value, message):
    """An empty method list, a checkpoint list with no number and zero
    trials are each a usage error, one line on stderr."""
    path = tmp_path / "p.txt"
    path.write_text(IDENTITY_ZERO)
    flags = {"--methods": "rk", "--checkpoints": "0,5", "--trials": "2", flag: value}
    code, stdout, stderr = run_cli(
        capsys, "compare", str(path), *(word for pair in flags.items() for word in pair)
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"usage error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, argv",
    [
        ("ls", ["solve", "--method", "rk", "--iters", "5"]),
        ("lf", ["solve", "--method", "rk", "--iters", "5"]),
        ("lf", ["compare", "--methods", "rk", "--trials", "2", "--checkpoints", "0,5"]),
    ],
    ids=["ls-solve", "lf-solve", "lf-compare"],
)
def test_frobenius_overflow_exits_3(capsys, tmp_path, kind, argv):
    """Each squared row norm, 1.44e308, fits float64, but their sum, the
    sampling weights' normalizer, does not: the loader refuses the file
    with one line naming the range, and no numpy warning."""
    path = tmp_path / "p.txt"
    path.write_text(f"kaczmarz-problem v1 {kind} 2 2\n1.2e154 0 1\n1.2e154 1 1\n")
    code, stdout, stderr = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 3
    assert stdout == ""
    assert stderr.splitlines() == [
        "error: line 3: the sum of squared row norms is beyond the float64 range (max 1.8e308)"
    ]


def test_solve_missing_file_exits_3(capsys):
    code, _, stderr = run_cli(
        capsys, "solve", "/nonexistent/p.txt", "--method", "rk", "--iters", "1"
    )
    assert code == 3
    assert "error" in stderr


def test_solve_malformed_problem_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("kaczmarz-problem v1 ls 2 2\n1 0 1\n")
    code, _, stderr = run_cli(
        capsys, "solve", str(bad), "--method", "rk", "--iters", "1"
    )
    assert code == 3


def test_solve_huge_header_width_exits_3(capsys, tmp_path):
    """The header's dimensions must not size an allocation before any row
    is checked: a width of 10^11 columns fails on the first data row."""
    bad = tmp_path / "wide.txt"
    bad.write_text("kaczmarz-problem v1 ls 2 99999999999\n1 0 1\n0 1 1\n")
    code, _, stderr = run_cli(
        capsys, "solve", str(bad), "--method", "rk", "--iters", "1"
    )
    assert code == 3
    assert "line 2" in stderr


def test_solve_bad_config_exits_2(capsys, tmp_path, ls_problem):
    code, _, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rpk", "--iters", "5",
        "--rho0", "-1",
    )
    assert code == 2


@pytest.mark.parametrize(
    "method, flag, value, field",
    [
        ("rak", "--rho-max", "nan", "rho_max"),
        ("rak", "--tol", "nan", "residual_tol"),
        ("rk", "--rho0", "nan", "rho0"),
        ("rpk", "--c", "nan", "c"),
        ("rpk", "--rho0", "inf", "rho0"),
        ("rak", "--c", "inf", "c"),
        ("rpk", "--tol", "inf", "residual_tol"),
    ],
)
def test_solve_non_finite_parameter_exits_2(
    capsys, tmp_path, ls_problem, method, flag, value, field
):
    """NaN passes every range check, and so did nothing (--rho-max, --tol),
    was echoed (--rho0) or failed later as a non-finite iterate (--c)."""
    trace = tmp_path / "t.csv"
    code, stdout, stderr = run_cli(
        capsys, "solve", ls_problem, "--method", method, "--iters", "5",
        flag, value, "--trace", str(trace),
    )
    assert code == 2
    assert f"usage error: {field} must not be {value}" in stderr
    assert stdout == "" and not trace.exists()


def test_solve_infinite_rho_max_means_no_cap(capsys, tmp_path, ls_problem):
    code, stdout, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rpk", "--iters", "5",
        "--c", "2", "--rho-max", "inf",
    )
    assert code == 0
    assert "iterations_executed=5" in stdout


@pytest.mark.parametrize(
    "flag, value, field",
    [("--rho0", "nan", "rho0"), ("--c", "nan", "c"), ("--rho-max", "nan", "rho_max"),
     ("--rho0", "inf", "rho0"), ("--c", "inf", "c")],
)
def test_compare_non_finite_parameter_exits_2(capsys, tmp_path, ls_problem, flag, value, field):
    out = tmp_path / "c.csv"
    code, _, stderr = run_cli(
        capsys, "compare", ls_problem, "--trials", "2", "--checkpoints", "0,5",
        flag, value, "-o", str(out),
    )
    assert code == 2
    assert f"usage error: {field} must not be {value}" in stderr
    assert not out.exists()


def test_solve_lf_runs(capsys, tmp_path, lf_problem):
    trace = str(tmp_path / "t.csv")
    code, stdout, _ = run_cli(
        capsys, "solve", lf_problem, "--method", "rak", "--iters", "200",
        "--c", "1.05", "--trace", trace,
    )
    assert code == 0
    assert "kind=lf" in stdout
    records = parse_trace_csv(trace)
    assert len(records) == 201
    # feasibility residual should have fallen substantially
    assert records[-1].residual < records[0].residual


def test_solve_lf_factor_on_uneven_rows(capsys, tmp_path):
    """The 10x20 file's squared row norms run from 16.8 to 27.2, so the
    feasibility factor 1 - damping / (||A||_F^2 L^2) is 0.93449; with a
    stray s_min in the numerator it read -0.2816, not a contraction."""
    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", "10", "--cols", "20", "--seed", "1007",
                 "--active-fraction", "0.3", "-o", path]) == 0
    code, stdout, stderr = run_cli(
        capsys, "solve", path, "--method", "rk", "--iters", "100", "--seed", "7"
    )
    assert code == 0, stderr
    assert "per_step_factor=0.93449" in stdout


@pytest.mark.parametrize(
    "rows, cols, seed", [(10, 20, 1000), (300, 50, 1)], ids=["10x20", "300x50"]
)
def test_lf_factor_is_one_per_problem(capsys, tmp_path, rows, cols, seed):
    """The feasibility factor rests on one estimate of L per problem: solve
    prints the same per_step_factor at every --seed, and compare's envelope
    (monte_carlo_error_curve) uses that same factor."""
    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", str(rows), "--cols", str(cols),
                 "--seed", str(seed), "--active-fraction", "0.3", "-o", path]) == 0
    factors = set()
    for run_seed in ("0", "1", "7"):
        code, stdout, stderr = run_cli(
            capsys, "solve", path, "--method", "rk", "--iters", "10", "--seed", run_seed
        )
        assert code == 0, stderr
        factors.add(stdout.split("per_step_factor=")[1].split()[0])
    assert len(factors) == 1
    cfg = kaczpen.solvers.SolverConfig(method=Method.RK, max_iters=1, rho0=1.0, seed=5)
    curve = kaczpen.analysis.monte_carlo_error_curve(load_problem(path), cfg, 1, [0, 1])
    assert factors == {format_float(curve.per_step_factor)}


def test_solve_more_rows_than_old_cap(capsys, tmp_path):
    """m = 2500 exceeds the 2000-row cap of the Jacobi solver x* once used."""
    path = str(tmp_path / "big.txt")
    assert main(["generate", "--kind", "ls", "--rows", "2500", "--cols", "50",
                 "--seed", "21", "-o", path]) == 0
    code, stdout, stderr = run_cli(
        capsys, "solve", path, "--method", "rk", "--iters", "100"
    )
    assert code == 0, stderr
    assert "m=2500 n=50" in stdout


def test_solve_traced_degenerate_lf_finishes(capsys, tmp_path):
    """300x50 with 30% of rows tight at the planted point: every trace
    point projects onto a degenerate vertex.  Hildreth's sweeps made this
    run take over 10 minutes; the exact projector takes seconds."""
    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", "300", "--cols", "50",
                 "--seed", "1", "--active-fraction", "0.3", "-o", path]) == 0
    trace = str(tmp_path / "t.csv")
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "solve", path, "--method", "rak", "--iters", "2000", "--trace", trace
    )
    elapsed = time.perf_counter() - start
    assert code == 0, stderr
    assert len(parse_trace_csv(trace)) == 2001
    assert elapsed < 30.0


def test_solve_traced_computes_x_star_once(capsys, tmp_path, ls_problem, monkeypatch):
    from kaczpen import solvers

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = solvers.least_norm_solution
    monkeypatch.setattr(solvers, "least_norm_solution", counted)
    code, _, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rak", "--iters", "20",
        "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("rows, cols", [(8, 5), (5, 5), (5, 8)])
def test_equality_runs_factor_the_matrix_once(capsys, tmp_path, monkeypatch, rows, cols):
    """x* and lambda_min come from one SVD of A: a loaded equality problem
    put through a traced solve and a three-method compare makes one svd
    call and no eigvalsh or eigh call."""
    from kaczpen import cli

    path = str(tmp_path / "ls.txt")
    assert main(["generate", "--kind", "ls", "--rows", str(rows), "--cols", str(cols),
                 "--seed", "11", "-o", path]) == 0
    problem = load_problem(path)
    monkeypatch.setattr(cli, "load_problem", lambda p: problem)
    calls = {"svd": 0, "eigvalsh": 0, "eigh": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    code, _, stderr = run_cli(
        capsys, "solve", path, "--method", "rak", "--iters", "50",
        "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0, stderr
    code, _, stderr = run_cli(
        capsys, "compare", path, "--methods", "rk,rpk,rak", "--trials", "2",
        "--checkpoints", "0,10",
    )
    assert code == 0, stderr
    assert calls == {"svd": 1, "eigvalsh": 0, "eigh": 0}


@pytest.mark.parametrize("rows, cols, svd_calls", [(6, 15, 1), (30, 6, 0)])
def test_feasibility_runs_factor_the_matrix_at_most_once(
    capsys, tmp_path, monkeypatch, rows, cols, svd_calls
):
    """The Hoffman estimate's least-norm bound reads the one SVD of A: a
    loaded wide feasibility problem put through a traced solve and a
    three-method compare makes one svd call and no cholesky or inv call,
    and a tall one, which has no such bound, makes none of them."""
    from kaczpen import cli

    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", str(rows), "--cols", str(cols),
                 "--active-fraction", "0.3", "--seed", "11", "-o", path]) == 0
    problem = load_problem(path)
    monkeypatch.setattr(cli, "load_problem", lambda p: problem)
    calls = {"svd": 0, "cholesky": 0, "inv": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    code, _, stderr = run_cli(
        capsys, "solve", path, "--method", "rak", "--iters", "50",
        "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0, stderr
    code, _, stderr = run_cli(
        capsys, "compare", path, "--methods", "rk,rpk,rak", "--trials", "2",
        "--checkpoints", "0,10",
    )
    assert code == 0, stderr
    assert calls == {"svd": svd_calls, "cholesky": 0, "inv": 0}


def test_overflowing_solution_exits_3(capsys, tmp_path):
    """x* of this 2x2 system is (-3.4e308, 3.4e308), beyond the float64
    range: solve and compare fail fast instead of reporting an inf error."""
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 2 2\n1 1 1.7e308\n1 0.5 0\n")
    for argv in (["solve", str(path), "--method", "rk", "--iters", "10"],
                 ["compare", str(path), "--methods", "rk", "--trials", "2", "--checkpoints", "5"]):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 3
        assert stdout == ""
        assert "float64 range" in stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["rk", "rpk", "rak"])
def test_solution_beyond_the_squared_range_solves(capsys, tmp_path, method):
    """x* = b / a = -7.5e99 is in range, though ||A A^T||_F = a^2 and the
    penalty (1 + rho a^2)^2 overflow float64: solve and compare reach x*
    with no numpy warning."""
    path = tmp_path / "p.txt"
    path.write_text(
        "kaczmarz-problem v1 ls 1 1\n-7.5430376111653931e+99 5.6897416403455716e+199\n"
    )
    trace = str(tmp_path / "t.csv")
    code, stdout, stderr = run_cli(
        capsys, "solve", str(path), "--method", method, "--iters", "10", "--trace", trace
    )
    assert (code, stderr) == (0, "")
    assert " final_error_sq=0 final_residual=0 per_step_factor=0 " in stdout
    code, stdout, stderr = run_cli(
        capsys, "compare", str(path), "--methods", method, "--trials", "2", "--checkpoints", "0,5"
    )
    assert (code, stderr) == (0, "")
    assert stdout.splitlines()[-1] == f"{method},5,0,0"


FAR_2X2 = "kaczmarz-problem v1 lf 2 2\n1e-150 0 -1e300\n0 1 0\n"
FAR_1X1 = "kaczmarz-problem v1 lf 1 1\n1e-160 -1e300\n"
FAR_MESSAGE = "projection lies beyond the float64 range (largest finite value 1.8e308)"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "text, argv, message",
    [
        (FAR_2X2, ["solve", "--method", "rk", "--iters", "10"], FAR_MESSAGE),
        (FAR_2X2, ["solve", "--method", "rak", "--iters", "10", "--trace", "t.csv"],
         FAR_MESSAGE),
        (FAR_2X2, ["compare", "--methods", "rk", "--trials", "2", "--checkpoints", "0,5"],
         FAR_MESSAGE),
        (FAR_1X1, ["solve", "--method", "rk", "--iters", "1000"],
         "non-finite iterate at iteration 1"),
        (FAR_1X1, ["solve", "--method", "rk", "--iters", "1000", "--tol", "1e-9"],
         "non-finite iterate at iteration 1"),
        (FAR_1X1, ["solve", "--method", "rk", "--iters", "1000", "--trace", "t.csv"],
         FAR_MESSAGE),
    ],
    ids=["solve", "traced", "compare", "one-row", "one-row-tol", "one-row-traced"],
)
def test_polyhedron_beyond_float_range_exits_3(capsys, tmp_path, text, argv, message):
    """Every feasible point of these files lies beyond 1e450 (2x2) or 1e460
    (one row) in magnitude, so the distance from the start is not a
    float64: measuring it (a trace, the Hoffman estimate, compare) fails
    naming the range, and a traced solve writes no trace (an inf error_sq
    would be a trace that plot refuses).  On the one-row file an untraced
    solve measures no distance; its first step overflows instead."""
    path = tmp_path / "p.txt"
    path.write_text(text)
    argv = [argv[0], str(path)] + [str(tmp_path / v) if v == "t.csv" else v for v in argv[1:]]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert stdout == ""
    assert f"error: {message}" in stderr
    assert not (tmp_path / "t.csv").exists()


def test_solve_normalize_subnormal_row_norm(capsys, tmp_path):
    """The first row's squared norm, 1e-320, is subnormal; normalized, the
    rows are the identity and the plain step's factor is 1 - 1/2."""
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 2 2\n1e-160 0 1\n0 1 1\n")
    code, stdout, _ = run_cli(
        capsys, "solve", str(path), "--normalize", "--method", "rk", "--iters", "10"
    )
    assert code == 0
    assert " per_step_factor=0.5 " in stdout


@pytest.mark.filterwarnings("error")
def test_solve_normalize_bound_beyond_float_range_exits_3(capsys, tmp_path):
    """Normalizing the one-row file puts its bound at -1e460: one error
    line naming the range, exit 3, and no numpy warning before it."""
    path = tmp_path / "p.txt"
    path.write_text(FAR_1X1)
    code, stdout, stderr = run_cli(
        capsys, "solve", str(path), "--normalize", "--method", "rk", "--iters", "10"
    )
    assert code == 3
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert "float64 range" in stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, argv",
    [
        (FAR_2X2, ["solve", "--method", "rk", "--iters", "10"]),
        (FAR_2X2, ["solve", "--method", "rak", "--iters", "10", "--trace", "t.csv"]),
        (FAR_2X2, ["compare", "--methods", "rk", "--trials", "2", "--checkpoints", "0,5"]),
        (FAR_1X1, ["solve", "--method", "rk", "--iters", "1000", "--trace", "t.csv"]),
        (FAR_1X1, ["compare", "--trials", "2", "--checkpoints", "5"]),
    ],
    ids=["solve", "traced", "compare", "one-row-traced", "one-row-compare"],
)
def test_polyhedron_beyond_float_range_prints_one_line(capsys, tmp_path, text, argv):
    """With warnings as errors, a polyhedron beyond the float64 range
    fails with its error line alone: h_i / ||a_i|| overflows, so the
    full-scale runs stop before any arithmetic on it and the unit-scale
    solve, scaled back, is refused without a numpy warning.  On the
    one-row file the unit-scale solve's multipliers overflow, and that is
    refused without a warning too."""
    path = tmp_path / "p.txt"
    path.write_text(text)
    argv = [argv[0], str(path)] + [str(tmp_path / v) if v == "t.csv" else v for v in argv[1:]]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert stdout == ""
    assert stderr.splitlines() == [f"error: {FAR_MESSAGE}"]


# ---------------------------------------------------------------------------
# compare


def test_compare_row_count(capsys, tmp_path, ls_problem):
    out = str(tmp_path / "c.csv")
    code, _, _ = run_cli(
        capsys, "compare", ls_problem, "--methods", "rk,rpk,rak",
        "--trials", "3", "--checkpoints", "0,5,10", "--seed", "2", "-o", out,
    )
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "method,checkpoint,mean_error_sq,envelope"
    assert len(lines) == 1 + 3 * 3


def test_compare_stdout_when_no_output(capsys, tmp_path, ls_problem):
    code, stdout, _ = run_cli(
        capsys, "compare", ls_problem, "--methods", "rpk",
        "--trials", "2", "--checkpoints", "0,4",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "method,checkpoint,mean_error_sq,envelope"
    assert len(lines) == 3


@pytest.mark.parametrize("normalize", [[], ["--normalize"]], ids=["plain", "normalize"])
@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_compare_single_trial_matches_solve(
    capsys, tmp_path, ls_problem, lf_problem, kind, normalize
):
    """One trial's means are the solve trace's lyapunov column bit for bit,
    also when --normalize rescales the rows both runs use."""
    path = ls_problem if kind == "ls" else lf_problem
    trace = str(tmp_path / "t.csv")
    assert main(["solve", path, "--method", "rak", "--iters", "10", "--seed", "6",
                 "--trace", trace, "--trace-stride", "1", *normalize]) == 0
    out = str(tmp_path / "c.csv")
    assert main(["compare", path, "--methods", "rak", "--trials", "1",
                 "--checkpoints", "0,5,10", "--seed", "6", "-o", out, *normalize]) == 0
    capsys.readouterr()
    by_k = {r.k: r.lyapunov for r in parse_trace_csv(trace)}
    lines = open(out).read().strip().splitlines()[1:]
    assert [float(line.split(",")[2]) for line in lines] == [by_k[0], by_k[5], by_k[10]]


def test_compare_huge_rho_rpk_matches_rk(capsys, tmp_path):
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "ls", "--rows", "6", "--cols", "4",
                 "--seed", "9", "--normalize", "-o", path]) == 0
    out = str(tmp_path / "c.csv")
    assert main(["compare", path, "--methods", "rk,rpk", "--rho0", "1e12",
                 "--trials", "2", "--checkpoints", "0,10,20", "--seed", "3",
                 "-o", out]) == 0
    capsys.readouterr()
    means = {}
    for line in open(out).read().strip().splitlines()[1:]:
        method, k, mean, _ = line.split(",")
        means[(method, int(k))] = float(mean)
    for k in (0, 10, 20):
        rk, rpk = means[("rk", k)], means[("rpk", k)]
        assert rpk == pytest.approx(rk, rel=1e-6, abs=1e-12)


def test_compare_envelope_holds_without_normalization(capsys, tmp_path):
    """The envelope column has to bound the means on raw problem files,
    whose rows the generator does not normalize."""
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "ls", "--rows", "10", "--cols", "4",
                 "--seed", "14", "-o", path]) == 0
    out = str(tmp_path / "c.csv")
    assert main(["compare", path, "--methods", "rk,rpk,rak", "--trials", "30",
                 "--checkpoints", "0,20,60", "--seed", "2", "-o", out]) == 0
    capsys.readouterr()
    for line in open(out).read().strip().splitlines()[1:]:
        _, _, mean, env = line.split(",")
        assert float(mean) <= float(env) * 1.15


def test_wide_file_gets_a_rate(capsys, tmp_path):
    """On the 20x60 equality file lambda_min(A^T A) is 0; the factor uses
    lambda_min(A A^T), so solve prints a factor below 1 and the compare
    envelope, no longer flat, stays at or above the means."""
    path = str(tmp_path / "w.txt")
    assert main(["generate", "--kind", "ls", "--rows", "20", "--cols", "60",
                 "--seed", "1", "-o", path]) == 0
    code, stdout, _ = run_cli(capsys, "solve", path, "--method", "rk", "--iters", "400")
    assert code == 0
    factor = float(stdout.split("per_step_factor=")[1].split()[0])
    assert factor < 1.0
    out = str(tmp_path / "c.csv")
    assert main(["compare", path, "--methods", "rk,rak", "--trials", "20",
                 "--checkpoints", "0,50,200", "-o", out]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    assert len(rows) == 6
    for _, k, mean, env in rows:
        assert float(mean) <= float(env)
        if k == "200":
            assert float(env) < 0.2 * float(rows[0][3])


def test_compare_envelope_holds_with_normalization(capsys, tmp_path):
    """Under --normalize the means, the envelope and its factor all come
    from the normalized rows: on a file whose rows differ in norm by 100x
    the envelope still bounds the means."""
    rng = np.random.default_rng(0)
    a = np.vstack([100.0 * np.eye(4), 1.0 + 0.01 * rng.standard_normal((60, 4))])
    x_p = rng.standard_normal(4)
    path = str(tmp_path / "p.txt")
    save_problem(Problem(ProblemKind.LS, DenseMatrix(a), a @ x_p, x_planted=x_p), path)
    out = str(tmp_path / "c.csv")
    assert main(["compare", path, "--methods", "rk,rpk,rak", "--trials", "200",
                 "--checkpoints", "5,20,50", "--normalize", "-o", out]) == 0
    capsys.readouterr()
    for line in open(out).read().strip().splitlines()[1:]:
        _, _, mean, env = line.split(",")
        assert float(mean) <= float(env) * 1.10


def test_compare_bad_checkpoints_exits_2(capsys, tmp_path, ls_problem):
    code, _, _ = run_cli(
        capsys, "compare", ls_problem, "--trials", "1",
        "--checkpoints", "0,banana",
    )
    assert code == 2


def test_compare_unknown_method_exits_2(capsys, tmp_path, ls_problem):
    code, _, _ = run_cli(
        capsys, "compare", ls_problem, "--methods", "rk,quantum",
        "--trials", "1", "--checkpoints", "0",
    )
    assert code == 2


def test_compare_rejects_tol(capsys, tmp_path, ls_problem):
    """The means are taken at fixed checkpoints, so an early stop has no
    meaning there; the flag must not be dropped silently."""
    out = tmp_path / "c.csv"
    code, _, stderr = run_cli(
        capsys, "compare", ls_problem, "--trials", "1", "--checkpoints", "0,5",
        "--tol", "1e-8", "-o", str(out),
    )
    assert code == 2
    assert "--tol" in stderr
    assert not out.exists()


def test_compare_rejects_iters(capsys, tmp_path, ls_problem):
    code, _, stderr = run_cli(
        capsys, "compare", ls_problem, "--trials", "1", "--checkpoints", "0,5",
        "--iters", "10",
    )
    assert code == 2
    assert "--iters" in stderr


def test_compare_estimates_hoffman_once(capsys, tmp_path, lf_problem, monkeypatch):
    """The feasibility envelope's constant L is estimated once per problem,
    not once per method, and the output is what a per-method estimate
    gives."""
    analysis = kaczpen.analysis
    argv = ["compare", lf_problem, "--methods", "rk,rpk,rak", "--trials", "3",
            "--checkpoints", "0,5,20", "--seed", "4"]
    calls = []
    original = analysis.hoffman_estimate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "hoffman_estimate", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()

    args = build_parser().parse_args(argv)
    problem = load_problem(lf_problem)
    expected = ["method,checkpoint,mean_error_sq,envelope"]
    for method in ("rk", "rpk", "rak"):
        curve = analysis.monte_carlo_error_curve(
            problem, _solver_config(args, Method(method), 20), 3, [0, 5, 20]
        )
        for k, mean, env in zip(curve.checkpoints, curve.means, curve.envelope):
            expected.append(f"{method},{k},{format_float(mean)},{format_float(env)}")
    assert out == "\n".join(expected) + "\n"


def test_all_feasible_samples_give_nan_factor_and_envelope(capsys, tmp_path):
    """Every Hoffman sample around the origin satisfies x_1 <= 1e6, so L has
    no estimate: solve prints a nan factor, and compare, on the same
    factor path, prints nan envelopes past k = 0 rather than failing."""
    path = str(tmp_path / "p.txt")
    with open(path, "w") as fh:
        fh.write("kaczmarz-problem v1 lf 1 2\n1 0 1000000\nplanted 0 0\n")
    code, out, _ = run_cli(capsys, "solve", path, "--method", "rk", "--iters", "5")
    assert code == 0
    assert "per_step_factor=nan" in out.split()
    code, out, stderr = run_cli(capsys, "compare", path, "--trials", "2", "--checkpoints", "0,5")
    assert code == 0, stderr
    assert out.splitlines()[1:] == [
        f"{method},{k},0,{envelope}"
        for method in ("rk", "rpk", "rak")
        for k, envelope in ((0, "0"), (5, "nan"))
    ]


@pytest.mark.parametrize("rows,cols", [(60, 10), (10, 20)])
def test_solve_skips_hoffman_projections(capsys, tmp_path, monkeypatch, rows, cols):
    """The summary factor's estimate projects strictly fewer samples than
    contribute, on a tall and on a wide feasibility file."""
    analysis = kaczpen.analysis
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "lf", "--rows", str(rows), "--cols", str(cols),
                 "--active-fraction", "0.3", "--seed", "1", "-o", path]) == 0
    projections, estimates = [], []
    distance, estimate = analysis.distance_to_feasible, analysis.hoffman_estimate

    def counted_distance(*args):
        projections.append(args)
        return distance(*args)

    def kept_estimate(*args):
        estimates.append(estimate(*args))
        return estimates[-1]

    monkeypatch.setattr(analysis, "distance_to_feasible", counted_distance)
    monkeypatch.setattr(analysis, "hoffman_estimate", kept_estimate)
    code, out, _ = run_cli(capsys, "solve", path, "--method", "rak", "--iters", "50")
    assert code == 0
    assert "per_step_factor=nan" not in out
    assert len(estimates) == 1
    assert 0 < len(projections) < estimates[0].n_contributing


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_solve_projects_few_hoffman_samples_on_wide_files(capsys, tmp_path, monkeypatch, seed):
    """On a 30 x 60 feasibility file the tightened least-norm bound leaves
    the summary factor's estimate at most three projections."""
    analysis = kaczpen.analysis
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "lf", "--rows", "30", "--cols", "60",
                 "--active-fraction", "0.3", "--seed", str(seed), "-o", path]) == 0
    projections = []
    distance = analysis.distance_to_feasible

    def counted_distance(*args):
        projections.append(args)
        return distance(*args)

    monkeypatch.setattr(analysis, "distance_to_feasible", counted_distance)
    code, out, _ = run_cli(capsys, "solve", path, "--method", "rpk", "--iters", "50")
    assert code == 0
    assert "per_step_factor=nan" not in out
    assert 1 <= len(projections) <= 3


def test_warm_started_projections_bound_the_work(capsys, tmp_path, monkeypatch):
    """Passive-set solves on the tall 300x50 file: a traced 2,000-step rak
    solve, whose stride points start from the support of the chunk of steps
    before (the first chunk's cold), makes at most 2,000 (1,951 on one BLAS
    thread; 13,924 when each started at the rows violated there), and
    compare --trials 20 --checkpoints 100,500, whose checkpoints start
    from the trial's previous one or, at its first, from x0's projection,
    fewer than 9,500: 8,658 on one BLAS thread, against 9,435 when a
    trial's first checkpoint starts from the trial before it, about
    11,388 when it starts cold and 13,033 when every checkpoint does.  A
    stacked solve counts once per set it solves."""
    from kaczpen import projection

    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", "--rows", "300", "--cols", "50",
                 "--seed", "1", "--active-fraction", "0.3", "-o", path]) == 0
    solves = []
    real = projection._passive_solve

    def counted(c, *args):
        solves.extend([None] * (len(c) if c.ndim == 3 else 1))
        return real(c, *args)

    monkeypatch.setattr(projection, "_passive_solve", counted)
    code, _, stderr = run_cli(capsys, "solve", path, "--method", "rak", "--iters", "2000",
                              "--trace", str(tmp_path / "t.csv"))
    assert code == 0, stderr
    assert len(solves) <= 2000
    solves.clear()
    code, _, stderr = run_cli(capsys, "compare", path, "--trials", "20",
                              "--checkpoints", "100,500", "-o", str(tmp_path / "c.csv"))
    assert code == 0, stderr
    assert len(solves) < 9_500


@pytest.mark.parametrize(
    "shape", [["--rows", "10", "--cols", "20"], ["--rows", "300", "--cols", "50", "--active-fraction", "0.3"]],
    ids=["10x20", "tall300"],
)
def test_trace_stride_does_not_change_any_error(capsys, tmp_path, shape):
    """A traced 2,000-step rak solve at --trace-stride 10 and at 1: every
    fresh row of the first has, byte for byte, the error_sq of the
    second's row at the same k.  At stride 1 a chunk's batch holds 23 to
    256 points, at stride 10 two to ten, each started from the support of
    the batch before, so neither the batch nor the start moves an error."""
    path = str(tmp_path / "lf.txt")
    assert main(["generate", "--kind", "lf", *shape, "--seed", "1", "-o", path]) == 0
    rows = {}
    for stride in ("10", "1"):
        trace = str(tmp_path / f"s{stride}.csv")
        code, _, stderr = run_cli(capsys, "solve", path, "--method", "rak", "--iters", "2000",
                                  "--trace", trace, "--trace-stride", stride)
        assert code == 0, stderr
        with open(trace) as f:
            rows[stride] = [line.split(",") for line in f.read().splitlines()[1:]]
    fresh = [row for row in rows["10"] if row[-1] == "1"]
    assert len(fresh) == 201
    for row in fresh:
        assert row[3] == rows["1"][int(row[0])][3], row[0]


@pytest.mark.parametrize("iters", [20, 25])
def test_solve_reuses_fresh_trace_error_sq(capsys, tmp_path, monkeypatch, iters):
    """A traced feasibility solve whose last record is fresh takes the
    summary's final_error_sq from it instead of projecting x again; a
    stale last record leaves the summary to project.  Either way the
    summary is the untraced solve's, and each fresh record is one point
    projected, alone (k = 0) or in its chunk's batch."""
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "lf", "--rows", "10", "--cols", "20",
                 "--active-fraction", "0.3", "--seed", "3", "-o", path]) == 0
    argv = ["solve", path, "--method", "rak", "--iters", str(iters), "--trace-stride", "10"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    solvers = kaczpen.solvers
    projections = []
    distances = solvers._warm_distances

    def counted_distances(xs, *args):
        projections.extend([args] * len(xs))
        return distances(xs, *args)

    monkeypatch.setattr(solvers, "_warm_distances", counted_distances)
    trace = str(tmp_path / "t.csv")
    code, traced, _ = run_cli(capsys, *argv, "--trace", trace)
    assert code == 0
    records = parse_trace_csv(trace)
    assert records[-1].fresh == (iters % 10 == 0)
    assert len(projections) == sum(r.fresh for r in records) + (not records[-1].fresh)

    def masked(line):
        return [f for f in line.split() if not f.startswith("wall_time_seconds=")]

    assert masked(traced) == masked(plain)
    reused = f"final_error_sq={format_float(records[-1].error_sq)}" in traced.split()
    assert reused == records[-1].fresh


# ---------------------------------------------------------------------------
# verify


def test_verify_steps_suite_passes(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "steps")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "6/6 properties passed"


def test_verify_report_deterministic(capsys):
    code1 = main(["verify", "--suite", "steps", "--seed", "5"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--suite", "steps", "--seed", "5"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# plot


def test_plot_single_trace(capsys, tmp_path, ls_problem):
    trace = str(tmp_path / "t.csv")
    assert main(["solve", ls_problem, "--method", "rpk", "--iters", "40",
                 "--trace", trace]) == 0
    svg = str(tmp_path / "chart.svg")
    code, _, _ = run_cli(capsys, "plot", trace, "-o", svg)
    assert code == 0
    text = open(svg).read()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 1


def test_plot_two_traces_with_legend(capsys, tmp_path, ls_problem):
    t1 = str(tmp_path / "a.csv")
    t2 = str(tmp_path / "b.csv")
    assert main(["solve", ls_problem, "--method", "rk", "--iters", "30",
                 "--trace", t1]) == 0
    assert main(["solve", ls_problem, "--method", "rak", "--iters", "30",
                 "--trace", t2]) == 0
    svg = str(tmp_path / "chart.svg")
    code, _, _ = run_cli(capsys, "plot", t1, t2, "--log-y", "-o", svg)
    assert code == 0
    text = open(svg).read()
    assert text.count("<polyline") == 2
    assert "a" in text and "b" in text  # legend labels from basenames


def test_plot_byte_identical_reruns(capsys, tmp_path, ls_problem):
    trace = str(tmp_path / "t.csv")
    assert main(["solve", ls_problem, "--method", "rpk", "--iters", "20",
                 "--trace", trace]) == 0
    s1 = str(tmp_path / "a.svg")
    s2 = str(tmp_path / "b.svg")
    assert main(["plot", trace, "-o", s1]) == 0
    assert main(["plot", trace, "-o", s2]) == 0
    capsys.readouterr()
    assert open(s1, "rb").read() == open(s2, "rb").read()


def test_plot_empty_trace_exits_3(capsys, tmp_path):
    from kaczpen.traces import TRACE_HEADER

    empty = tmp_path / "empty.csv"
    empty.write_text(TRACE_HEADER + "\n")
    code, _, stderr = run_cli(capsys, "plot", str(empty), "-o", str(tmp_path / "o.svg"))
    assert code == 3


def test_plot_malformed_trace_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,row\n0,1\n")
    code, _, stderr = run_cli(capsys, "plot", str(bad), "-o", str(tmp_path / "o.svg"))
    assert code == 3
    assert "line 1" in stderr


def test_plot_reads_trace_whose_rho_reached_inf(capsys, tmp_path):
    """With --rho-max inf the schedule overflows rho to inf, a valid value
    (the plain step); plot takes the trace solve wrote."""
    problem, trace = str(tmp_path / "p.txt"), str(tmp_path / "t.csv")
    assert main([
        "generate", "--kind", "lf", "--rows", "10", "--cols", "20", "--seed", "1",
        "--active-fraction", "0.3", "-o", problem,
    ]) == 0
    assert main([
        "solve", problem, "--method", "rak", "--iters", "50", "--c", "1e200",
        "--rho-max", "inf", "--trace", trace,
    ]) == 0
    assert parse_trace_csv(trace)[-1].rho == float("inf")
    code, stdout, stderr = run_cli(capsys, "plot", trace, "-o", str(tmp_path / "t.svg"))
    assert (code, stderr) == (0, "")
    assert "wrote" in stdout


def test_plot_escapes_legend_labels(capsys, tmp_path, ls_problem):
    """A trace whose name holds XML metacharacters still gives a
    well-formed SVG, whose legend reads the name back."""
    trace = str(tmp_path / "a&b<c.csv")
    assert main(["solve", ls_problem, "--method", "rk", "--iters", "10", "--trace", trace]) == 0
    svg = str(tmp_path / "chart.svg")
    code, _, _ = run_cli(capsys, "plot", trace, "-o", svg)
    assert code == 0
    texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c" in texts


# ---------------------------------------------------------------------------
# writes that fail


@pytest.mark.parametrize("command", ["generate", "solve", "compare", "plot"])
def test_write_to_missing_directory_names_destination(
    capsys, tmp_path, ls_problem, monkeypatch, command
):
    """A destination in a missing directory exits 3 with one error line
    naming it, not the temp file beside it.  solve and compare refuse it
    before their first step; nothing is written."""
    trace = str(tmp_path / "t.csv")
    assert main(["solve", ls_problem, "--method", "rk", "--iters", "5", "--trace", trace]) == 0
    missing = tmp_path / "missing"
    dest = str(missing / "out")
    argv = {
        "generate": ["generate", "--kind", "ls", "--rows", "3", "--cols", "2", "-o", dest],
        "solve": ["solve", ls_problem, "--method", "rk", "--iters", "10", "--trace", dest],
        "compare": ["compare", ls_problem, "--trials", "2", "--checkpoints", "5", "-o", dest],
        "plot": ["plot", trace, "-o", dest],
    }[command]
    steps = []
    monkeypatch.setattr("kaczpen.solvers._step_coef", lambda *a: steps.append(a))
    monkeypatch.setattr("kaczpen.solvers._step_rows", lambda *a: steps.append(a))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (3, "")
    assert stderr == f"error: [Errno 2] No such file or directory: {dest!r}\n"
    assert steps == []
    assert not missing.exists()
    assert sorted(os.listdir(tmp_path)) == ["ls.txt", "t.csv"]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_output_path_that_is_a_directory_is_refused_before_any_step(
    capsys, tmp_path, ls_problem, monkeypatch, command
):
    dest = tmp_path / "out"
    dest.mkdir()
    argv = {
        "solve": ["solve", ls_problem, "--method", "rk", "--iters", "10", "--trace", str(dest)],
        "compare": ["compare", ls_problem, "--trials", "2", "--checkpoints", "5", "-o", str(dest)],
    }[command]
    monkeypatch.setattr("kaczpen.solvers._step_coef", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr("kaczpen.solvers._step_rows", lambda *a: pytest.fail("stepped"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (3, "")
    assert stderr == f"error: [Errno 21] Is a directory: {str(dest)!r}\n"
    assert os.listdir(dest) == []


# ---------------------------------------------------------------------------
# the parser


def test_parser_built_once_answers_as_a_fresh_one(capsys, tmp_path, monkeypatch):
    """build_parser returns one parser per process.  A run of generate,
    solve, a usage error, --help and solve again through main prints and
    exits as the same run with a freshly built parser for every call."""
    from kaczpen import cli

    assert build_parser() is build_parser()
    path = str(tmp_path / "p.txt")
    runs = [
        ["generate", "--kind", "lf", "--rows", "6", "--cols", "4", "--seed", "2", "-o", path],
        ["solve", path, "--method", "rak", "--iters", "30"],
        ["solve", path, "--iters", "30"],
        ["--help"],
        ["solve", "--help"],
        ["solve", path, "--method", "rpk", "--iters", "20", "--seed", "3"],
    ]

    def outcomes():
        got = []
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            masked = [f for f in out.split(" ") if not f.startswith("wall_time_seconds=")]
            got.append((code, masked, err))
        return got

    cached = outcomes()
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert outcomes() == cached


# ---------------------------------------------------------------------------
# the benchmark's tracer


def test_benchmark_tracer_installs_and_restores():
    """benchmarks/tracer.py, as it is, wraps every function it names in the
    loaded kaczpen modules and puts each one back: a traced benchmark run
    looks up every target, so a renamed or deleted one would crash it."""
    import kaczpen.cli  # noqa: F401  (the tracer rebinds names in loaded modules)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", os.path.join(root, "benchmarks", "tracer.py")
    )
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    def bindings():
        return {
            (key, name): value
            for key, mod in list(sys.modules.items())
            if key == "kaczpen" or key.startswith("kaczpen.")
            for name, value in vars(mod).items()
        }

    def targets():
        found = []
        for module_name, attr, _ in tracer_module.TARGETS:
            owner = sys.modules[f"kaczpen.{module_name}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            found.append(owner)
        return found

    before, originals = bindings(), targets()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(targets(), originals))
    finally:
        tracer.restore()
    assert all(now is was for now, was in zip(targets(), originals))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


# ---------------------------------------------------------------------------
# running from a source tree


def _run_python(args, env_overrides, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kaczpen.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_cli(tmp_path):
    out = tmp_path / "p.txt"
    proc = _run_python(["-m", "kaczpen", "generate", "--kind", "lf", "--rows", "4",
                        "--cols", "3", "-o", str(out)], {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "generated kind=lf m=4 n=3" in proc.stdout
    assert load_problem(str(out)).m == 4
    proc = _run_python(["-m", "kaczpen", "solve"], {}, tmp_path)
    assert proc.returncode == 2


THREADS_PROBE = (
    "import os; import kaczpen; "
    "print(*(os.environ[v] for v in "
    "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"
)


def test_blas_threads_default_to_one(tmp_path):
    proc = _run_python(["-c", THREADS_PROBE], {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


def test_blas_threads_user_setting_wins(tmp_path):
    proc = _run_python(["-c", THREADS_PROBE],
                       {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "1", "2"]


# numpy's own OpenBLAS thread count after `import kaczpen`, with numpy
# imported first or not (argv[1]), or "none" when no such call is found
OPENBLAS_THREADS_PROBE = (
    "import ctypes, glob, os, sys\n"
    "if sys.argv[1] == 'numpy':\n"
    "    import numpy\n"
    "import kaczpen\n"
    "import numpy\n"
    "libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), 'numpy.libs')\n"
    "for path in sorted(glob.glob(os.path.join(libs, 'libscipy_openblas*'))):\n"
    "    try:\n"
    "        print(ctypes.CDLL(path).scipy_openblas_get_num_threads64_())\n"
    "        break\n"
    "    except (OSError, AttributeError):\n"
    "        pass\n"
    "else:\n"
    "    print('none')\n"
)


@pytest.mark.parametrize("first", ["numpy", "kaczpen"])
@pytest.mark.parametrize("user", [None, "2"])
def test_openblas_threads_whatever_imports_first(tmp_path, first, user):
    """With the thread variables unset (the pytest process has set them),
    numpy's OpenBLAS has one thread after `import kaczpen` whether numpy
    was imported first or not, and an OPENBLAS_NUM_THREADS the user set
    wins either way."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cores or 1) < 2:
        pytest.skip("one core: OpenBLAS starts with one thread whatever imports first")
    env = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
    proc = _run_python(["-c", OPENBLAS_THREADS_PROBE, first], env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("numpy bundles no scipy-openblas library with a thread-count call")
    assert proc.stdout.split() == [user or "1"]
    assert proc.stderr == ""


def test_openblas_threads_warns_once_without_a_known_library(tmp_path):
    """A numpy imported first whose OpenBLAS call cannot be found gets one
    RuntimeWarning, pointing at the import, which a reload of the package
    does not repeat (the variables are set by then)."""
    code = (
        "import importlib, sys, types, warnings\n"
        "numpy = types.ModuleType('numpy')\n"
        "numpy.__file__ = sys.argv[1]\n"
        "sys.modules['numpy'] = numpy\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import kaczpen\n"
        "    importlib.reload(kaczpen)\n"
        "print(len(caught), caught[0].category.__name__, caught[0].filename == '<string>')\n"
    )
    missing = str(tmp_path / "site" / "numpy" / "__init__.py")
    proc = _run_python(["-c", code, missing], {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "RuntimeWarning", "True"]
