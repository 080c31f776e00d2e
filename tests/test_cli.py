"""End-to-end command line behavior: generate, solve, compare, verify, plot."""

import os
import subprocess
import sys
import time

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
    from kaczpen import cli, solvers

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = cli.least_norm_solution
    monkeypatch.setattr(cli, "least_norm_solution", counted)
    monkeypatch.setattr(solvers, "least_norm_solution", counted)
    code, _, _ = run_cli(
        capsys, "solve", ls_problem, "--method", "rak", "--iters", "20",
        "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("iters", [20, 25])
def test_solve_reuses_fresh_trace_error_sq(capsys, tmp_path, monkeypatch, iters):
    """A traced feasibility solve whose last record is fresh takes the
    summary's final_error_sq from it instead of projecting x again; a
    stale last record leaves the summary to project.  Either way the
    summary is the untraced solve's."""
    path = str(tmp_path / "p.txt")
    assert main(["generate", "--kind", "lf", "--rows", "10", "--cols", "20",
                 "--active-fraction", "0.3", "--seed", "3", "-o", path]) == 0
    argv = ["solve", path, "--method", "rak", "--iters", str(iters), "--trace-stride", "10"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    solvers = kaczpen.solvers
    projections = []
    distance = solvers.distance_to_feasible

    def counted_distance(*args):
        projections.append(args)
        return distance(*args)

    monkeypatch.setattr(solvers, "distance_to_feasible", counted_distance)
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
