"""What a kaczpen process loads, and the names the package exports."""

import importlib.util
import os
import subprocess
import sys

import pytest

import kaczpen
from kaczpen import analysis, fileio, linalg, solvers, traces
from kaczpen.traces import TraceRecord, write_trace_csv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kaczpen.__file__)))
ROOT = os.path.dirname(SRC)

# the library modules, each in sys.modules from `import kaczpen` on
SUBMODULES = [
    "analysis", "fileio", "linalg", "problems", "projection",
    "sampling", "solvers", "svgchart", "traces", "verify",
]
# what the command line itself and generate run on
BASE = ["kaczpen", "kaczpen.cli", "kaczpen.fileio", "kaczpen.linalg", "kaczpen.problems"]

# A module counts as loaded once its code has run: until then it is a
# LazyLoader module, whose type is a subclass of ModuleType.
REPORT = (
    "import sys, types\n"
    "mods = {n: m for n, m in sys.modules.items() if n.split('.')[0] == 'kaczpen'}\n"
    "print(' '.join(sorted(mods)))\n"
    "print(' '.join(sorted(n for n, m in mods.items() if type(m) is types.ModuleType)))\n"
)


def _modules_after(code, tmp_path):
    """(modules present, modules loaded) after a fresh interpreter runs code."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code + "\n" + REPORT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    present, loaded = proc.stdout.splitlines()[-2:]
    return present.split(), loaded.split()


def test_import_cli_loads_only_what_generate_runs(tmp_path):
    present, loaded = _modules_after("import kaczpen.cli", tmp_path)
    assert loaded == BASE
    # every module is found under its name all the same
    assert present == sorted({"kaczpen", "kaczpen.cli"} | {f"kaczpen.{n}" for n in SUBMODULES})


def test_generate_loads_no_solver_analysis_or_verify_module(tmp_path):
    code = (
        "from kaczpen.cli import main\n"
        "for kind in ('ls', 'lf'):\n"
        "    argv = ['generate', '--kind', kind, '--rows', '6', '--cols', '4', '-o', kind]\n"
        "    assert main(argv + ['--normalize']) == 0\n"
    )
    _, loaded = _modules_after(code, tmp_path)
    assert loaded == BASE


def test_plot_loads_no_analysis_or_verify_module(tmp_path):
    trace = str(tmp_path / "t.csv")
    write_trace_csv([TraceRecord(0, -1, 1.0, 4.0, 2.0, 0.0, 4.0),
                     TraceRecord(1, 0, 1.0, 1.0, 1.0, 0.0, 1.0)], trace)
    code = f"from kaczpen.cli import main\nassert main(['plot', {trace!r}, '-o', 'p.svg']) == 0\n"
    _, loaded = _modules_after(code, tmp_path)
    assert loaded == sorted(BASE + ["kaczpen.svgchart", "kaczpen.traces"])


def test_benchmark_tracer_installs_in_a_fresh_process(tmp_path):
    """The benchmark's traced run installs its tracer right after importing
    kaczpen.cli, looking each traced module up in sys.modules."""
    path = os.path.join(ROOT, "benchmarks", "tracer.py")
    code = (
        "import importlib.util, kaczpen.cli\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {path!r})\n"
        "tracer_module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer_module)\n"
        "with tracer_module.Tracer():\n"
        "    assert kaczpen.cli.solvers.run_solver.__name__ == 'traced'\n"
        "assert kaczpen.cli.solvers.run_solver.__name__ == 'run_solver'\n"
    )
    _modules_after(code, tmp_path)


# the names `kaczpen` exports, as it did when it imported them eagerly
EXPORTS = [
    "AdaptiveStepReport", "ConvergenceError", "CurveReport", "DenseMatrix",
    "ExpectedStepReport", "HoffmanEstimate", "InconsistentSystemError", "Method",
    "NoEstimateError", "NumericFailureError", "Problem", "ProblemFormatError",
    "ProblemKind", "RowSampler", "RunSummary", "SolverConfig", "SolverState",
    "TraceFormatError", "TraceRecord", "adaptive_step_report", "advance_rho",
    "build_sampler", "distance_to_feasible", "envelope_factor", "exact_expected_step",
    "generate_consistent_ls", "generate_feasible_lf", "hoffman_ball", "hoffman_estimate",
    "instance_rate_factor", "lambda_min_variants", "least_norm_solution", "load_problem",
    "lyapunov_lf", "lyapunov_ls", "monte_carlo_error_curve", "normalize_rows",
    "parse_trace_csv", "project_polyhedron", "rak_step_lf", "rak_step_ls", "rk_step_lf",
    "rk_step_ls", "rpk_step_lf", "rpk_step_ls", "run_solver", "save_problem",
]


def test_every_export_resolves():
    assert kaczpen.__all__ == EXPORTS
    namespace = {}
    exec("from kaczpen import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS
    listed = dir(kaczpen)
    for name in EXPORTS:
        value = getattr(kaczpen, name)
        assert namespace[name] is value
        assert name in listed
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kaczpen.no_such_name  # noqa: B018


def test_moved_errors_keep_their_old_paths():
    """The runtime errors the command line maps to exit 3 live where
    generate loads them; the modules that raise them export the same
    classes under the old names."""
    assert solvers.NumericFailureError is linalg.NumericFailureError
    assert analysis.NoEstimateError is linalg.NoEstimateError
    assert traces.TraceFormatError is fileio.TraceFormatError
    assert "NoEstimateError" in analysis.__all__
    assert kaczpen.NumericFailureError is linalg.NumericFailureError


def test_reimporting_the_package_keeps_its_modules():
    """A reload finds the loaded submodules in sys.modules and keeps them."""
    before = {name: sys.modules[f"kaczpen.{name}"] for name in SUBMODULES}
    importlib.reload(kaczpen)
    assert {name: getattr(kaczpen, name) for name in SUBMODULES} == before
    assert all(sys.modules[f"kaczpen.{name}"] is mod for name, mod in before.items())
