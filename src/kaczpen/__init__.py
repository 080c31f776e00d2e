"""Randomized row-action solvers for consistent linear systems and
linear feasibility, with penalty and multiplier step variants plus the
analysis tooling to verify their per-step contraction behavior.

Submodules load on first use.  ``import kaczpen`` puts each one in
``sys.modules`` through ``importlib.util.LazyLoader``: its code is compiled
and run only when one of its attributes is first read, or when an import
statement names it.  So a process pays only for the modules its work
uses (``kaczpen generate`` runs cli, fileio, linalg and problems), while
every module is found under its name from the start, as tools that look
modules up in sys.modules expect (benchmarks/tracer.py does).  The names
below are read from their submodules the same way (PEP 562).
"""

import importlib.util
import os
import sys

# The linear algebra here is small and called in loops, where BLAS threads
# cost more than they save (and far more on a loaded machine), and one
# thread keeps the projections' rounding, and so their results, the same
# in every process.  The variables take effect only before numpy is first
# imported; a value already in the environment wins.
_openblas_unset = "OPENBLAS_NUM_THREADS" not in os.environ
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _one_openblas_thread() -> None:
    """Give a numpy imported before this package, whose OpenBLAS has read
    the environment already, one thread through the library's own call
    (numpy's Linux and Windows wheels bundle it as
    numpy.libs/libscipy_openblas*); warn when no such call is found."""
    import ctypes
    import glob
    import warnings

    numpy_file = getattr(sys.modules["numpy"], "__file__", None)
    paths = []
    if numpy_file:
        libs = os.path.join(os.path.dirname(os.path.dirname(numpy_file)), "numpy.libs")
        paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))
    for path in paths:
        for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            try:
                setter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            setter(1)
            return
    warnings.warn(
        "numpy was imported before kaczpen and no bundled OpenBLAS "
        "(numpy.libs/libscipy_openblas*) was found to give one thread: "
        "set your BLAS's thread variable to 1 before importing numpy",
        RuntimeWarning,
        stacklevel=3,
    )


if _openblas_unset and "numpy" in sys.modules:
    _one_openblas_thread()
del _openblas_unset

# the exported names of each submodule
_EXPORTED_FROM = {
    "analysis": (
        "AdaptiveStepReport",
        "CurveReport",
        "ExpectedStepReport",
        "HoffmanEstimate",
        "adaptive_step_report",
        "envelope_factor",
        "exact_expected_step",
        "hoffman_ball",
        "hoffman_estimate",
        "instance_rate_factor",
        "lyapunov_lf",
        "lyapunov_ls",
        "monte_carlo_error_curve",
    ),
    "fileio": ("TraceFormatError",),
    "linalg": (
        "ConvergenceError",
        "DenseMatrix",
        "InconsistentSystemError",
        "NoEstimateError",
        "NumericFailureError",
        "lambda_min_variants",
        "least_norm_solution",
    ),
    "problems": (
        "Problem",
        "ProblemFormatError",
        "ProblemKind",
        "generate_consistent_ls",
        "generate_feasible_lf",
        "load_problem",
        "normalize_rows",
        "save_problem",
    ),
    "projection": ("distance_to_feasible", "project_polyhedron"),
    "sampling": ("RowSampler", "build_sampler"),
    "solvers": (
        "Method",
        "SolverConfig",
        "SolverState",
        "advance_rho",
        "rak_step_lf",
        "rak_step_ls",
        "rk_step_lf",
        "rk_step_ls",
        "rpk_step_lf",
        "rpk_step_ls",
        "run_solver",
    ),
    "traces": ("RunSummary", "TraceRecord", "parse_trace_csv"),
}
_EXPORTS = {name: module for module, names in _EXPORTED_FROM.items() for name in names}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"

# the library modules; cli and __main__ are entry points, imported as usual
_SUBMODULES = (
    "analysis",
    "fileio",
    "linalg",
    "problems",
    "projection",
    "sampling",
    "solvers",
    "svgchart",
    "traces",
    "verify",
)


def _lazy_submodule(name: str):
    """The submodule from sys.modules if it is loaded (a reload of the
    package), or else a LazyLoader one put there."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
