"""Randomized row-action solvers for consistent linear systems and
linear feasibility, with penalty and multiplier step variants plus the
analysis tooling to verify their per-step contraction behavior."""

import os

# The linear algebra here is small and called in loops, where BLAS threads
# cost more than they save (and far more on a loaded machine).  This must
# run before numpy is first imported to take effect; a value already in
# the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .analysis import (
    AdaptiveStepReport,
    CurveReport,
    ExpectedStepReport,
    HoffmanEstimate,
    NoEstimateError,
    adaptive_step_report,
    envelope_factor,
    exact_expected_step,
    hoffman_ball,
    hoffman_estimate,
    instance_rate_factor,
    lyapunov_lf,
    lyapunov_ls,
    monte_carlo_error_curve,
)
from .linalg import (
    ConvergenceError,
    DenseMatrix,
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
from .projection import distance_to_feasible, project_polyhedron
from .sampling import RowSampler, build_sampler
from .solvers import (
    Method,
    NumericFailureError,
    SolverConfig,
    SolverState,
    advance_rho,
    rak_step_lf,
    rak_step_ls,
    rk_step_lf,
    rk_step_ls,
    rpk_step_lf,
    rpk_step_ls,
    run_solver,
)
from .traces import RunSummary, TraceFormatError, TraceRecord, parse_trace_csv

__version__ = "0.1.0"
