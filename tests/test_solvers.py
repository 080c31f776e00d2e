"""Step rules, the penalty schedule, and the iteration driver."""

import math

import numpy as np
import pytest

from kaczpen.linalg import DenseMatrix
from kaczpen.problems import (
    Problem,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    normalize_rows,
)
from kaczpen.solvers import (
    Method,
    NumericFailureError,
    SolverConfig,
    advance_rho,
    rak_step_lf,
    rak_step_ls,
    rk_step_lf,
    rk_step_ls,
    rpk_step_lf,
    rpk_step_ls,
    run_solver,
)


def one_row(a_row):
    return DenseMatrix(np.array([a_row], dtype=float))


# ---------------------------------------------------------------------------
# rk steps


def test_rk_ls_unit_coordinate_row():
    a = one_row([0.0, 1.0])
    x = rk_step_ls(np.array([2.0, 5.0]), a, np.array([3.0]), 0)
    np.testing.assert_array_equal(x, [2.0, 3.0])


def test_rk_ls_unnormalized_row():
    a = one_row([2.0, 0.0])
    x = rk_step_ls(np.zeros(2), a, np.array([2.0]), 0)
    np.testing.assert_array_equal(x, [1.0, 0.0])


def test_rk_ls_lands_on_hyperplane():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = one_row(rng.standard_normal(4))
        b = rng.standard_normal(1)
        x = rng.standard_normal(4)
        x2 = rk_step_ls(x, a, b, 0)
        assert abs(a.row(0) @ x2 - b[0]) <= 1e-12 * (1 + abs(b[0]))


def test_rk_lf_violated_row_projects():
    a = one_row([1.0, 0.0])
    x = rk_step_lf(np.array([3.0, 0.0]), a, np.array([1.0]), 0)
    np.testing.assert_array_equal(x, [1.0, 0.0])


def test_rk_lf_satisfied_row_is_noop():
    a = one_row([1.0, 0.0])
    x0 = np.array([0.5, 2.0])
    x = rk_step_lf(x0, a, np.array([1.0]), 0)
    assert x is x0  # untouched, not merely equal


# ---------------------------------------------------------------------------
# rpk steps


def test_rpk_ls_known_value():
    a = one_row([1.0, 0.0])
    x = rpk_step_ls(np.array([1.0, 2.0]), a, np.array([0.0]), 0, rho=1.0)
    np.testing.assert_array_equal(x, [0.5, 2.0])


def test_rpk_ls_damped_residual():
    """Residual shrinks by exactly 1/(1 + rho*||a||^2)."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = one_row(rng.standard_normal(3))
        b = rng.standard_normal(1)
        x = rng.standard_normal(3)
        rho = float(rng.uniform(0.1, 5.0))
        r0 = a.row(0) @ x - b[0]
        x2 = rpk_step_ls(x, a, b, 0, rho)
        r1 = a.row(0) @ x2 - b[0]
        expect = r0 / (1.0 + rho * a.row_norms_sq[0])
        assert abs(r1 - expect) <= 1e-12 * max(1.0, abs(r0))


def test_rpk_lf_known_value():
    a = one_row([1.0, 0.0])
    x = rpk_step_lf(np.array([2.0, 0.0]), a, np.array([0.0]), 0, rho=3.0)
    np.testing.assert_array_equal(x, [0.5, 0.0])


def test_rpk_lf_satisfied_row_is_noop():
    a = one_row([1.0, 0.0])
    x0 = np.array([-1.0, 4.0])
    x = rpk_step_lf(x0, a, np.array([0.0]), 0, rho=2.0)
    assert x is x0


def test_rpk_requires_positive_rho():
    a = one_row([1.0, 0.0])
    with pytest.raises(ValueError):
        rpk_step_ls(np.zeros(2), a, np.zeros(1), 0, rho=0.0)
    with pytest.raises(ValueError):
        rpk_step_lf(np.zeros(2), a, np.zeros(1), 0, rho=-1.0)


# ---------------------------------------------------------------------------
# rak steps


def test_rak_ls_zero_multiplier():
    a = one_row([1.0, 0.0])
    x, z = rak_step_ls(np.array([1.0, 2.0]), 0.0, a, np.array([0.0]), 0, rho=1.0)
    np.testing.assert_array_equal(x, [0.5, 2.0])
    assert z == 0.5


def test_rak_ls_nonzero_multiplier():
    a = one_row([1.0, 0.0])
    x, z = rak_step_ls(np.array([1.0, 2.0]), 1.0, a, np.array([0.0]), 0, rho=1.0)
    np.testing.assert_array_equal(x, [0.0, 2.0])
    assert z == 1.0


def test_rak_ls_dual_identity():
    """z' = z + rho * (a.x' - b) holds at every step."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = one_row(rng.standard_normal(3))
        b = rng.standard_normal(1)
        x = rng.standard_normal(3)
        z = float(rng.standard_normal())
        rho = float(rng.uniform(0.1, 4.0))
        x2, z2 = rak_step_ls(x, z, a, b, 0, rho)
        lhs = z2
        rhs = z + rho * (a.row(0) @ x2 - b[0])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_rak_lf_known_value():
    a = one_row([1.0, 0.0])
    x, z = rak_step_lf(np.zeros(2), 2.0, a, np.array([1.0]), 0, rho=1.0)
    assert z == 0.5
    np.testing.assert_array_equal(x, [-0.5, 0.0])


def test_rak_lf_negative_argument_resets_multiplier():
    # z + rho * r < 0: iterate stays, multiplier drops to 0
    a = one_row([1.0, 0.0])
    x0 = np.array([-5.0, 1.0])
    x, z = rak_step_lf(x0, 0.5, a, np.array([0.0]), 0, rho=1.0)
    assert z == 0.0
    assert x is x0


def test_rak_lf_rejects_negative_multiplier():
    a = one_row([1.0, 0.0])
    with pytest.raises(ValueError):
        rak_step_lf(np.zeros(2), -0.1, a, np.zeros(1), 0, rho=1.0)


def test_rak_lf_multiplier_stays_nonnegative():
    rng = np.random.default_rng(3)
    a = one_row([1.0, 1.0])
    z = 0.0
    x = rng.standard_normal(2) * 3
    for _ in range(200):
        x, z = rak_step_lf(x, z, a, np.array([0.3]), 0, rho=1.3)
        assert z >= 0.0


# ---------------------------------------------------------------------------
# large-rho limit and per-step monotonicity


def test_penalty_steps_approach_rk_limit():
    rng = np.random.default_rng(4)
    rho = 1e12
    for _ in range(100):
        raw = rng.standard_normal(3)
        raw /= np.linalg.norm(raw)
        a = one_row(raw)
        b = rng.standard_normal(1)
        x = rng.standard_normal(3)
        ref = rk_step_ls(x, a, b, 0)
        assert np.abs(rpk_step_ls(x, a, b, 0, rho) - ref).max() <= 1e-6
        x_rak, _ = rak_step_ls(x, 0.0, a, b, 0, rho)
        assert np.abs(x_rak - ref).max() <= 1e-6


def test_rpk_ls_error_monotone_per_step():
    """||x' - x*||^2 falls by the closed-form amount on normalized rows."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        raw = rng.standard_normal(4)
        raw /= np.linalg.norm(raw)
        a = one_row(raw)
        x_star = rng.standard_normal(4)
        b = np.array([raw @ x_star])
        x = rng.standard_normal(4)
        rho = float(rng.uniform(0.1, 8.0))
        r = raw @ x - b[0]
        x2 = rpk_step_ls(x, a, b, 0, rho)
        drop = ((x - x_star) @ (x - x_star)) - ((x2 - x_star) @ (x2 - x_star))
        expect = (rho * (rho + 2.0) / (1.0 + rho) ** 2) * r * r
        assert drop >= -1e-10
        assert abs(drop - expect) <= 1e-10 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# advance_rho


def test_advance_rho_examples():
    assert advance_rho(1.0, 2.0, 1e12) == 2.0
    assert advance_rho(3.5, 1.0, 1e12) == 3.5
    assert advance_rho(9e11, 2.0, 1e12) == 1e12
    # with no cap rho may overflow to inf, the plain step, and stays there
    assert advance_rho(1e308, 2.0, math.inf) == math.inf
    assert advance_rho(math.inf, 2.0, math.inf) == math.inf


def test_advance_rho_validates():
    with pytest.raises(ValueError, match="^rho must be positive"):
        advance_rho(0.0, 2.0, 1e12)
    with pytest.raises(ValueError, match="^schedule factor c must be at least 1"):
        advance_rho(1.0, 0.5, 1e12)
    # SolverConfig's rules: NaN passes every comparison, c is finite, and
    # a cap below rho would shrink it
    for args, name in [
        ((1.0, math.nan, 10.0), "c"),
        ((1.0, math.inf, 10.0), "c"),
        ((1.0, 2.0, math.nan), "rho_max"),
        ((math.nan, 2.0, 10.0), "rho"),
        ((1.0, 2.0, 0.5), "rho_max"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must"):
            advance_rho(*args)


# ---------------------------------------------------------------------------
# run_solver


def collect(records):
    def sink(rec):
        records.append(rec)

    return sink


def test_run_solver_zero_iters_snapshot_only():
    p = generate_consistent_ls(4, 3, seed=0)
    records = []
    state = run_solver(p, SolverConfig(method=Method.RPK, max_iters=0), collect(records))
    assert state.k == 0
    assert len(records) == 1
    assert records[0].k == 0
    assert records[0].row == -1
    np.testing.assert_array_equal(state.x, np.zeros(3))


def test_run_solver_rk_identity_system_exact():
    p = Problem(kind=ProblemKind.LS, a=DenseMatrix(np.eye(2)), b=np.array([1.0, 1.0]))
    records = []
    state = run_solver(
        p, SolverConfig(method=Method.RK, max_iters=40, seed=1), collect(records)
    )
    rows_seen = {r.row for r in records if r.row >= 0}
    assert rows_seen == {0, 1}
    np.testing.assert_array_equal(state.x, [1.0, 1.0])


def test_run_solver_emits_k_plus_one_records():
    p = generate_consistent_ls(5, 4, seed=2)
    records = []
    run_solver(p, SolverConfig(method=Method.RAK, max_iters=25), collect(records))
    assert len(records) == 26
    assert [r.k for r in records] == list(range(26))


def test_run_solver_deterministic_traces():
    p = generate_feasible_lf(6, 4, seed=3, active_fraction=0.3)
    cfg = SolverConfig(method=Method.RPK, max_iters=50, rho0=2.0, c=1.1, seed=9)
    r1, r2 = [], []
    run_solver(p, cfg, collect(r1))
    run_solver(p, SolverConfig(method=Method.RPK, max_iters=50, rho0=2.0, c=1.1, seed=9), collect(r2))
    assert r1 == r2


def test_run_solver_rho_schedule_in_trace():
    p = generate_consistent_ls(4, 3, seed=4)
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RPK, max_iters=5, rho0=1.0, c=2.0, rho_max=8.0),
        collect(records),
    )
    assert [r.rho for r in records] == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def test_run_solver_rk_penalty_fields_inert():
    p = generate_consistent_ls(4, 3, seed=4)
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RK, max_iters=3, rho0=5.0, c=2.0),
        collect(records),
    )
    assert all(r.rho == 5.0 for r in records)


def test_run_solver_residual_tol_stops_early():
    p = Problem(kind=ProblemKind.LS, a=DenseMatrix(np.eye(2)), b=np.array([1.0, 1.0]))
    state = run_solver(
        p,
        SolverConfig(method=Method.RK, max_iters=10_000, seed=1, residual_tol=1e-9),
    )
    assert state.k < 10_000
    np.testing.assert_array_equal(state.x, [1.0, 1.0])


def test_run_solver_error_sq_decreases_ls():
    p = normalize_rows(generate_consistent_ls(8, 5, seed=7))
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RPK, max_iters=300, rho0=1.0, seed=5),
        collect(records),
    )
    errs = [r.error_sq for r in records]
    # per-step monotone for RPK-LS, allowing rounding noise
    assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] * 0.1


def test_run_solver_iterates_stay_in_row_space():
    """With x0 = 0 every iterate is a combination of rows."""
    p = generate_consistent_ls(3, 7, seed=8)  # wide: nontrivial null space
    records = []
    state = run_solver(
        p, SolverConfig(method=Method.RAK, max_iters=60, seed=2), collect(records)
    )
    w, v = np.linalg.eigh(p.a.data.T @ p.a.data)
    null = v[:, w <= 1e-10 * np.abs(w).max()]
    assert null.shape[1] == 4
    assert np.linalg.norm(null.T @ state.x) <= 1e-8


def test_run_solver_custom_start():
    p = generate_consistent_ls(4, 3, seed=9)
    x0 = np.array([1.0, -2.0, 0.5])
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RK, max_iters=0, x0=x0),
        collect(records),
    )
    assert records[0].error_sq > 0


def test_run_solver_rak_lf_multiplier_nonnegative():
    p = generate_feasible_lf(6, 4, seed=10, active_fraction=0.5)
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RAK, max_iters=400, rho0=1.0, seed=3),
        collect(records),
    )
    assert all(r.z >= 0.0 for r in records)


def test_run_solver_numeric_failure_carries_iteration():
    # a start so large the row inner product overflows to inf makes the
    # first step non-finite; the error must carry the iteration index
    p = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(np.array([[1.0, 1.0]])),
        b=np.array([0.0]),
    )
    big = np.full(2, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailureError) as info:
            run_solver(p, SolverConfig(method=Method.RK, max_iters=5, x0=big))
    assert info.value.iteration == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method=Method.RPK, max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.RPK, max_iters=1, rho0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.RPK, max_iters=1, c=0.9)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.RPK, max_iters=1, rho0=2.0, rho_max=1.0)
    cfg = SolverConfig(method="rak", max_iters=1)
    assert cfg.method is Method.RAK


@pytest.mark.parametrize(
    "field, value",
    [("rho0", math.nan), ("c", math.nan), ("rho_max", math.nan), ("residual_tol", math.nan),
     ("rho0", math.inf), ("c", math.inf), ("residual_tol", math.inf), ("rho0", -math.inf)],
)
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must not be {value}$"):
        SolverConfig(method=Method.RAK, max_iters=1, **{field: value})


def test_solver_config_allows_uncapped_rho():
    assert SolverConfig(method=Method.RPK, max_iters=1, rho_max=math.inf).rho_max == math.inf
