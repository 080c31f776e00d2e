"""One step kernel: the step functions, run_solver, the Monte Carlo curve
and the enumeration oracles all reproduce the code it replaced bit for bit,
and all of them go through it.  run_solver checks x once per draw block,
so its residual stop, its numeric failures and the penalty cap are also
compared against a loop that checks every step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_reference as ref
from kaczpen import solvers
from kaczpen.analysis import adaptive_step_report, exact_expected_step, monte_carlo_error_curve
from kaczpen.linalg import ConvergenceError, DenseMatrix, InconsistentSystemError
from kaczpen.problems import (
    Problem,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    normalize_rows,
)
from kaczpen.solvers import Method, NumericFailureError, SolverConfig, SolverState, run_solver

entries = st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: 0.0 if abs(v) < 1e-3 else v)
signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def step_cases(draw):
    """A small system, a point, a row and penalty data.  Some right-hand
    sides equal the row's dot with x, so those residuals are exactly zero,
    and z is often a signed zero."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        row = draw(st.lists(entries, min_size=n, max_size=n))
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1.5, 0.75, 2.0]))
        rows.append(row)
    a = DenseMatrix(rows)
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    b = np.array(
        [float(a.data[i] @ x) if draw(st.booleans()) else draw(entries) for i in range(m)]
    )
    i = draw(st.integers(0, m - 1))
    rho = draw(st.floats(1e-3, 1e3))
    z = draw(st.one_of(signed_zero, st.floats(-3.0, 3.0)))
    return a, b, x, i, rho, z


def _same_step(got, want, x):
    """Bitwise equal results, and x itself exactly when the reference
    returned x itself."""
    got_x, want_x = (got[0], want[0]) if isinstance(want, tuple) else (got, want)
    assert ref.bits(got_x) == ref.bits(want_x)
    assert (got_x is x) == (want_x is x)
    if isinstance(want, tuple):
        assert ref.bits(got[1]) == ref.bits(want[1])


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_step_wrappers_match_reference_bodies(case):
    a, b, x, i, rho, z = case
    z_lf = abs(z) if z < 0.0 else z  # keeps -0.0, which is not < 0
    _same_step(solvers.rk_step_ls(x, a, b, i), ref.rk_step_ls(x, a, b, i), x)
    _same_step(solvers.rk_step_lf(x, a, b, i), ref.rk_step_lf(x, a, b, i), x)
    _same_step(solvers.rpk_step_ls(x, a, b, i, rho), ref.rpk_step_ls(x, a, b, i, rho), x)
    _same_step(solvers.rpk_step_lf(x, a, b, i, rho), ref.rpk_step_lf(x, a, b, i, rho), x)
    _same_step(solvers.rak_step_ls(x, z, a, b, i, rho), ref.rak_step_ls(x, z, a, b, i, rho), x)
    _same_step(
        solvers.rak_step_lf(x, z_lf, a, b, i, rho), ref.rak_step_lf(x, z_lf, a, b, i, rho), x
    )


@pytest.mark.parametrize("r", [0.0, -0.0])
def test_kernel_signed_zero_residual(r):
    """A zero residual of either sign is not a move on a feasibility row,
    and the equality coefficient keeps the residual's sign."""
    for z, rho in ((None, np.inf), (None, 2.0), (0.0, 2.0), (-0.0, 2.0)):
        coef, moves = solvers._step_coef(r, z, 1.5, rho, True)
        assert not moves
        coef, moves = solvers._step_coef(r, z, 1.5, rho, False)
        arg = r if z is None else r + z / rho
        assert moves and ref.bits(coef) == ref.bits(arg / (1.0 / rho + 1.5))
    coef, moves = solvers._step_coef(np.array([r, 1.0, np.nan]), None, 1.5, 2.0, True)
    assert moves.tolist() == [False, True, True]


def _problem(kind):
    if kind == "ls":
        return generate_consistent_ls(9, 4, seed=31)
    return generate_feasible_lf(8, 5, seed=32, active_fraction=0.4)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize("c", [1.0, 1.05])
@pytest.mark.parametrize("nonzero_x0", [False, True])
def test_run_solver_matches_reference_loop(method, kind, c, nonzero_x0):
    """Final x, z, rho and k, and each traced step's row, z and rho, equal
    those of the reference loop (which draws with sample_row)."""
    p = _problem(kind)
    # more iterations than one draw block, from the origin or a nonzero start
    iters = solvers._DRAW_BLOCK + 44
    x0 = np.linspace(-1.0, 2.0, p.n) if nonzero_x0 else None
    want, steps = ref.reference_run(p, method, iters, rho0=0.7, c=c, rho_max=20.0, seed=5, x0=x0)
    cfg = SolverConfig(
        method=method, max_iters=iters, rho0=0.7, c=c, rho_max=20.0, seed=5,
        x0=x0, trace_stride=50,
    )
    records = []
    for sink in (None, records.append):
        got = run_solver(p, cfg, sink)
        assert ref.bits(got.x) == ref.bits(want.x)
        assert ref.bits(got.z) == ref.bits(want.z)
        assert ref.bits(got.rho) == ref.bits(want.rho)
        assert got.k == want.k == iters
    assert [(r.row, ref.bits(r.z), r.rho) for r in records[1:]] == [
        (i, ref.bits(z), rho) for i, z, rho in steps
    ]


def _outcome(solve, p, cfg, traced):
    """(k, x, z, rho) as bytes, or ("failed", k), and the records a sink got."""
    records = []
    try:
        state = solve(p, cfg, records.append if traced else None)
    except NumericFailureError as exc:
        return ("failed", exc.iteration), ref.record_bits(records)
    return (state.k, ref.bits(state.x), ref.bits(state.z), ref.bits(state.rho)), ref.record_bits(
        records
    )


def _same_as_per_step_loop(p, cfg):
    """run_solver and the per-step reference agree, untraced and traced;
    returns the traced outcome and records."""
    for traced in (False, True):
        got = _outcome(run_solver, p, cfg, traced)
        assert got == _outcome(ref.reference_solve, p, cfg, traced)
    return got


BLOCK = solvers._DRAW_BLOCK


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_tol_stop_inside_second_block(method, kind):
    """A tolerance below every residual of the first block stops the run
    inside the second one, with the records up to and including the stop."""
    p = _problem(kind)
    x0 = np.linspace(-1.0, 2.0, p.n) * (1.0 if kind == "ls" else 6.0)
    base = dict(method=method, max_iters=3 * BLOCK, rho0=0.7, seed=5, x0=x0, trace_stride=7)
    records = []
    ref.reference_solve(p, SolverConfig(**base), records.append)
    tol = 0.5 * min(r.residual for r in records[1 : BLOCK + 1])
    (k, *_), records = _same_as_per_step_loop(p, SolverConfig(**base, residual_tol=tol))
    assert BLOCK + 1 < k < 2 * BLOCK
    assert [r[0] for r in records] == list(range(k + 1))


@pytest.fixture(scope="module")
def bench_problems():
    """The shapes the benchmark solves: ls-reference's 60x15 equality
    files, lf-projection's 10x20 feasibility files, and the tall 300x50
    feasibility file, whose chunks of 23 steps end neither on a draw
    block nor on a trace stride."""
    return {
        "ls60x15": generate_consistent_ls(60, 15, seed=1001),
        "lf10x20": generate_feasible_lf(10, 20, seed=1, active_fraction=0.3),
        "lf300x50": generate_feasible_lf(300, 50, seed=1, active_fraction=0.3),
    }


@pytest.mark.parametrize("name", ["ls60x15", "lf10x20", "lf300x50"])
def test_stacked_residuals_match_residual_of(bench_problems, name):
    """One stacked matmul gives residual_of of every row of xs, and one
    stacked dot error_sq_of of every equality iterate, bit for bit and so
    with the sign of every zero: at the origin, its negative, the planted
    point (zero residuals) and points of every scale, also with b = 0.  A
    numpy or BLAS whose batched products round unlike A @ x fails here."""
    p = bench_problems[name]
    rng = np.random.default_rng(41)
    special = [np.zeros(p.n), -np.zeros(p.n), p.x_planted, -p.x_planted]
    scaled = [10.0 ** e * rng.standard_normal(p.n) for e in range(-12, 13, 2)]
    xs = np.array(special + scaled + list(p.x_planted + 1e-9 * rng.standard_normal((40, p.n))))
    zero_b = Problem(p.kind, p.a, np.zeros(p.m))
    for q in (p, zero_b):
        got = solvers._stacked_residuals(q, xs)
        assert [ref.bits(r) for r in got] == [ref.bits(solvers.residual_of(q, x)) for x in xs]
    assert 0.0 in got
    if p.kind is ProblemKind.LS:
        d = xs - p.x_planted
        errors = solvers.row_dots(d, d)
        assert [ref.bits(e) for e in errors] == [
            ref.bits(solvers.error_sq_of(p, x, p.x_planted)) for x in xs
        ]


_ERROR_FILES = {
    "ls20x5": lambda: generate_consistent_ls(20, 5, seed=1),
    # 18 tight rows at the planted vertex in 10 columns
    "lf60x10-degenerate": lambda: generate_feasible_lf(60, 10, seed=3, active_fraction=0.3),
    "lf10x20": lambda: generate_feasible_lf(10, 20, seed=1, active_fraction=0.3),
}


def _error_points(p):
    """Eight points about the planted one, the planted point among them."""
    rng = np.random.default_rng(43)
    return np.vstack([p.x_planted, p.x_planted + rng.standard_normal((7, p.n))])


@pytest.mark.parametrize("start", ["cold", "one-mask", "per-point-masks"])
@pytest.mark.parametrize("name", list(_ERROR_FILES))
def test_stacked_errors_match_error_sq_of(name, start):
    """_stacked_errors on a stack of 8 points gives each point's
    error_sq_of and support bit for bit, cold and started from a row mask
    (one for all points, or one per point); an equality stack has no
    supports and no failures."""
    p = _ERROR_FILES[name]()
    xs = _error_points(p)
    masks = {
        "cold": None,
        "one-mask": np.arange(p.m) % 3 == 0,
        "per-point-masks": np.random.default_rng(44).random((len(xs), p.m)) < 0.3,
    }
    errs, supports, failures = solvers._stacked_errors(p, xs, None, masks[start])
    assert failures == [None] * len(xs)
    assert [ref.bits(e) for e in errs] == [ref.bits(solvers.error_sq_of(p, x)) for x in xs]
    if p.kind is ProblemKind.LS:
        assert supports is None
        return
    assert errs[0] == 0.0 and (errs[1:] > 0.0).all()
    assert np.array_equal(supports, [solvers._error_sq(p, x, None)[1] for x in xs])


def test_stacked_errors_report_each_points_failure(monkeypatch):
    """A projection refused for point 2 of a stack is that point's failure
    and no other's, the other errors are unchanged, and the one-point view
    _error_sq raises it."""
    p = _ERROR_FILES["lf10x20"]()
    xs = _error_points(p)
    real = solvers._warm_distances
    refusal = ConvergenceError("point 2 refused")

    def refusing(points, problem, start=None):
        dists, supports, errors = real(points, problem, start)
        return dists, supports, [refusal if (x == xs[2]).all() else e for x, e in zip(points, errors)]

    expected = solvers._stacked_errors(p, xs)[0]
    monkeypatch.setattr(solvers, "_warm_distances", refusing)
    errs, _, failures = solvers._stacked_errors(p, xs)
    assert failures[2] is refusal
    assert failures[:2] + failures[3:] == [None] * (len(xs) - 1)
    assert ref.bits(np.delete(errs, 2)) == ref.bits(np.delete(expected, 2))
    with pytest.raises(ConvergenceError, match="^point 2 refused$"):
        solvers._error_sq(p, xs[2], None)


@pytest.mark.parametrize("method", list(Method))
def test_tol_stop_at_benchmark_shape(bench_problems, method):
    """ls-reference's solve: a 60x15 equality file run to --tol 1e-8,
    about 1,000 steps over several chunks of 109, here with a growing rho,
    so the stop must restore the rho of its step."""
    cfg = SolverConfig(method=method, max_iters=100_000, c=1.001, seed=3, residual_tol=1e-8)
    (k, *_), records = _same_as_per_step_loop(bench_problems["ls60x15"], cfg)
    assert 2 * BLOCK < k < 100_000
    last, before = (np.frombuffer(r[4])[0] for r in (records[-1], records[-2]))
    assert last <= 1e-8 < before


@pytest.mark.parametrize(
    "name, iters, method",
    [("lf10x20", 2 * BLOCK + 44, method) for method in Method] + [("lf300x50", 300, Method.RAK)],
)
def test_traced_lf_at_benchmark_shapes(bench_problems, name, iters, method):
    """Traced feasibility runs at lf-projection's 10x20 shape and on the
    tall 300x50 file, whose stride projections fall inside chunks."""
    cfg = SolverConfig(method=method, max_iters=iters, rho0=0.7, c=1.01, seed=5)
    (k, *_), records = _same_as_per_step_loop(bench_problems[name], cfg)
    assert k == iters and len(records) == iters + 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", [ProblemKind.LS, ProblemKind.LF])
def test_tol_stop_then_overflow_in_same_block(method, kind):
    """Rows 1 and 2 start with residual 1e307 and one step on each brings
    it to at most 1e301; the 20 rows 0.1 x_2 = -2e306 keep residual 2e306
    until drawn, and a step on one of them overflows (coef = 2e306 / 0.01).
    Row 0 (weight 100, zero residual) spaces the draws: seed 42 has drawn
    rows 1 and 2 by k = 297 and first draws a row 0.1 x_2 at k = 410, both
    in the second block.  Without a tol the run fails there, with records
    0..409 when traced; with tol 5e306 it stops at k = 297 as the per-step
    loop does, traced or not, although its block fails the check."""
    amp = 20
    a = DenseMatrix(
        [[0.0, 0.0, 0.0, 10.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        + [[0.0, 0.0, 0.1, 0.0]] * amp
    )
    b = np.array([0.0, -1e307, -1e307] + [-2e306] * amp)
    p = Problem(kind, a, b, x_planted=np.array([-1e307, -1e307, -2e307, 0.0]))
    base = dict(method=method, max_iters=3 * BLOCK, rho0=1e6, seed=42)
    outcome, records = _same_as_per_step_loop(p, SolverConfig(**base))
    assert outcome == ("failed", 410)
    assert [r[0] for r in records] == list(range(410))
    outcome, records = _same_as_per_step_loop(p, SolverConfig(**base, residual_tol=5e306))
    assert outcome[0] == 297
    assert [r[0] for r in records] == list(range(298))


def _overflow_problem(kind):
    return Problem(
        kind, DenseMatrix([[0.0, 30.0], [2.0, 0.0]]), np.array([3.0, 0.0]),
        x_planted=np.array([0.0, 0.1]),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", [ProblemKind.LS, ProblemKind.LF])
def test_numeric_failure_mid_block_reports_first_k(method, traced, kind):
    """From x0 = (1.7e308, 5) row 0 moves x[1] toward 0.1, slowly for the
    damped steps, and row 1's residual overflows.  Row 1 has 4/904 of the
    weight, and seed 7 first draws it at k = 296: inside the second block,
    not its first step.  The error carries that k, traced or not, and a
    sink holds exactly records 0..295, with the rho schedule's values.
    On the feasibility file the fresh record at k = 300 would project a
    non-finite x, which raises inside the block before its check.  A
    traced equality run measures against the solution nearest x0, whose
    computation overflows as A x0 does: it fails fast, before any record,
    as the per-step loop does."""
    p = _overflow_problem(kind)
    cfg = SolverConfig(
        method=method, max_iters=2 * BLOCK, rho0=1e-6, c=1.001, seed=7, x0=[1.7e308, 5.0]
    )
    if traced and kind is ProblemKind.LS:
        for solve in (run_solver, ref.reference_solve):
            records = []
            with pytest.raises(InconsistentSystemError):
                solve(p, cfg, records.append)
            assert records == []
        return
    outcome, records = _outcome(run_solver, p, cfg, traced)
    assert (outcome, records) == _outcome(ref.reference_solve, p, cfg, traced)
    assert outcome == ("failed", 296)
    assert [r[0] for r in records] == (list(range(296)) if traced else [])


def test_error_mid_block_reaches_caller_after_earlier_records(monkeypatch):
    """A step that raises inside a block (here a projection refused once x
    is close enough, first at the fresh record k = 290) raises from
    run_solver as from the per-step loop, after exactly records 0..289;
    records 257..259 keep the distance taken at k = 250.  The chunk's
    stride points are projected in one batch, which reports the refusal
    for k = 290 and the points after it, and the records before it go out
    first.  run_solver takes each of its 2 x 256 steps once: the chunk is
    not replayed."""
    p = _problem("lf")
    cfg = SolverConfig(
        method=Method.RPK, max_iters=2 * BLOCK, rho0=0.05, seed=5, x0=p.x_planted + 6.0
    )
    records = []
    ref.reference_solve(p, cfg, records.append)
    limit = records[290].error_sq
    assert records[280].error_sq > limit
    real, real_batch = ref.distance_to_feasible, solvers._warm_distances

    def refusing(x, problem):
        d = real(x, problem)
        if d * d <= limit:
            raise ConvergenceError("close enough")
        return d

    def refusing_batch(xs, problem, start=None):
        dists, supports, errors = real_batch(xs, problem, start)
        refused = [ConvergenceError("close enough") if d * d <= limit else e for d, e in zip(dists.tolist(), errors)]
        return dists, supports, refused

    steps = []
    real_coef = solvers._step_coef

    def counted(*args):
        steps.append(None)
        return real_coef(*args)

    monkeypatch.setattr(solvers, "_warm_distances", refusing_batch)
    monkeypatch.setattr(ref, "distance_to_feasible", refusing)
    monkeypatch.setattr(solvers, "_step_coef", counted)
    got = []
    for solve, sink in ((run_solver, []), (ref.reference_solve, [])):
        with pytest.raises(ConvergenceError, match="close enough"):
            solve(p, cfg, sink.append)
        got.append(ref.record_bits(sink))
    assert got[0] == got[1]
    assert [r[0] for r in got[0]] == list(range(290))
    assert len(steps) == 2 * BLOCK


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("method", [Method.RPK, Method.RAK])
@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_rho_reaches_cap_mid_block(method, normalized, kind):
    """rho0 0.7 grows by 1.01 a step and meets the cap of 20 at k = 337,
    in the middle of the second block, whatever the row scaling."""
    p = normalize_rows(_problem(kind)) if normalized else _problem(kind)
    cfg = SolverConfig(
        method=method, max_iters=2 * BLOCK + 30, rho0=0.7, c=1.01, rho_max=20.0, seed=5,
        x0=np.linspace(-1.0, 2.0, p.n), trace_stride=50,
    )
    _, records = _same_as_per_step_loop(p, cfg)
    capped = [r[0] for r in records if r[2] == ref.bits(20.0)]
    assert capped == list(range(337, 2 * BLOCK + 31))


@pytest.mark.parametrize("method", list(Method))
def test_advance_rho_called_only_while_rho_moves(method, monkeypatch):
    """run_solver, untraced or traced, and the Monte Carlo curve call
    advance_rho (looked up at call time) only while rho can move: never
    for the plain step or at c = 1, and on test_rho_reaches_cap_mid_block's
    schedule once per step up to the step that reaches the cap, k = 337,
    and never after it."""
    returned = []
    real = solvers.advance_rho

    def counted(rho, c, rho_max):
        returned.append(real(rho, c, rho_max))
        return returned[-1]

    monkeypatch.setattr(solvers, "advance_rho", counted)
    p = _problem("ls")
    iters = 2 * BLOCK + 30
    for c in (1.0, 1.01):
        cfg = SolverConfig(method=method, max_iters=iters, rho0=0.7, c=c, rho_max=20.0, seed=5)
        for run in (
            lambda: run_solver(p, cfg),
            lambda: run_solver(p, cfg, [].append),
            lambda: monte_carlo_error_curve(p, cfg, 3, [iters]),
        ):
            returned.clear()
            run()
            if method is Method.RK or c == 1.0:
                assert returned == []
            else:
                assert len(returned) == 337
                assert returned[-1] == 20.0 > max(returned[:-1])


@pytest.mark.parametrize("method", [Method.RPK, Method.RAK])
@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_schedule_capped_from_the_start_is_fixed_penalty(method, kind):
    """c = 1.5 with rho_max = rho0 keeps rho at rho0 from the first step:
    the same x, z and trace records as c = 1, each equal to the per-step
    reference loop's bit for bit, and the same Monte Carlo means."""
    p = _problem(kind)
    base = dict(
        method=method, max_iters=BLOCK + 44, rho0=0.7, seed=5,
        x0=np.linspace(-1.0, 2.0, p.n), trace_stride=9,
    )
    capped = SolverConfig(**base, c=1.5, rho_max=0.7)
    fixed = SolverConfig(**base, c=1.0)
    assert _same_as_per_step_loop(p, capped) == _same_as_per_step_loop(p, fixed)
    curves = [monte_carlo_error_curve(p, cfg, 3, [10, BLOCK + 44]) for cfg in (capped, fixed)]
    assert [ref.bits(m) for m in curves[0].means] == [ref.bits(m) for m in curves[1].means]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", [Method.RPK, Method.RAK])
@pytest.mark.parametrize(
    "kind, traced", [(ProblemKind.LF, False), (ProblemKind.LF, True), (ProblemKind.LS, False)]
)
def test_cap_then_numeric_failure_in_one_chunk(method, kind, traced):
    """test_numeric_failure_mid_block_reports_first_k's run with a cap
    that rho0 1.001^k meets at k = 263: the cap and the failure at k = 296
    fall in the same chunk, steps 257..512, so the replay that finds the
    failure must start, as that chunk did, with rho still moving.  The
    error and the records 0..295 equal the per-step loop's."""
    p = _overflow_problem(kind)
    cfg = SolverConfig(
        method=method, max_iters=2 * BLOCK, rho0=1e-6, c=1.001, rho_max=1.3e-6, seed=7,
        x0=[1.7e308, 5.0],
    )
    outcome, records = _outcome(run_solver, p, cfg, traced)
    assert (outcome, records) == _outcome(ref.reference_solve, p, cfg, traced)
    assert outcome == ("failed", 296)
    if traced:
        assert [r[0] for r in records if r[2] == ref.bits(1.3e-6)] == list(range(263, 296))


def _oracle_states(problem, rng, count):
    for _ in range(count):
        x = 1.5 * rng.standard_normal(problem.n)
        if problem.kind is ProblemKind.LF:
            x = problem.x_planted + x
        z = float(rng.uniform(0.0, 2.0))
        yield SolverState(x=x, z=z, rho=float(rng.uniform(0.3, 3.0)), k=0)
    # the planted solution, where no feasibility row moves
    yield SolverState(x=problem.x_planted, z=0.0, rho=1.0, k=0)


@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize("normalize", [False, True])
def test_oracle_reports_match_reference_loops(kind, normalize):
    p = _problem(kind)
    if normalize:
        p = normalize_rows(p)
    rng = np.random.default_rng(33)
    for state in _oracle_states(p, rng, 4):
        for method in Method:
            for rho in (0.4, state.rho, 5.0):
                ref.assert_same_report(
                    exact_expected_step(p, state, method, rho),
                    ref.reference_expected_step(p, state, method, rho),
                )
        for c in (1.0, 1.3):
            rep = adaptive_step_report(p, state, c)
            if normalize:
                # the reference's right side is the unit-row formula; the
                # enumerated sides match it bit for bit
                want = ref.reference_adaptive_report(p, state, c)
                assert ref.bits(rep.lhs) == ref.bits(want.lhs)
                assert ref.bits(rep.expected_dual_sq) == ref.bits(want.expected_dual_sq)
            # at the planted state both sides are rounding residue near 1e-30
            scale = max(1.0, abs(rep.lhs))
            if normalize and kind == "ls":
                # each row's Lyapunov decrease is exact on unit-row equality states
                assert abs(rep.rhs - rep.lhs) <= 1e-12 * scale
            elif normalize:
                # on unit rows the shared formula is the reference's, rounding aside
                assert abs(rep.rhs - want.rhs) <= 1e-12 * scale
                assert rep.slack >= -1e-12 * scale
            else:
                assert rep.slack >= -1e-12 * scale


def test_oracle_rejects_negative_lf_multiplier_like_the_step():
    p = normalize_rows(_problem("lf"))
    state = SolverState(x=p.x_planted + 1.0, z=-0.5, rho=1.0, k=0)
    for oracle in (exact_expected_step, ref.reference_expected_step):
        with pytest.raises(ValueError, match="nonnegative"):
            oracle(p, state, Method.RAK, 1.0)


def test_one_kernel_drives_solve_mc_and_oracles(monkeypatch):
    """Perturbing the kernel's coefficient changes run_solver, the Monte
    Carlo curve and the enumeration oracle alike: none of them carries a
    copy of the step formula."""
    p = normalize_rows(_problem("ls"))
    cfg = SolverConfig(method=Method.RPK, max_iters=30, rho0=0.8, seed=2)
    state = SolverState(x=np.ones(p.n), z=0.0, rho=1.0, k=0)

    def outputs():
        return (
            run_solver(p, cfg).x.tolist(),
            monte_carlo_error_curve(p, cfg, 3, [5, 30]).means,
            exact_expected_step(p, state, Method.RPK, 0.8).expected_error_sq,
        )

    before = outputs()
    real = solvers._step_coef

    def nudged(r, z, norm_sq, rho, lf):
        coef, moves = real(r, z, norm_sq, rho, lf)
        return coef * 1.001, moves

    monkeypatch.setattr(solvers, "_step_coef", nudged)
    after = outputs()
    assert [a != b for a, b in zip(after, before)] == [True, True, True]
