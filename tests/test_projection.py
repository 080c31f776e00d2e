"""The exact least-distance projector: agreement with Hildreth's sweeps,
fixed points, degenerate active sets, the QR rerun, and the error when
neither exact run certifies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpen import projection
from kaczpen.cli import main
from kaczpen.linalg import ConvergenceError, DenseMatrix
from kaczpen.problems import Problem, ProblemKind, generate_feasible_lf, save_problem
from kaczpen.projection import _certificate_error, _hildreth, _least_distance, project_polyhedron


def _instance(m, n, tight, seed):
    """Gaussian rows, planted point, the first `tight` rows tight there and
    the rest with slack |N(0, 1)|."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    xp = rng.standard_normal(n)
    slack = np.abs(rng.standard_normal(m))
    slack[:tight] = 0.0
    return DenseMatrix(a), a @ xp + slack, xp


def _assert_kkt(x, a, b, y, lam):
    """y = x - A^T lam, lam >= 0, Ay <= b and lam_i (Ay - b)_i = 0, at the
    projector's own 1e-8-level tolerances."""
    assert lam.min() >= 0.0
    np.testing.assert_allclose(y, x - a.data.T @ lam, rtol=0, atol=1e-10 * (1 + np.abs(x).max()))
    assert _certificate_error(a, b, y, lam) is None


def _assert_agrees_with_hildreth(x, a, b):
    y, lam = _least_distance(x, a, b)
    _assert_kkt(x, a, b, y, lam)
    y_ref, _, _ = _hildreth(x, a, b, 1e-12, 100_000)
    assert np.abs(y - y_ref).max() <= 1e-8 * (1 + np.abs(y_ref).max())
    assert np.array_equal(project_polyhedron(x, a, b), y)


@pytest.mark.parametrize("m,n", [(10, 20), (20, 10), (12, 6), (5, 5), (1, 3), (30, 4)])
def test_exact_matches_hildreth_random(m, n):
    rng = np.random.default_rng(m * 100 + n)
    for seed in range(4):
        a, b, xp = _instance(m, n, min(m, n) // 2, seed)
        for scale in (0.01, 1.0, 10.0):
            _assert_agrees_with_hildreth(xp + scale * rng.standard_normal(n), a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 14),
    n=st.integers(1, 8),
    tight_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-3, 0.5, 3.0, 30.0]),
)
def test_exact_matches_hildreth_hypothesis(m, n, tight_share, seed, scale):
    """Fewer and more rows than columns, up to n rows tight at the
    planted point (more would make a degenerate vertex, where Hildreth's
    sweeps may not finish; that case has its own test)."""
    a, b, xp = _instance(m, n, int(tight_share * min(m, n)), seed)
    x = xp + scale * np.random.default_rng(seed + 1).standard_normal(n)
    _assert_agrees_with_hildreth(x, a, b)


def test_feasible_point_returned_unchanged():
    for tight in (0, 3):  # interior, then on three facets
        a, b, xp = _instance(12, 5, tight, seed=7)
        y = project_polyhedron(xp, a, b)
        assert np.array_equal(y, xp)
        assert y is not xp


def test_degenerate_duplicate_and_parallel_rows_certified():
    """Duplicate and positively scaled rows, m > n, every row tight at the
    planted point: the exact path certifies."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 3))
    rows = np.vstack([base, base[0], base[1], 2.0 * base[2], 0.5 * base[0], base[3]])
    xp = rng.standard_normal(3)
    a = DenseMatrix(rows)
    b = rows @ xp
    for scale in (1e-3, 1.0, 10.0):
        for _ in range(10):
            x = xp + scale * rng.standard_normal(3)
            y, lam = _least_distance(x, a, b)
            _assert_kkt(x, a, b, y, lam)
            assert np.linalg.norm(x - y) <= np.linalg.norm(x - xp) + 1e-12
            assert np.array_equal(project_polyhedron(x, a, b), y)


@pytest.mark.parametrize("use_qr", [False, True])
@pytest.mark.parametrize("m,n,scales", [(40, 5, (3.0, 30.0)), (300, 50, (0.01, 3.0, 30.0))])
def test_degenerate_vertex_many_tight_rows(m, n, scales, use_qr):
    """Half of 40 rows tight at the planted point in 5 dimensions, and 30%
    of 300 in 50 (where Hildreth's sweeps take seconds to minutes).  On
    the first, rounding stops the NNLS residual from falling before the
    active set is complete on some points; the best iterate must still
    certify, with Gram and with QR passive-set solves."""
    p = generate_feasible_lf(m, n, seed=0, active_fraction=0.5 if m == 40 else 0.3)
    rng = np.random.default_rng(0)
    for scale in scales:
        for _ in range(10 if m == 40 else 1):
            x = p.x_planted + scale * rng.standard_normal(n)
            y, lam = _least_distance(x, p.a, p.b, use_qr)
            _assert_kkt(x, p.a, p.b, y, lam)


def test_far_point_on_degenerate_vertex_needs_no_fallback():
    """A point at distance ~200 from a vertex where 90 of 300 rows meet in
    50 dimensions.  The Gram run ends about 1e-4 infeasible here; the QR
    rerun certifies."""
    p = generate_feasible_lf(300, 50, seed=2, active_fraction=0.3)
    x = p.x_planted + 30.0 * np.random.default_rng(2).standard_normal((16, 50))[-1]
    y = project_polyhedron(x, p.a, p.b)
    assert _certificate_error(p.a, p.b, *_least_distance(x, p.a, p.b, True)) is None
    assert np.array_equal(y, _least_distance(x, p.a, p.b, True)[0])


def test_qr_rerun_when_gram_uncertified(monkeypatch):
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)
    runs = []

    def gram_gives_up(x, a, b, use_qr=False, start=None, floors=None):
        runs.append(use_qr)
        return _least_distance(x, a, b, True) if use_qr else None

    monkeypatch.setattr(projection, "_least_distance", gram_gives_up)
    y = project_polyhedron(x, p.a, p.b)
    assert runs == [False, True]
    assert np.array_equal(y, _least_distance(x, p.a, p.b, True)[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_point_projected_at_unit_scale():
    """||x||^2 overflows for x = (0, 1.5e308), so neither exact run
    certifies; the point and bounds are scaled by an exact power of two,
    projected, certified and scaled back.  The projection onto the cone
    y2 <= y1 <= 0 is its apex 0."""
    a = DenseMatrix([[-1.0, 1.0], [3.0, 0.0]])
    x = np.array([0.0, 1.5e308])
    y = project_polyhedron(x, a, np.zeros(2))
    e = math.frexp(1.5e308)[1]
    unit = project_polyhedron(np.ldexp(x, -e), a, np.zeros(2))
    assert np.array_equal(y, np.ldexp(unit, e))
    assert np.abs(y).max() <= 1e-8 * 1.5e308


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projection_beyond_float_range_raises():
    """The polyhedron {1e-150 y1 <= -1e300, y2 <= 0} lies beyond -1e450 in
    y1.  The unit-scale solve certifies its projection of 0, and scaling it
    back overflows to -inf: the projection names the float64 range instead
    of returning a non-finite point."""
    a = DenseMatrix([[1e-150, 0.0], [0.0, 1.0]])
    with pytest.raises(ConvergenceError, match="float64 range"):
        project_polyhedron(np.zeros(2), a, np.array([-1e300, 0.0]))


@pytest.mark.parametrize(
    "y, lam",
    [([np.nan, 0.0], [0.0]), ([0.0, 0.0], [np.nan])],
    ids=["nan slack", "nan multiplier"],
)
def test_certificate_refuses_nan(y, lam):
    """A NaN slack or multiplier is not certified: max(nan, 0.0) is nan,
    and nan > tol is False, so both tests are written as not (gap <= tol)."""
    a = DenseMatrix([[1.0, 0.0]])
    assert _certificate_error(a, np.zeros(1), np.array(y), np.array(lam)) is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_slack_point_reaches_unit_scale(monkeypatch):
    """A x overflows to inf - inf = nan for x = (1e308, -1e308, ...) on a
    row of tens.  Both exact runs return x with NaN slacks, which is no
    longer certified, so x is projected again at unit scale, where it lies
    on the boundary and comes back unchanged and finite."""
    a = DenseMatrix([[10.0] * 16])
    x = np.tile([1e308, -1e308], 8)
    b = np.zeros(1)
    assert _certificate_error(a, b, *_least_distance(x, a, b)) is not None
    scales = []
    real = projection._least_distance

    def spy(x, a, b, use_qr=False, start=None, floors=None):
        scales.append(float(np.abs(x).max()))
        return real(x, a, b, use_qr, start, floors)

    monkeypatch.setattr(projection, "_least_distance", spy)
    y = project_polyhedron(x, a, b)
    assert scales[:2] == [1e308, 1e308] and len(scales) == 3 and scales[2] < 1.0
    assert np.isfinite(y).all() and np.array_equal(y, x)
    e = math.frexp(1e308)[1]
    unit = np.ldexp(x, -e)
    assert _certificate_error(a, b, unit, np.zeros(1)) is None


def _halfspace_corner_file(tmp_path):
    """An lf file on {y <= -1} in the plane, so the solver's start x = 0 is
    infeasible."""
    p = Problem(
        kind=ProblemKind.LF,
        a=DenseMatrix(np.eye(2)),
        b=np.array([-1.0, -1.0]),
        x_planted=np.array([-1.0, -1.0]),
    )
    path = str(tmp_path / "corner.txt")
    save_problem(p, path)
    return path


@pytest.mark.parametrize("exact", ["gives up", "uncertified"])
def test_both_exact_runs_failing_raises(monkeypatch, capsys, tmp_path, exact):
    """Neither exact run certifies: ConvergenceError names both runs'
    errors, and the CLI exits 3 with that message."""
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)

    def broken(x, a, b, use_qr=False, start=None, floors=None):
        if exact == "gives up":
            return None
        if use_qr:
            # feasible, but with multipliers on rows that have slack
            return p.x_planted.copy(), np.ones(a.rows)
        return x.copy(), np.zeros(a.rows)  # infeasible here

    if exact == "gives up":
        gram = qr = "stopped without a result"
    else:
        gram = _certificate_error(p.a, p.b, x, np.zeros(p.m))
        qr = _certificate_error(p.a, p.b, *broken(x, p.a, p.b, True))
        assert gram.startswith("projection result infeasible")
        assert qr.startswith("complementary slackness violated")
    monkeypatch.setattr(projection, "_least_distance", broken)
    with pytest.raises(ConvergenceError) as info:
        project_polyhedron(x, p.a, p.b)
    assert str(info.value) == f"projection not certified: Gram run: {gram}; QR run: {qr}"

    def infeasible(x, a, b, use_qr=False, start=None, floors=None):
        return None if exact == "gives up" else (x.copy(), np.zeros(a.rows))

    monkeypatch.setattr(projection, "_least_distance", infeasible)
    path = _halfspace_corner_file(tmp_path)
    capsys.readouterr()
    assert main(["solve", path, "--method", "rk", "--iters", "0"]) == 3
    err = capsys.readouterr().err
    assert "error: projection not certified: Gram run: " in err
    assert "; QR run: " in err


def test_project_polyhedron_never_calls_hildreth(monkeypatch):
    """Hildreth's sweeps are a reference only: no projection, certified or
    not, falls back to them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _hildreth(*args)

    monkeypatch.setattr(projection, "_hildreth", counted)
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)
    project_polyhedron(x, p.a, p.b)
    monkeypatch.setattr(projection, "_least_distance", lambda *args: None)
    with pytest.raises(ConvergenceError):
        project_polyhedron(x, p.a, p.b)
    assert calls == []


# ---------------------------------------------------------------------------
# warm starts: a start set changes the work, never the result


def _duplicated_rows(seed):
    """Rows 5..9 are rows 0..4 scaled by 1, 2 or 1/2 (so exactly parallel),
    with the bound scaled alike: every constraint appears twice."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((5, 6))
    factors = rng.choice([1.0, 2.0, 0.5], 5)
    rows = np.vstack([base, factors[:, None] * base])
    xp = rng.standard_normal(6)
    slack = np.abs(rng.standard_normal(5))
    slack[:2] = 0.0
    b0 = base @ xp + slack
    return DenseMatrix(rows), np.concatenate([b0, factors * b0]), xp


def _warm_instance(shape, seed):
    if shape == "degenerate 40x5":
        p = generate_feasible_lf(40, 5, seed=seed % 4, active_fraction=0.5)
        return p.a, p.b, p.x_planted
    if shape == "degenerate 300x50":
        p = generate_feasible_lf(300, 50, seed=seed % 2, active_fraction=0.3)
        return p.a, p.b, p.x_planted
    if shape == "duplicated":
        return _duplicated_rows(seed)
    m, n = shape
    return _instance(m, n, seed % (min(m, n) + 1), seed)


def _support_or_none(x, a, b):
    try:
        return projection._certified(x, a, b)[1] > 0.0
    except ConvergenceError:
        return None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(
        [(10, 20), (20, 10), (12, 6), (30, 4), (5, 5), "degenerate 40x5",
         "degenerate 300x50", "duplicated"]
    ),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-12, 1e-3, 0.5, 3.0, 30.0, 1e6]),
    near_boundary=st.booleans(),
    mask=st.sampled_from(["empty", "all", "random", "outside", "nearby"]),
)
def test_warm_start_bit_identical_to_cold(shape, seed, scale, near_boundary, mask):
    """Degenerate vertices (more tight rows than columns), exactly parallel
    rows, points within 1e-12 of the set or 1e6 away, and points just
    outside the boundary: from any start mask (none, every row, random
    rows, the final support plus rows outside it, the support of a nearby
    point's projection) the projection and its multipliers are those of
    the cold start, bit for bit, and a point whose cold projection is not
    certified fails with the same error."""
    a, b, xp = _warm_instance(shape, seed)
    rng = np.random.default_rng(seed)
    x = xp + scale * rng.standard_normal(a.cols)
    nearby = x + 0.05 * scale * rng.standard_normal(a.cols)
    try:
        if near_boundary:
            x = projection._certified(x, a, b)[0] + 1e-11 * rng.standard_normal(a.cols)
        y, lam = projection._certified(x, a, b)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            projection._certified(x, a, b, rng.random(a.rows) < 0.5)
        assert str(info.value) == str(exc)
        return
    start = {
        "empty": lambda: np.zeros(a.rows, dtype=bool),
        "all": lambda: np.ones(a.rows, dtype=bool),
        "random": lambda: rng.random(a.rows) < 0.3,
        "outside": lambda: (lam > 0.0) | (rng.random(a.rows) < 0.3),
        "nearby": lambda: _support_or_none(nearby, a, b),
    }[mask]()
    y_warm, lam_warm = projection._certified(x, a, b, start)
    assert np.array_equal(y_warm, y) and np.array_equal(lam_warm, lam)
    assert np.array_equal(project_polyhedron(x, a, b), y)


def test_warm_start_rejected_falls_back_to_the_cold_runs(monkeypatch):
    """A warm Gram run whose result is not kept is followed by exactly the
    cold runs, which ignore the start set: the Gram run, then the QR
    rerun when the Gram result is not certified."""
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)
    y, lam = projection._certified(x, p.a, p.b)
    runs = []
    real = projection._least_distance

    def gram_gives_up(x, a, b, use_qr=False, start=None, floors=None):
        runs.append((use_qr, start is not None))
        return real(x, a, b, use_qr, start, floors) if use_qr else None

    monkeypatch.setattr(projection, "_least_distance", gram_gives_up)
    got = projection._certified(x, p.a, p.b, lam > 0.0)
    assert runs == [(False, True), (False, False), (True, False)]
    assert all(np.array_equal(u, v) for u, v in zip(got, real(x, p.a, p.b, True)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mask", ["all", "first"])
def test_warm_start_at_unit_scale_matches_cold(mask):
    """The point of test_huge_point_projected_at_unit_scale with a start
    set: neither full-scale run certifies, and the unit-scale solve, which
    starts cold, gives the cold result."""
    a = DenseMatrix([[-1.0, 1.0], [3.0, 0.0]])
    x = np.array([0.0, 1.5e308])
    start = np.array([True, mask == "all"])
    y, lam = projection._certified(x, a, np.zeros(2))
    y_warm, lam_warm = projection._certified(x, a, np.zeros(2), start)
    assert np.array_equal(y_warm, y) and np.array_equal(lam_warm, lam)
    assert np.array_equal(y, project_polyhedron(x, a, np.zeros(2)))


def test_traced_stride_points_project_as_cold(monkeypatch):
    """The 200 stride points of a traced 2,000-step rak run on the tall
    300x50 file, each projected from the previous one's support, in
    order: every distance is the cold distance_to_feasible, bit for bit,
    and a support is what the next stride point starts from."""
    from kaczpen import solvers
    from kaczpen.solvers import Method, SolverConfig, run_solver

    p = generate_feasible_lf(300, 50, seed=1, active_fraction=0.3)
    calls = []
    real = solvers._warm_distance

    def kept(x, problem, start=None):
        result = real(x, problem, start)
        calls.append((x.copy(), start, result))
        return result

    monkeypatch.setattr(solvers, "_warm_distance", kept)
    run_solver(p, SolverConfig(method=Method.RAK, max_iters=2000), lambda r: None)
    assert len(calls) == 201
    assert calls[0][1] is None
    for (_, _, (_, support)), (_, start, _) in zip(calls, calls[1:]):
        assert start is support
    for x, _, (dist, _) in calls:
        assert dist == projection.distance_to_feasible(x, p)
