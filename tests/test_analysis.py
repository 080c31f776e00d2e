"""Per-step factors, Lyapunov values, projections, estimates, and exact
one-step expectation oracles."""

import warnings

import numpy as np
import pytest
from hoffman_reference import reference_hoffman_estimate

from kaczpen import analysis
from kaczpen.analysis import (
    NoEstimateError,
    adaptive_step_report,
    exact_expected_step,
    hoffman_estimate,
    instance_rate_factor,
    lyapunov_lf,
    lyapunov_ls,
    monte_carlo_error_curve,
)
from kaczpen.linalg import ConvergenceError, DenseMatrix, lambda_min_variants, least_norm_solution
from kaczpen.problems import (
    Problem,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    normalize_rows,
)
from kaczpen.projection import distance_to_feasible, project_polyhedron
from kaczpen.sampling import RowDistribution, build_sampler
from kaczpen.solvers import (
    Method,
    NumericFailureError,
    SolverConfig,
    SolverState,
    rak_step_lf,
    rak_step_ls,
    rk_step_ls,
    rpk_step_lf,
    rpk_step_ls,
    run_solver,
)


def identity_ls():
    return Problem(kind=ProblemKind.LS, a=DenseMatrix(np.eye(2)), b=np.zeros(2))


def halfspace_lf():
    # {x : x_1 <= 0} with a planted interior point
    return Problem(
        kind=ProblemKind.LF,
        a=DenseMatrix(np.array([[1.0, 0.0]])),
        b=np.array([0.0]),
        x_planted=np.array([-1.0, 0.0]),
    )


# ---------------------------------------------------------------------------
# instance_rate_factor on unit rows: 1 - damping(rho) conditioning / m (LS)
# or 1 - damping(rho) / (m L^2) (LF)


def unit_rows(kind, m):
    """The m x m identity system: every ||a_i||^2 = 1 and ||A||_F^2 = m."""
    return Problem(kind=kind, a=DenseMatrix(np.eye(m)), b=np.zeros(m))


def test_rate_rpk_ls_worked_value():
    assert analysis._damping(Method.RPK, 1.0) == 0.75
    assert instance_rate_factor(identity_ls(), Method.RPK, 1.0, 1.0) == 0.625


def test_rate_rak_ls_worked_value():
    assert analysis._damping(Method.RAK, 1.0) == 0.5
    assert instance_rate_factor(identity_ls(), Method.RAK, 1.0, 1.0) == 0.75


def test_rate_rpk_damping_beyond_the_squared_range():
    """(1 + rho)^2 overflows float64 past rho ~ 1.3e154, where the damping
    rounds to 1; it used to raise OverflowError there."""
    assert analysis._damping(Method.RPK, 1e160) == 1.0
    p = unit_rows(ProblemKind.LS, 4)
    assert instance_rate_factor(p, Method.RPK, 1e200, 1.0) == 0.75


@pytest.mark.parametrize("method", list(Method))
def test_rate_damping_at_infinite_rho_is_the_plain_step(method):
    """rho0 * min ||a_i||^2 can overflow to inf; both damped formulas give
    inf / inf = nan there, which solve printed as per_step_factor=nan."""
    assert analysis._damping(method, np.inf) == 1.0
    p = unit_rows(ProblemKind.LS, 4)
    assert instance_rate_factor(p, method, np.inf, 1.0) == 0.75


def test_rate_large_rho_limit():
    factor = instance_rate_factor(identity_ls(), Method.RPK, 1e12, 1.0)
    assert abs(factor - 0.5) <= 1e-6


def test_rate_rk_has_unit_damping():
    assert analysis._damping(Method.RK, 1.0) == 1.0
    p = unit_rows(ProblemKind.LS, 4)
    assert instance_rate_factor(p, Method.RK, 1.0, 1.0) == 0.75


def test_rate_lf_uses_distance_constant():
    p = unit_rows(ProblemKind.LF, 5)
    # damping 0.5, m L^2 = 20
    factor = instance_rate_factor(p, Method.RAK, 1.0, 2.0)
    assert factor == pytest.approx(1.0 - 0.5 / 20.0, abs=1e-15)


def test_rate_factor_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = float(rng.uniform(0.05, 20))
        m = int(rng.integers(1, 30))
        lam = float(rng.uniform(0, m))  # lambda_min <= m for unit rows
        factor = instance_rate_factor(unit_rows(ProblemKind.LS, m), Method.RPK, rho, lam)
        assert 0.0 <= factor <= 1.0


def test_rate_ordering_rpk_faster_than_rak():
    """The penalty damping dominates the multiplier damping at every rho."""
    p = unit_rows(ProblemKind.LS, 3)
    for rho in [0.1, 0.5, 1.0, 3.0, 40.0]:
        rpk = instance_rate_factor(p, Method.RPK, rho, 1.0)
        rak = instance_rate_factor(p, Method.RAK, rho, 1.0)
        assert rpk <= rak


def test_rate_monotone_in_rho():
    rhos = [0.1, 0.5, 1.0, 5.0, 100.0]
    factors = [instance_rate_factor(identity_ls(), Method.RAK, rho, 1.0) for rho in rhos]
    assert all(b <= a for a, b in zip(factors, factors[1:]))
    for method in (Method.RPK, Method.RAK):
        dampings = [analysis._damping(method, rho) for rho in rhos]
        assert all(b >= a for a, b in zip(dampings, dampings[1:]))


def test_rate_validation():
    ls, lf = unit_rows(ProblemKind.LS, 2), unit_rows(ProblemKind.LF, 2)
    with pytest.raises(ValueError):
        instance_rate_factor(ls, Method.RPK, 0.0, 1.0)
    with pytest.raises(ValueError):
        instance_rate_factor(ls, Method.RPK, 1.0, -1.0)
    with pytest.raises(ValueError):
        instance_rate_factor(lf, Method.RPK, 1.0, 0.0)


# ---------------------------------------------------------------------------
# instance_rate_factor


def test_instance_rate_worked_values_uneven_rows():
    # row norms squared 4 and 1: s_min = 1, ||A||_F^2 = 5, lambda_min = 1
    p = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(np.array([[2.0, 0.0], [0.0, 1.0]])),
        b=np.zeros(2),
    )
    assert instance_rate_factor(p, Method.RK, 1.0, 1.0) == pytest.approx(0.80)
    assert instance_rate_factor(p, Method.RPK, 1.0, 1.0) == pytest.approx(0.85)
    assert instance_rate_factor(p, Method.RAK, 1.0, 1.0) == pytest.approx(0.90)


def test_instance_rate_worked_values_uneven_rows_lf():
    """Feasibility rows of squared norms 4 and 9 (s_min = 4, ||A||_F^2 =
    13) at L = 1: the factor is 1 - damping(4 rho) / 13, with no further
    s_min (which would give 1 - 4 / 13 for the plain step)."""
    p = Problem(
        kind=ProblemKind.LF,
        a=DenseMatrix(np.array([[2.0, 0.0], [0.0, 3.0]])),
        b=np.ones(2),
    )
    assert instance_rate_factor(p, Method.RK, 1.0, 1.0) == pytest.approx(12.0 / 13.0)
    # damping(4) is 24 / 25 for the penalty step and 4 / 5 for the multiplier step
    assert instance_rate_factor(p, Method.RPK, 1.0, 1.0) == pytest.approx(1.0 - 0.96 / 13.0)
    assert instance_rate_factor(p, Method.RAK, 1.0, 1.0) == pytest.approx(1.0 - 0.8 / 13.0)
    assert instance_rate_factor(p, Method.RK, 1.0, 2.0) == pytest.approx(1.0 - 1.0 / 52.0)


def test_instance_rate_reduces_to_unit_row_constants():
    p = normalize_rows(generate_consistent_ls(6, 4, seed=70))
    for method in (Method.RK, Method.RPK, Method.RAK):
        for rho in (0.3, 1.0, 7.0):
            unit = 1.0 - analysis._damping(method, rho) * 0.7 / p.m
            got = instance_rate_factor(p, method, rho, 0.7)
            assert got == pytest.approx(unit, rel=1e-12)


def test_instance_rate_reduces_to_unit_row_constants_lf():
    p = normalize_rows(generate_feasible_lf(6, 4, seed=71, active_fraction=0.5))
    unit = 1.0 - analysis._damping(Method.RAK, 2.0) / (p.m * 3.0**2)
    got = instance_rate_factor(p, Method.RAK, 2.0, 3.0)
    assert got == pytest.approx(unit, rel=1e-12)


def test_instance_rate_shrinking_rows_weakens_bound():
    """Halving every row quarters the effective penalty rho ||a_i||^2, so
    the penalty and multiplier factors move toward 1; the plain step is
    scale free because lambda_min and ||A||_F^2 shrink together."""
    p = generate_consistent_ls(7, 4, seed=72)
    half = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(0.5 * p.a.data),
        b=0.5 * p.b,
        x_planted=p.x_planted,
    )
    lam, _ = lambda_min_variants(p.a)
    lam_half, _ = lambda_min_variants(half.a)
    assert lam_half == pytest.approx(0.25 * lam, rel=1e-8)
    for method in (Method.RPK, Method.RAK):
        f = instance_rate_factor(p, method, 1.0, lam)
        f_half = instance_rate_factor(half, method, 1.0, lam_half)
        assert f_half >= f - 1e-15
    f_rk = instance_rate_factor(p, Method.RK, 1.0, lam)
    f_rk_half = instance_rate_factor(half, Method.RK, 1.0, lam_half)
    assert f_rk_half == pytest.approx(f_rk, rel=1e-8)


def test_envelope_factor_wide_uses_smallest_nonzero_eigenvalue():
    """For m < n, lambda_min(A^T A) is 0; the factor's constant is
    lambda_min(A A^T), the smallest eigenvalue on row(A), where every
    run's error stays.  A rank-deficient wide file keeps factor 1."""
    p = generate_consistent_ls(5, 9, seed=75)
    lam = float(np.linalg.eigvalsh(p.a.data @ p.a.data.T)[0])
    factor = analysis.envelope_factor(p, Method.RK, 1.0)
    assert factor < 1.0
    assert factor == pytest.approx(1.0 - lam / p.a.frobenius_sq, rel=1e-12)
    a = np.vstack([p.a.data, p.a.data[:1]])
    dup = Problem(ProblemKind.LS, DenseMatrix(a), a @ p.x_planted, x_planted=p.x_planted)
    assert analysis.envelope_factor(dup, Method.RK, 1.0) == 1.0


def test_instance_rate_validation():
    p = generate_consistent_ls(4, 3, seed=73)
    with pytest.raises(ValueError):
        instance_rate_factor(p, Method.RPK, 0.0, 1.0)
    with pytest.raises(ValueError):
        instance_rate_factor(p, Method.RPK, 1.0, -1.0)
    lf = generate_feasible_lf(4, 3, seed=74, active_fraction=0.0)
    with pytest.raises(ValueError):
        instance_rate_factor(lf, Method.RPK, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Lyapunov values


def test_lyapunov_ls_worked_value():
    x = np.array([1.0, 0.0])
    x_star = np.zeros(2)
    assert lyapunov_ls(x, x_star, z=2.0, rho=4.0) == 2.0


def test_lyapunov_ls_zero_at_solution():
    x = np.array([3.0, -1.0])
    assert lyapunov_ls(x, x, z=0.0, rho=1.0) == 0.0


def test_lyapunov_lf_infeasible_point():
    p = halfspace_lf()
    assert lyapunov_lf(np.array([2.0, 0.0]), p, z=0.0, rho=1.0) == pytest.approx(
        4.0, abs=1e-10
    )


def test_lyapunov_lf_feasible_with_multiplier():
    p = halfspace_lf()
    assert lyapunov_lf(np.array([-1.0, 0.0]), p, z=3.0, rho=9.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_lyapunov_scaling_in_rho():
    x = np.array([0.0, 0.0])
    x_star = np.zeros(2)
    v1 = lyapunov_ls(x, x_star, z=2.0, rho=1.0)
    v4 = lyapunov_ls(x, x_star, z=2.0, rho=4.0)
    assert v1 == 4.0 and v4 == 1.0


def test_feasibility_error_squares_the_distance_once():
    """Every reader squares a feasibility distance d as d * d: on {y <= 0}
    at x = t, where t ** 2 rounds one ulp below t * t, error_sq_of, the
    k = 0 trace record, a one-trial curve's checkpoint 0 and initial value,
    the oracle's base error and lyapunov_lf all read t * t."""
    from kaczpen.solvers import error_sq_of

    t = 1.6970319309869248
    assert t**2 != t * t
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix(np.array([[1.0]])), b=np.zeros(1))
    x = np.array([t])
    cfg = SolverConfig(method=Method.RAK, max_iters=0, x0=x)
    records = []
    run_solver(p, cfg, records.append)
    curve = monte_carlo_error_curve(p, cfg, 1, [0])
    report = exact_expected_step(p, SolverState(x=x, z=0.0, rho=1.0, k=0), Method.RK, 1.0)
    values = {
        "error_sq_of": error_sq_of(p, x),
        "trace error_sq": records[0].error_sq,
        "trace lyapunov": records[0].lyapunov,
        "curve mean": curve.means[0],
        "curve initial_value": curve.initial_value,
        "base_error_sq": report.base_error_sq,
        "lyapunov_lf": lyapunov_lf(x, p, 0.0, 1.0),
    }
    assert values == dict.fromkeys(values, t * t)


# ---------------------------------------------------------------------------
# projections and distance.  The test_project_affine_* tests check the
# projection onto {y : Ay = b}, which is least_norm_solution from x.


def test_project_affine_hyperplane():
    a = DenseMatrix(np.array([[1.0, 0.0]]))
    y = least_norm_solution(a, np.array([1.0]), np.array([3.0, 7.0]))
    np.testing.assert_allclose(y, [1.0, 7.0], atol=1e-12)


def test_project_affine_fixed_point():
    a = DenseMatrix(np.array([[1.0, 1.0]]))
    x = np.array([1.0, 1.0])
    y = least_norm_solution(a, np.array([2.0]), x)
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_project_affine_single_row_matches_step():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = DenseMatrix(rng.standard_normal((1, 4)))
        b = rng.standard_normal(1)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            least_norm_solution(a, b, x), rk_step_ls(x, a, b, 0), atol=1e-12
        )


def test_project_polyhedron_halfspace():
    a = DenseMatrix(np.array([[1.0, 0.0]]))
    y = project_polyhedron(np.array([2.0, 0.0]), a, np.array([1.0]))
    np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-9)


def test_project_polyhedron_corner():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    y = project_polyhedron(np.array([1.0, 1.0]), a, np.zeros(2))
    np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-9)


def test_project_polyhedron_interior_point_fixed():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    x = np.array([-1.0, -2.0])
    y = project_polyhedron(x, a, np.zeros(2))
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_project_polyhedron_is_idempotent():
    rng = np.random.default_rng(2)
    p = generate_feasible_lf(6, 3, seed=4, active_fraction=0.3)
    x = rng.standard_normal(3) * 4
    y = project_polyhedron(x, p.a, p.b)
    y2 = project_polyhedron(y, p.a, p.b)
    assert np.linalg.norm(y2 - y) <= 1e-8


def test_project_polyhedron_feasible_and_closer():
    """Result is feasible and no farther than any other feasible point."""
    rng = np.random.default_rng(3)
    p = generate_feasible_lf(8, 4, seed=5, active_fraction=0.25)
    for _ in range(10):
        x = rng.standard_normal(4) * 3
        y = project_polyhedron(x, p.a, p.b)
        viol = np.maximum(p.a.data @ y - p.b, 0.0)
        assert viol.max() <= 1e-8 * (1 + np.abs(p.b).max())
        assert np.linalg.norm(x - y) <= np.linalg.norm(x - p.x_planted) + 1e-9


def _hildreth_reference(x, a, b, tol):
    """Hildreth's sweep on numpy arrays and scalars, as first written."""
    y = x.copy()
    lam = np.zeros(a.rows)
    norms = np.sqrt(a.row_norms_sq)
    for sweep in range(1, 100_001):
        moved = 0.0
        for i in range(a.rows):
            r = float(a.data[i] @ y) - b[i]
            new_lam = max(lam[i] + r / a.row_norms_sq[i], 0.0)
            d = new_lam - lam[i]
            if d != 0.0:
                y -= d * a.data[i]
                lam[i] = new_lam
                moved = max(moved, abs(d) * norms[i])
        if moved <= tol:
            return y, lam, sweep


def test_hildreth_bit_identical_to_reference():
    """The scalar sweep on Python floats changes cost, not results."""
    from kaczpen.projection import _hildreth

    rng = np.random.default_rng(8)
    for seed, (m, n) in enumerate([(20, 10), (10, 20), (12, 6)]):
        p = generate_feasible_lf(m, n, seed=seed + 40, active_fraction=0.3)
        for _ in range(3):
            x = rng.standard_normal(n) * 3
            y, lam, sweeps = _hildreth(x, p.a, p.b, 1e-12, 100_000)
            y_ref, lam_ref, sweeps_ref = _hildreth_reference(x, p.a, p.b, 1e-12)
            assert np.array_equal(y, y_ref)
            assert np.array_equal(lam, lam_ref)
            assert sweeps == sweeps_ref


def test_distance_halfspace_worked_value():
    p = halfspace_lf()
    assert distance_to_feasible(np.array([2.0, 0.0]), p) == pytest.approx(2.0, abs=1e-9)


def test_distance_bounded_by_planted_gap():
    rng = np.random.default_rng(4)
    p = generate_feasible_lf(7, 3, seed=6, active_fraction=0.5)
    for _ in range(20):
        x = rng.standard_normal(3) * 2
        d = distance_to_feasible(x, p)
        assert d <= np.linalg.norm(x - p.x_planted) + 1e-9


def test_distance_requires_lf():
    p = generate_consistent_ls(3, 2, seed=0)
    with pytest.raises(ValueError):
        distance_to_feasible(np.zeros(2), p)


# ---------------------------------------------------------------------------
# hoffman_estimate


def test_hoffman_halfspace_unit_row():
    p = Problem(
        kind=ProblemKind.LF,
        a=DenseMatrix(np.array([[0.6, 0.8]])),
        b=np.array([1.0]),
        x_planted=np.zeros(2),
    )
    est = hoffman_estimate(p, n_samples=200, radius=10.0, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert est.n_contributing >= 1


def test_hoffman_all_feasible_raises():
    p = Problem(
        kind=ProblemKind.LF,
        a=DenseMatrix(np.array([[1.0, 0.0]])),
        b=np.array([100.0]),
        x_planted=np.zeros(2),
    )
    with pytest.raises(NoEstimateError):
        hoffman_estimate(p, n_samples=50, radius=1.0, seed=0)


def test_hoffman_monotone_in_samples():
    """Same seed: more samples extend the stream, so the max cannot drop."""
    p = generate_feasible_lf(5, 3, seed=7, active_fraction=0.4)
    small = hoffman_estimate(p, n_samples=40, radius=5.0, seed=3)
    large = hoffman_estimate(p, n_samples=160, radius=5.0, seed=3)
    assert large.value >= small.value


def test_hoffman_requires_lf():
    p = generate_consistent_ls(3, 2, seed=1)
    with pytest.raises(ValueError):
        hoffman_estimate(p, n_samples=10, radius=1.0, seed=0)


def _lf_instance(rng, m, n, planted=True, duplicate=False, rescale=False):
    """A feasibility problem with a witness: about 60% of its rows tight."""
    a = rng.standard_normal((m, n))
    if duplicate:
        a[1] = a[0]
    if rescale:
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    xp = rng.standard_normal(n)
    b = a @ xp + np.abs(rng.standard_normal(m)) * (rng.random(m) > 0.6)
    return Problem(
        kind=ProblemKind.LF, a=DenseMatrix(a), b=b, x_planted=xp if planted else None
    )


def _estimate_or_error(estimate, problem, n_samples, radius, seed):
    try:
        est = estimate(problem, n_samples, radius, seed)
    except Exception as exc:  # the search must raise what the loop raises
        return type(exc).__name__, str(exc)
    return type(est.value), est.value.hex(), est.n_contributing, est.n_samples


HOFFMAN_CASES = [
    ("tall-planted", dict(m=30, n=6)),
    ("tall-unplanted", dict(m=30, n=6, planted=False)),
    ("square-planted", dict(m=8, n=8)),
    ("square-unplanted", dict(m=8, n=8, planted=False)),
    ("wide-planted", dict(m=6, n=15)),
    ("wide-unplanted", dict(m=6, n=15, planted=False)),
    ("wide-duplicated-rows", dict(m=6, n=15, duplicate=True)),
    ("wide-rescaled-rows", dict(m=6, n=15, rescale=True)),
    ("tall-rescaled-rows", dict(m=30, n=6, planted=False, rescale=True)),
    ("halfspace", dict(m=1, n=3)),
]


@pytest.mark.parametrize(
    "seed,shape", [(i, kw) for i, (_, kw) in enumerate(HOFFMAN_CASES)],
    ids=[name for name, _ in HOFFMAN_CASES],
)
def test_hoffman_search_matches_reference(seed, shape):
    """The bounded search returns the exhaustive loop's maximum and count
    bit for bit, on the default ball and on a larger one."""
    p = _lf_instance(np.random.default_rng(seed), **shape)
    _, radius = analysis.hoffman_ball(p)
    for r, sample_seed in ((radius, 999_983), (10.0 * radius, 5)):
        expected = _estimate_or_error(reference_hoffman_estimate, p, 200, r, sample_seed)
        assert expected[0] is float
        assert _estimate_or_error(hoffman_estimate, p, 200, r, sample_seed) == expected


def test_hoffman_cholesky_bound_gate():
    """Bound (iii) needs m <= n and an SVD of A whose rounding the gate
    covers: duplicated rows and tall systems fall back to bound (i)."""
    rng = np.random.default_rng(0)
    assert analysis._least_norm_step_factor(_lf_instance(rng, 6, 15).a) is not None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 1, 3).a) is not None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 6, 15, duplicate=True).a) is None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 30, 6).a) is None


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[1e200, 0.0, 0.0], [0.0, 1e-200, 0.0]]],
    ids=["zero-singular-value", "overflowing-kappa"],
)
def test_hoffman_factor_gate_refuses_quietly(rows):
    """A zero smallest singular value, or a ratio s_max / s_min whose square
    overflows, fails the gate without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analysis._least_norm_step_factor(DenseMatrix(rows)) is None


def _conditioned_matrix(rng, m, n, kappa):
    """An m x n matrix (m <= n) whose A A^T has condition number kappa."""
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (u * np.sqrt(np.geomspace(1.0, kappa, m))) @ v.T


def test_hoffman_spectral_gate():
    """The factor is gated on the spectral kappa(A A^T): a well-conditioned
    200 x 400 matrix keeps it, a nearly singular A A^T loses it, and the
    gate 2 (m + n + 1) eps kappa <= 1e-8 falls between kappa = 1e6 and
    2e6 at m = 5, n = 10."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((200, 400))
    factor = analysis._least_norm_step_factor(DenseMatrix(a))
    assert factor is not None
    inv, lam_min = factor
    gram = a @ a.T
    assert lam_min == pytest.approx(np.linalg.eigvalsh(gram)[0], rel=1e-10)
    np.testing.assert_allclose(inv @ gram @ inv.T, np.eye(200), atol=1e-10)
    near_singular = rng.standard_normal((6, 15))
    near_singular[1] = near_singular[0] + 1e-7 * rng.standard_normal(15)
    assert analysis._least_norm_step_factor(DenseMatrix(near_singular)) is None
    inside = _conditioned_matrix(rng, 5, 10, 1e6)
    outside = _conditioned_matrix(rng, 5, 10, 2e6)
    assert analysis._least_norm_step_factor(DenseMatrix(inside)) is not None
    assert analysis._least_norm_step_factor(DenseMatrix(outside)) is None


def _gate_instance(rng, m, n, kappa=None):
    """A feasibility problem whose A A^T has condition number kappa, by
    default just inside the gate."""
    if kappa is None:
        kappa = 0.9e-8 / (2.0 * (m + n + 1) * np.finfo(float).eps)
    a = _conditioned_matrix(rng, m, n, kappa)
    xp = rng.standard_normal(n)
    b = a @ xp + np.abs(rng.standard_normal(m)) * (rng.random(m) > 0.6)
    return Problem(kind=ProblemKind.LF, a=DenseMatrix(a), b=b, x_planted=xp)


@pytest.mark.parametrize("block", range(4))
def test_hoffman_bounds_certify_every_sample(block):
    """Every contributing sample's ratio bound is at least its projected
    ratio over 1 + 1e-8, on random wide instances: 1-row halfspaces,
    instances just inside the factor's gate, duplicated rows and
    unplanted centres."""
    rng = np.random.default_rng(104_729 + block)
    checked = 0
    for t in range(12):
        m = 1 if t % 4 == 0 else int(rng.integers(2, 16))
        n = int(rng.integers(m, 31))
        if t % 4 == 1:
            p = _gate_instance(rng, m, n)
            assert analysis._least_norm_step_factor(p.a) is not None
        else:
            p = _lf_instance(
                rng, m, n, planted=t % 4 != 3, duplicate=m >= 2 and t % 4 == 2
            )
        # the smaller ball puts samples near the feasible set, where bound
        # (i) is loose and bound (iii) decides
        radius = analysis.hoffman_ball(p)[1] * (1.0 if (t // 4) % 2 else 0.2)
        try:
            points, r_norms, bounds = analysis._hoffman_samples(p, 40, radius, t)
        except NoEstimateError:
            continue
        for point, r_norm, bound in zip(points, r_norms, bounds):
            ratio = distance_to_feasible(point, p) / r_norm
            assert bound >= ratio / (1.0 + 1e-8), (block, t, m, n, bound, ratio)
            checked += 1
    assert checked >= 200


@pytest.mark.parametrize("block", range(12))
def test_hoffman_search_matches_reference_random(block):
    """50 random instances per block, 600 in all: tall, square and wide
    shapes up to 15 x 15 (blocks 0-7), wide shapes up to 30 x 60
    (blocks 8-9), planted and unplanted centres, duplicated and rescaled
    rows, default and arbitrary radii; and full-rank wide shapes up to
    15 x 30 with kappa(A A^T) from 1e8 to 1e10 (blocks 10-11), outside
    bound (iii)'s gate, where the projections round the most.  Value,
    count and any error match the exhaustive loop."""
    rng = np.random.default_rng(7919 + block)
    for t in range(50):
        if block < 8:
            m, n = (int(v) for v in rng.integers(1, 16, size=2))
        else:
            low, high = (1, 31) if block < 10 else (2, 16)
            m = int(rng.integers(low, high))
            n = int(rng.integers(m, 2 * m + 1))
        if block < 10:
            p = _lf_instance(
                rng, m, n, planted=t % 2 == 0, duplicate=m >= 2 and t % 5 == 1,
                rescale=t % 5 == 2,
            )
        else:
            p = _gate_instance(rng, m, n, kappa=10.0 ** rng.uniform(8.0, 10.0))
        radius = analysis.hoffman_ball(p)[1] if t % 3 == 0 else float(10.0 ** rng.uniform(-1, 1.5))
        n_samples, seed = int(rng.integers(1, 60)), int(rng.integers(0, 10**6))
        assert _estimate_or_error(hoffman_estimate, p, n_samples, radius, seed) == (
            _estimate_or_error(reference_hoffman_estimate, p, n_samples, radius, seed)
        ), (block, t, m, n)


def test_skip_margin_covers_the_distance_excess():
    """The Hoffman search's skip margin covers how far a computed distance
    lies above the exact one where the projections round the most: at
    kappa(A A^T) = 5.9e9, outside bound (iii)'s gate, on the contributing
    points of 30 Hoffman samples on each of 20 3 x 23 systems (494 in
    all), against the exact distance, the least-norm step onto the
    projection's support rows by the SVD.  The
    largest relative excess here is about 2.9e-7, so a margin of 1e-9
    fails."""
    from kaczpen.projection import _warm_distances

    rng = np.random.default_rng(0)
    excess = []
    for t in range(20):
        p = _gate_instance(rng, 3, 23, kappa=5.9e9)
        points, _, _ = analysis._hoffman_samples(p, 30, analysis.hoffman_ball(p)[1], t)
        for x in points:
            dists, supports, _ = _warm_distances(x[None], p)
            dist, support = float(dists[0]), supports[0]
            u, s, _ = np.linalg.svd(p.a.data[support], full_matrices=False)
            exact = float(np.linalg.norm(u.T @ (p.a.data[support] @ x - p.b[support]) / s))
            excess.append((dist - exact) / exact)
    assert len(excess) >= 400
    assert max(excess) < analysis._SKIP_MARGIN


def test_hoffman_ball_projects_origin_once(monkeypatch):
    """Without a planted point the default estimate projects the origin
    once, for both its radius and its centre."""
    p = _lf_instance(np.random.default_rng(3), 8, 5, planted=False)
    calls = []
    original = analysis.project_polyhedron

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "project_polyhedron", counted)
    analysis.envelope_factor(p, Method.RK, 1.0)
    assert len(calls) == 1
    center, radius = analysis.hoffman_ball(p)
    assert len(calls) == 1
    assert not center.flags.writeable
    assert radius == 2.0 * (1.0 + float(np.sqrt(center @ center)))


def test_envelope_factor_estimates_l_once_per_problem(monkeypatch):
    """The feasibility factor's L is hoffman_estimate with 64 samples over
    the default ball at the fixed seed 999,983, estimated on the first
    call and shared by every method and penalty after it."""
    p = generate_feasible_lf(12, 6, seed=31, active_fraction=0.3)
    calls = []
    original = analysis.hoffman_estimate

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(analysis, "hoffman_estimate", counted)
    factors = [
        analysis.envelope_factor(p, method, rho)
        for method in (Method.RK, Method.RPK, Method.RAK)
        for rho in (0.5, 1.0, 4.0)
    ]
    radius = analysis.hoffman_ball(p)[1]
    assert calls == [(64, radius, 999_983)]
    l_value = original(p, 64, radius, 999_983).value
    assert factors[4] == instance_rate_factor(p, Method.RPK, 1.0, l_value)


# ---------------------------------------------------------------------------
# exact_expected_step


def test_expected_step_rpk_identity_system():
    """Worked 2x2 case: expectation and bound agree at 1.25."""
    p = identity_ls()
    state = SolverState(x=np.array([1.0, 1.0]), z=0.0, rho=1.0, k=0)
    rep = exact_expected_step(p, state, Method.RPK, rho=1.0)
    assert rep.base_error_sq == pytest.approx(2.0, abs=1e-12)
    assert rep.expected_error_sq == pytest.approx(1.25, abs=1e-12)
    bound = 0.625 * rep.base_error_sq
    assert rep.expected_error_sq == pytest.approx(bound, abs=1e-12)


def test_expected_step_rak_identity_system():
    """Same case for the multiplier method: Lyapunov expectation hits 1.5."""
    p = identity_ls()
    state = SolverState(x=np.array([1.0, 1.0]), z=0.0, rho=1.0, k=0)
    rep = exact_expected_step(p, state, Method.RAK, rho=1.0)
    assert rep.base_lyapunov == pytest.approx(2.0, abs=1e-12)
    assert rep.expected_lyapunov == pytest.approx(1.5, abs=1e-12)
    assert rep.expected_lyapunov == pytest.approx(0.75 * rep.base_lyapunov, abs=1e-12)


def test_expected_step_at_solution_is_zero():
    p = identity_ls()
    state = SolverState(x=np.zeros(2), z=0.0, rho=1.0, k=0)
    rep = exact_expected_step(p, state, Method.RPK, rho=1.0)
    assert rep.expected_error_sq == pytest.approx(0.0, abs=1e-15)


def test_expected_step_bound_random_states():
    """E ||x' - x*||^2 <= factor * ||x - x*||^2 over random normalized
    systems (slack allowed down to -1e-10)."""
    rng = np.random.default_rng(8)
    from kaczpen.linalg import lambda_min_variants

    for trial in range(10):
        p = normalize_rows(generate_consistent_ls(6, 4, seed=100 + trial))
        lam, _ = lambda_min_variants(p.a)
        x = rng.standard_normal(4) * 2
        state = SolverState(x=x, z=0.0, rho=1.0, k=0)
        for method in (Method.RPK, Method.RAK):
            rep = exact_expected_step(p, state, method, rho=1.0)
            factor = instance_rate_factor(p, method, 1.0, lam)
            if method is Method.RAK:
                got, base = rep.expected_lyapunov, rep.base_lyapunov
            else:
                got, base = rep.expected_error_sq, rep.base_error_sq
            assert got <= factor * base + 1e-10


def test_expected_step_bound_uneven_rows():
    """The factor solve and compare print bounds the exact one-step
    expectation on rows that are not unit norm, where it differs from the
    unit-row form: the damping is taken at rho min ||a_i||^2 and m is
    ||A||_F^2.  verify's -raw properties check the same at fewer seeds."""
    for seed in range(4000, 4030):
        p = generate_consistent_ls(20, 10, seed=seed)
        rng = np.random.default_rng(seed)
        for method in (Method.RK, Method.RPK, Method.RAK):
            x = 2.0 * rng.standard_normal(p.n)
            z = float(rng.uniform(-5.0, 5.0)) if method is Method.RAK else 0.0
            for rho in (0.01, 0.1, 1.0, 10.0):
                state = SolverState(x=x, z=z, rho=rho, k=0)
                rep = exact_expected_step(p, state, method, rho)
                factor = analysis.envelope_factor(p, method, rho)
                if method is Method.RAK:
                    got, base = rep.expected_lyapunov, rep.base_lyapunov
                else:
                    got, base = rep.expected_error_sq, rep.base_error_sq
                assert got <= factor * base, (seed, method, rho)


def test_expected_step_lf_decreases():
    rng = np.random.default_rng(9)
    p = normalize_rows(generate_feasible_lf(6, 3, seed=12, active_fraction=0.3))
    x = p.x_planted + rng.standard_normal(3) * 2
    state = SolverState(x=x, z=0.0, rho=1.0, k=0)
    rep = exact_expected_step(p, state, Method.RPK, rho=1.0)
    assert rep.expected_error_sq <= rep.base_error_sq + 1e-12


def test_expected_step_validation():
    p = identity_ls()
    state = SolverState(x=np.zeros(2), z=0.0, rho=1.0, k=0)
    with pytest.raises(ValueError):
        exact_expected_step(p, state, Method.RPK, rho=0.0)


# ---------------------------------------------------------------------------
# adaptive_step_report


def test_adaptive_constant_schedule_reduces_to_plain_bound():
    """With c = 1 the report carries the fixed-penalty inequality."""
    p = normalize_rows(generate_consistent_ls(5, 3, seed=20))
    rng = np.random.default_rng(10)
    x = rng.standard_normal(3)
    state = SolverState(x=x, z=0.7, rho=1.0, k=0)
    rep = adaptive_step_report(p, state, c=1.0)
    assert rep.slack >= -1e-10


def test_adaptive_growing_schedule_slack_nonnegative():
    rng = np.random.default_rng(11)
    for trial in range(5):
        p = normalize_rows(generate_consistent_ls(4, 3, seed=30 + trial))
        x = rng.standard_normal(3) * 2
        state = SolverState(x=x, z=float(rng.standard_normal()), rho=2.0, k=0)
        rep = adaptive_step_report(p, state, c=2.0)
        assert rep.slack >= -1e-10


def test_adaptive_lf_slack_nonnegative():
    rng = np.random.default_rng(12)
    for trial in range(5):
        p = normalize_rows(generate_feasible_lf(5, 3, seed=40 + trial, active_fraction=0.4))
        x = p.x_planted + rng.standard_normal(3)
        state = SolverState(x=x, z=abs(float(rng.standard_normal())), rho=1.5, k=0)
        rep = adaptive_step_report(p, state, c=1.5)
        assert rep.slack >= -1e-10


@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_adaptive_raw_rows_slack_nonnegative(kind):
    """Rows as generated, with ||a_i||^2 far from 1: the contraction term
    damping(rho s_min) ||r||^2 / ||A||_F^2 and the row-weighted dual decay
    keep the inequality, from small penalties up."""
    rng = np.random.default_rng(13)
    for trial in range(5):
        if kind == "ls":
            p = generate_consistent_ls(8, 4, seed=50 + trial)
            x = 2.0 * rng.standard_normal(4)
            z = float(rng.uniform(-3.0, 3.0))
        else:
            p = generate_feasible_lf(8, 4, seed=60 + trial, active_fraction=0.3)
            x = p.x_planted + rng.standard_normal(4)
            z = float(rng.uniform(0.0, 3.0))
        assert not p.normalized
        for rho in (0.01, 1.0, 10.0):
            for c in (1.0, 2.0):
                rep = adaptive_step_report(p, SolverState(x=x, z=z, rho=rho, k=0), c)
                assert rep.slack >= 0.0, (trial, rho, c)


def test_adaptive_requires_valid_schedule():
    p = normalize_rows(generate_consistent_ls(4, 3, seed=51))
    state = SolverState(x=np.zeros(3), z=0.0, rho=1.0, k=0)
    with pytest.raises(ValueError):
        adaptive_step_report(p, state, c=0.5)


_NAN = float("nan")


def _nan_calls():
    """Each public entry point handed a NaN penalty, multiplier or schedule
    factor (or an infinite multiplier), with the message it refuses it by."""
    ls = generate_consistent_ls(4, 3, seed=52)
    lf = generate_feasible_lf(4, 3, seed=53, active_fraction=0.5)
    x = np.zeros(3)
    state = SolverState(x=x, z=0.0, rho=1.0, k=0)
    rho, z, c = "rho must be positive", "z must be nonnegative", "c must be at least 1"
    finite = "z must be finite"
    return {
        "rpk_step_ls": (lambda: rpk_step_ls(x, ls.a, ls.b, 0, _NAN), rho),
        "rpk_step_lf": (lambda: rpk_step_lf(x, lf.a, lf.b, 0, _NAN), rho),
        "rak_step_ls": (lambda: rak_step_ls(x, 0.0, ls.a, ls.b, 0, _NAN), rho),
        "rak_step_ls-z": (lambda: rak_step_ls(x, _NAN, ls.a, ls.b, 0, 1.0), finite),
        "rak_step_lf-rho": (lambda: rak_step_lf(x, 0.0, lf.a, lf.b, 0, _NAN), rho),
        "rak_step_lf-z": (lambda: rak_step_lf(x, _NAN, lf.a, lf.b, 0, 1.0), z),
        "lyapunov_ls": (lambda: lyapunov_ls(x, x, 0.0, _NAN), rho),
        "lyapunov_ls-z": (lambda: lyapunov_ls(x, x, _NAN, 1.0), finite),
        "lyapunov_ls-z-inf": (lambda: lyapunov_ls(x, x, float("inf"), 1.0), finite),
        "lyapunov_lf-rho": (lambda: lyapunov_lf(x, lf, 0.0, _NAN), rho),
        "lyapunov_lf-z": (lambda: lyapunov_lf(x, lf, _NAN, 1.0), z),
        "instance_rate_factor": (lambda: instance_rate_factor(ls, Method.RPK, _NAN, 1.0), rho),
        "exact_expected_step-rho": (lambda: exact_expected_step(ls, state, Method.RPK, _NAN), rho),
        "exact_expected_step-z": (
            lambda: exact_expected_step(lf, SolverState(x, _NAN, 1.0, 0), Method.RAK, 1.0),
            z,
        ),
        "exact_expected_step-ls-z": (
            lambda: exact_expected_step(ls, SolverState(x, _NAN, 1.0, 0), Method.RAK, 1.0),
            finite,
        ),
        "adaptive_step_report-c": (lambda: adaptive_step_report(ls, state, _NAN), c),
        "adaptive_step_report-rho": (
            lambda: adaptive_step_report(ls, SolverState(x, 0.0, _NAN, 0), 1.0),
            rho,
        ),
        "adaptive_step_report-z": (
            lambda: adaptive_step_report(ls, SolverState(x, _NAN, 1.0, 0), 1.0),
            finite,
        ),
    }


@pytest.mark.parametrize("entry", sorted(_nan_calls()))
def test_nan_penalty_or_multiplier_refused(entry):
    """NaN passes `rho <= 0`, `z < 0` and `c < 1`; each entry point refuses
    it by name instead of returning NaN, and refuses an infinite multiplier
    instead of returning inf."""
    call, message = _nan_calls()[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_enumeration_cap_is_named():
    """An enumeration oracle over more rows than the cap fails at once and
    names the cap."""
    m = analysis._ENUMERATION_CAP + 1
    p = Problem(ProblemKind.LS, DenseMatrix(np.ones((m, 1))), np.zeros(m))
    state = SolverState(x=np.zeros(1), z=0.0, rho=1.0, k=0)
    message = f"^enumeration over {m} rows exceeds the cap of 10000 rows$"
    with pytest.raises(ValueError, match=message):
        exact_expected_step(p, state, Method.RK, 1.0)


# ---------------------------------------------------------------------------
# monte_carlo_error_curve


def test_mc_single_checkpoint_zero_is_initial():
    p = generate_consistent_ls(5, 3, seed=60)
    cfg = SolverConfig(method=Method.RPK, max_iters=0, seed=1)
    rep = monte_carlo_error_curve(p, cfg, n_trials=1, checkpoints=[0])
    assert rep.means == [rep.initial_value]
    assert rep.envelope == [rep.initial_value]


def test_mc_single_trial_matches_solve_trace():
    """One trial at checkpoint k equals the trace row k of a plain run."""
    p = generate_consistent_ls(6, 4, seed=61)
    cfg = SolverConfig(method=Method.RPK, max_iters=12, seed=5)
    rep = monte_carlo_error_curve(p, cfg, n_trials=1, checkpoints=[0, 5, 12])
    records = []
    run_solver(p, cfg, lambda rec: records.append(rec))
    by_k = {r.k: r.error_sq for r in records}
    for k, mean in zip(rep.checkpoints, rep.means):
        assert mean == by_k[k]


def test_mc_means_nonincreasing_ls():
    p = normalize_rows(generate_consistent_ls(8, 5, seed=62))
    cfg = SolverConfig(method=Method.RAK, max_iters=0, seed=9)
    rep = monte_carlo_error_curve(p, cfg, n_trials=20, checkpoints=[0, 10, 25, 50])
    assert all(b <= a + 1e-12 for a, b in zip(rep.means, rep.means[1:]))


def test_mc_envelope_bounds_means_ls():
    p = normalize_rows(generate_consistent_ls(8, 4, seed=63))
    cfg = SolverConfig(method=Method.RPK, max_iters=0, rho0=1.0, seed=3)
    rep = monte_carlo_error_curve(p, cfg, n_trials=40, checkpoints=[10, 30])
    for mean, env in zip(rep.means, rep.envelope):
        assert mean <= env * 1.10


def test_mc_envelope_bounds_means_unnormalized_ls():
    """Raw generator output has uneven row norms; the envelope must hold
    there too, not only after row normalization."""
    p = generate_consistent_ls(8, 4, seed=65)
    assert float(np.ptp(p.a.row_norms_sq)) > 0.1  # genuinely uneven rows
    for method in (Method.RK, Method.RPK, Method.RAK):
        cfg = SolverConfig(method=method, max_iters=0, rho0=1.0, seed=11)
        rep = monte_carlo_error_curve(p, cfg, n_trials=40, checkpoints=[10, 30])
        for mean, env in zip(rep.means, rep.envelope):
            assert mean <= env * 1.10


def test_mc_validation():
    p = generate_consistent_ls(4, 3, seed=64)
    cfg = SolverConfig(method=Method.RPK, max_iters=0)
    with pytest.raises(ValueError):
        monte_carlo_error_curve(p, cfg, n_trials=0, checkpoints=[0])
    with pytest.raises(ValueError):
        monte_carlo_error_curve(p, cfg, n_trials=1, checkpoints=[])
    with pytest.raises(ValueError):
        monte_carlo_error_curve(p, cfg, n_trials=1, checkpoints=[-1])


def _reference_means(problem, cfg, n_trials, checkpoints):
    """The per-trial, per-checkpoint rerun of run_solver that the batched
    single pass replaces; its means must come out bit for bit the same."""
    ks = sorted(checkpoints)
    is_ls = problem.kind is ProblemKind.LS
    x0 = np.zeros(problem.n) if cfg.x0 is None else cfg.x0
    if is_ls:
        x_star = least_norm_solution(problem.a, problem.b, x0)
    sums = [0.0 for _ in ks]
    for t in range(n_trials):
        for j, k in enumerate(ks):
            run_cfg = SolverConfig(
                method=cfg.method,
                max_iters=k,
                rho0=cfg.rho0,
                c=cfg.c,
                rho_max=cfg.rho_max,
                seed=cfg.seed + t,
                x0=cfg.x0,
            )
            state = run_solver(problem, run_cfg)
            if is_ls:
                d = state.x - x_star
                err = float(d @ d)
            else:
                err = distance_to_feasible(state.x, problem) ** 2
            if cfg.method is Method.RAK:
                err += state.z * state.z / state.rho
            sums[j] += err
    return [s / n_trials for s in sums]


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", ["ls", "lf", "lf-tall"])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("nonzero_x0", [False, True])
@pytest.mark.parametrize("c", [1.0, 1.05])
def test_mc_batched_matches_per_trial_reruns(method, kind, normalize, nonzero_x0, c):
    """lf-tall has more tight rows at its planted vertex than columns: a
    fifth to a half of its warm-started checkpoint projections are refused
    there (not _settled) and rerun cold, in the same batches as the ones
    kept."""
    if kind == "ls":
        p = generate_consistent_ls(9, 4, seed=66)
    elif kind == "lf":
        p = generate_feasible_lf(7, 5, seed=67, active_fraction=0.3)
    else:
        p = generate_feasible_lf(12, 4, seed=68, active_fraction=0.5)
    if normalize:
        p = normalize_rows(p)
    x0 = np.linspace(-1.0, 2.0, p.n) if nonzero_x0 else None
    cfg = SolverConfig(method=method, max_iters=0, rho0=0.7, c=c, seed=13, x0=x0)
    checkpoints = [0, 3, 3, 17, 60]
    rep = monte_carlo_error_curve(p, cfg, 4, checkpoints)
    assert rep.checkpoints == checkpoints
    assert rep.means == _reference_means(p, cfg, 4, checkpoints)


def test_mc_batched_spans_several_draw_blocks():
    """Checkpoints on both sides of a draw-block boundary and one past two
    full blocks see the same row streams as per-trial reruns."""
    block = analysis._DRAW_BLOCK
    p = generate_consistent_ls(12, 5, seed=68)
    cfg = SolverConfig(method=Method.RAK, max_iters=0, rho0=0.5, c=1.01, seed=4)
    checkpoints = [1, block, block + 1, 2 * block + 1]
    rep = monte_carlo_error_curve(p, cfg, 3, checkpoints)
    assert rep.means == _reference_means(p, cfg, 3, checkpoints)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize(
    "n_trials, checkpoints",
    [(180, [10, 20]), (50, [0, analysis._DRAW_BLOCK - 1, analysis._DRAW_BLOCK + 3])],
    ids=["180-trials", "50-trials-two-blocks"],
)
def test_mc_many_trials_match_per_trial_reruns(method, kind, n_trials, checkpoints):
    """compare's trial counts: every trial draws from the one shared row
    distribution and still gets the means of per-trial reruns bit for bit."""
    if kind == "ls":
        p = generate_consistent_ls(20, 5, seed=72)
    else:
        p = generate_feasible_lf(10, 20, seed=73, active_fraction=0.3)
    cfg = SolverConfig(method=method, max_iters=0, rho0=0.3, seed=17)
    rep = monte_carlo_error_curve(p, cfg, n_trials, checkpoints)
    assert rep.means == _reference_means(p, cfg, n_trials, checkpoints)


@pytest.mark.parametrize("kind", ["ls", "lf"])
def test_mc_projects_each_checkpoint_in_one_batch(monkeypatch, kind):
    """A feasibility curve projects x0 once, cold, for its initial value,
    and each checkpoint k > 0 projects all trials in one _warm_distances
    call: the first started from the support of x0's projection, each later
    one from the supports the call before returned.  Checkpoint 0 projects
    nothing, and neither does an equality curve."""
    from kaczpen import solvers

    if kind == "ls":
        p = generate_consistent_ls(9, 4, seed=66)
    else:
        p = generate_feasible_lf(10, 6, seed=77, active_fraction=0.3)
    x0 = np.linspace(-1.0, 2.0, p.n)
    calls = []
    real = solvers._warm_distances

    def recorded(xs, problem, start=None):
        result = real(xs, problem, start)
        if start is not None:
            start = np.broadcast_to(start, (len(xs), p.m)).copy()
        calls.append((xs.copy(), start, result[1]))
        return result

    monkeypatch.setattr(solvers, "_warm_distances", recorded)
    cfg = SolverConfig(method=Method.RPK, max_iters=0, seed=3, x0=x0)
    monte_carlo_error_curve(p, cfg, 5, [0, 10, 40])
    monkeypatch.undo()
    if kind == "ls":
        assert calls == []
        return
    assert [xs.shape for xs, _, _ in calls] == [(1, p.n)] + [(5, p.n)] * 2
    assert np.array_equal(calls[0][0], x0[None])
    assert calls[0][1] is None
    support = solvers._error_sq(p, x0, None)[1]
    assert support.any()
    assert np.array_equal(calls[0][2][0], support)
    assert np.array_equal(calls[1][1], np.tile(support, (5, 1)))
    for (_, _, supports), (_, start, _) in zip(calls[1:], calls[2:]):
        assert np.array_equal(start, supports)


def test_mc_checkpoint_zero_projects_nothing(monkeypatch):
    """Checkpoint 0 is every trial at x0, whose value is the curve's
    initial one: adding it to a curve on the degenerate 60x10 file (18
    tight rows at its vertex, the origin infeasible) adds no passive-set
    solve and leaves every later mean and envelope bit for bit."""
    from kaczpen import projection

    p = generate_feasible_lf(60, 10, seed=3, active_fraction=0.3)
    cfg = SolverConfig(method=Method.RAK, max_iters=0, rho0=0.5, seed=3)
    # the factor is estimated once per problem: before the counts
    analysis.envelope_factor(p, cfg.method, cfg.rho0)
    solves = []
    real = projection._passive_solves

    def counted(ext, points, *args):
        solves.append(len(points))
        return real(ext, points, *args)

    monkeypatch.setattr(projection, "_passive_solves", counted)
    reports, counts = [], []
    for ks in ([10, 50], [0, 10, 50]):
        solves.clear()
        reports.append(monte_carlo_error_curve(p, cfg, 10, ks))
        counts.append(sum(solves))
    without, with_zero = reports
    assert counts[0] > 0
    assert counts[1] == counts[0]
    assert with_zero.means[0] == with_zero.envelope[0] == with_zero.initial_value > 0.0
    assert [m.hex() for m in with_zero.means[1:]] == [m.hex() for m in without.means]
    assert [e.hex() for e in with_zero.envelope[1:]] == [e.hex() for e in without.envelope]


def test_mc_projection_failure_names_lowest_refused_trial(monkeypatch):
    """When several trials' projections fail at one checkpoint, the curve
    raises the lowest trial's error, as a loop over the trials would.
    The stand-in's first call is x0's own projection, for the initial
    value; its third is the second checkpoint's batch."""
    from kaczpen import solvers

    p = generate_feasible_lf(10, 6, seed=77, active_fraction=0.3)
    real = solvers._warm_distances
    calls = []

    def refusing(xs, problem, start=None):
        dists, supports, errors = real(xs, problem, start)
        calls.append(None)
        if len(calls) == 3:
            errors = list(errors)
            errors[1] = ConvergenceError("trial 1 refused")
            errors[3] = ConvergenceError("trial 3 refused")
        return dists, supports, errors

    monkeypatch.setattr(solvers, "_warm_distances", refusing)
    cfg = SolverConfig(method=Method.RK, max_iters=0, seed=3)
    with pytest.raises(ConvergenceError, match="^trial 1 refused$"):
        monte_carlo_error_curve(p, cfg, 5, [5, 10, 40])
    assert len(calls) == 3


def test_mc_trial_rows_are_its_own_sampler_stream(monkeypatch):
    """Trial t's rows, block by block, are those that
    build_sampler(a, seed + t).sample_rows draws for the same block sizes."""
    block = analysis._DRAW_BLOCK
    p = generate_consistent_ls(20, 5, seed=74)
    drawn = []
    rows = RowDistribution.rows

    def record(self, u):
        out = rows(self, u)
        drawn.append(out.copy())
        return out

    monkeypatch.setattr(RowDistribution, "rows", record)
    cfg = SolverConfig(method=Method.RPK, max_iters=0, seed=21)
    monte_carlo_error_curve(p, cfg, 50, [block + 40])
    monkeypatch.undo()
    assert [d.shape for d in drawn] == [(50, block), (50, 40)]
    for t in range(50):
        sampler = build_sampler(p.a, 21 + t)
        for d in drawn:
            assert np.array_equal(d[t], sampler.sample_rows(d.shape[1]))


@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize("n_trials", [1, 7, 180])
def test_mc_builds_the_row_distribution_once(monkeypatch, kind, n_trials):
    """The weights, their checks and cumulative sums are built once per
    curve, whatever the trial count; each trial adds only its stream."""
    builds = []
    init = RowDistribution.__init__

    def counting(self, a):
        builds.append(a)
        init(self, a)

    monkeypatch.setattr(RowDistribution, "__init__", counting)
    if kind == "ls":
        p = generate_consistent_ls(20, 5, seed=75)
    else:
        p = generate_feasible_lf(10, 20, seed=76, active_fraction=0.3)
    cfg = SolverConfig(method=Method.RAK, max_iters=0, seed=5)
    monte_carlo_error_curve(p, cfg, n_trials, [10, 20])
    assert builds == [p.a]


def _overflowing_lf():
    # x0 violates only the first row, whose step lands on x1 = x2, where
    # the second row's residual 3 x1 overflows: each trial fails the
    # first time it draws the second row after the first
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix([[-1.0, 1.0], [3.0, 0.0]]), b=np.zeros(2))
    return p, np.array([0.0, 1.5e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "seed, horizon, expected",
    [
        # trials 0-3 first fail at iterations 10, 10, 5, 2: trial 0's counts
        (8, 50, 10),
        # trials 0-3 first fail at 12, 8, 10, 10: trial 0 survives to 11,
        # so trial 1's failure is the one a sequential loop meets first
        (6, 11, 8),
    ],
)
def test_mc_numeric_failure_names_lowest_failing_trial(seed, horizon, expected):
    p, x0 = _overflowing_lf()
    cfg = SolverConfig(method=Method.RK, max_iters=0, seed=seed, x0=x0)
    with pytest.raises(NumericFailureError) as ref:
        _reference_means(p, cfg, 4, [3, horizon])
    with pytest.raises(NumericFailureError) as got:
        monte_carlo_error_curve(p, cfg, 4, [3, horizon])
    assert got.value.iteration == ref.value.iteration == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_numeric_failure_after_dropped_trials_in_a_later_block():
    """A trial fails at its first draw of row 0 (weight 1/201), where the
    step overflows.  At seed 23 trial 2 fails at k = 2 and trials 2-19 are
    dropped; trial 0 never fails, and trial 1's failure at k = 400, two
    draw blocks on, is the one named."""
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix([[-0.15, 0.15], [3.0, 0.0]]), b=np.zeros(2))
    cfg = SolverConfig(method=Method.RK, max_iters=0, seed=23, x0=np.array([0.0, 1.5e308]))
    with pytest.raises(NumericFailureError) as ref:
        _reference_means(p, cfg, 20, [3, 600])
    with pytest.raises(NumericFailureError) as got:
        monte_carlo_error_curve(p, cfg, 20, [3, 600])
    assert got.value.iteration == ref.value.iteration == 400


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_nan_residual_moves_like_the_step_functions():
    """A nan residual (inf - inf inside the dot) is not <= 0, so the
    feasibility steps move x by it, and the run fails at that step."""
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix(np.full((1, 16), 10.0)), b=np.zeros(1))
    x0 = np.tile([1e308, -1e308], 8)
    if not np.isnan(p.a.data[0] @ x0):
        pytest.skip("this BLAS's dot does not overflow to nan here")
    cfg = SolverConfig(method=Method.RK, max_iters=0, x0=x0)
    with pytest.raises(NumericFailureError) as ref:
        _reference_means(p, cfg, 2, [4])
    with pytest.raises(NumericFailureError) as got:
        monte_carlo_error_curve(p, cfg, 2, [4])
    assert got.value.iteration == ref.value.iteration == 1


def _segment_budget(monkeypatch, n_trials, n, steps):
    """Patch the byte budget to segments of at most steps steps (None
    keeps the default)."""
    from kaczpen import solvers

    if steps is not None:
        monkeypatch.setattr(solvers, "_METRIC_BYTES", 8 * n_trials * (n + 2) * steps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", [Method.RPK, Method.RAK])
@pytest.mark.parametrize("steps", [None, 1, 20])
def test_mc_numeric_failure_inside_a_segment_where_rho_moves(monkeypatch, method, steps):
    """x1 = 1e308 violates row 0, whose coefficient 0.3 x1 / (1 / rho + 0.09)
    overflows once rho is large enough: under rho0 = 1 fixed no trial
    fails, and as c = 1.3 grows rho, trials 0-3 at seed 1 first fail at
    none, 50, 21 and 52.  Under the default budget and 20-step segments
    each of those steps lies inside a segment, so the replay has to start
    from the segment's saved rho (one that kept the rho of the segment's
    end names 10); 1-step segments check every step.  Trial 2 is dropped
    at 21 and trial 1's failure at 50 is the one named."""
    p = Problem(
        kind=ProblemKind.LF, a=DenseMatrix([[0.3, 0.0], [0.0, 1.0]]), b=np.array([0.0, 1.0])
    )
    x0 = np.array([1e308, 0.0])
    cfg = SolverConfig(method=method, max_iters=0, rho0=1.0, c=1.3, rho_max=1e6, seed=1, x0=x0)
    checkpoints = [3, 40, 300]
    with pytest.raises(NumericFailureError) as ref:
        _reference_means(p, cfg, 4, checkpoints)
    _segment_budget(monkeypatch, 4, p.n, steps)
    with pytest.raises(NumericFailureError) as got:
        monte_carlo_error_curve(p, cfg, 4, checkpoints)
    assert got.value.iteration == ref.value.iteration == 50


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("steps", [None, 1, 3])
def test_mc_numeric_failure_on_a_checkpoint_step(monkeypatch, steps):
    """At seed 8 trials 0-3 first fail at iterations 10, 10, 5 and 2,
    each a checkpoint: a checkpoint is taken after its step's check, so
    it projects only the trials still running, every one finite, and
    trial 0's failure at 10 is named before its checkpoint."""
    from kaczpen import solvers

    p, x0 = _overflowing_lf()
    cfg = SolverConfig(method=Method.RK, max_iters=0, seed=8, x0=x0)
    checkpoints = [2, 5, 10, 50]
    with pytest.raises(NumericFailureError) as ref:
        _reference_means(p, cfg, 4, checkpoints)
    _segment_budget(monkeypatch, 4, p.n, steps)
    projected = []
    real = solvers._warm_distances

    def recorded(xs, problem, start=None):
        projected.append(xs.copy())
        return real(xs, problem, start)

    monkeypatch.setattr(solvers, "_warm_distances", recorded)
    with pytest.raises(NumericFailureError) as got:
        monte_carlo_error_curve(p, cfg, 4, checkpoints)
    assert got.value.iteration == ref.value.iteration == 10
    # x0's own projection, then checkpoints 2 (trials 0-2) and 5 (trials 0-1)
    assert [xs.shape for xs in projected] == [(1, 2), (3, 2), (2, 2)]
    assert all(np.isfinite(xs).all() for xs in projected)


@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize("steps", [1, 7])
def test_mc_segment_budget_leaves_the_curve_bit_for_bit(monkeypatch, kind, steps):
    """Segments of 1 step, or of 7 (an uneven split of the 256-draw
    block), with checkpoints inside segments, at their ends and at the
    block's end, give the means and envelopes of the default budget and
    of per-trial reruns, bit for bit."""
    if kind == "ls":
        p = generate_consistent_ls(12, 5, seed=68)
    else:
        p = generate_feasible_lf(10, 6, seed=77, active_fraction=0.3)
    cfg = SolverConfig(method=Method.RAK, max_iters=0, rho0=0.5, c=1.05, seed=4)
    block = analysis._DRAW_BLOCK
    checkpoints = [0, 5, 7, 14, 100, block, block + 44]
    default = monte_carlo_error_curve(p, cfg, 3, checkpoints)
    _segment_budget(monkeypatch, 3, p.n, steps)
    got = monte_carlo_error_curve(p, cfg, 3, checkpoints)
    assert [m.hex() for m in got.means] == [m.hex() for m in default.means]
    assert [e.hex() for e in got.envelope] == [e.hex() for e in default.envelope]
    assert got.means == _reference_means(p, cfg, 3, checkpoints)
