"""Rate constants, Lyapunov values, projections, estimates, and exact
one-step expectation oracles."""

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
    rate_constants,
)
from kaczpen.linalg import DenseMatrix, lambda_min_variants, least_norm_solution
from kaczpen.problems import (
    Problem,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    normalize_rows,
)
from kaczpen.projection import distance_to_feasible, project_polyhedron
from kaczpen.solvers import (
    Method,
    NumericFailureError,
    SolverConfig,
    SolverState,
    rk_step_ls,
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
# rate_constants


def test_rate_rpk_ls_worked_value():
    rc = rate_constants(Method.RPK, ProblemKind.LS, rho=1.0, conditioning=1.0, m=2)
    assert rc.damping == 0.75
    assert rc.per_step_factor == 0.625


def test_rate_rak_ls_worked_value():
    rc = rate_constants(Method.RAK, ProblemKind.LS, rho=1.0, conditioning=1.0, m=2)
    assert rc.damping == 0.5
    assert rc.per_step_factor == 0.75


def test_rate_large_rho_limit():
    rc = rate_constants(Method.RPK, ProblemKind.LS, rho=1e12, conditioning=1.0, m=2)
    assert abs(rc.per_step_factor - 0.5) <= 1e-6


def test_rate_rk_has_unit_damping():
    rc = rate_constants(Method.RK, ProblemKind.LS, rho=1.0, conditioning=1.0, m=4)
    assert rc.damping == 1.0
    assert rc.per_step_factor == 0.75


def test_rate_lf_uses_distance_constant():
    rc = rate_constants(Method.RAK, ProblemKind.LF, rho=1.0, conditioning=2.0, m=5)
    # damping 0.5, m L^2 = 20
    assert rc.per_step_factor == pytest.approx(1.0 - 0.5 / 20.0, abs=1e-15)


def test_rate_factor_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = float(rng.uniform(0.05, 20))
        m = int(rng.integers(1, 30))
        lam = float(rng.uniform(0, m))  # lambda_min <= m for unit rows
        rc = rate_constants(Method.RPK, ProblemKind.LS, rho, lam, m)
        assert 0.0 <= rc.per_step_factor <= 1.0


def test_rate_ordering_rpk_faster_than_rak():
    """The penalty damping dominates the multiplier damping at every rho."""
    for rho in [0.1, 0.5, 1.0, 3.0, 40.0]:
        rpk = rate_constants(Method.RPK, ProblemKind.LS, rho, 1.0, 3)
        rak = rate_constants(Method.RAK, ProblemKind.LS, rho, 1.0, 3)
        assert rpk.per_step_factor <= rak.per_step_factor


def test_rate_monotone_in_rho():
    factors = [
        rate_constants(Method.RAK, ProblemKind.LS, rho, 1.0, 2).per_step_factor
        for rho in [0.1, 0.5, 1.0, 5.0, 100.0]
    ]
    assert all(b <= a for a, b in zip(factors, factors[1:]))


def test_rate_validation():
    with pytest.raises(ValueError):
        rate_constants(Method.RPK, ProblemKind.LS, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        rate_constants(Method.RPK, ProblemKind.LS, 1.0, -1.0, 2)
    with pytest.raises(ValueError):
        rate_constants(Method.RPK, ProblemKind.LF, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        rate_constants(Method.RPK, ProblemKind.LS, 1.0, 1.0, 0)


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


def test_instance_rate_reduces_to_unit_row_constants():
    p = normalize_rows(generate_consistent_ls(6, 4, seed=70))
    for method in (Method.RK, Method.RPK, Method.RAK):
        for rho in (0.3, 1.0, 7.0):
            rc = rate_constants(method, ProblemKind.LS, rho, 0.7, p.m)
            got = instance_rate_factor(p, method, rho, 0.7)
            assert got == pytest.approx(rc.per_step_factor, rel=1e-12)


def test_instance_rate_reduces_to_unit_row_constants_lf():
    p = normalize_rows(generate_feasible_lf(6, 4, seed=71, active_fraction=0.5))
    rc = rate_constants(Method.RAK, ProblemKind.LF, 2.0, 3.0, p.m)
    got = instance_rate_factor(p, Method.RAK, 2.0, 3.0)
    assert got == pytest.approx(rc.per_step_factor, rel=1e-12)


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
    """Bound (ii) needs m <= n and a Cholesky factor of A A^T whose rounding
    is covered: duplicated rows and tall systems fall back to bound (i)."""
    rng = np.random.default_rng(0)
    assert analysis._least_norm_step_factor(_lf_instance(rng, 6, 15).a) is not None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 1, 3).a) is not None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 6, 15, duplicate=True).a) is None
    assert analysis._least_norm_step_factor(_lf_instance(rng, 30, 6).a) is None


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


def _gate_instance(rng, m, n):
    """A feasibility problem whose A A^T sits just inside the gate."""
    a = _conditioned_matrix(rng, m, n, 0.9e-8 / (2.0 * (m + n + 1) * np.finfo(float).eps))
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


@pytest.mark.parametrize("block", range(10))
def test_hoffman_search_matches_reference_random(block):
    """50 random instances per block, 500 in all: tall, square and wide
    shapes up to 15 x 15 (blocks 0-7) and wide shapes up to 30 x 60
    (blocks 8-9), planted and unplanted centres, duplicated and rescaled
    rows, default and arbitrary radii.  Value, count and any error match
    the exhaustive loop."""
    rng = np.random.default_rng(7919 + block)
    for t in range(50):
        if block < 8:
            m, n = (int(v) for v in rng.integers(1, 16, size=2))
        else:
            m = int(rng.integers(1, 31))
            n = int(rng.integers(m, 2 * m + 1))
        p = _lf_instance(
            rng, m, n, planted=t % 2 == 0, duplicate=m >= 2 and t % 5 == 1,
            rescale=t % 5 == 2,
        )
        radius = analysis.hoffman_ball(p)[1] if t % 3 == 0 else float(10.0 ** rng.uniform(-1, 1.5))
        n_samples, seed = int(rng.integers(1, 60)), int(rng.integers(0, 10**6))
        assert _estimate_or_error(hoffman_estimate, p, n_samples, radius, seed) == (
            _estimate_or_error(reference_hoffman_estimate, p, n_samples, radius, seed)
        ), (block, t, m, n)


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
    analysis._sampled_hoffman_l(p, seed=0, n_samples=16)
    assert len(calls) == 1
    center, radius = analysis.hoffman_ball(p)
    assert len(calls) == 1
    assert not center.flags.writeable
    assert radius == 2.0 * (1.0 + float(np.sqrt(center @ center)))


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
            rc = rate_constants(method, ProblemKind.LS, 1.0, lam, p.m)
            if method is Method.RAK:
                got, base = rep.expected_lyapunov, rep.base_lyapunov
            else:
                got, base = rep.expected_error_sq, rep.base_error_sq
            assert got <= rc.per_step_factor * base + 1e-10


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


def test_adaptive_requires_unit_rows():
    p = generate_consistent_ls(4, 3, seed=50)  # unnormalized
    state = SolverState(x=np.zeros(3), z=0.0, rho=1.0, k=0)
    with pytest.raises(ValueError):
        adaptive_step_report(p, state, c=1.5)


def test_adaptive_requires_valid_schedule():
    p = normalize_rows(generate_consistent_ls(4, 3, seed=51))
    state = SolverState(x=np.zeros(3), z=0.0, rho=1.0, k=0)
    with pytest.raises(ValueError):
        adaptive_step_report(p, state, c=0.5)


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
@pytest.mark.parametrize("kind", ["ls", "lf"])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("nonzero_x0", [False, True])
@pytest.mark.parametrize("c", [1.0, 1.05])
def test_mc_batched_matches_per_trial_reruns(method, kind, normalize, nonzero_x0, c):
    if kind == "ls":
        p = generate_consistent_ls(9, 4, seed=66)
    else:
        p = generate_feasible_lf(7, 5, seed=67, active_fraction=0.3)
    if normalize:
        p = normalize_rows(p)
    x0 = np.linspace(-1.0, 2.0, p.n) if nonzero_x0 else None
    cfg = SolverConfig(method=method, max_iters=0, rho0=0.7, c=c, seed=13, x0=x0)
    checkpoints = [0, 3, 3, 17, 60]
    rep = monte_carlo_error_curve(p, cfg, 4, checkpoints, hoffman_l=2.0)
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
        monte_carlo_error_curve(p, cfg, 4, [3, horizon], hoffman_l=1.0)
    assert got.value.iteration == ref.value.iteration == expected


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
        monte_carlo_error_curve(p, cfg, 2, [4], hoffman_l=1.0)
    assert got.value.iteration == ref.value.iteration == 1
