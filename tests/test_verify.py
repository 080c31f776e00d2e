"""The property suites must pass on the real code and fail on broken code."""

import types
from dataclasses import replace

import case_reference
import numpy as np
import pytest

import kaczpen.analysis as analysis
import kaczpen.solvers as solvers
import kaczpen.verify as verify
from kaczpen.cli import main
from kaczpen.linalg import ConvergenceError
from kaczpen.projection import _hildreth
from kaczpen.solvers import Method
from kaczpen.verify import (
    SUITES,
    check_adaptive_slack,
    check_lf_expected_decrease,
    check_lf_inactive_noop,
    check_lf_run_feasibility,
    check_lf_step_distance_monotone,
    check_ls_expected_contraction,
    check_ls_expected_tightness,
    check_mc_envelope,
    check_penalty_limit_matches_rk,
    check_projection_certificates,
    check_rak_ls_dual_identity,
    check_rho_schedule,
    check_rk_ls_projection,
    check_rpk_ls_residual_contraction,
    run_suites,
    suite_steps,
)


def test_all_suites_pass():
    results = run_suites("all", seed=0)
    assert len(results) == 25
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_suites_named():
    assert set(SUITES) == {"steps", "theorems", "lf"}


def test_results_carry_details():
    for r in suite_steps(seed=1):
        assert r.passed
        assert r.name
        assert r.detail


def test_checks_deterministic_given_seed():
    a = check_rpk_ls_residual_contraction(seed=9, count=100)
    b = check_rpk_ls_residual_contraction(seed=9, count=100)
    assert (a.name, a.passed, a.detail) == (b.name, b.passed, b.detail)


def test_mutated_frobenius_weight_is_caught(monkeypatch):
    """The row count m in place of ||A||_F^2 in the factor agrees with it
    on unit rows only: the raw-row contraction properties must fail."""
    def mutated(problem, method, rho, conditioning):
        damping = analysis._damping(method, rho * float(problem.a.row_norms_sq.min()))
        return 1.0 - damping * conditioning / problem.m

    monkeypatch.setattr(analysis, "instance_rate_factor", mutated)
    for method, z_span in ((Method.RPK, 0.0), (Method.RAK, 5.0)):
        unit = check_ls_expected_contraction(0, method, z_span=z_span)
        raw = check_ls_expected_contraction(
            0, method, rhos=verify._RAW_RHOS, z_span=z_span, rows="raw"
        )
        assert unit.passed
        assert not raw.passed, raw.detail


def test_mutated_wide_eigenvalue_is_caught(monkeypatch):
    """lambda_min(A^T A), which is 0 on a wide system, gives factor 1: a
    true bound, so only the wide properties' factor-below-1 check sees it."""
    real = analysis._lambda_min
    monkeypatch.setattr(analysis, "_lambda_min", lambda p: 0.0 if p.m < p.n else real(p))
    for method, z_span in ((Method.RK, 0.0), (Method.RAK, 5.0)):
        res = check_ls_expected_contraction(0, method, z_span=z_span, rows="wide")
        assert not res.passed
        assert "max_factor=1.0" in res.detail


def test_mutated_penalty_step_is_caught(monkeypatch):
    """An undamped (plain projection) step in place of the penalty step
    must break the residual contraction identity."""
    real_rk = solvers.rk_step_ls

    def broken(x, a, b, i, rho):
        return real_rk(x, a, b, i)

    monkeypatch.setattr(solvers, "rpk_step_ls", broken)
    res = check_rpk_ls_residual_contraction(seed=0, count=50)
    assert not res.passed


def test_mutated_dual_update_is_caught(monkeypatch):
    """Dropping the damping denominator in the multiplier update must
    break the dual identity."""
    real = solvers.rak_step_ls

    def broken(x, z, a, b, i, rho):
        x2, z2 = real(x, z, a, b, i, rho)
        return x2, z2 * 1.001
    monkeypatch.setattr(solvers, "rak_step_ls", broken)
    res = check_rak_ls_dual_identity(seed=0, count=50)
    assert not res.passed


def test_mutated_schedule_is_caught(monkeypatch):
    real = solvers.advance_rho

    def broken(rho, c, rho_max):
        return real(rho, c, rho_max) * 1.0000001

    monkeypatch.setattr(solvers, "advance_rho", broken)
    res = check_rho_schedule(seed=0)
    assert not res.passed


def test_mutation_trips_cli_exit_code(monkeypatch, capsys):
    real_rk = solvers.rk_step_ls

    def broken(x, a, b, i, rho):
        return real_rk(x, a, b, i)

    monkeypatch.setattr(solvers, "rpk_step_ls", broken)
    code = main(["verify", "--suite", "steps"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_limit_check_needs_normalized_rows():
    res = check_penalty_limit_matches_rk(seed=2, count=50)
    assert res.passed


def test_projectors_must_agree(monkeypatch):
    """A projector that stops early (Hildreth at a 1e-3 sweep tolerance)
    still leaves feasible points fixed, so the idempotence and fixed-point
    checks pass; only the cross-check against Hildreth at 1e-12 fails."""
    assert check_projection_certificates(seed=0).passed

    def loose(x, a, b):
        return _hildreth(x, a, b, 1e-3, 100_000)[0]

    monkeypatch.setattr(verify, "project_polyhedron", loose)
    res = check_projection_certificates(seed=0)
    assert not res.passed


def test_reference_projector_giving_up_is_a_fail(monkeypatch, capsys):
    """Hildreth's sweeps exhausting their budget fail the property with the
    error's message; the other properties still run and report."""

    def exhausted(*args):
        raise ConvergenceError("projection sweeps exhausted with residual movement 1.0e-04")

    monkeypatch.setattr(verify, "_hildreth", exhausted)
    res = check_projection_certificates(seed=0)
    assert not res.passed
    assert res.detail == "projection sweeps exhausted with residual movement 1.0e-04"

    capsys.readouterr()
    assert main(["verify", "--suite", "lf", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL projection-certificates projection sweeps exhausted with "
            "residual movement 1.0e-04") in lines
    assert lines[-1] == "5/6 properties passed"


def _steps_stdout(lines):
    tail = ["PASS rho-schedule closed_form_rel_gap=2.037e-16 fixed_penalty_bitwise=True",
            "6/6 properties passed"]
    return "\n".join(lines + tail) + "\n"


# verify --suite steps stdout as printed when every check stepped its cases
# one public step function call at a time
_STEPS_STDOUT = {
    0: _steps_stdout([
        "PASS rpk-ls-residual-contraction max_rel_err=5.407e-15",
        "PASS rak-ls-dual-identity max_rel_err=2.075e-15",
        "PASS rk-ls-projection max_residual=8.882e-16",
        "PASS lf-inactive-noop 200 cases held exactly",
        "PASS penalty-limit-matches-rk max_gap=2.631e-12",
    ]),
    1: _steps_stdout([
        "PASS rpk-ls-residual-contraction max_rel_err=6.396e-15",
        "PASS rak-ls-dual-identity max_rel_err=1.807e-15",
        "PASS rk-ls-projection max_residual=6.661e-16",
        "PASS lf-inactive-noop 200 cases held exactly",
        "PASS penalty-limit-matches-rk max_gap=2.732e-12",
    ]),
    5: _steps_stdout([
        "PASS rpk-ls-residual-contraction max_rel_err=6.437e-15",
        "PASS rak-ls-dual-identity max_rel_err=2.199e-15",
        "PASS rk-ls-projection max_residual=8.743e-16",
        "PASS lf-inactive-noop 200 cases held exactly",
        "PASS penalty-limit-matches-rk max_gap=3.657e-12",
    ]),
    1001: _steps_stdout([
        "PASS rpk-ls-residual-contraction max_rel_err=5.393e-15",
        "PASS rak-ls-dual-identity max_rel_err=1.975e-15",
        "PASS rk-ls-projection max_residual=4.441e-16",
        "PASS lf-inactive-noop 200 cases held exactly",
        "PASS penalty-limit-matches-rk max_gap=2.657e-12",
    ]),
}


@pytest.mark.parametrize("seed", sorted(_STEPS_STDOUT))
def test_steps_suite_stdout_is_pinned(capsys, seed):
    """The stacked checks print what the per-case loops printed, byte for
    byte: the same cases, and every margin from the same IEEE operations."""
    assert main(["verify", "--suite", "steps", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == _STEPS_STDOUT[seed]


def test_step_identity_details_at_acceptance_size_are_pinned():
    got = [
        check(0, count=1000).detail
        for check in (
            check_rpk_ls_residual_contraction,
            check_rak_ls_dual_identity,
            check_penalty_limit_matches_rk,
        )
    ]
    assert got == ["max_rel_err=6.487e-15", "max_rel_err=3.630e-15", "max_gap=3.257e-12"]


# the six public step functions, each as (x', z'), z' 0.0 without a multiplier
_PUBLIC_STEPS = {
    (Method.RK, False): lambda x, z, a, b, i, rho: (solvers.rk_step_ls(x, a, b, i), 0.0),
    (Method.RK, True): lambda x, z, a, b, i, rho: (solvers.rk_step_lf(x, a, b, i), 0.0),
    (Method.RPK, False): lambda x, z, a, b, i, rho: (solvers.rpk_step_ls(x, a, b, i, rho), 0.0),
    (Method.RPK, True): lambda x, z, a, b, i, rho: (solvers.rpk_step_lf(x, a, b, i, rho), 0.0),
    (Method.RAK, False): solvers.rak_step_ls,
    (Method.RAK, True): solvers.rak_step_lf,
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_public_steps_match_the_stacked_kernel_on_every_case(monkeypatch, seed):
    """On every case the steps suite draws, each public step function gives
    _step_rows' row bit for bit (x itself and z' = 0 where a feasibility
    row does not move), so the spot check on one case per block stands for
    all of them.  Feasibility steps take |z|, the multiplier they accept."""
    drawn = {}
    real = verify._stacked_steps

    def spy(cases, method, lf):
        drawn[id(cases)] = cases
        return real(cases, method, lf)

    monkeypatch.setattr(verify, "_stacked_steps", spy)
    assert all(r.passed for r in suite_steps(seed))
    assert len(drawn) == 5
    for cases in drawn.values():
        for (method, lf), public in _PUBLIC_STEPS.items():
            z = np.abs(cases.z) if lf else cases.z
            x_new, coef, moves = solvers._step_rows(
                cases.rows, cases.x, cases.b, cases.norms_sq, method, z, cases.rho, lf
            )
            for t, i in enumerate(cases.index):
                problem, x = cases.problems[t // verify._BLOCK], cases.x[t]
                x_pub, z_pub = public(x, float(z[t]), problem.a, problem.b, i, float(cases.rho[t]))
                if lf and not moves[t]:
                    assert x_pub is x and z_pub == 0.0 and coef[t] == 0.0
                    assert np.array_equal(x_new[t], x)
                else:
                    assert np.array_equal(x_pub, x_new[t]), (method, lf, t)
                    if method is Method.RAK:
                        assert z_pub == coef[t], (method, lf, t)


def test_mutated_step_coef_fails_the_stacked_identities(monkeypatch):
    """A coefficient off by one part in 1e9, in the kernel that both the
    stacked path and the public functions run, breaks each identity by
    more than its 1e-12 margin."""
    real = solvers._step_coef

    def scaled(r, z, norm_sq, rho, lf):
        coef, moves = real(r, z, norm_sq, rho, lf)
        return coef * (1.0 + 1e-9), moves

    monkeypatch.setattr(solvers, "_step_coef", scaled)
    for check in (
        check_rpk_ls_residual_contraction, check_rak_ls_dual_identity, check_rk_ls_projection
    ):
        res = check(seed=0)
        assert not res.passed, res.name
        assert res.detail.startswith("max_"), res.detail


@pytest.mark.parametrize("reported", [True, False])
def test_step_rows_moving_slack_rows_fails_lf_noop(monkeypatch, reported):
    """A stacked step that moves x on slack feasibility rows fails
    lf-inactive-noop, whether it reports the move (the public step
    function then disagrees) or not (the moved x shows)."""
    real = solvers._step_rows

    def unclipped(rows, x, b, norms_sq, method, z, rho, lf):
        x_moved, coef, _ = real(rows, x, b, norms_sq, method, z, rho, False)
        if reported:
            return x_moved, coef, np.full(len(rows), True)
        return x_moved, *real(rows, x, b, norms_sq, method, z, rho, lf)[1:]

    assert check_lf_inactive_noop(seed=0).passed
    monkeypatch.setattr(solvers, "_step_rows", unclipped)
    res = check_lf_inactive_noop(seed=0)
    assert not res.passed
    expected = "case 0: rpk_step_lf differs" if reported else "case 0 moved on a slack row"
    assert res.detail.startswith(expected), res.detail


_STEP_CHECKS = [
    check_rpk_ls_residual_contraction,
    check_rak_ls_dual_identity,
    check_rk_ls_projection,
    check_lf_inactive_noop,
    check_penalty_limit_matches_rk,
]


@pytest.mark.parametrize("check", _STEP_CHECKS, ids=lambda check: check.__name__)
def test_step_check_without_cases_names_count(check):
    """A step check asked for fewer than one case refuses, naming count,
    as hoffman_estimate names n_samples."""
    for count in (0, -1):
        with pytest.raises(ValueError, match="count must be positive"):
            check(seed=0, count=count)


@pytest.mark.parametrize("check", _STEP_CHECKS[:3] + _STEP_CHECKS[4:], ids=lambda check: check.__name__)
def test_nan_margin_fails_its_property(monkeypatch, check):
    """A NaN in one case's stacked result, case 1, which the public-step
    spot check skips, makes that check's margin NaN, and a NaN margin fails
    the property."""
    real = solvers._step_rows

    def poisoned(*args):
        x_new, coef, moves = real(*args)
        x_new, coef = x_new.copy(), np.array(coef, dtype=float)
        x_new[1] = np.nan
        coef[1] = np.nan
        return x_new, coef, moves

    monkeypatch.setattr(solvers, "_step_rows", poisoned)
    res = check(seed=0)
    assert not res.passed
    assert "nan" in res.detail, res.detail


def _spy_draws(monkeypatch):
    """Every (draw function name, args, cases) of the case draws verify
    makes from here on, in call order."""
    drawn = []
    for name in ("_step_cases", "_slack_cases"):
        def spy(*args, _real=getattr(verify, name), _name=name):
            cases = _real(*args)
            drawn.append((_name, args, cases))
            return cases

        monkeypatch.setattr(verify, name, spy)
    return drawn


def _assert_frozen_draws(drawn):
    """Each drawn set of cases is the frozen draw code's on the same seed,
    count and bounds: the same rows and every array bit for bit."""
    for name, args, got in drawn:
        ref = getattr(case_reference, name)(*args[:5])
        assert got.index == ref.index, (name, args[:5])
        for field in ("rows", "b", "norms_sq", "x", "rho", "z"):
            g, r = getattr(got, field), getattr(ref, field)
            assert (g.dtype, g.shape) == (r.dtype, r.shape), (name, args[:5], field)
            assert g.tobytes() == r.tobytes(), (name, args[:5], field)


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)], ids=["0-19", "20-39"])
def test_steps_suite_draws_the_frozen_cases(monkeypatch, seeds):
    """The four equality checks, on the block problems suite_steps builds
    once, and lf-inactive-noop draw the cases the frozen rng.uniform code
    draws, bit for bit."""
    drawn = _spy_draws(monkeypatch)
    for seed in seeds:
        suite_steps(seed)
    per_run = ["_step_cases"] * 3 + ["_slack_cases", "_step_cases"]
    assert [name for name, _, _ in drawn] == per_run * len(seeds)
    _assert_frozen_draws(drawn)


def test_step_checks_at_acceptance_size_draw_the_frozen_cases(monkeypatch):
    """At count=1000, each check alone (it builds its own blocks) and the
    equality checks given one shared set of blocks."""
    drawn = _spy_draws(monkeypatch)
    for seed in (0, 3):
        for check in _STEP_CHECKS:
            check(seed, count=1000)
        blocks = verify._ls_blocks(seed, 1000)
        for check in _STEP_CHECKS[:3] + _STEP_CHECKS[4:]:
            check(seed, count=1000, blocks=blocks)
    assert len(drawn) == 18
    _assert_frozen_draws(drawn)


def test_slack_cases_refuse_a_row_that_is_never_slack(monkeypatch):
    """A row with no slack point in 200 draws is refused loudly, as numpy's
    uniform(0, hi) refused its negative range, not given a negative z."""
    real = verify._normalized_lf

    def never_slack(m, n, seed, active_fraction):
        p = real(m, n, seed, active_fraction)
        b = p.a.data @ p.x_planted - 100.0
        return types.SimpleNamespace(a=p.a, b=b, m=p.m, n=p.n, x_planted=p.x_planted)

    monkeypatch.setattr(verify, "_normalized_lf", never_slack)
    with pytest.raises(ValueError, match="slack in 200 draws"):
        check_lf_inactive_noop(seed=0)


def test_steps_suite_builds_its_block_problems_once_per_run(monkeypatch):
    """One run builds the six 20x10 block problems once, for all four
    equality checks, and rho-schedule's problem; a second run builds its
    own again, as nothing is cached between runs."""
    calls = []
    real = verify.generate_consistent_ls

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "generate_consistent_ls", counting)
    suite_steps(seed=3)
    assert sorted(calls) == [(12, 6, 3003)] + [(20, 10, 1003 + 50 * j) for j in range(6)]
    suite_steps(seed=3)
    assert len(calls) == 14


def _nan_fields(real, *fields):
    """real with the named fields of its result NaN, each entry of a list."""
    def poisoned(*args):
        result = real(*args)
        values = {f: getattr(result, f) for f in fields}
        nans = {f: [np.nan] * len(v) if isinstance(v, list) else np.nan for f, v in values.items()}
        return replace(result, **nans)

    return poisoned


_EXPECTED_NAN = ("expected_error_sq", "expected_lyapunov")

# "<property> <margin>": (check, verify attribute, stand-in for it given the
# real one) of each reduction that used to keep its margin over a NaN
_NAN_MARGINS = {
    "rpk-ls-expected-contraction min_slack": (
        lambda: check_ls_expected_contraction(0, Method.RPK, n_problems=1),
        "exact_expected_step", lambda real: _nan_fields(real, *_EXPECTED_NAN)),
    "rk-ls-expected-contraction-wide max_factor": (
        lambda: check_ls_expected_contraction(0, Method.RK, n_problems=1, rows="wide"),
        "envelope_factor", lambda real: lambda *args: np.nan),
    "rpk-ls-expected-tightness max_equality_gap": (
        lambda: check_ls_expected_tightness(0, Method.RPK),
        "exact_expected_step", lambda real: _nan_fields(real, *_EXPECTED_NAN)),
    "adaptive-penalty-slack min_rel_slack": (
        lambda: check_adaptive_slack(0, n_problems=1),
        "adaptive_step_report", lambda real: _nan_fields(real, "slack")),
    "rpk-mc-envelope max_mean_over_envelope": (
        lambda: check_mc_envelope(0, Method.RPK, n_trials=4),
        "monte_carlo_error_curve", lambda real: _nan_fields(real, "means")),
    "lf-step-distance-monotone max_increase": (
        lambda: check_lf_step_distance_monotone(0, count=2),
        "distance_to_feasible", lambda real: lambda *args: np.nan),
    "rpk-lf-expected-decrease min_slack": (
        lambda: check_lf_expected_decrease(0, Method.RPK, n_problems=1),
        "exact_expected_step", lambda real: _nan_fields(real, *_EXPECTED_NAN)),
    "projection-certificates max_violation": (
        lambda: check_projection_certificates(0, count=1),
        "project_polyhedron", lambda real: lambda x, a, b: np.full_like(x, np.nan)),
    "lf-run-feasibility max_final_residual": (
        lambda: check_lf_run_feasibility(0, n_problems=1, iters=100, tol=1.0),
        "residual_of", lambda real: lambda *args: np.nan),
}


@pytest.mark.parametrize("case", sorted(_NAN_MARGINS))
def test_nan_margin_fails_every_property(monkeypatch, case):
    """A NaN that reaches a max, a min or a running minimum fails the
    property and shows in its detail, where max(worst, nan), min(slack,
    nan) and `if nan < min_slack` used to keep the old margin and pass."""
    name, margin = case.split()
    check, target, stand_in = _NAN_MARGINS[case]
    assert check().passed
    monkeypatch.setattr(verify, target, stand_in(getattr(verify, target)))
    res = check()
    assert res.name == name and not res.passed, res.detail
    assert f"{margin}=nan" in res.detail.split(), res.detail
