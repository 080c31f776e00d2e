"""The property suites must pass on the real code and fail on broken code."""

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
    check_lf_inactive_noop,
    check_ls_expected_contraction,
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
