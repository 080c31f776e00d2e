"""The property suites must pass on the real code and fail on broken code."""

import numpy as np
import pytest

import kaczpen.analysis as analysis
import kaczpen.solvers as solvers
import kaczpen.verify as verify
from kaczpen.cli import main
from kaczpen.linalg import ConvergenceError, lambda_min_variants
from kaczpen.projection import _hildreth
from kaczpen.solvers import Method
from kaczpen.verify import (
    SUITES,
    check_ls_expected_contraction,
    check_penalty_limit_matches_rk,
    check_projection_certificates,
    check_rak_ls_dual_identity,
    check_rho_schedule,
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
    monkeypatch.setattr(analysis, "_lambda_min", lambda p: lambda_min_variants(p.a)[0])
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
