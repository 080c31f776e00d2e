"""The exact least-distance projector: agreement with Hildreth's sweeps,
fixed points, degenerate active sets, and the Hildreth fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpen import projection
from kaczpen.linalg import DenseMatrix
from kaczpen.problems import generate_feasible_lf
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


def test_degenerate_duplicate_and_parallel_rows_certified(monkeypatch):
    """Duplicate and positively scaled rows, m > n, every row tight at the
    planted point: the exact path certifies without the fallback."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 3))
    rows = np.vstack([base, base[0], base[1], 2.0 * base[2], 0.5 * base[0], base[3]])
    xp = rng.standard_normal(3)
    a = DenseMatrix(rows)
    b = rows @ xp

    def no_fallback(*args):
        raise AssertionError("the Hildreth fallback ran")

    monkeypatch.setattr(projection, "_hildreth", no_fallback)
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


def test_far_point_on_degenerate_vertex_needs_no_fallback(monkeypatch):
    """A point at distance ~200 from a vertex where 90 of 300 rows meet in
    50 dimensions.  The Gram run ends about 1e-4 infeasible here; the QR
    rerun certifies, so Hildreth's sweeps are not needed."""
    p = generate_feasible_lf(300, 50, seed=2, active_fraction=0.3)
    x = p.x_planted + 30.0 * np.random.default_rng(2).standard_normal((16, 50))[-1]

    def no_fallback(*args):
        raise AssertionError("the Hildreth fallback ran")

    monkeypatch.setattr(projection, "_hildreth", no_fallback)
    y = project_polyhedron(x, p.a, p.b)
    assert _certificate_error(p.a, p.b, *_least_distance(x, p.a, p.b, True)) is None
    assert np.array_equal(y, _least_distance(x, p.a, p.b, True)[0])


def test_qr_rerun_when_gram_uncertified(monkeypatch):
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)
    runs = []

    def gram_gives_up(x, a, b, use_qr=False):
        runs.append(use_qr)
        return _least_distance(x, a, b, True) if use_qr else None

    def no_fallback(*args):
        raise AssertionError("the Hildreth fallback ran")

    monkeypatch.setattr(projection, "_least_distance", gram_gives_up)
    monkeypatch.setattr(projection, "_hildreth", no_fallback)
    y = project_polyhedron(x, p.a, p.b)
    assert runs == [False, True]
    assert np.array_equal(y, _least_distance(x, p.a, p.b, True)[0])


@pytest.mark.parametrize("exact", ["gives up", "uncertified"])
def test_hildreth_fallback(monkeypatch, exact):
    p = generate_feasible_lf(12, 6, seed=2, active_fraction=0.3)
    x = p.x_planted + 2.0 * np.random.default_rng(2).standard_normal(6)
    calls = []

    def counted(*args):
        calls.append(args)
        return _hildreth(*args)

    def broken(x, a, b, use_qr=False):
        # "uncertified": the point itself, which is infeasible here
        return None if exact == "gives up" else (x.copy(), np.zeros(a.rows))

    assert _certificate_error(p.a, p.b, x, np.zeros(p.m)) is not None
    monkeypatch.setattr(projection, "_least_distance", broken)
    monkeypatch.setattr(projection, "_hildreth", counted)
    y = project_polyhedron(x, p.a, p.b)
    assert len(calls) == 1
    y_ref, lam_ref, _ = _hildreth(x, p.a, p.b, 1e-12, 100_000)
    assert np.array_equal(y, y_ref)
    _assert_kkt(x, p.a, p.b, y, lam_ref)
    monkeypatch.undo()
    assert np.abs(y - project_polyhedron(x, p.a, p.b)).max() <= 1e-8
