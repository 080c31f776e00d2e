"""Row sampler distribution and determinism checks."""

import numpy as np
import pytest

from kaczpen.linalg import DenseMatrix
from kaczpen.problems import generate_consistent_ls, normalize_rows
from kaczpen.sampling import RNG_FAMILY, RowSampler, build_sampler, make_rng


def test_rng_family_recorded():
    assert RNG_FAMILY == "pcg64"


def test_make_rng_deterministic():
    assert make_rng(7).random() == make_rng(7).random()


def test_probabilities_from_row_norms():
    a = DenseMatrix(np.array([[1.0, 0.0], [1.0, np.sqrt(2.0)]]))
    s = RowSampler(a, seed=0)
    np.testing.assert_allclose(s.distribution.probabilities, [0.25, 0.75], atol=1e-15)
    np.testing.assert_allclose(s.distribution.cumulative, [0.25, 1.0], atol=1e-15)


def test_probabilities_uniform_after_normalization():
    p = normalize_rows(generate_consistent_ls(8, 5, seed=1))
    s = RowSampler(p.a, seed=0)
    np.testing.assert_allclose(s.distribution.probabilities, np.full(8, 0.125), atol=1e-14)


def test_single_row_always_zero():
    s = RowSampler(DenseMatrix(np.array([[2.0, 1.0]])), seed=3)
    for _ in range(50):
        assert s.sample_row() == 0


def test_sampler_rejects_zero_row():
    with pytest.raises(ValueError):
        RowSampler(DenseMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])), seed=0)


def test_draw_sequence_deterministic():
    a = generate_consistent_ls(6, 4, seed=5).a
    s1 = build_sampler(a, seed=11)
    s2 = build_sampler(a, seed=11)
    seq1 = [s1.sample_row() for _ in range(200)]
    seq2 = [s2.sample_row() for _ in range(200)]
    assert seq1 == seq2


def test_batch_matches_sequential_stream():
    a = generate_consistent_ls(9, 3, seed=6).a
    s1 = build_sampler(a, seed=4)
    s2 = build_sampler(a, seed=4)
    batch = s1.sample_rows(300)
    seq = np.array([s2.sample_row() for _ in range(300)])
    assert np.array_equal(batch, seq)


def test_empirical_frequency_matches_weights():
    """Heavy row with p = 0.75 should land in [0.74, 0.76] over 1e5 draws."""
    a = DenseMatrix(np.array([[1.0, 0.0], [1.0, np.sqrt(2.0)]]))
    s = RowSampler(a, seed=2024)
    draws = s.sample_rows(100_000)
    freq = np.mean(draws == 1)
    assert 0.74 <= freq <= 0.76


def test_empirical_frequency_random_matrix():
    """4-sigma band per index on a larger random instance."""
    a = generate_consistent_ls(20, 7, seed=3).a
    s = RowSampler(a, seed=77)
    n_draws = 1_000_000
    draws = s.sample_rows(n_draws)
    counts = np.bincount(draws, minlength=20) / n_draws
    p = s.distribution.probabilities
    band = 4.0 * np.sqrt(p * (1 - p) / n_draws)
    assert np.all(np.abs(counts - p) <= band)


def test_all_indices_in_range():
    a = generate_consistent_ls(5, 2, seed=8).a
    s = RowSampler(a, seed=0)
    draws = s.sample_rows(10_000)
    assert draws.min() >= 0 and draws.max() <= 4
