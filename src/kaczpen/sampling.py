"""Row selection proportional to squared row norms.

A matrix's row distribution, p_i = ||a_i||^2 / ||A||_F^2, is built once
per run (RowDistribution) and maps uniform variates to rows by binary
search through its cumulative weights.  A RowSampler is one seeded PCG64
stream drawing from it; a Monte Carlo curve keeps one stream per trial
and maps all of their uniforms through the one distribution at once.
"""

from __future__ import annotations

import numpy as np

from .linalg import DenseMatrix

# the generator family is part of the run contract: seeded PCG64 streams
RNG_FAMILY = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class RowDistribution:
    """The sampling weights p_i = ||a_i||^2 / ||A||_F^2 of a matrix's rows
    (probabilities) and their cumulative sums (cumulative)."""

    def __init__(self, a: DenseMatrix):
        bad = a.unusable_row()
        if bad is not None:
            raise ValueError("row %d: %s" % bad)
        p = a.row_norms_sq / a.frobenius_sq
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probabilities = p
        self.cumulative = np.cumsum(p)

    def rows(self, u):
        """The rows that uniform variates u (a float or an array of any
        shape) select: the first i with cumulative[i] > u, clamped to the
        last row, where rounding leaves cumulative[-1] just below 1."""
        idx = np.searchsorted(self.cumulative, u, side="right")
        return np.minimum(idx, len(self.cumulative) - 1)


class RowSampler:
    """Samples row indices with probability ||a_i||^2 / ||A||_F^2.

    Draws map a uniform variate through the distribution's cumulative
    weights, so the sequence is a deterministic function of the seed.
    """

    def __init__(self, a: DenseMatrix, seed: int):
        self.distribution = RowDistribution(a)
        self.seed = seed
        self.rng = make_rng(seed)

    def sample_row(self) -> int:
        return int(self.distribution.rows(self.rng.random()))

    def sample_rows(self, count: int) -> np.ndarray:
        """Vectorized batch draw; consumes the stream exactly like count
        successive sample_row calls."""
        return self.distribution.rows(self.rng.random(count))


def build_sampler(a: DenseMatrix, seed: int) -> RowSampler:
    return RowSampler(a, seed)
