"""Row selection proportional to squared row norms."""

from __future__ import annotations

import numpy as np

from .linalg import DenseMatrix

# the generator family is part of the run contract: seeded PCG64 streams
RNG_FAMILY = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class RowSampler:
    """Samples row indices with probability ||a_i||^2 / ||A||_F^2.

    Draws map a uniform variate through the cumulative weight array by
    binary search, so the sequence is a deterministic function of the seed.
    """

    def __init__(self, a: DenseMatrix, seed: int):
        if (a.row_norms_sq == 0.0).any():
            raise ValueError("cannot sample rows of a matrix with zero rows")
        p = a.row_norms_sq / a.frobenius_sq
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probabilities = p
        self.cumulative = np.cumsum(p)
        self.seed = seed
        self.rng = make_rng(seed)

    def sample_row(self) -> int:
        u = self.rng.random()
        i = int(np.searchsorted(self.cumulative, u, side="right"))
        return min(i, len(self.cumulative) - 1)

    def sample_rows(self, count: int) -> np.ndarray:
        """Vectorized batch draw; consumes the stream exactly like count
        successive sample_row calls."""
        u = self.rng.random(count)
        idx = np.searchsorted(self.cumulative, u, side="right")
        return np.minimum(idx, len(self.cumulative) - 1)


def build_sampler(a: DenseMatrix, seed: int) -> RowSampler:
    return RowSampler(a, seed)
