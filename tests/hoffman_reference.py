"""Reference copy of the exhaustive Hoffman-constant estimate.

reference_hoffman_estimate is the loop analysis.hoffman_estimate ran
before it became a bounded search: it projects every contributing sample
in draw order and keeps the largest ratio.  The tests require the search
to return the same value and contributing count bit for bit.
"""

from __future__ import annotations

import numpy as np

from kaczpen.analysis import HoffmanEstimate, NoEstimateError, hoffman_ball
from kaczpen.problems import Problem, ProblemKind
from kaczpen.projection import distance_to_feasible
from kaczpen.sampling import make_rng


def reference_hoffman_estimate(
    problem: Problem, n_samples: int, radius: float, seed: int
) -> HoffmanEstimate:
    if problem.kind is not ProblemKind.LF:
        raise ValueError("hoffman_estimate needs a feasibility problem")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center, _ = hoffman_ball(problem)
    rng = make_rng(seed)
    n = problem.n
    b_scale = 1.0 + float(np.abs(problem.b).max())
    best = 0.0
    contributing = 0
    for _ in range(n_samples):
        direction = rng.standard_normal(n)
        u = rng.random()
        norm = float(np.sqrt(direction @ direction))
        if norm == 0.0:
            continue
        point = center + radius * u ** (1.0 / n) * direction / norm
        r_plus = np.maximum(problem.a.data @ point - problem.b, 0.0)
        r_norm = float(np.sqrt(r_plus @ r_plus))
        if r_norm <= 1e-12 * b_scale:
            continue
        ratio = distance_to_feasible(point, problem) / r_norm
        contributing += 1
        if ratio > best:
            best = ratio
    if contributing == 0:
        raise NoEstimateError(
            f"all {n_samples} sampled points were feasible; grow the radius"
        )
    return HoffmanEstimate(value=best, n_contributing=contributing, n_samples=n_samples)
