"""Reference copies of the steps suite's case-draw code.

_step_cases and _slack_cases below are verbatim copies of the draw loops
that built one problem per 50-case block inside each check and drew every
uniform with rng.uniform; _stack_cases is the stacking they fed.  The tests
require verify's draws, which share one run's block problems among the
equality checks and take each uniform as lo + (hi - lo) * random(), to
give the same cases bit for bit.  A numpy build that computes uniform
differently (say, fusing low + range * u into one FMA) fails them here,
where the cause is plain.
"""

from __future__ import annotations

import numpy as np

from kaczpen.problems import Problem, generate_consistent_ls, generate_feasible_lf, normalize_rows
from kaczpen.sampling import make_rng
from kaczpen.verify import _StepCases

_BLOCK = 50


def _normalized_ls(m: int, n: int, seed: int) -> Problem:
    return normalize_rows(generate_consistent_ls(m, n, seed))


def _normalized_lf(m: int, n: int, seed: int, active_fraction: float) -> Problem:
    return normalize_rows(generate_feasible_lf(m, n, seed, active_fraction))


def _stack_cases(problems: list[Problem], drawn: list[tuple]) -> _StepCases:
    """Stack the drawn (i, x, rho, z) of each case with its row, bound and
    squared norm; a check needs at least one case."""
    if not drawn:
        raise ValueError("count must be positive")
    index, xs, rhos, zs = zip(*drawn)
    blocks = np.arange(len(index)) // _BLOCK

    def pick(per_problem):
        return np.stack(per_problem)[blocks, index]

    return _StepCases(
        problems,
        index,
        pick([p.a.data for p in problems]),
        pick([p.b for p in problems]),
        pick([p.a.row_norms_sq for p in problems]),
        np.array(xs),
        np.array(rhos),
        np.array(zs),
    )


def _step_cases(
    seed: int, count: int, rho_hi: float, arg_floor: float, z_span: float
) -> _StepCases:
    """Draw count equality cases, one 20x10 unit-row problem per _BLOCK.
    Each case draws its row i, rho, z (when z_span > 0) and then x until
    the step argument is bounded away from zero, so relative identity
    checks stay well conditioned."""
    rng = make_rng(seed)
    log_rho_hi = np.log10(rho_hi)
    problems, drawn = [], []
    for t in range(count):
        if t % _BLOCK == 0:
            problem = _normalized_ls(20, 10, seed + 1000 + t)
            problems.append(problem)
            a, b = problem.a.data, problem.b.tolist()
        i = int(rng.integers(problem.m))
        rho = float(10.0 ** rng.uniform(-1.0, log_rho_hi))
        z = float(rng.uniform(-z_span, z_span)) if z_span > 0.0 else 0.0
        for _ in range(200):
            x = rng.standard_normal(problem.n)
            r = float(a[i] @ x) - b[i]
            if abs(r + z / rho) >= arg_floor and abs(r) >= arg_floor:
                break
        drawn.append((i, x, rho, z))
    return _stack_cases(problems, drawn)


def _slack_cases(seed: int, count: int) -> _StepCases:
    """Draw count feasibility cases on slack rows, one 10x6 unit-row
    problem per _BLOCK.  Each case draws its row i, rho, then x near the
    planted point until a_i . x - b_i = r < -1e-3, then z in
    [0, min(1, 0.9 rho |r|)), so that z + rho r < 0."""
    rng = make_rng(seed)
    problems, drawn = [], []
    for t in range(count):
        if t % _BLOCK == 0:
            problem = _normalized_lf(10, 6, seed + 2000 + t, 0.0)
            problems.append(problem)
            a, b = problem.a.data, problem.b.tolist()
        i = int(rng.integers(problem.m))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        for _ in range(200):
            x = problem.x_planted + 0.3 * rng.standard_normal(problem.n)
            r = float(a[i] @ x) - b[i]
            if r < -1e-3:
                break
        z = float(rng.uniform(0.0, min(1.0, -r * rho * 0.9)))
        drawn.append((i, x, rho, z))
    return _stack_cases(problems, drawn)
