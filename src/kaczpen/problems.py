"""Problem instances: equality systems Ax = b and feasibility systems Ax <= b.

Instances carry an optional planted point certifying solvability, and can
be written to and read back from a plain text format that round-trips
float64 values exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_write_text, read_text
from .linalg import DenseMatrix, as_vector

FORMAT_TAG = "kaczmarz-problem"
FORMAT_VERSION = "v1"

# witness tolerance: the planted point must satisfy its system to this level
_PLANT_REL_TOL = 1e-10
# a problem counts as row-normalized when every squared row norm is this
# close to one
_NORMALIZED_TOL = 1e-12


class ProblemFormatError(Exception):
    """A problem file failed to parse or validate; message names the line."""


class ProblemKind(enum.Enum):
    LS = "ls"
    LF = "lf"


@dataclass(frozen=True)
class Problem:
    """A linear system or feasibility instance with cached row geometry; the
    reference values derived from it (x*, the constant L, ...) go through memo."""

    kind: ProblemKind
    a: DenseMatrix
    b: np.ndarray
    x_planted: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = as_vector(self.b, self.a.rows)
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b", b)
        bad = self.a.unusable_row()
        if bad is not None:
            raise ValueError("row %d: %s" % bad)
        if self.x_planted is not None:
            xp = as_vector(self.x_planted, self.a.cols).copy()
            xp.flags.writeable = False
            object.__setattr__(self, "x_planted", xp)
            tol = _PLANT_REL_TOL * (1.0 + float(np.abs(b).max()))
            r = self.a.data @ xp - b
            gap = float(np.abs(r).max()) if self.kind is ProblemKind.LS else float(r.max())
            if gap > tol:
                raise ValueError(
                    f"planted point violates the system by {gap:.3e} (tol {tol:.3e})"
                )

    def memo(self, key, build):
        """build(), called the first time key is asked for and kept on the
        problem (an array read-only, as every caller shares it); a build
        that raises keeps nothing."""
        if key not in self._memo:
            value = self._memo[key] = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self._memo[key]

    @property
    def normalized(self) -> bool:
        """Whether every squared row norm is within _NORMALIZED_TOL of one."""
        return bool(np.abs(self.a.row_norms_sq - 1.0).max() <= _NORMALIZED_TOL)

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols


def generate_consistent_ls(m: int, n: int, seed: int) -> Problem:
    """Random Gaussian system with a planted solution, b = A x_planted."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((m, n))
    xp = rng.standard_normal(n)
    b = a @ xp
    return Problem(kind=ProblemKind.LS, a=DenseMatrix(a), b=b, x_planted=xp)


def generate_feasible_lf(m: int, n: int, seed: int, active_fraction: float) -> Problem:
    """Random Gaussian inequality system feasible at a planted point.

    A ceil(active_fraction * m) subset of rows is tight at the planted
    point; every other row gets a positive slack drawn as |N(0, 1)|.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if not 0.0 <= active_fraction <= 1.0:
        raise ValueError("active_fraction must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((m, n))
    xp = rng.standard_normal(n)
    n_active = int(np.ceil(active_fraction * m))
    active = rng.permutation(m)[:n_active]
    slack = np.abs(rng.standard_normal(m))
    slack[active] = 0.0
    b = a @ xp + slack
    return Problem(kind=ProblemKind.LF, a=DenseMatrix(a), b=b, x_planted=xp)


def normalize_rows(problem: Problem) -> Problem:
    """Scale each row and its bound by 1/||a_i||; the solution set is kept."""
    s = problem.a.row_norms_sq
    norms = np.sqrt(s)
    low = s < 2.0**-1022
    if low.any():
        # a subnormal squared norm has lost digits; scaled exactly by 2^500,
        # such a row's squares are normal, and so is its norm, scaled back
        norms[low] = np.sqrt(((problem.a.data[low] * 2.0**500) ** 2).sum(axis=1)) / 2.0**500
    with np.errstate(over="ignore"):
        b = problem.b / norms
    if not np.isfinite(b).all():
        i = int(np.argmin(np.isfinite(b)))
        raise ValueError(f"row {i}'s normalized bound is beyond the float64 range (max 1.8e308)")
    return Problem(problem.kind, DenseMatrix(problem.a.data / norms[:, None]), b, problem.x_planted)


def save_problem(problem: Problem, path: str) -> None:
    """Write the text form: header, one line per row, optional planted line."""
    lines = [
        f"{FORMAT_TAG} {FORMAT_VERSION} {problem.kind.value} {problem.m} {problem.n}"
    ]
    # each value as format_float writes it, one format string per line
    point_format = " ".join(["%.17g"] * problem.n)
    row_format = point_format + " %.17g"
    lines += [
        row_format % (*row, b_i)
        for row, b_i in zip(problem.a.data.tolist(), problem.b.tolist())
    ]
    if problem.x_planted is not None:
        lines.append("planted " + point_format % tuple(problem.x_planted.tolist()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_floats(tokens: list[str], lineno: int) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ProblemFormatError(f"line {lineno}: {exc}") from None
    if not np.isfinite(vals).all():
        raise ProblemFormatError(f"line {lineno}: non-finite value")
    return vals


def load_problem(path: str) -> Problem:
    """Parse a problem file, validating shape, finiteness, rows and witness."""
    raw = read_text(path, ProblemFormatError).splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise ProblemFormatError("line 1: empty file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 5 or tokens[0] != FORMAT_TAG or tokens[1] != FORMAT_VERSION:
        raise ProblemFormatError(f"line {lineno}: bad header {header!r}")
    try:
        kind = ProblemKind(tokens[2])
    except ValueError:
        raise ProblemFormatError(f"line {lineno}: unknown kind {tokens[2]!r}") from None
    try:
        m, n = int(tokens[3]), int(tokens[4])
    except ValueError:
        raise ProblemFormatError(f"line {lineno}: bad dimensions in header") from None
    if m < 1 or n < 1:
        raise ProblemFormatError(f"line {lineno}: dimensions must be positive")
    if len(lines) < 1 + m:
        raise ProblemFormatError(f"line {lines[-1][0]}: expected {m} data rows")

    # rows are parsed before the matrix is built, so a header cannot make
    # the loader allocate more than the file holds
    rows = []
    for lineno, ln in lines[1 : 1 + m]:
        tokens = ln.split()
        if len(tokens) != n + 1:
            raise ProblemFormatError(
                f"line {lineno}: expected {n + 1} values, got {len(tokens)}"
            )
        rows.append(_parse_floats(tokens, lineno))
    data = np.array(rows)
    a, b = DenseMatrix(data[:, :n]), data[:, n]
    # DenseMatrix.unusable_row, named by its line before the planted line is read
    bad = a.unusable_row()
    if bad is not None:
        raise ProblemFormatError(f"line {lines[1 + bad[0]][0]}: {bad[1]}")

    x_planted = None
    # a Problem check that fails below is the witness check, so it names
    # the planted line
    witness_line = lines[0][0]
    rest = lines[1 + m :]
    if rest:
        lineno, ln = rest[0]
        witness_line = lineno
        tokens = ln.split()
        if tokens[0] != "planted":
            raise ProblemFormatError(f"line {lineno}: unexpected content {ln!r}")
        if len(tokens) != n + 1:
            raise ProblemFormatError(
                f"line {lineno}: planted line needs {n} values, got {len(tokens) - 1}"
            )
        x_planted = _parse_floats(tokens[1:], lineno)
        if len(rest) > 1:
            raise ProblemFormatError(f"line {rest[1][0]}: trailing content")

    try:
        return Problem(kind=kind, a=a, b=b, x_planted=x_planted)
    except ValueError as exc:
        raise ProblemFormatError(f"line {witness_line}: {exc}") from None
