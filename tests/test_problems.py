"""Problem construction, generators, normalization, and the text format."""

import numpy as np
import pytest

from kaczpen.cli import main
from kaczpen.linalg import DenseMatrix
from kaczpen.projection import project_polyhedron
from kaczpen.problems import (
    Problem,
    ProblemFormatError,
    ProblemKind,
    generate_consistent_ls,
    generate_feasible_lf,
    load_problem,
    normalize_rows,
    save_problem,
)
from kaczpen.sampling import RowDistribution, RowSampler


# ---------------------------------------------------------------------------
# Problem validation


def test_problem_rejects_zero_row():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])[0:1])
    Problem(kind=ProblemKind.LS, a=a, b=np.array([1.0]))  # fine
    with pytest.raises(ValueError, match="row 1"):
        Problem(
            kind=ProblemKind.LS,
            a=DenseMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])),
            b=np.zeros(2),
        )


def test_problem_checks_planted_witness_ls():
    a = DenseMatrix(np.array([[1.0, 0.0]]))
    Problem(kind=ProblemKind.LS, a=a, b=np.array([2.0]), x_planted=np.array([2.0, 9.0]))
    with pytest.raises(ValueError, match="planted"):
        Problem(
            kind=ProblemKind.LS, a=a, b=np.array([2.0]), x_planted=np.array([3.0, 0.0])
        )


def test_problem_checks_planted_witness_lf():
    a = DenseMatrix(np.array([[1.0, 0.0]]))
    # strict slack is fine for LF (only one-sided)
    Problem(kind=ProblemKind.LF, a=a, b=np.array([2.0]), x_planted=np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="planted"):
        Problem(
            kind=ProblemKind.LF, a=a, b=np.array([2.0]), x_planted=np.array([3.0, 0.0])
        )


def test_problem_checks_normalized_flag():
    """normalized is read from the rows, so it cannot disagree with them."""
    def problem(rows):
        return Problem(kind=ProblemKind.LS, a=DenseMatrix(np.array(rows)), b=np.ones(len(rows)))

    assert not problem([[3.0, 4.0]]).normalized
    assert problem([[0.6, 0.8], [1.0, 0.0]]).normalized
    assert not problem([[1.0, 0.0], [np.sqrt(1.0 + 1e-11), 0.0]]).normalized
    with pytest.raises(TypeError):
        Problem(kind=ProblemKind.LS, a=DenseMatrix(np.eye(1)), b=np.ones(1), normalized=True)


def test_problem_b_length_checked():
    a = DenseMatrix(np.eye(2))
    with pytest.raises(ValueError):
        Problem(kind=ProblemKind.LS, a=a, b=np.array([1.0]))


# ---------------------------------------------------------------------------
# Generators


def test_generate_ls_planted_is_exact():
    p = generate_consistent_ls(8, 5, seed=0)
    assert p.kind is ProblemKind.LS
    assert (p.m, p.n) == (8, 5)
    r = p.a.data @ p.x_planted - p.b
    assert np.abs(r).max() <= 1e-10 * (1 + np.abs(p.b).max())


def test_generate_ls_deterministic():
    p1 = generate_consistent_ls(6, 4, seed=42)
    p2 = generate_consistent_ls(6, 4, seed=42)
    assert np.array_equal(p1.a.data, p2.a.data)
    assert np.array_equal(p1.b, p2.b)
    assert np.array_equal(p1.x_planted, p2.x_planted)


def test_generate_ls_seed_changes_instance():
    p1 = generate_consistent_ls(6, 4, seed=1)
    p2 = generate_consistent_ls(6, 4, seed=2)
    assert not np.array_equal(p1.a.data, p2.a.data)


def test_generate_lf_active_count():
    p = generate_feasible_lf(10, 5, seed=3, active_fraction=0.5)
    slack = p.b - p.a.data @ p.x_planted
    assert np.count_nonzero(slack == 0.0) == 5
    assert np.all(slack >= 0)


def test_generate_lf_zero_fraction_strict_slack():
    p = generate_feasible_lf(12, 4, seed=9, active_fraction=0.0)
    slack = p.b - p.a.data @ p.x_planted
    assert slack.min() > 0


def test_generate_lf_full_fraction_all_tight():
    p = generate_feasible_lf(7, 3, seed=11, active_fraction=1.0)
    slack = p.b - p.a.data @ p.x_planted
    assert np.abs(slack).max() == 0.0


def test_generate_lf_fraction_out_of_range():
    with pytest.raises(ValueError):
        generate_feasible_lf(4, 2, seed=0, active_fraction=1.5)
    with pytest.raises(ValueError):
        generate_feasible_lf(4, 2, seed=0, active_fraction=-0.1)


def test_generate_rejects_empty_shapes():
    with pytest.raises(ValueError):
        generate_consistent_ls(0, 3, seed=0)
    with pytest.raises(ValueError):
        generate_feasible_lf(3, 0, seed=0, active_fraction=0.0)


# ---------------------------------------------------------------------------
# normalize_rows


def test_normalize_rows_known_values():
    p = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(np.array([[3.0, 4.0]])),
        b=np.array([10.0]),
    )
    q = normalize_rows(p)
    np.testing.assert_allclose(q.a.data, [[0.6, 0.8]], atol=1e-15)
    np.testing.assert_allclose(q.b, [2.0], atol=1e-15)
    assert q.normalized


def test_normalize_rows_unit_norms():
    p = generate_consistent_ls(9, 6, seed=4)
    q = normalize_rows(p)
    assert np.abs(q.a.row_norms_sq - 1.0).max() <= 1e-12


def test_normalize_rows_idempotent_to_rounding():
    p = generate_consistent_ls(5, 3, seed=8)
    q = normalize_rows(p)
    q2 = normalize_rows(q)
    assert np.abs(q2.a.data - q.a.data).max() <= 1e-15


def test_normalize_rows_preserves_membership():
    """sign(a_i.x - b_i) is unchanged row by row for random points."""
    rng = np.random.default_rng(31)
    p = generate_feasible_lf(8, 4, seed=2, active_fraction=0.25)
    q = normalize_rows(p)
    for _ in range(100):
        x = rng.standard_normal(4) * 3
        before = np.sign(p.a.data @ x - p.b)
        after = np.sign(q.a.data @ x - q.b)
        # tiny magnitudes may flip sign under scaling; ignore those
        mask = np.abs(p.a.data @ x - p.b) > 1e-12
        assert np.array_equal(before[mask], after[mask])


def test_normalize_rows_matches_plain_division():
    """Rows whose squared norm is normal normalize to the bits of
    a_i / ||a_i|| and b_i / ||a_i||."""
    for seed in range(10):
        for p in (
            generate_consistent_ls(9, 6, seed=seed),
            generate_feasible_lf(6, 9, seed=seed, active_fraction=0.3),
        ):
            norms = np.sqrt(p.a.row_norms_sq)
            q = normalize_rows(p)
            assert np.array_equal(q.a.data, p.a.data / norms[:, None])
            assert np.array_equal(q.b, p.b / norms)


def test_normalize_rows_subnormal_squared_norm():
    """A row whose squared norm is subnormal (1e-320) still comes out with
    unit norm; dividing by the rounded norm left it at 1.0000111."""
    p = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(np.array([[1e-160, 0.0], [0.0, 1.0]])),
        b=np.array([1.0, 1.0]),
    )
    q = normalize_rows(p)
    assert np.array_equal(q.a.row_norms_sq, [1.0, 1.0])
    assert q.normalized


@pytest.mark.parametrize("row, b", [([0.25] * 16, 1.7e308), ([4.0], 1e308)])
def test_normalize_rows_large_bound_in_range(row, b):
    """Bounds near the float64 limit whose normalized value is in range
    normalize; only a bound past the range is refused."""
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix([row]), b=np.array([b]))
    assert normalize_rows(p).b[0] == b / np.sqrt(p.a.row_norms_sq[0])


@pytest.mark.filterwarnings("error")
def test_normalize_rows_bound_beyond_float_range():
    """A bound that normalizes past 1.8e308 is a ValueError naming the
    range, raised without a numpy overflow warning first."""
    p = Problem(kind=ProblemKind.LF, a=DenseMatrix([[1e-160]]), b=np.array([-1e300]))
    with pytest.raises(ValueError, match="float64 range"):
        normalize_rows(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(
            [[1.2e154, 0.0], [1.2e154, 1.0]],
            "row 1: the sum of squared row norms is beyond the float64 range",
            id="rows0",
        ),
        pytest.param([[1e200, 1.0]], "row 0: squared row norm overflows", id="rows1"),
    ],
)
def test_problem_refuses_squared_norms_beyond_float_range(rows, message):
    """A matrix built in code whose sum of squared row norms (or one squared
    norm) overflows is refused by name at construction, with no numpy
    overflow warning, instead of failing later in the row sampler."""
    with pytest.raises(ValueError, match=message):
        Problem(kind=ProblemKind.LS, a=DenseMatrix(rows), b=np.ones(len(rows)))


def test_normalize_rows_keeps_planted():
    p = generate_feasible_lf(6, 3, seed=5, active_fraction=0.5)
    q = normalize_rows(p)
    assert np.array_equal(q.x_planted, p.x_planted)


# ---------------------------------------------------------------------------
# save / load round trip


def test_save_load_round_trip_bits(tmp_path):
    p = generate_consistent_ls(7, 4, seed=13)
    path = str(tmp_path / "p.txt")
    save_problem(p, path)
    q = load_problem(path)
    assert q.kind is p.kind
    assert np.array_equal(q.a.data, p.a.data)
    assert np.array_equal(q.b, p.b)
    assert np.array_equal(q.x_planted, p.x_planted)


def test_save_load_lf_round_trip(tmp_path):
    p = generate_feasible_lf(5, 3, seed=21, active_fraction=0.4)
    path = str(tmp_path / "p.txt")
    save_problem(p, path)
    q = load_problem(path)
    assert q.kind is ProblemKind.LF
    assert np.array_equal(q.a.data, p.a.data)
    assert np.array_equal(q.b, p.b)


def test_save_load_without_planted(tmp_path):
    p = Problem(
        kind=ProblemKind.LS, a=DenseMatrix(np.eye(2)), b=np.array([1.0, 2.0])
    )
    path = str(tmp_path / "p.txt")
    save_problem(p, path)
    q = load_problem(path)
    assert q.x_planted is None


def test_load_detects_normalized_rows(tmp_path):
    p = normalize_rows(generate_consistent_ls(4, 3, seed=2))
    path = str(tmp_path / "p.txt")
    save_problem(p, path)
    q = load_problem(path)
    assert q.normalized


def test_load_header_format(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("not-a-problem v1 ls 1 1\n1 1\n")
    with pytest.raises(ProblemFormatError, match="line 1"):
        load_problem(str(path))


def test_load_bad_kind(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 qs 1 1\n1 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(path))


def test_load_wrong_row_count(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 2 1\n1 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(path))


def test_load_wrong_column_count(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 1 2\n1 1\n")
    with pytest.raises(ProblemFormatError, match="line 2"):
        load_problem(str(path))


def test_load_non_numeric_entry(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 1 1\n1 abc\n")
    with pytest.raises(ProblemFormatError, match="line 2"):
        load_problem(str(path))


def test_load_zero_row_named_line(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 2 2\n1 0 1\n0 0 1\n")
    with pytest.raises(ProblemFormatError, match="line 3"):
        load_problem(str(path))


def test_load_bad_planted_line(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 1 2\n1 0 1\nplanted 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(path))


def test_load_inconsistent_planted(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 1 2\n1 0 1\nplanted 5 0\n")
    with pytest.raises(ProblemFormatError, match="line 3: planted point violates"):
        load_problem(str(path))


def test_load_row_norm_overflow_named_line(tmp_path):
    """Entries that are finite but whose squared norm overflows would make
    the sampling weights nan; the loader names the row instead.  A nonzero
    row whose squared norm underflows to 0 is named as such, not as a zero
    row, and the command line exits 3."""
    path = tmp_path / "p.txt"
    path.write_text("kaczmarz-problem v1 ls 2 2\n1 0 1\n1e200 1e200 1\n")
    with pytest.raises(ProblemFormatError, match="line 3: squared row norm overflows"):
        load_problem(str(path))
    path.write_text("kaczmarz-problem v1 ls 2 2\n1 0 1\n1e-200 0 1\n")
    with pytest.raises(ProblemFormatError, match="line 3: squared row norm underflows"):
        load_problem(str(path))
    assert main(["solve", str(path), "--method", "rk", "--iters", "1"]) == 3


# each unusable row: the matrix's rows, the row named and the reason
_UNUSABLE = {
    "zero": ([[1.0, 0.0], [0.0, 0.0]], 1, "row is identically zero"),
    "underflow": ([[1.0, 0.0], [1e-200, 0.0]], 1, "squared row norm underflows to 0"),
    "underflow-first": ([[1e-200, 0.0], [0.0, 1.0]], 0, "squared row norm underflows to 0"),
    "overflow": ([[1.0, 0.0], [1e200, 1e200]], 1, "squared row norm overflows"),
    # not the sum: the row's own squared norm overflows first
    "overflow-first": ([[1e155, 0.0], [0.0, 1.0]], 0, "squared row norm overflows"),
    "sum": (
        [[8.4e153, 0.0], [8.4e153, 1.0], [8.4e153, 2.0]],
        2,
        "the sum of squared row norms is beyond the float64 range (max 1.8e308)",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", sorted(_UNUSABLE))
def test_unusable_row_one_rule(tmp_path, fault):
    """The loader and the library refuse an unusable row with one reason:
    the file names its line, Problem, RowDistribution, RowSampler and
    project_polyhedron name its row, and no numpy warning comes first (the
    sampler forms no nan weights, the projection runs no NNLS)."""
    rows, i, reason = _UNUSABLE[fault]
    a = DenseMatrix(rows)
    m = len(rows)
    body = "".join(f"{r[0]!r} {r[1]!r} 1\n" for r in rows)
    path = tmp_path / "p.txt"
    path.write_text(f"kaczmarz-problem v1 lf {m} 2\n{body}")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == f"line {i + 2}: {reason}"
    # the row is named before a bad planted line
    path.write_text(f"kaczmarz-problem v1 lf {m} 2\n{body}planted 1\n")
    with pytest.raises(ProblemFormatError, match=f"^line {i + 2}: "):
        load_problem(str(path))
    refusals = [
        lambda: Problem(kind=ProblemKind.LF, a=a, b=np.ones(m)),
        lambda: RowDistribution(a),
        lambda: RowSampler(a, 0),
        lambda: project_polyhedron(np.ones(2), a, np.zeros(m)),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError) as exc:
            refuse()
        assert str(exc.value) == f"row {i}: {reason}"
    assert a.unusable_row() == (i, reason)


def test_usable_rows_pass_the_rule():
    """Rows whose squares are subnormal, or whose squared norms sum to just
    below the float64 maximum, are usable."""
    assert DenseMatrix([[1e-160, 0.0], [0.0, 1.0]]).unusable_row() is None
    assert DenseMatrix([[8.4e153, 0.0], [8.4e153, 1.0]]).unusable_row() is None


def test_save_writes_17_digit_floats(tmp_path):
    value = 1.0 / 3.0
    p = Problem(
        kind=ProblemKind.LS,
        a=DenseMatrix(np.array([[value]])),
        b=np.array([value]),
    )
    path = str(tmp_path / "p.txt")
    save_problem(p, path)
    q = load_problem(path)
    assert q.a.data[0, 0] == value
    assert q.b[0] == value
