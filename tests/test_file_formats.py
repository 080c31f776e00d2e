"""Property tests over problem and trace files: exact round trips, and
malformed input through the command line always ends in exit 3 with a
message that names the offending line, never in a traceback."""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpen.cli import main
from kaczpen.fileio import format_float
from kaczpen.linalg import DenseMatrix
from kaczpen.problems import (
    Problem,
    ProblemFormatError,
    ProblemKind,
    load_problem,
    save_problem,
)
from kaczpen.traces import TraceRecord, parse_trace_csv, render_trace_csv, write_trace_csv

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# magnitudes kept away from the overflow and underflow of squared norms
entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


@st.composite
def problems(draw, max_m=4, max_n=4):
    """Small problems with m <= n, whose generic rows make every right-hand
    side consistent (ls) or feasible (lf)."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, min(n, max_m)))
    a = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    for i in range(m):
        if not a[i].any():
            a[i, i % n] = 1.0
    x_planted = None
    if draw(st.booleans()):
        x_planted = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
        b = a @ x_planted
        if kind is ProblemKind.LF:
            b = b + np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    else:
        b = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    return Problem(kind=kind, a=DenseMatrix(a), b=b, x_planted=x_planted)


def _bits(v):
    return None if v is None else np.asarray(v).tobytes()


@SETTINGS
@given(problem=problems(max_m=6, max_n=6))
def test_problem_round_trip_is_exact(tmp_path_factory, problem):
    path = str(tmp_path_factory.mktemp("rt") / "p.txt")
    save_problem(problem, path)
    back = load_problem(path)
    assert back.kind is problem.kind
    assert _bits(back.a.data) == _bits(problem.a.data)
    assert _bits(back.b) == _bits(problem.b)
    assert _bits(back.x_planted) == _bits(problem.x_planted)


def _per_value_text(problem) -> str:
    """The problem file as written with one format_float call per value."""
    lines = [f"kaczmarz-problem v1 {problem.kind.value} {problem.m} {problem.n}"]
    for row, b_i in zip(problem.a.data, problem.b):
        lines.append(" ".join([format_float(v) for v in row] + [format_float(b_i)]))
    if problem.x_planted is not None:
        lines.append("planted " + " ".join(format_float(v) for v in problem.x_planted))
    return "\n".join(lines) + "\n"


def test_save_problem_matches_per_value_format_float(tmp_path):
    """One format string per line writes the same bytes as format_float on
    every value: signed zeros, subnormals and the largest float."""
    tiny, big = 5e-324, 1.7976931348623157e308
    rows = [[-0.0, tiny, 1.0], [1e154, -2.2250738585072014e-308, 1.0 / 3.0]]
    problem = Problem(ProblemKind.LF, DenseMatrix(rows), [-0.0, big], [0.0, -0.0, tiny])
    path = tmp_path / "p.txt"
    save_problem(problem, str(path))
    assert path.read_text() == _per_value_text(problem)


@SETTINGS
@given(problem=problems(max_m=6, max_n=6))
def test_save_problem_writes_format_float_values(tmp_path_factory, problem):
    path = tmp_path_factory.mktemp("fmt") / "p.txt"
    save_problem(problem, str(path))
    assert path.read_text() == _per_value_text(problem)


finite = st.floats(allow_nan=False, allow_infinity=False)
records = st.builds(
    TraceRecord,
    k=st.integers(0, 10**6),
    row=st.integers(-1, 10**6),
    rho=finite,
    error_sq=finite,
    residual=finite,
    z=finite,
    lyapunov=finite,
    fresh=st.booleans(),
)


@SETTINGS
@given(recs=st.lists(records, min_size=1, max_size=8))
def test_trace_round_trip_is_exact(tmp_path_factory, recs):
    path = str(tmp_path_factory.mktemp("rt") / "t.csv")
    write_trace_csv(recs, path)
    back = parse_trace_csv(path)
    assert back == recs
    assert [_bits([r.rho, r.error_sq, r.residual, r.z, r.lyapunov]) for r in back] == [
        _bits([r.rho, r.error_sq, r.residual, r.z, r.lyapunov]) for r in recs
    ]


# ---------------------------------------------------------------------------
# malformed input through the command line


def _problem_text(problem, tmp_dir) -> str:
    path = str(tmp_dir / "valid.txt")
    save_problem(problem, path)
    with open(path) as fh:
        return fh.read()


def _run(argv):
    """Exit code and stderr of one command; an exception escaping main
    (a traceback at the command line) fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _solve(tmp_dir, data: bytes):
    path = tmp_dir / "p.txt"
    path.write_bytes(data)
    return _run(["solve", str(path), "--method", "rk", "--iters", "2"])


def _plot(tmp_dir, data: bytes):
    path = tmp_dir / "t.csv"
    path.write_bytes(data)
    return _run(["plot", str(path), "-o", str(tmp_dir / "t.svg")])


def _named_line(err: str) -> int:
    found = re.search(r"line (\d+)", err)
    assert found, err
    return int(found.group(1))


def _mutate_tokens(draw, text: str, sep: str, token_mutation: str):
    """Apply one token-level mutation to a drawn line; returns the new text
    and the 1-based number of the line changed."""
    lines = text.split("\n")[:-1]
    lineno = draw(st.integers(1, len(lines)))
    tokens = lines[lineno - 1].split(sep)
    pos = draw(st.integers(0, len(tokens) - 1))
    if token_mutation == "extra":
        tokens.insert(pos, draw(st.sampled_from(["0", "1.5", "-2e3"])))
    elif token_mutation == "missing":
        del tokens[pos]
    else:
        tokens[pos] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e400", "NaN"]))
    lines[lineno - 1] = sep.join(tokens)
    return "\n".join(lines) + "\n", lineno


def _bad_utf8(draw, text: str):
    """Insert bytes that are not UTF-8; returns the data and their line."""
    data = text.encode()
    pos = draw(st.integers(0, len(data)))
    bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xfe\xfe"]))
    return data[:pos] + bad + data[pos:], data[:pos].count(b"\n") + 1


@SETTINGS
@given(
    problem=problems(),
    mutation=st.sampled_from(["extra", "missing", "nonfinite", "utf8"]),
    data=st.data(),
)
def test_malformed_problem_names_the_line(tmp_path_factory, problem, mutation, data):
    tmp_dir = tmp_path_factory.mktemp("bad")
    text = _problem_text(problem, tmp_dir)
    if mutation == "utf8":
        raw, lineno = _bad_utf8(data.draw, text)
    else:
        mutated, lineno = _mutate_tokens(data.draw, text, " ", mutation)
        raw = mutated.encode()
    code, err = _solve(tmp_dir, raw)
    assert code == 3, err
    assert _named_line(err) == lineno


@SETTINGS
@given(
    problem=problems(),
    field=st.sampled_from([3, 4]),
    value=st.one_of(
        st.integers(-(10**12), 0),
        st.integers(5, 10**30),
        st.sampled_from(["99999999999", "1e3", "nan", "-0", "x"]),
    ),
)
def test_bad_problem_dimensions_exit_3(tmp_path_factory, problem, field, value):
    tmp_dir = tmp_path_factory.mktemp("dims")
    lines = _problem_text(problem, tmp_dir).split("\n")
    header = lines[0].split()
    header[field] = str(value)
    lines[0] = " ".join(header)
    code, err = _solve(tmp_dir, "\n".join(lines).encode())
    assert code == 3, err
    assert _named_line(err) >= 1


@SETTINGS
@given(problem=problems(), data=st.data())
def test_truncated_problem_loads_or_names_the_line(tmp_path_factory, problem, data):
    tmp_dir = tmp_path_factory.mktemp("cut")
    raw = _problem_text(problem, tmp_dir).encode()
    cut = raw[: data.draw(st.integers(0, len(raw) - 1))]
    code, err = _solve(tmp_dir, cut)
    try:
        # cutting off the planted line, or digits of the last value,
        # can leave a well-formed file
        load_problem(str(tmp_dir / "p.txt"))
    except ProblemFormatError:
        assert code == 3, err
        assert 1 <= _named_line(err) <= cut.count(b"\n") + 1
    else:
        assert code in (0, 3), err


@SETTINGS
@given(
    recs=st.lists(records.filter(lambda r: abs(r.error_sq) < 1e100), min_size=1, max_size=5),
    mutation=st.sampled_from(["extra", "missing", "nonfinite", "utf8", "cut"]),
    data=st.data(),
)
def test_malformed_trace_names_the_line(tmp_path_factory, recs, mutation, data):
    tmp_dir = tmp_path_factory.mktemp("trace")
    text = render_trace_csv(recs)
    if mutation == "cut":
        raw = text.encode()[: data.draw(st.integers(0, len(text) - 1))]
        code, err = _plot(tmp_dir, raw)
        assert code in (0, 3), err
        if code == 3:
            assert 1 <= _named_line(err) <= raw.count(b"\n") + 1
        return
    if mutation == "utf8":
        raw, lineno = _bad_utf8(data.draw, text)
    else:
        mutated, lineno = _mutate_tokens(data.draw, text, ",", mutation)
        raw = mutated.encode()
    code, err = _plot(tmp_dir, raw)
    assert code == 3, err
    assert _named_line(err) == lineno


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_trace_with_non_finite_value_exits_3(tmp_path, token):
    rec = TraceRecord(k=0, row=-1, rho=1.0, error_sq=2.0, residual=1.0, z=0.0, lyapunov=2.0)
    text = render_trace_csv([rec, rec]).replace("2,1,0,2,1\n", f"{token},1,0,2,1\n", 1)
    code, err = _plot(tmp_path, text.encode())
    assert code == 3
    assert "line 2: non-finite value" in err


@pytest.mark.parametrize(
    "values, log_y",
    [([1e308, -1e308], False), ([1e308, -1e308], True), ([1e300, 1.5e308], True)],
)
def test_plot_value_range_that_overflows_exits_3(tmp_path, values, log_y):
    """Finite error_sq values near the float limit are a well-formed trace,
    but the width of their linear axis, or the top decade of their log axis
    (-1e308 is clamped to 1e308 there), overflows; plot names the axis and
    exits 3 instead of raising OverflowError."""
    recs = [
        TraceRecord(k=k, row=k - 1, rho=1.0, error_sq=e, residual=1.0, z=0.0, lyapunov=1.0)
        for k, e in enumerate(values)
    ]
    path = tmp_path / "t.csv"
    path.write_text(render_trace_csv(recs))
    argv = ["plot", str(path), "-o", str(tmp_path / "t.svg")] + (["--log-y"] if log_y else [])
    code, err = _run(argv)
    assert code == 3, err
    assert ("log axis" if log_y else "linear axis") in err
    assert not (tmp_path / "t.svg").exists()


def test_plot_iteration_number_beyond_float_range_exits_3(tmp_path):
    """A 401-digit k parses as an int but has no float coordinate; plot
    names its line and exits 3 instead of raising OverflowError."""
    rec = TraceRecord(k=0, row=-1, rho=1.0, error_sq=2.0, residual=1.0, z=0.0, lyapunov=2.0)
    text = render_trace_csv([rec]) + "1" * 401 + ",0,1,2,1,0,2,1\n"
    code, err = _plot(tmp_path, text.encode())
    assert code == 3, err
    assert "line 3: iteration number beyond the float range" in err
    assert not (tmp_path / "t.svg").exists()
