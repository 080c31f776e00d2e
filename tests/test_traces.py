"""Trace CSV schema round trip and run summary formatting."""

import numpy as np
import pytest

from kaczpen.fileio import format_float
from kaczpen.problems import generate_consistent_ls
from kaczpen.solvers import Method, SolverConfig, run_solver
from kaczpen.traces import (
    TRACE_HEADER,
    RunSummary,
    TraceFormatError,
    TraceRecord,
    parse_trace_csv,
    render_trace_csv,
    write_trace_csv,
)


def sample_records():
    return [
        TraceRecord(k=0, row=-1, rho=1.0, error_sq=4.0, residual=2.0, z=0.0, lyapunov=4.0),
        TraceRecord(
            k=1, row=3, rho=1.1, error_sq=1.0 / 3.0, residual=0.5, z=0.25,
            lyapunov=1.0 / 3.0 + 0.25 ** 2 / 1.1, fresh=False,
        ),
    ]


def test_header_is_stable():
    assert TRACE_HEADER == "k,row,rho,error_sq,residual,z,lyapunov,fresh"


def test_render_starts_with_header():
    text = render_trace_csv(sample_records())
    assert text.splitlines()[0] == TRACE_HEADER
    assert len(text.splitlines()) == 3


def _per_field_csv(records) -> str:
    """The trace text as written with one format_float call per field."""
    lines = [TRACE_HEADER]
    for r in records:
        fields = [str(r.k), str(r.row)]
        fields += [format_float(v) for v in (r.rho, r.error_sq, r.residual, r.z, r.lyapunov)]
        fields.append("1" if r.fresh else "0")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_render_matches_per_field_format_float():
    """One format string per record writes the same bytes as format_float
    on every field: signed zeros, subnormals, the largest float, an
    infinite rho and numpy float64 values."""
    tiny, big = 5e-324, 1.7976931348623157e308
    recs = sample_records() + [
        TraceRecord(k=2, row=0, rho=np.inf, error_sq=-0.0, residual=0.0, z=-0.0, lyapunov=tiny),
        TraceRecord(
            k=10**12, row=7, rho=big, error_sq=2.2250738585072014e-308,
            residual=-tiny, z=-big, lyapunov=1e-310, fresh=False,
        ),
        TraceRecord(
            k=3, row=1, rho=np.float64(1.1), error_sq=np.float64(1.0) / 3.0,
            residual=np.float64(-0.0), z=np.float64(tiny), lyapunov=np.float64(big),
        ),
    ]
    assert render_trace_csv(recs) == _per_field_csv(recs)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((50, 5)) * 10.0 ** rng.integers(-300, 300, (50, 5))
    recs = [TraceRecord(k, k - 1, *row, fresh=bool(k % 2)) for k, row in enumerate(values)]
    assert render_trace_csv(recs) == _per_field_csv(recs)


def test_round_trip_preserves_floats(tmp_path):
    path = str(tmp_path / "t.csv")
    recs = sample_records()
    write_trace_csv(recs, path)
    back = parse_trace_csv(path)
    assert len(back) == 2
    for orig, parsed in zip(recs, back):
        assert parsed.k == orig.k
        assert parsed.row == orig.row
        assert parsed.rho == orig.rho
        assert parsed.error_sq == orig.error_sq  # 17 digits round-trip exactly
        assert parsed.residual == orig.residual
        assert parsed.z == orig.z
        assert parsed.lyapunov == orig.lyapunov
        assert parsed.fresh == orig.fresh


def test_parse_rejects_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,row\n0,-1\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        parse_trace_csv(str(path))


def test_parse_rejects_short_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n0,-1,1.0\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace_csv(str(path))


def test_parse_rejects_non_numeric(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n0,-1,1.0,x,0,0,0,1\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace_csv(str(path))


def test_parse_accepts_infinite_rho_only(tmp_path):
    """A schedule with --rho-max inf grows rho to +inf, the plain step;
    every other non-finite value, and a NaN or -inf rho, is refused."""
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n0,-1,1,4,2,0,4,1\n1,0,inf,1,1,0,1,0\n")
    back = parse_trace_csv(str(path))
    assert back[1].rho == float("inf")
    for line in ("1,0,nan,1,1,0,1,0", "1,0,-inf,1,1,0,1,0", "1,0,1,inf,1,0,1,0",
                 "1,0,1,1,1,0,inf,0"):
        path.write_text(TRACE_HEADER + "\n" + line + "\n")
        with pytest.raises(TraceFormatError, match="line 2: non-finite value"):
            parse_trace_csv(str(path))


def test_parse_requires_a_record(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n")
    with pytest.raises(TraceFormatError):
        parse_trace_csv(str(path))


def test_solver_trace_round_trip(tmp_path):
    p = generate_consistent_ls(5, 3, seed=1)
    records = []
    run_solver(
        p,
        SolverConfig(method=Method.RAK, max_iters=30, seed=2),
        lambda rec: records.append(rec),
    )
    path = str(tmp_path / "run.csv")
    write_trace_csv(records, path)
    back = parse_trace_csv(path)
    assert [r.k for r in back] == [r.k for r in records]
    assert [r.error_sq for r in back] == [r.error_sq for r in records]
    assert [r.lyapunov for r in back] == [r.lyapunov for r in records]


def test_run_summary_line_fields():
    s = RunSummary(
        method="rpk", kind="ls", m=5, n=3, rho0=1.0, c=1.5, seed=7,
        iterations_executed=100, final_error_sq=1e-8, final_residual=1e-4,
        per_step_factor=0.9, wall_time_seconds=0.0123,
    )
    line = s.as_line()
    assert "method=rpk" in line
    assert "kind=ls" in line
    assert "seed=7" in line
    assert "iterations_executed=100" in line
    assert "rng=pcg64" in line
    # every field is a single key=value token
    assert all("=" in tok for tok in line.split())
