"""Per-iteration trace records and run summaries, with CSV round-trip."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .fileio import TraceFormatError, atomic_write_text, format_float, read_text

TRACE_HEADER = "k,row,rho,error_sq,residual,z,lyapunov,fresh"
# one record's line: the floats as format_float writes them
_RECORD_FORMAT = "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s"


class TraceRecord(NamedTuple):
    """One solver iteration.

    k is the iteration counter (0 for the pre-loop snapshot, whose row is
    -1).  error_sq is the squared distance to the solution set; for
    feasibility runs it is refreshed only every trace stride, and fresh
    says whether this record recomputed it.  A named tuple, because a run
    builds one per step: it unpacks, and compares equal to the plain
    tuple of its fields.
    """

    k: int
    row: int
    rho: float
    error_sq: float
    residual: float
    z: float
    lyapunov: float
    fresh: bool = True


@dataclass(frozen=True)
class RunSummary:
    method: str
    kind: str
    m: int
    n: int
    rho0: float
    c: float
    seed: int
    iterations_executed: int
    final_error_sq: float
    final_residual: float
    per_step_factor: float
    wall_time_seconds: float
    rng: str = "pcg64"

    def as_line(self) -> str:
        parts = [
            f"method={self.method}",
            f"kind={self.kind}",
            f"m={self.m}",
            f"n={self.n}",
            f"rho0={format_float(self.rho0)}",
            f"c={format_float(self.c)}",
            f"seed={self.seed}",
            f"iterations_executed={self.iterations_executed}",
            f"final_error_sq={format_float(self.final_error_sq)}",
            f"final_residual={format_float(self.final_residual)}",
            f"per_step_factor={format_float(self.per_step_factor)}",
            f"wall_time_seconds={self.wall_time_seconds:.3f}",
            f"rng={self.rng}",
        ]
        return " ".join(parts)


def render_trace_csv(records: list[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    lines += [
        _RECORD_FORMAT % (k, row, rho, error_sq, residual, z, lyapunov, "1" if fresh else "0")
        for k, row, rho, error_sq, residual, z, lyapunov, fresh in records
    ]
    return "\n".join(lines) + "\n"


def write_trace_csv(records: list[TraceRecord], path: str) -> None:
    atomic_write_text(path, render_trace_csv(records))


def parse_trace_csv(path: str) -> list[TraceRecord]:
    raw = read_text(path, TraceFormatError, f"{path}: ").splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise TraceFormatError(f"{path}: line 1: empty trace file")
    lineno, header = lines[0]
    if header.strip() != TRACE_HEADER:
        raise TraceFormatError(f"{path}: line {lineno}: bad header {header!r}")
    if len(lines) < 2:
        raise TraceFormatError(f"{path}: line {lineno}: trace has no records")
    records = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise TraceFormatError(
                f"{path}: line {lineno}: expected 8 fields, got {len(parts)}"
            )
        try:
            rec = TraceRecord(
                k=int(parts[0]),
                row=int(parts[1]),
                rho=float(parts[2]),
                error_sq=float(parts[3]),
                residual=float(parts[4]),
                z=float(parts[5]),
                lyapunov=float(parts[6]),
                fresh=bool(int(parts[7])),
            )
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: {exc}") from None
        # rho may grow to +inf (--rho-max inf), where the step is the plain one
        rho_ok = rec.rho == math.inf or math.isfinite(rec.rho)
        if not rho_ok or not all(
            map(math.isfinite, (rec.error_sq, rec.residual, rec.z, rec.lyapunov))
        ):
            raise TraceFormatError(f"{path}: line {lineno}: non-finite value")
        try:
            float(rec.k)  # plot takes k as a float coordinate
        except OverflowError:
            raise TraceFormatError(
                f"{path}: line {lineno}: iteration number beyond the float range"
            ) from None
        records.append(rec)
    return records
