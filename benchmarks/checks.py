"""Output checks for each benchmark op, taken from the documented contracts
of the ``kaczpen`` commands.  Tolerances are used instead of byte hashes,
so a reference computation that moves the last digits is not a failure.

``check_op`` returns None when the op's outputs are correct, otherwise a
one-line reason.  The flags of an op are read back with kaczpen's own
argument parser, so the checks cannot drift from the command line.
"""

from __future__ import annotations

import csv
import re
import xml.etree.ElementTree as ET

from kaczpen.cli import build_parser
from kaczpen.traces import TraceFormatError, parse_trace_csv

# compare means of an equality system may exceed the envelope by at most
# this factor, the margin the verify suite's Monte Carlo check uses
ENVELOPE_MARGIN = 1.10
_VERIFY_TAIL = re.compile(r"^(\d+)/(\d+) properties passed$")
_SVG = "{http://www.w3.org/2000/svg}"


def _summary(stdout: str) -> dict[str, str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    return dict(kv.split("=", 1) for kv in lines[-1].split() if "=" in kv)


def _problem_kind(path: str) -> str:
    with open(path) as fh:
        return fh.readline().split()[2]


def _check_solve(args, stdout: str) -> str | None:
    summary = _summary(stdout)
    try:
        executed = int(summary["iterations_executed"])
        residual = float(summary["final_residual"])
    except (KeyError, ValueError):
        return "no summary line"
    if args.tol is not None and not residual <= args.tol:
        return f"final_residual {residual!r} above tol {args.tol!r}"
    if args.tol is None and executed != args.iters:
        return f"ran {executed} of {args.iters} iterations"
    if args.trace:
        try:
            records = parse_trace_csv(args.trace)
        except (OSError, TraceFormatError) as exc:
            return f"trace unreadable: {exc}"
        if len(records) != executed + 1:
            return f"trace has {len(records)} rows, expected {executed + 1}"
        if [r.k for r in records] != list(range(executed + 1)):
            return "trace rows are not k = 0..K"
    return None


def _check_compare(args) -> str | None:
    with open(args.output, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["method", "checkpoint", "mean_error_sq", "envelope"]:
        return f"bad header {rows[0]!r}"
    methods = args.methods.split(",")
    checkpoints = sorted({int(k) for k in args.checkpoints.split(",")})
    expected = [(m, str(k)) for m in methods for k in checkpoints]
    if [(r[0], r[1]) for r in rows[1:]] != expected:
        return "rows are not one per method x checkpoint"
    if _problem_kind(args.problem) == "ls":
        for method, k, mean, env in rows[1:]:
            if not float(mean) <= float(env) * ENVELOPE_MARGIN:
                return f"{method} at k={k}: mean {mean} above envelope {env} x {ENVELOPE_MARGIN}"
    return None


def _check_verify(stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    match = _VERIFY_TAIL.match(lines[-1]) if lines else None
    if match is None:
        return "no 'N/N properties passed' line"
    if match.group(1) != match.group(2):
        return lines[-1]
    return None


def _check_plot(args) -> str | None:
    try:
        root = ET.parse(args.output).getroot()
    except ET.ParseError as exc:
        return f"SVG not well formed: {exc}"
    if root.tag != f"{_SVG}svg":
        return f"root element is {root.tag!r}"
    lines = len(root.findall(f".//{_SVG}polyline"))
    if lines != len(args.traces):
        return f"{lines} polylines for {len(args.traces)} traces"
    return None


def check_op(argv: list[str], code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _check_solve(args, stdout)
        if args.command == "compare":
            return _check_compare(args)
        if args.command == "verify":
            return _check_verify(stdout)
        if args.command == "plot":
            return _check_plot(args)
    except (OSError, ValueError, IndexError) as exc:
        return f"output unreadable: {exc}"
    return None
