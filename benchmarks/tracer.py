"""Span tracing of kaczpen's layers from outside the package.

A Tracer wraps the public functions of each module and rebinds every name
under which a kaczpen module holds them (``cli``, ``solvers``,
``analysis`` and ``verify`` import functions directly, so patching the
defining module alone would miss their calls).  Each call records one
span: name, start, end, parent span, op id, whether it raised, and a
work count taken from its arguments or result.  Spans live in flat
arrays so that the hundreds of thousands of sampler and step calls in a
Monte Carlo op stay cheap to record; they are written out once the run
ends.  ``restore`` puts every original back; ``with tracer:`` installs
and restores around a block, and may be used more than once.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np


# (module, attribute, work count extracted from (args, kwargs, result)).
# The span name is "<module>.<attribute>" and its layer is the module.
TARGETS = [
    ("linalg", "least_norm_solution", None),
    ("linalg", "lambda_min_variants", None),
    ("sampling", "RowSampler.sample_row", lambda a, k, r: 1.0),
    ("sampling", "RowSampler.sample_rows", lambda a, k, r: float(len(r))),
    ("solvers", "rk_step_ls", None),
    ("solvers", "rk_step_lf", None),
    ("solvers", "rpk_step_ls", None),
    ("solvers", "rpk_step_lf", None),
    ("solvers", "rak_step_ls", None),
    ("solvers", "rak_step_lf", None),
    ("solvers", "run_solver", lambda a, k, r: float(r.k)),
    ("projection", "distance_to_feasible", None),
    ("projection", "project_polyhedron", None),
    ("projection", "_hildreth", lambda a, k, r: float(r[2])),
    (
        "analysis",
        "monte_carlo_error_curve",
        # iterations a single pass to the last checkpoint would need
        lambda a, k, r: float(r.n_trials * max(r.checkpoints)),
    ),
    ("analysis", "hoffman_estimate", None),
    ("analysis", "exact_expected_step", lambda a, k, r: float(a[0].m)),
    ("analysis", "adaptive_step_report", lambda a, k, r: float(a[0].m)),
    ("problems", "load_problem", lambda a, k, r: float(os.path.getsize(a[0]))),
    ("traces", "write_trace_csv", lambda a, k, r: float(os.path.getsize(a[1]))),
    ("traces", "parse_trace_csv", lambda a, k, r: float(os.path.getsize(a[0]))),
    ("svgchart", "render_chart", None),
    ("fileio", "atomic_write_text", None),
    ("verify", "run_suites", None),
]

STEP_NAMES = [
    f"solvers.{method}_step_{kind}" for method in ("rk", "rpk", "rak") for kind in ("ls", "lf")
]

# modules whose self time counts as problem/trace/chart I/O
IO_MODULES = ("problems", "traces", "svgchart", "fileio")


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "io" if module in IO_MODULES else module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, work):
        nid = self._name_id(name)
        stack = self._stack
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, works, raised = self.start, self.end, self.work, self.raised

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            works.append(0.0)
            raised.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a kaczpen module holds it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "kaczpen" or key.startswith("kaczpen.")
        ]
        for module_name, attr, work in TARGETS:
            home = sys.modules[f"kaczpen.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, work))
                continue
            original = getattr(home, attr)
            traced = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def op_span(self, op_id: int, name: str, fn, *args):
        """Run fn(*args) as the root span of op op_id."""
        self._op_id = op_id
        return self._wrap(name, fn, None)(*args)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def breakdown(tracer: Tracer, op_weight) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and self-time per layer from the recorded spans.

    A span's self time is its duration minus that of its direct children;
    calls run on one thread, so children never overlap.  Every count and
    time of a span is multiplied by ``op_weight[op id]``: an op traced in
    k repetitions has weight 1/k, so the metrics are per repetition.
    """
    sp = tracer.arrays()
    weight = np.asarray(op_weight, dtype=np.float64)[sp["op"]]
    names = tracer.names
    count = len(sp["start"])
    dur = sp["end"] - sp["start"]
    parent = sp["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
    self_time = dur - child_sum
    layer_names = [layer_of(n) for n in names]
    layer = np.array([layer_names[i] for i in sp["name_id"]], dtype=object)
    name = np.array(names, dtype=object)[sp["name_id"]]

    def is_name(*wanted):
        return np.isin(name, wanted)

    runs = is_name("solvers.run_solver")
    mc = is_name("analysis.monte_carlo_error_curve")
    # which spans run inside run_solver / monte_carlo_error_curve (parents
    # are recorded before their children, so one forward pass suffices)
    in_solver, in_mc = runs.copy(), mc.copy()
    for i in np.flatnonzero(has_parent):
        p = parent[i]
        in_solver[i] |= in_solver[p]
        in_mc[i] |= in_mc[p]

    def total(mask, values=dur) -> float:
        return float((weight * values)[mask].sum())

    steps = is_name(*STEP_NAMES)
    draws = is_name("sampling.RowSampler.sample_row", "sampling.RowSampler.sample_rows")
    iters = total(runs, sp["work"])
    loop_s = total(in_solver & np.isin(layer, ("solvers", "sampling")), self_time)
    n_steps = total(steps, 1.0)
    n_draws = total(draws, sp["work"])
    mc_iters = total(runs & in_mc, sp["work"])
    enum = is_name("analysis.exact_expected_step", "analysis.adaptive_step_report")
    projections = is_name("projection.project_polyhedron")
    least_norm = is_name("linalg.least_norm_solution")
    lambda_min = is_name("linalg.lambda_min_variants")
    hoffman = is_name("analysis.hoffman_estimate")
    load = is_name("problems.load_problem")
    write = is_name("traces.write_trace_csv")

    metrics = {
        "linalg.least_norm_calls": total(least_norm, 1.0),
        "linalg.least_norm_s": total(least_norm),
        "linalg.lambda_min_calls": total(lambda_min, 1.0),
        "linalg.lambda_min_s": total(lambda_min),
        "solvers.runs": total(runs, 1.0),
        "solvers.iters": iters,
        "solvers.loop_us_per_iter": 1e6 * loop_s / iters if iters else 0.0,
        "solvers.steps": n_steps,
        "solvers.step_us": 1e6 * total(steps) / n_steps if n_steps else 0.0,
        "sampling.draws": n_draws,
        "sampling.draw_us": 1e6 * total(draws) / n_draws if n_draws else 0.0,
        "analysis.mc_s": total(mc),
        "analysis.mc_iters": mc_iters,
        "analysis.mc_useful_frac": total(mc, sp["work"]) / mc_iters if mc_iters else 0.0,
        "projection.calls": total(projections, 1.0),
        "projection.s": total(layer == "projection", self_time),
        "projection.sweeps": total(is_name("projection._hildreth"), sp["work"]),
        "projection.failures": total(projections, sp["raised"]),
        "analysis.hoffman_calls": total(hoffman, 1.0),
        "analysis.hoffman_s": total(hoffman),
        "analysis.enum_rows": total(enum, sp["work"]),
        "analysis.enum_s": total(enum),
        "problems.load_s": total(load),
        "problems.bytes_read": total(load, sp["work"]),
        "traces.write_s": total(write),
        "traces.bytes_written": total(write, sp["work"]),
        "svgchart.render_s": total(is_name("svgchart.render_chart")),
    }
    self_by_layer = {
        lay: total(layer == lay, self_time) for lay in sorted(set(layer_names))
    }
    return metrics, self_by_layer
