"""Closed-loop benchmark of the ``kaczpen`` command line.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One client runs the workload's fixed
list of ``kaczpen`` commands through ``kaczpen.cli.main(argv)`` in this
process, each one after the previous has ended, and repeats the list until
``--seconds`` have passed.  Every op's outputs are checked; a failed op is
counted and the run goes on.

Set-up (a fresh interpreter importing kaczpen and writing the workload's
problem files from the seed) is timed before the first repetition and after
each one, at least MIN_SETUP_REPS times, and reported as its median.
Ops that a workload runs once per run (see workloads.py) come first; they
are checked and counted like the others, count against ``--seconds``, and
are timed on their own (``once_s``), outside ``wall_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json: op times are each op's mean repetition, summed,
and every time is scaled by the machine's speed during the run, as a fixed
probe kernel run after every op gauges it (see ``end_to_end``); the raw
times are printed too.
With ``--trace 1`` each untraced repetition is followed by one with every
layer's public functions wrapped in spans (see tracer.py); the once-per-run
ops run traced too, and the last line carries the per-layer metrics, per
repetition, instead.  Spans are saved under ``.bench_out/results``.
Each run also writes a full record there, from which baseline.py builds a
baseline file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# BLAS threads are capped before numpy is imported: the ops are small
# dense products on which extra threads only add timing noise
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_REPS = 15
SUBCOMMANDS = ("solve", "compare", "verify")
# Other tenants of a shared machine slow a whole run, every op alike, by up
# to 2x for minutes at a time; no statistic over one run's repetitions
# removes that.  So the repetitions run a fixed speed probe after every
# op, for PROBE_SHARE of the op's time but at most PROBE_MAX_CALLS times,
# and the end-to-end times are scaled by PROBE_REF_S / (the probe's mean
# time in the run).  The cap keeps a long op from filling the probe's
# sample with the few seconds after it.  PROBE_REF_S is a fixed
# reference speed: the probe's mean ran from 4 to 9 ms per call on a
# shared 2-core x86_64 machine (Python 3.11, numpy 2.4, OpenBLAS on one
# thread), so the metrics are seconds on a machine that runs the probe at
# 5 ms per call throughout.
PROBE_STEPS = 2000
PROBE_SHARE = 0.1
PROBE_MAX_CALLS = 10
PROBE_REF_S = 0.005


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        git_rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "kaczpen")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_rev": git_rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def set_up(name: str, seed: int, directory: str) -> tuple[float, str]:
    """Write the inputs into directory in a fresh interpreter; returns the
    wall time and a digest of the files.  Exits when generation fails."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    cmd = [sys.executable, os.path.join(HERE, "make_inputs.py"), name, str(seed), directory]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"set-up failed: {proc.stderr.strip()}")
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), "rb") as fh:
            digest.update(fname.encode() + b"\0" + fh.read())
    return elapsed, digest.hexdigest()


def make_probe():
    """Returns the speed probe: a fixed row-action sweep over small numpy
    vectors, the same kind of work as kaczpen's hot loops.  The benchmark
    owns it, so no change to kaczpen moves it.  Each call returns the wall
    time of one sweep."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    norms = np.einsum("ij,ij->i", a, a)
    rows = rng.integers(0, 40, size=PROBE_STEPS).tolist()

    def probe() -> float:
        x = np.zeros(12)
        start = time.perf_counter()
        for i in rows:
            x += ((b[i] - a[i] @ x) / norms[i]) * a[i]
        return time.perf_counter() - start

    return probe


def run_rep(argvs, kaczpen_main, check_op, probe, tracer=None, first_op=0) -> dict:
    """Run the op list once; returns each op's wall time, the failed ops
    with their reasons and the probe's times after each op."""
    times, probe_times = [], []
    failures = []
    for op_id, argv in enumerate(argvs, first_op):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = kaczpen_main(argv)
                else:
                    code = tracer.op_span(op_id, f"cli.{argv[0]}", kaczpen_main, argv)
            except Exception:  # a crash is a failed op, not the end of the run
                traceback.print_exc()
                code = -1
        times.append(time.perf_counter() - start)
        reason = check_op(argv, code, out.getvalue())
        if reason is not None:
            tail = err.getvalue().strip().splitlines()[-1:]
            failures.append({"op": " ".join(argv), "reason": reason, "stderr": tail})
        # gauge the machine for a share of the op's time, so that the
        # probe samples the run's load across the whole run
        budget = PROBE_SHARE * times[-1]
        for _ in range(PROBE_MAX_CALLS):
            probe_times.append(probe())
            budget -= probe_times[-1]
            if budget <= 0:
                break
    return {"times": times, "wall": sum(times), "failures": failures, "probe_times": probe_times}


def per_op(reps) -> list[float]:
    """Each op's mean time over the repetitions."""
    return [statistics.mean(times) for times in zip(*(r["times"] for r in reps))]


def probe_mean(reps) -> float:
    return statistics.mean(t for r in reps for t in r["probe_times"])


def end_to_end(argvs, reps, once, setup_times) -> tuple[dict, dict]:
    """Returns the end-to-end metrics and the raw times they come from.

    Op times are each op's mean over the repetitions, summed over the
    whole list (wall_s) and over the ops of each subcommand; the
    once-per-run ops are timed on their own, as once_s.  Each is scaled
    by PROBE_REF_S / (the probe's mean time in the run): the load on the
    machine comes and goes within a run, and the probe samples it across
    the run, so the ops' mean times and the probe's are slowed by the same
    factor.  A median would pick one side when the load switches on and
    off between repetitions.  Set-up is scaled the same way, but it is the
    median of the set-ups: a set-up is one short process start, which a
    burst of load can double.
    """
    typical = per_op(reps)
    raw = {"wall_s": sum(typical), "setup_s": statistics.median(setup_times)}
    for cmd in SUBCOMMANDS:
        raw[f"{cmd}_s"] = sum(t for t, argv in zip(typical, argvs) if argv[0] == cmd)
    if once["times"]:
        raw["once_s"] = once["wall"]
    probe_s = probe_mean(reps)
    values = {name: seconds * PROBE_REF_S / probe_s for name, seconds in raw.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["probe_s"] = probe_s
    return values, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kaczpen", "__init__.py")):
        print(f"kaczpen sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import kaczpen
    from kaczpen.cli import main as kaczpen_main

    if not os.path.abspath(kaczpen.__file__).startswith(SRC + os.sep):
        print(f"kaczpen imported from {kaczpen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import check_op
    from tracer import Tracer, breakdown

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    run_dir = os.path.join(OUT, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    in_dir, op_dir = os.path.join(run_dir, "in"), os.path.join(run_dir, "out")
    results_dir = os.path.join(OUT, "results")
    os.makedirs(op_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        setup_time, digest = set_up(args.workload, args.seed, in_dir)
        setup_times = [setup_time]

        def set_up_again():
            elapsed, again = set_up(args.workload, args.seed, os.path.join(run_dir, "again"))
            if again != digest:
                sys.exit("set-up wrote different files from the same seed")
            setup_times.append(elapsed)

        workload = workloads.build(args.workload, args.seed)
        argvs = workloads.expand(workload.ops, in_dir, op_dir)
        once_argvs = workloads.expand(workload.once, in_dir, op_dir)
        tracer = Tracer() if args.trace else None
        probe = make_probe()

        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            once = run_rep(once_argvs, kaczpen_main, check_op, probe, tracer, len(argvs))
        # repeat while another round, as long as the last one, still ends
        # within --seconds.  A traced run pairs each repetition with a
        # traced one right after it, so that the two see the same machine
        # load.  Set-up is timed again after each round, so that its median
        # is taken over the whole run.
        reps, traced = [], []
        last = 0.0
        while not reps or time.perf_counter() - start + last <= args.seconds:
            round_start = time.perf_counter()
            reps.append(run_rep(argvs, kaczpen_main, check_op, probe))
            if tracer:
                with tracer:
                    traced.append(run_rep(argvs, kaczpen_main, check_op, probe, tracer))
            set_up_again()
            last = time.perf_counter() - round_start
        while len(setup_times) < MIN_SETUP_REPS:
            set_up_again()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_reps = [once] + reps + traced
    attempted = len(once_argvs) + len(argvs) * (len(reps) + len(traced))
    failures = [f for r in all_reps for f in r["failures"]]
    values, raw = end_to_end(argvs, reps, once, setup_times)
    for name, seconds in raw.items():
        values[f"raw.{name}"] = seconds
    report = {"env": env, "workload": args.workload, "seed": args.seed,
              "repetitions": len(reps), "ops": [" ".join(a) for a in argvs],
              "once_ops": [" ".join(a) for a in once_argvs], "once": once,
              "setup_times_s": setup_times,
              "reps": reps, "end_to_end": values,
              "attempted": attempted, "failed": len(failures), "failures": failures}
    if traced:
        # spans of the repeated list count per traced repetition, those of
        # the once-per-run ops in full
        op_weight = [1 / len(traced)] * len(argvs) + [1.0] * len(once_argvs)
        layer_metrics, self_by_layer = breakdown(tracer, op_weight)
        # both walls are taken like wall_s: each op's mean, summed, and
        # scaled by the probe run next to the same repetitions
        walls = {f"{kind}_wall_s": sum(per_op(r)) * PROBE_REF_S / probe_mean(r)
                 for kind, r in (("untraced", reps), ("traced", traced))}
        layer_metrics["tracing_overhead_s"] = walls["traced_wall_s"] - walls["untraced_wall_s"]
        report["walls"] = walls
        total_self = sum(self_by_layer.values())
        for layer, seconds in self_by_layer.items():
            layer_metrics[f"{layer}.self_s"] = seconds
        report["per_layer"] = layer_metrics
        report["self_share"] = {k: v / total_self for k, v in self_by_layer.items()}
        report["traced_reps"] = traced
        tracer.save(os.path.join(results_dir, f"spans-{args.workload}-s{args.seed}.npz"))
        values = layer_metrics

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(once_argvs)} ops once, then "
          f"{len(reps)} repetitions of {len(argvs)} ops"
          f"{', each followed by a traced one' if traced else ''}, closed loop, 1 client")
    for f in failures:
        print(f"FAILED {f['op']}: {f['reason']} {' '.join(f['stderr'])}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    if traced:
        print(f"layer self time (per traced repetition, {len(traced)} of them, "
              "plus once-per-run ops):")
        for layer, share in sorted(report["self_share"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {self_by_layer[layer]:10.4f} s  {100 * share:5.1f}%")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in values.items():
        # metrics not in BENCHMARK.json are printed but left out of the result
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"{name} {value:.6g} {unit}{'' if name in units else ' (not declared)'}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
