"""Build a baseline file from the records that run.py leaves behind.

    python3 benchmarks/baseline.py --seeds 1-10 --traced-seed 1 -o benchmarks/baseline-<rev>.json

Run from the root of a checkout, after running run.py with ``--trace 0``
for every workload and each of the seeds, and with ``--trace 1`` for every
workload and the traced seed.  For each end-to-end metric the file holds
the values of all seeds, their median and quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median.  For each workload it also holds the traced run's
per-layer metrics and self-time shares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_out", "results")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def load(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(RESULTS, f"{workload}-s{seed}-t{trace}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        sys.exit(f"no record {path}: run run.py for it first")


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    p.add_argument("--traced-seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    envs = set()
    out = {"env": None, "run_seconds": spec["run_seconds"], "end_to_end": {}, "traced": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [load(workload, seed, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds,
                 "attempted": [r["attempted"] for r in records],
                 "failed": [r["failed"] for r in records],
                 "failures": [dict(f, seed=r["seed"]) for r in records for f in r["failures"]]}
        # the declared metrics, then the raw times they are scaled from
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name in records[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in records]
            entry[name] = summary(values, units.get(name, "s"))
        out["end_to_end"][workload] = entry

        traced = load(workload, args.traced_seed, 1)
        out["traced"][workload] = {
            "seed": args.traced_seed,
            # untraced and traced wall, each taken like wall_s;
            # tracing_overhead_s is their difference
            "walls": traced["walls"],
            "failed": traced["failed"],
            "self_share": dict(sorted(traced["self_share"].items(), key=lambda kv: -kv[1])),
            "per_layer": traced["per_layer"],
        }
        for record in records + [traced]:
            envs.add(json.dumps(record["env"], sort_keys=True))
    if len(envs) != 1:
        sys.exit("the records come from different environments or sources")
    out["env"] = json.loads(envs.pop())
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
