"""Measure the benchmark over many seeds and record the numbers.

    python3 perfbench/baseline.py --seeds 101-110 --held-out 9001 --out perfbench/baseline.json

For each workload in BENCHMARK.json: one untraced run per seed, each
end-to-end metric's median and quartile spread (as a share of the median,
by `statistics.quantiles(values, n=4)`), one run on a held-out seed checked
against the medians and bounds, and one traced run for the per-layer
numbers. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a query failed\n{done.stdout}")
    return result


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last")
    parser.add_argument("--held-out", type=int, default=9001)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "held_out_seed": args.held_out,
        "workloads": {},
    }
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in seeds:
            metrics = run_once(spec, workload, seed, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[name],
            }
            print(f"  {name}: median {median:.4f} spread {(q3 - q1) / median:.4f}"
                  f" (bound {bounds[name]})", flush=True)
        held = run_once(spec, workload, args.held_out, 0)["metrics"]
        held_out = {}
        for name, entry in summary.items():
            value = held[name]["value"]
            worse = (value - entry["median"]) if lower[name] else (entry["median"] - value)
            held_out[name] = {
                "value": value,
                "within_bound": worse <= entry["bound"] * entry["median"],
            }
        print(f"  held-out seed {args.held_out}: {held_out}", flush=True)
        traced = run_once(spec, workload, seeds[0], 1)["metrics"]
        record["workloads"][workload] = {
            "end_to_end": summary,
            "held_out": held_out,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
