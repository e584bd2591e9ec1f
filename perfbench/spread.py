#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values (Python's statistics.quantiles, n=4), as a share of
their median: the figure each end-to-end metric's bound in
BENCHMARK.json is judged against.

    python3 perfbench/spread.py --workload sched-sweep --seeds 1-5 [--trace 1]

Run from the root of the repository, after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result {result}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f" bound={bound} third={bound / 3:.4f}" if bound else ""
        print(f"{name:<28} median={med:.6g} spread={spread:.4f}{limit}")


if __name__ == "__main__":
    main()
