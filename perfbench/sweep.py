#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results.

Usage (from the repository root):

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--trace 0|1] [--seconds S]

Each run appends one JSON line `{"workload", "seed", "trace", "result"}`
to `--out`, where `result` is the run's JSON result line.  Workloads
default to every workload in BENCHMARK.json and `--seconds` to its
`run_seconds`.  Compare two such files with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(args.trace), "result": result}) + "\n")
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)


if __name__ == "__main__":
    main()
