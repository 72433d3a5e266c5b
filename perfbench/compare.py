#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

Usage (from the repository root):

    python3 perfbench/compare.py A.jsonl [B.jsonl]

Inputs are files written by sweep.py.  For each (workload, metric) the
table gives the number of runs, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median.  With one set, `steady` says
whether each end-to-end spread is within a third of the metric's bound in
BENCHMARK.json.  With two sets, `change` is B's median against A's, signed
so that positive is worse, and `agree` says whether B is no worse than A by
more than the bound.  Per-layer metrics have no bound and are listed for
reference.

Exits 1 if an end-to-end spread is over its bound or, with two sets, a
median got worse by more than its bound.  The spread of `setup_s` is shown
but does not fail the exit code, as in the benchmark's acceptance rule,
which holds set-up time only to the two-set median comparison.  Set-up runs
three times at the start of each process, so its spread over seeds mixes
the seed's inputs (the service warms up on seed-chosen fields) with the
machine's noise in those first seconds.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    table = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                for name, metric in run["result"]["metrics"].items():
                    table[(run["workload"], name)].append(metric["value"])
    return table


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a = load(sys.argv[1])
    b = load(sys.argv[2]) if len(sys.argv) == 3 else None
    ok = True
    header = f"{'workload':<18} {'metric':<32} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    print(header + ("  steady" if b is None else f" {'B median':>12} {'change':>7}  agree"))
    for (workload, name) in sorted(a):
        med, q1, q3, spread = summary(a[(workload, name)])
        spec = bounds.get(name)
        bound = spec["bound"] if spec else None
        row = (f"{workload:<18} {name:<32} {len(a[(workload, name)]):>3} {med:>12.5g} "
               f"{q1:>12.5g} {q3:>12.5g} {spread:>7.3f} "
               f"{bound if bound is not None else '-':>6}")
        if b is None:
            if spec is None:
                verdict = "-"
            else:
                verdict = "yes" if spread <= bound / 3 else "NO"
                ok &= spread <= bound or name == "setup_s"
        else:
            values = b.get((workload, name))
            if not values:
                print(row + "  (missing in B)")
                ok &= spec is None
                continue
            bmed = summary(values)[0]
            sign = 1 if spec is None or spec["better"] == "lower" else -1
            change = sign * (bmed - med) / abs(med) if med else 0.0
            verdict = "-" if spec is None else ("yes" if change <= bound else "NO")
            ok &= spec is None or change <= bound
            row += f" {bmed:>12.5g} {change:>7.3f}"
        print(f"{row}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
