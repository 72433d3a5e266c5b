#!/usr/bin/env python3
"""Build the FRaZ benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory; it is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then run with the same arguments plus a work directory
under the target directory for its store and tune-cache files.  The last
line of standard output is the JSON result.  Build output goes to standard
error.  See README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must answer within 180 s; leave room to clean up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ next to {HERE}: the benchmark builds the repository's crates")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        fail("build failed")

    workdir = os.path.join(target, "perfbench-work")
    exe = os.path.join(target, "release", "perfbench")
    try:
        code = subprocess.run([exe, *args, "--workdir", workdir],
                              timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
