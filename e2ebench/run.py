#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Usage (from the repository root):
    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the e2ebench package (the EVA library from this source
tree plus the benchmark binary) under .bench_build/ on first use, then runs one
workload. The last line of standard output is the result object; build
output goes to standard error. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("mlp_local", "tenants_service")


def build():
    """Configures and builds; both steps are quick no-ops when up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        # Set-up and checks take well under two minutes beyond the
        # measured time; a run past that is hung.
        return subprocess.run(cmd, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
