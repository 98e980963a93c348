#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e).

Run from the root of a source checkout:

  python3 bench_e2e/run.py --workload dashboard --seed 1 --seconds 20 --trace 0
  python3 bench_e2e/run.py --workload adhoc_scan --seed 1 --seconds 20 --trace 1
  python3 bench_e2e/run.py --check-counts --workload ingest_mixed --seed 1 \
      --seconds 5

The first call configures and builds bench_e2e/ (Release) with CMake into
.bench_build/bench_e2e; later calls rebuild incrementally. Build output goes
to stderr. The binary's stdout is passed through: its last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the spans are written to .bench_build/bench_e2e/spans-<workload>-<seed>.jsonl.

--check-counts runs the traced benchmark twice with the same seed and exits 0
only when both runs print exactly the same work counts (answer digest,
engine counters, block decodes/skips, aggregate-cache serves and fallbacks,
rows returned).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_e2e")
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "bench_e2e"], stdout=sys.stderr, check=True)


def binary_args(args, trace):
    out = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.holdout_seed is not None:
        out += ["--holdout-seed", str(args.holdout_seed)]
    if trace:
        out += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    return out


def counts_line(args):
    proc = subprocess.run(binary_args(args, 1), stdout=subprocess.PIPE,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("counts ")]
    if proc.returncode != 0 or len(lines) != 1:
        sys.stderr.write(proc.stdout)
        sys.exit("error: traced run failed (exit %d)" % proc.returncode)
    return lines[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "adhoc_scan", "ingest_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--holdout-seed", type=int, default=None)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("error: building bench_e2e failed: %s" % err)

    if args.check_counts:
        first, second = counts_line(args), counts_line(args)
        print(first)
        print(second)
        if first != second:
            sys.exit("error: work counts differ between two same-seed runs")
        print("counts repeat exactly")
        return 0
    return subprocess.run(binary_args(args, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
