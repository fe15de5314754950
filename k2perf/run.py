#!/usr/bin/env python3
"""Build and run the k2perf benchmark.

    python3 k2perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
configures and builds the K2 libraries and the k2perf binary (Release)
into the build directory, CARGO_TARGET_DIR if set, else .bench_build at
the repository root; later calls rebuild incrementally. The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
A traced run also writes a Chrome trace_event file into
<build>/traces/. Exits non-zero without a result if the K2 sources are
missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("episode-chain", "dsm-pingpong", "sweep-fork")
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("k2perf: no K2 sources at %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "k2perf",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        sys.exit("k2perf: --seed must be >= 0 and --seconds in 1..60")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("k2perf: build failed: %s" % e)

    cmd = [str(out / "k2perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        # subprocess.run kills and reaps the child if the timeout hits.
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("k2perf: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
