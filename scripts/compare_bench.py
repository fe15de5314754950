#!/usr/bin/env python3
"""Compare two google-benchmark JSON files (tier-2 perf gate).

Usage: scripts/compare_bench.py BASELINE.json CANDIDATE.json
       [--threshold PCT] [--filter REGEX]
       scripts/compare_bench.py --scaling MICRO_SIM_BINARY

Exits non-zero when any benchmark present in both files regresses its
real_time by more than the threshold (default 15%), or when any
benchmark's allocs/op counter increases at all -- the event core's
zero-allocation guarantees are exact, so a single new allocation per
op is a regression, not noise.

--filter restricts the comparison to benchmark names matching the
regex (same spirit as google-benchmark's --benchmark_filter), for
gating one subsystem without re-validating the rest of the suite.
Improvements beyond the threshold are summarized separately at the
end, so a perf PR's claimed speedup is readable straight off the
gate's output.

--scaling runs the round-trip benchmarks (SCALING_FILTER) of the given
micro_sim binary itself, at --benchmark_min_time=0.05 and at 0.5, and
fails if any row's per-op real_time differs by more than 20% between
the two. The min time picks the iteration count, so a per-op cost that
grows with the number of iterations (a leak: state that accumulates
across ops) shows up here, while the baseline gate above cannot see
it. Each row's time is the median of SCALING_RUNS runs of the binary,
alternating the two min times, so one noisy run does not decide.

Typical use:

    scripts/run_bench.sh               # baseline -> BENCH_sim.json
    ... make changes ...
    build-bench/bench/micro_sim --benchmark_format=json \
        --benchmark_out=/tmp/cand.json --benchmark_out_format=json
    scripts/compare_bench.py BENCH_sim.json /tmp/cand.json
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

# allocs/op below this is a one-time setup allocation amortized over
# the iteration count (e.g. 1.2e-07 with a different denominator per
# run), not a per-op allocation; treat it as zero.
ALLOC_EPSILON = 1e-3

# Scaling guard (--scaling): the round-trip benchmarks whose per-op cost
# must not depend on the iteration count, the two min times whose
# iteration counts differ by ~10x, and the allowed per-op drift.
SCALING_FILTER = ("BM_DsmFault_.*|BM_ReliableMailRoundtrip|"
                  "BM_ReplicaVoteRoundtrip")
SCALING_MIN_TIMES = (0.05, 0.5)
SCALING_TOLERANCE = 20.0
SCALING_RUNS = 5


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    benches = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        benches[b["name"]] = b
    if not benches:
        sys.exit(f"error: {path} contains no benchmarks")
    return data.get("context", {}), benches


def run_micro_sim(binary, min_time):
    """Run the scaling rows once; returns {name: (real_time, iters)}."""
    cmd = [binary, f"--benchmark_filter={SCALING_FILTER}",
           f"--benchmark_min_time={min_time}", "--benchmark_format=json"]
    try:
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"error: {' '.join(cmd)} failed: {e}")
    return {b["name"]: (b["real_time"], b["iterations"])
            for b in json.loads(out)["benchmarks"]}


def scaling_guard(binary):
    """Fail if a round-trip row's per-op cost drifts with its
    iteration count (see the module docstring)."""
    # Alternate the two min times so a change in host load hits both
    # sides alike instead of skewing one of them.
    runs = {t: [] for t in SCALING_MIN_TIMES}
    for _ in range(SCALING_RUNS):
        for t in SCALING_MIN_TIMES:
            runs[t].append(run_micro_sim(binary, t))
    short_t, long_t = SCALING_MIN_TIMES
    names = sorted(runs[short_t][0])
    if not names:
        sys.exit(f"error: {SCALING_FILTER!r} matches no benchmarks")

    def median(t, name, field):
        return statistics.median(r[name][field] for r in runs[t])

    failures = []
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'t=' + str(short_t):>12}  "
          f"{'iters':>9}  {'t=' + str(long_t):>12}  {'iters':>9}  "
          f"{'drift':>8}")
    for name in names:
        st, lt = median(short_t, name, 0), median(long_t, name, 0)
        drift = (st - lt) / lt * 100.0 if lt else 0.0
        flag = ""
        if abs(drift) > SCALING_TOLERANCE:
            flag = "  SCALING"
            failures.append(
                f"{name}: {st:.1f} ns/op at min_time={short_t} vs "
                f"{lt:.1f} ns/op at {long_t} ({drift:+.1f}%)")
        print(f"{name:<{width}}  {st:>12.1f}  "
              f"{median(short_t, name, 1):>9.0f}  {lt:>12.1f}  "
              f"{median(long_t, name, 1):>9.0f}  {drift:>+7.1f}%{flag}")
    if failures:
        print(f"\nFAIL: per-op cost depends on the iteration count "
              f"(>{SCALING_TOLERANCE:g}%):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(names)} round-trip benchmarks within "
          f"{SCALING_TOLERANCE:g}% across min_time {short_t} and {long_t}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON files.")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="max allowed real_time regression in percent "
                         "(default: %(default)s)")
    ap.add_argument("--filter", metavar="REGEX", default=None,
                    help="compare only benchmarks whose name matches "
                         "this regex (re.search semantics)")
    ap.add_argument("--scaling", metavar="MICRO_SIM",
                    help="run the iteration-count scaling guard on this "
                         "micro_sim binary instead of diffing files")
    args = ap.parse_args()

    if args.scaling is not None:
        return scaling_guard(args.scaling)
    if args.baseline is None or args.candidate is None:
        ap.error("BASELINE and CANDIDATE are required without --scaling")

    base_ctx, base = load(args.baseline)
    cand_ctx, cand = load(args.candidate)

    if args.filter is not None:
        try:
            pat = re.compile(args.filter)
        except re.error as e:
            sys.exit(f"error: bad --filter regex: {e}")
        base = {n: b for n, b in base.items() if pat.search(n)}
        cand = {n: b for n, b in cand.items() if pat.search(n)}
        if not base or not cand:
            sys.exit(f"error: --filter {args.filter!r} matches no "
                     "benchmarks in "
                     + ("both files" if not base and not cand
                        else "the baseline" if not base
                        else "the candidate"))

    for label, ctx in (("baseline", base_ctx), ("candidate", cand_ctx)):
        bt = ctx.get("k2_build_type")
        if bt is not None and bt != "Release":
            print(f"warning: {label} was built as {bt}, not Release; "
                  "its numbers are not comparable", file=sys.stderr)

    shared = sorted(set(base) & set(cand))
    if not shared:
        sys.exit("error: the two files share no benchmark names")
    for name in sorted(set(base) - set(cand)):
        print(f"warning: {name} missing from candidate", file=sys.stderr)

    failures = []
    improvements = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'base':>12}  {'cand':>12}  "
          f"{'delta':>8}  allocs/op")
    for name in shared:
        b, c = base[name], cand[name]
        bt, ct = b["real_time"], c["real_time"]
        unit = b.get("time_unit", "ns")
        delta = (ct - bt) / bt * 100.0 if bt else 0.0
        def allocs(entry):
            v = entry.get("allocs/op")
            if v is None:
                return None
            return 0.0 if v < ALLOC_EPSILON else v

        ba = allocs(b)
        ca = allocs(c)
        alloc_txt = "-"
        if ba is not None or ca is not None:
            alloc_txt = f"{ba if ba is not None else 0:g} -> " \
                        f"{ca if ca is not None else 0:g}"
        flag = ""
        if delta > args.threshold:
            flag = "  REGRESSION"
            failures.append(
                f"{name}: real_time {bt:.1f} -> {ct:.1f} {unit} "
                f"(+{delta:.1f}% > {args.threshold:g}%)")
        elif delta < -args.threshold and ct > 0:
            flag = "  IMPROVED"
            improvements.append(
                f"{name}: real_time {bt:.1f} -> {ct:.1f} {unit} "
                f"({delta:.1f}%, {bt / ct:.2f}x)")
        if ca is not None and ca > (ba or 0.0):
            flag += "  ALLOC-REGRESSION"
            failures.append(
                f"{name}: allocs/op {ba if ba is not None else 0:g} "
                f"-> {ca:g} (any increase fails)")
        print(f"{name:<{width}}  {bt:>10.1f}{unit:>2}  "
              f"{ct:>10.1f}{unit:>2}  {delta:>+7.1f}%  "
              f"{alloc_txt}{flag}")

    if improvements:
        print(f"\nimprovements beyond {args.threshold:g}%:")
        for i in improvements:
            print(f"  {i}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(shared)} benchmarks within {args.threshold:g}% "
          "and no allocs/op increases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
