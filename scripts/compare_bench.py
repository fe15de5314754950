#!/usr/bin/env python3
"""Compare benchmark runs: the tier-2 perf gate.

Usage: scripts/compare_bench.py --ab BASE_MICRO_SIM PR_MICRO_SIM
       [--pairs N] [--threshold PCT] [--filter REGEX]
       scripts/compare_bench.py --scaling MICRO_SIM_BINARY

--ab is the gate (scripts/check.sh --bench runs it against a build of
the merge-base). It runs N pairs (default 10) of passes of the two
micro_sim binaries at --benchmark_min_time=AB_MIN_TIME, alternating
which side goes first, so a change in host load hits both sides alike;
two builds measured minutes apart on a shared host differ by more than
most changes do. For each row it prints the parent's and the PR's
median and interquartile range (IQR), the median delta, and in how
many pairs the PR was faster. A row fails when the PR's median is more
than the threshold (default 15%) above the parent's range, taken as
the top of its IQR (its min/max over a few runs is set by one
outlier), or when its allocs/op rises at all -- the event core's
zero-allocation guarantees are exact, so a single new allocation per
op is a regression, not noise. --filter restricts both binaries to
benchmark names matching the regex (google-benchmark's
--benchmark_filter), for a closer look at a few rows: a filtered pass
is short, so it affords more --pairs.

BENCH_sim.json (scripts/run_bench.sh) is the trajectory record, not a
gate: a recording from another host or day differs by more than a
change does.

--scaling runs the round-trip benchmarks (SCALING_FILTER) of the given
micro_sim binary itself, at --benchmark_min_time=0.05 and at 0.5, and
fails if any row's per-op real_time differs by more than 20% between
the two. The min time picks the iteration count, so a per-op cost that
grows with the number of iterations (a leak: state that accumulates
across ops) shows up here, while a comparison of two binaries cannot
see it. Each row's time is the median of SCALING_RUNS runs of the binary,
alternating the two min times, so one noisy run does not decide.

Typical use:

    scripts/check.sh --bench           # builds the merge-base, runs --ab
    scripts/compare_bench.py --ab base/micro_sim pr/micro_sim \
        --pairs 16 --filter 'BM_CoreBusyPeriod|BM_SnapshotForkExt2'
    scripts/run_bench.sh               # re-record BENCH_sim.json
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

# --ab: the per-benchmark min time of one pass (a whole-suite pass takes
# ~5 s, so the default 10 pairs take ~1.5 min).
AB_MIN_TIME = 0.05

# Scaling guard (--scaling): the round-trip benchmarks whose per-op cost
# must not depend on the iteration count, the two min times whose
# iteration counts differ by ~10x, and the allowed per-op drift.
SCALING_FILTER = ("BM_DsmFault_.*|BM_ReliableMailRoundtrip|"
                  "BM_ReplicaVoteRoundtrip")
SCALING_MIN_TIMES = (0.05, 0.5)
SCALING_TOLERANCE = 20.0
SCALING_RUNS = 5


def run_pass(binary, filt):
    """One --ab pass of a micro_sim binary; returns
    {name: (real_time, time_unit, allocs/op or None)}."""
    cmd = [binary, f"--benchmark_min_time={AB_MIN_TIME}",
           "--benchmark_format=json"]
    if filt is not None:
        cmd.append(f"--benchmark_filter={filt}")
    try:
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"error: {' '.join(cmd)} failed: {e}")
    return {b["name"]: (b["real_time"], b.get("time_unit", "ns"),
                        b.get("allocs/op"))
            for b in json.loads(out)["benchmarks"]
            if b.get("run_type") != "aggregate"}


def quartiles(xs):
    """(Q1, median, Q3) of @xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def ab_gate(base_bin, pr_bin, pairs, threshold, filt):
    """Interleaved parent/PR A/B (see the module docstring)."""
    runs = {base_bin: [], pr_bin: []}
    for i in range(pairs):
        order = (base_bin, pr_bin) if i % 2 == 0 else (pr_bin, base_bin)
        for binary in order:
            runs[binary].append(run_pass(binary, filt))
    base, pr = runs[base_bin], runs[pr_bin]
    names = [n for n in base[0] if n in pr[0]]
    if not names:
        sys.exit("error: the two binaries share no benchmark names"
                 + (f" matching {filt!r}" if filt else ""))
    for name in sorted(set(base[0]) - set(pr[0])):
        print(f"warning: {name} missing from the PR binary",
              file=sys.stderr)

    def allocs(passes, name):
        vals = [r[name][2] for r in passes if r[name][2] is not None]
        if not vals:
            return None
        return max(0.0 if v < ALLOC_EPSILON else v for v in vals)

    failures = []
    width = max(len(n) for n in names)
    print(f"{pairs} interleaved pairs, min_time {AB_MIN_TIME} s; "
          f"median [IQR]; wins = pairs the PR was faster")
    print(f"{'benchmark':<{width}}  {'parent':>22}  {'PR':>22}  "
          f"{'delta':>7}  {'wins':>5}  allocs/op")
    for name in names:
        b = [r[name][0] for r in base]
        p = [r[name][0] for r in pr]
        unit = base[0][name][1]
        bq1, bmed, bq3 = quartiles(b)
        pq1, pmed, pq3 = quartiles(p)
        delta = (pmed - bmed) / bmed * 100.0 if bmed else 0.0
        wins = sum(pt < bt for bt, pt in zip(b, p))
        ba, pa = allocs(base, name), allocs(pr, name)
        alloc_txt = "-"
        if ba is not None or pa is not None:
            alloc_txt = f"{ba or 0:g} -> {pa or 0:g}"
        flag = ""
        limit = bq3 * (1.0 + threshold / 100.0)
        if pmed > limit:
            flag = "  REGRESSION"
            failures.append(
                f"{name}: PR median {pmed:.1f} {unit} > {limit:.1f} "
                f"(parent IQR top {bq3:.1f} + {threshold:g}%)")
        if pa is not None and pa > (ba or 0.0):
            flag += "  ALLOC-REGRESSION"
            failures.append(f"{name}: allocs/op {ba or 0:g} -> {pa:g} "
                            "(any increase fails)")
        b_txt = f"{bmed:.1f} [{bq1:.1f}-{bq3:.1f}]"
        p_txt = f"{pmed:.1f} [{pq1:.1f}-{pq3:.1f}]"
        print(f"{name:<{width}}  {b_txt:>22}  {p_txt:>22}  "
              f"{delta:>+6.1f}%  {wins:>2}/{pairs:<2}  {alloc_txt}{flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(names)} benchmarks within {threshold:g}% of the "
          "parent's IQR and no allocs/op increases")
    return 0


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
        description="Compare benchmark runs (tier-2 perf gate).")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ab", nargs=2, metavar=("BASE_MICRO_SIM",
                                                "PR_MICRO_SIM"),
                      help="run an interleaved A/B of two micro_sim "
                           "binaries")
    mode.add_argument("--scaling", metavar="MICRO_SIM",
                      help="run the iteration-count scaling guard on "
                           "this micro_sim binary")
    ap.add_argument("--pairs", type=int, default=10,
                    help="--ab pass pairs (default: %(default)s)")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="max allowed real_time regression in percent "
                         "(default: %(default)s)")
    ap.add_argument("--filter", metavar="REGEX", default=None,
                    help="--ab: compare only benchmarks whose name "
                         "matches this regex")
    args = ap.parse_args()

    if args.scaling is not None:
        return scaling_guard(args.scaling)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.filter is not None:
        try:
            re.compile(args.filter)
        except re.error as e:
            sys.exit(f"error: bad --filter regex: {e}")
    return ab_gate(args.ab[0], args.ab[1], args.pairs, args.threshold,
                   args.filter)


if __name__ == "__main__":
    sys.exit(main())
