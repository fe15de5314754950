#!/usr/bin/env bash
# Profile a benchmark binary and print where the cycles go.
#
# Usage: scripts/profile.sh [--target NAME] [--filter REGEX]
#                           [--min-time SEC] [--layers] [-- ARGS...]
#
#  --target NAME  the CMake target to profile (default: micro_sim).
#                 micro_sim runs the benchmarks matching --filter for
#                 --min-time each; any other target (a bench/ binary,
#                 testbed, fleet, an example) runs with ARGS.
#  --layers       fold the flat profile's self time by namespace
#                 (k2::sim, soc, kern, os, svc, workloads, ...) and
#                 print one row per layer; time outside any k2::
#                 namespace (libc, std, the benchmark harness) is
#                 "other". Always uses gprof.
#
# Prefers `perf` (sampled call graphs, no rebuild needed) when the
# host has it and --layers is not given; falls back to gprof
# instrumentation otherwise -- containers routinely lack perf or the
# perf_event_paranoid access for it, and a -pg build answers the same
# "which function is hot" question with no kernel support at all.
#
#  - perf path: profiles the Release bench build (build-bench/).
#    Artifacts: build-prof/perf.data (+ a perf report summary).
#  - gprof path: configures build-prof/ as Release + -pg, runs the
#    target there, and prints the flat profile head (or the per-layer
#    fold). Artifacts: build-prof/profile.txt, build-prof/gmon.out.
#
# micro_sim's filtered benchmarks run with a generous min-time so the
# samples come from steady state, not setup.
#
# gprof caveat: coroutine bodies are missing from its profiles. GCC
# splits a coroutine into a ramp (the function's own symbol) and the
# clones `<name>.actor` and `<name>.destroy`, and gprof's symbol reader
# keeps no symbol with a dot in its name except the .clone./
# .constprop./numeric suffixes. The clones' samples and call arcs fall
# to the preceding kept symbol in address order: `nm -n -C` on the -pg
# binary shows which. Example, a -pg k2perf episode-chain before
# Core::exec/execTime became an awaitable: their actors followed
# Core::ensureAwake()'s ramp, which showed 4 "calls" per busy period
# (two actor resumes, the destroy, and the actor call the destroy
# makes), and the Thread::sleep/yield/exec actors followed the
# Thread::parkAs ramp. The ext2 mkfs and blockFor actors follow
# Ext2Fs::snapState. Read a row next to coroutine clones as holding
# their calls and self time too.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

TARGET="micro_sim"
FILTER="BM_FleetDeviceHour"
MIN_TIME=2
LAYERS=0
ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --target) TARGET="$2"; shift 2 ;;
        --target=*) TARGET="${1#*=}"; shift ;;
        --filter) FILTER="$2"; shift 2 ;;
        --filter=*) FILTER="${1#*=}"; shift ;;
        --min-time) MIN_TIME="$2"; shift 2 ;;
        --min-time=*) MIN_TIME="${1#*=}"; shift ;;
        --layers) LAYERS=1; shift ;;
        --) shift; ARGS=("$@"); break ;;
        *) echo "usage: scripts/profile.sh [--target NAME]" \
               "[--filter REGEX] [--min-time SEC] [--layers]" \
               "[-- ARGS...]" >&2; exit 2 ;;
    esac
done

if [ "$TARGET" = "micro_sim" ]; then
    ARGS=(--benchmark_filter="$FILTER"
          --benchmark_min_time="${MIN_TIME}s" "${ARGS[@]}")
fi
mkdir -p build-prof

# The target's executable in build directory $1.
binary() {
    local bin
    bin="$(find "$1/bench" "$1/src" "$1/examples" -type f \
        -name "$TARGET" -perm -u+x 2>/dev/null | head -n 1)"
    if [ -z "$bin" ]; then
        echo "profile.sh: no executable for target '$TARGET'" >&2
        exit 2
    fi
    echo "$bin"
}

if [ "$LAYERS" = 0 ] && command -v perf >/dev/null 2>&1 &&
   perf stat -e task-clock true >/dev/null 2>&1; then
    cmake -B build-bench -S . -G Ninja \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-bench --target "$TARGET"
    BIN="$(binary build-bench)"
    echo "== perf stat ($TARGET ${ARGS[*]}) =="
    perf stat -- "$BIN" "${ARGS[@]}"
    perf record -g -o build-prof/perf.data -- \
        "$BIN" "${ARGS[@]}" >/dev/null
    echo
    echo "== hottest symbols =="
    perf report -i build-prof/perf.data --stdio \
        --percent-limit 1 2>/dev/null | head -40
    echo
    echo "full call graph: perf report -i build-prof/perf.data"
    exit 0
fi

echo "using gprof (-pg instrumented Release build)"
cmake -B build-prof -S . -G Ninja \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg -g -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
cmake --build build-prof --target "$TARGET"
BIN="$ROOT/$(binary build-prof)"

# gmon.out lands in the working directory of the profiled process.
rm -f build-prof/gmon.out
(cd build-prof && "$BIN" "${ARGS[@]}")
gprof -b "$BIN" build-prof/gmon.out > build-prof/profile.txt
echo
if [ "$LAYERS" = 1 ]; then
    echo "== self time by layer ($TARGET) =="
    python3 - build-prof/profile.txt <<'EOF'
import collections, re, sys

# Flat-profile rows: %time, cumulative s, self s, [calls, self/call,
# total/call,] name. The layer is the first k2:: namespace in the name
# (a template's own namespace comes before its arguments').
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.*)$")
alias = {"wl": "workloads"}
self_s = collections.Counter()
for line in open(sys.argv[1]):
    if line.strip().startswith("Call graph"):
        break
    m = row.match(line)
    if not m:
        continue
    ns = re.search(r"\bk2::(\w+)::", m.group(2))
    layer = alias.get(ns.group(1), ns.group(1)) if ns else "other"
    self_s[layer] += float(m.group(1))
total = sum(self_s.values())
if total == 0:
    sys.exit("profile.sh: gprof recorded no samples; run longer")
print("%-10s %9s %7s" % ("layer", "self s", "share"))
for layer, s in self_s.most_common():
    if s > 0:
        print("%-10s %9.2f %6.1f%%" % (layer, s, 100.0 * s / total))
print("%-10s %9.2f" % ("total", total))
EOF
else
    echo "== flat profile (top) =="
    sed -n '1,25p' build-prof/profile.txt
fi
echo
echo "full profile: build-prof/profile.txt"
