#!/usr/bin/env bash
# Run the micro_sim google-benchmark suite and record the results as
# BENCH_sim.json at the repo root. That file is the trajectory record
# of host-side performance: a change that moves the needle re-records
# it. It is not the gate: a change is gated by an interleaved A/B
# against a build of its parent (scripts/check.sh --bench, which runs
# scripts/compare_bench.py --ab), because a recording from another
# host or day differs by more than a change does.
#
# Usage: scripts/run_bench.sh [build-dir] [-- extra micro_sim args]
#
# The baseline must come from an optimized build end to end:
#  - k2 itself: the default build dir is build-bench/ (the `bench`
#    preset), configured as Release. Passing an existing build dir
#    whose CMAKE_BUILD_TYPE is not Release is refused.
#  - the benchmark *harness*: the recorded JSON must carry
#    "library_build_type": "release". The bundled k2bench harness
#    (third_party/k2bench) always is; a baseline measured through any
#    other harness is refused after the run.

set -euo pipefail

BUILD_DIR="${1:-build-bench}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

EXTRA_ARGS=()
if [ $# -ge 2 ] && [ "$2" = "--" ]; then
    EXTRA_ARGS=("${@:3}")
fi

if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
    BT="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
        "$BUILD_DIR/CMakeCache.txt")"
    if [ "$BT" != "Release" ]; then
        echo "error: $BUILD_DIR is configured as '${BT:-unset}', not" \
             "Release." >&2
        echo "Benchmark baselines must come from an optimized build;" \
             "rerun without arguments to use build-bench/ (Release)." >&2
        exit 1
    fi
fi

cmake -B "$BUILD_DIR" -S . -G Ninja \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target micro_sim

"$BUILD_DIR/bench/micro_sim" \
    --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_sim.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.5 \
    "${EXTRA_ARGS[@]}"

# Refuse a baseline measured through a debug benchmark harness: its
# per-iteration overhead is not comparable with release-harness runs.
LBT="$(python3 - "$ROOT/BENCH_sim.json" <<'EOF'
import json, sys
print(json.load(open(sys.argv[1])).get("context", {})
      .get("library_build_type", "unknown"))
EOF
)"
if [ "$LBT" != "release" ]; then
    echo >&2
    echo "error: BENCH_sim.json was measured through a" \
         "'$LBT'-build benchmark harness." >&2
    echo "micro_sim must link the bundled k2bench harness" \
         "(third_party/k2bench) so library_build_type is 'release'." >&2
    exit 1
fi

echo
echo "wrote $ROOT/BENCH_sim.json"
