#!/usr/bin/env bash
# Configure, build, and run the full test suite.
#
# Usage: scripts/check.sh [--asan | --tsan | --bench [REF]]
#
# The default pass also runs scripts/deadcode.sh, which fails on any
# k2:: function that no product binary reaches and that
# scripts/deadcode.allow does not list, and builds the k2perf/
# benchmark package against the tree (build-k2perf/) and runs its
# tests.
#
# With --asan, builds into build-asan/ with AddressSanitizer + UBSan
# (-DK2_SANITIZE=ON); this continuously checks the engine's manual
# event-pool allocator for lifetime bugs.
#
# With --tsan, builds into build-tsan/ with ThreadSanitizer
# (-DK2_SANITIZE=thread) and runs the tests that exercise host-thread
# parallelism: the sweep harness and its flag parsing. TSan and the
# simulator's single-threaded tier-1 suite don't mix usefully, so only
# the parallel tests run in this mode.
#
# With --bench, runs the tier-2 perf gate end to end. It checks out the
# merge-base of HEAD and REF (default: main) in a git worktree under
# build-bench-base/, builds micro_sim there and, from the working tree,
# in build-bench/ (both Release), and runs an interleaved A/B of the
# two: a row fails when its median is more than 15% above the parent's
# range or its allocs/op rises (scripts/compare_bench.py --ab). When
# the change is already committed on REF, that merge-base is HEAD
# itself; unless the working tree has uncommitted changes to measure,
# the gate then refuses to run, and REF must name the commit the change
# started from (HEAD~N for a change of N commits). Then it runs the
# scaling guard: each round-trip benchmark's per-op cost must not move
# by more than 20% between ~10x different iteration counts
# (scripts/compare_bench.py --scaling). BENCH_sim.json is the recorded
# trajectory (scripts/run_bench.sh), not the gate: a recording from
# another host or day differs by more than a change does.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD_DIR=build
EXTRA=()
MODE="${1:-}"
if [ "$MODE" = "--asan" ]; then
    BUILD_DIR=build-asan
    EXTRA=(-DK2_SANITIZE=ON)
    # Eternal detached coroutines (scheduler core loops) are reclaimed
    # only at process exit; see the suppression file.
    export LSAN_OPTIONS="suppressions=$ROOT/scripts/lsan.supp${LSAN_OPTIONS:+:$LSAN_OPTIONS}"
elif [ "$MODE" = "--tsan" ]; then
    BUILD_DIR=build-tsan
    EXTRA=(-DK2_SANITIZE=thread)
elif [ "$MODE" = "--bench" ]; then
    REF="${2:-main}"
    BASE_REV="$(git merge-base HEAD "$REF")"
    if [ "$BASE_REV" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
        echo "bench gate: HEAD is on $REF and the working tree is clean," \
             "so the parent would be HEAD itself. Pass the commit the" \
             "change started from: scripts/check.sh --bench HEAD~N for" \
             "a change of N commits." >&2
        exit 2
    fi
    BASE_TREE=build-bench-base/src
    if [ ! -e "$BASE_TREE/.git" ]; then
        git worktree prune
        git worktree add --detach "$BASE_TREE" "$BASE_REV" >/dev/null
    else
        git -C "$BASE_TREE" checkout --quiet --detach "$BASE_REV"
    fi
    for tree in "$BASE_TREE:build-bench-base/build" ".:build-bench"; do
        src="${tree%%:*}"
        out="${tree#*:}"
        cmake -B "$out" -S "$src" -G Ninja \
            -DCMAKE_BUILD_TYPE=Release >/dev/null
        cmake --build "$out" --target micro_sim
    done
    echo "bench gate: parent $(git rev-parse --short "$BASE_REV")" \
         "vs the working tree"
    scripts/compare_bench.py --ab build-bench-base/build/bench/micro_sim \
        build-bench/bench/micro_sim
    scripts/compare_bench.py --scaling build-bench/bench/micro_sim
    echo "bench gate: no regressions vs the parent, per-op cost" \
         "independent of iteration count"
    exit 0
fi

# Prefer Ninja for fresh trees, but reuse whatever generator an
# existing build dir was configured with (the tier-1 instructions
# create build/ with the default generator).
GEN=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    GEN=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${GEN[@]}" "${EXTRA[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j

if [ "$MODE" = "--tsan" ]; then
    # Race-check the parallel sweep paths, then exercise a ported
    # sweep binary and the testbed at an adversarial thread count.
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
        -R 'SweepRunner|ParseJobsFlag'
    "$BUILD_DIR"/bench/fig6a_dma_energy --jobs=13 >/dev/null
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        >/dev/null
    # The fault plane's injector/recovery state is per-cell; shard a
    # faulty sweep across threads to race-check it too.
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        --faults="mailbox.drop:p=0.2,mailbox.dup:p=0.1" >/dev/null
    # Replicated shadows add a vote/election plane on top of the fault
    # plane; shard a leader-crash sweep to race-check it.
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        --replicas=3 --faults="domain.crash:at=5ms:dom=1:len=2ms" \
        >/dev/null
    # The read-sharing coherence protocols add per-holder invalidation
    # fan-out and dirty forwards to the sweep cells; race-check one
    # under an adversarial thread count.
    "$BUILD_DIR"/bench/fig6b_ext2_energy --dsm=mesi --jobs=13 >/dev/null
    # Warm (boot-once snapshot/fork) vs cold sweeps must emit
    # byte-identical artifacts even at an adversarial thread count.
    "$BUILD_DIR"/bench/fig6a_dma_energy --sweep=warm --jobs=13 \
        > "$BUILD_DIR/snap-warm.txt"
    "$BUILD_DIR"/bench/fig6a_dma_energy --sweep=cold --jobs=13 \
        > "$BUILD_DIR/snap-cold.txt"
    diff "$BUILD_DIR/snap-warm.txt" "$BUILD_DIR/snap-cold.txt"
    # The fleet's streaming-reducer lanes are the newest parallel
    # surface: race-check a sharded population and its lane merges,
    # then at fleet scale -- 100k devices shard into enough cells to
    # exercise every lane joint (calibration memoization, chunked SoA
    # synthesis, sketch folds) under the race detector. Leave stderr
    # attached: it carries the throughput line but also any TSan
    # report, which a 2>/dev/null would silently discard (that hid a
    # real signgam race in lgamma once).
    "$BUILD_DIR"/src/workloads/fleet --devices=600 --hours=4 --jobs=13 \
        > "$BUILD_DIR/fleet-tsan.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=600 --hours=4 --jobs=1 \
        | diff - "$BUILD_DIR/fleet-tsan.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 \
        --jobs=13 > "$BUILD_DIR/fleet-tsan-big.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 \
        --jobs=1 | diff - "$BUILD_DIR/fleet-tsan-big.txt"
    echo "tsan: parallel sweep tests + warm/cold identity OK"
    exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Dead-code scan: every k2:: function a src/ library defines must be
# reached by a product binary or be listed in scripts/deadcode.allow.
# It builds its own tree, so the sanitizer pass skips it.
if [ "$MODE" != "--asan" ]; then
    scripts/deadcode.sh
fi

# Benchmark build: k2perf/ is its own CMake package over src/ (the
# Release build k2perf/run.py makes), so a library API change that
# breaks the benchmark fails here. Then run the benchmark's own tests.
# Its own tree too, so the sanitizer pass skips it.
if [ "$MODE" != "--asan" ]; then
    K2PERF_GEN=()
    if [ ! -f build-k2perf/CMakeCache.txt ]; then
        K2PERF_GEN=(-G Ninja)
    fi
    cmake -S k2perf -B build-k2perf "${K2PERF_GEN[@]}" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-k2perf -j
    ctest --test-dir build-k2perf --output-on-failure
    echo "k2perf: benchmark package builds against the tree, tests OK"
fi

# Observability smoke: one short testbed run must emit a metrics
# snapshot and a Chrome trace that both parse as JSON. Every metric
# is a counter, a gauge or a histogram (a sim::QuantileSketch, the one
# distribution type), and every non-empty histogram is consistent:
# min <= p50 <= p99 <= max, and count * mean equals sum. JSON numbers
# carry 9 significant digits ("%.9g"), so mean and sum are each off by
# up to 5e-9 relative: the sum check allows 1e-8, which exact values
# always meet. The fault and replication smokes below check their
# snapshots the same way.
OBS_DIR="$BUILD_DIR/obs-smoke"
mkdir -p "$OBS_DIR"
check_metrics() {
    python3 - "$1" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
for k, v in m.items():
    assert v["kind"] in ("counter", "gauge", "histogram"), \
        f"{k}: unknown metric kind {v['kind']}"
    if v["kind"] != "histogram" or v["count"] == 0:
        continue
    assert v["min"] <= v["p50"] <= v["p99"] <= v["max"], \
        f"{k}: quantiles out of order: {v}"
    assert abs(v["count"] * v["mean"] - v["sum"]) <= 1e-8 * abs(v["sum"]), \
        f"{k}: count * mean != sum: {v}"
EOF
}
"$BUILD_DIR"/src/workloads/testbed --episodes=3 \
    --metrics="$OBS_DIR/metrics.json" --trace="$OBS_DIR/trace.json" \
    >/dev/null
python3 -m json.tool "$OBS_DIR/metrics.json" >/dev/null
python3 -m json.tool "$OBS_DIR/trace.json" >/dev/null
check_metrics "$OBS_DIR/metrics.json"
echo "observability smoke: metrics + trace JSON OK, histograms consistent"

# Fault-injection smoke: the same scenario under a lossy mailbox must
# still complete, with the ARQ shim actually recovering dropped mail
# (retransmits > 0, no giveups). Both runs are deterministic, so these
# assertions are exact, not flaky.
"$BUILD_DIR"/src/workloads/testbed --episodes=6 \
    --faults="mailbox.drop:p=0.2,mailbox.dup:p=0.1" \
    --metrics="$OBS_DIR/metrics_faults.json" >/dev/null
check_metrics "$OBS_DIR/metrics_faults.json"
python3 - "$OBS_DIR/metrics_faults.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
v = lambda k: m[k]["value"]
assert v("fault.injected.mailbox.drop") > 0, "no drops injected"
assert v("os.recovery.mail.retransmits") > 0, "ARQ never retransmitted"
assert v("os.recovery.mail.duplicates_dropped") > 0, "dup not suppressed"
assert v("os.recovery.mail.giveups") == 0, "ARQ gave up on a mail"
EOF
# Zero-fault guard: without --faults no fault/recovery metric may even
# exist in the snapshot (the plane must be fully disarmed).
python3 - "$OBS_DIR/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
bad = [k for k in m
       if k.startswith("fault.") or k.startswith("os.recovery")]
assert not bad, f"fault plane armed without --faults: {bad}"
EOF
echo "fault smoke: injection + ARQ recovery + disarmed guard OK"

# Replication smoke: with 3 replicas, crashing the initial leader must
# trigger exactly one election and one rejoin+resync, keep a quorum
# throughout, and leave the service fully available (no degraded
# spawns). Deterministic, so the assertions are exact.
"$BUILD_DIR"/src/workloads/testbed --system=k2 --episodes=6 \
    --replicas=3 --faults="domain.crash:at=5ms:dom=1:len=2ms" \
    --metrics="$OBS_DIR/metrics_replica.json" >/dev/null
check_metrics "$OBS_DIR/metrics_replica.json"
python3 - "$OBS_DIR/metrics_replica.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
v = lambda k: m["os.replica." + k]["value"]
assert v("elections") == 1, "leader crash must trigger one election"
assert v("election_oks") == 1, "election never completed"
assert v("rejoins") == 1, "revived replica never rejoined"
assert v("resyncs") == 1 and v("resync_pages") > 0, "no rejoin re-sync"
assert v("quorum_losses") == 0, "3-way group lost quorum on one crash"
assert m["os.recovery.degraded_spawns"]["value"] == 0, \
    "service degraded despite quorum"
assert v("vote_no_quorum") == 0, "a vote round failed quorum"
assert v("live") == 3, "crashed replica not live again at exit"
assert v("leader") != 0, "leadership never moved off the crashed replica"
EOF
echo "replication smoke: election + handoff + rejoin re-sync OK"

# Fleet smoke: a small population's JSON artifact must parse with the
# expected sketch series. (Its stdout and JSON at every shard count and
# fixture mode are fleet_300x6h* goldens.)
FLEET_DIR="$BUILD_DIR/fleet-smoke"
mkdir -p "$FLEET_DIR"
"$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 --jobs=1 \
    --report="$FLEET_DIR/warm_1.json" > "$FLEET_DIR/warm_1.txt" \
    2>/dev/null
python3 - "$FLEET_DIR/warm_1.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
for series in ("fleet.episode.energy_uj", "fleet.episode.latency_us",
               "fleet.device.energy_uj"):
    s = m[series]
    assert s["count"] > 0, f"{series} is empty"
    for tail in ("p50", "p90", "p99", "p999"):
        assert s[tail] is not None, f"{series} missing {tail}"
    assert s["p50"] <= s["p99"] <= s["max"], f"{series} tails disordered"
EOF
# Scale determinism smoke: a 100k-device population (hundreds of
# cells) must stay byte-identical across an adversarial shard count,
# and --diurnal must be deterministic too while --diurnal=0 must equal
# omitting the flag entirely.
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=13 \
    > "$FLEET_DIR/big_13.txt" 2>/dev/null
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=1 \
    2>/dev/null | diff - "$FLEET_DIR/big_13.txt"
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=4 \
    --diurnal=0 2>/dev/null | diff - "$FLEET_DIR/big_13.txt"
"$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 --jobs=13 \
    --diurnal=0.5 > "$FLEET_DIR/diurnal_13.txt" 2>/dev/null
"$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 --jobs=1 \
    --diurnal=0.5 2>/dev/null | diff - "$FLEET_DIR/diurnal_13.txt"
if cmp -s "$FLEET_DIR/diurnal_13.txt" "$FLEET_DIR/warm_1.txt"; then
    echo "error: --diurnal=0.5 did not change the fleet report" >&2
    exit 1
fi
echo "fleet smoke: 100k-device scale + diurnal determinism OK, JSON OK"

# Coherence protocol smoke: distinct protocols must actually produce
# distinct results (guard against the flag silently falling back to
# the default). fig6(b)'s rounded MB/J columns don't resolve the
# difference, but the testbed's episode timings and DSM fault
# breakdown do. (Each zoo protocol, DESIGN.md §14, under the fig6(b)
# sweep at every shard count and fixture mode is a
# fig6b_ext2_energy_<proto> golden.)
DSM_DIR="$BUILD_DIR/dsm-smoke"
mkdir -p "$DSM_DIR"
"$BUILD_DIR"/src/workloads/testbed --episodes=6 --dsm=2state \
    > "$DSM_DIR/testbed_2state.txt"
"$BUILD_DIR"/src/workloads/testbed --episodes=6 --dsm=3state \
    > "$DSM_DIR/testbed_3state.txt"
if cmp -s "$DSM_DIR/testbed_2state.txt" "$DSM_DIR/testbed_3state.txt"
then
    echo "error: --dsm=3state produced the 2state results" >&2
    exit 1
fi
echo "coherence smoke: protocols distinct"
