#!/usr/bin/env bash
# Dead-code scan: list every k2:: function that a src/ library defines
# but no product binary contains, and fail if one is not allowed by
# scripts/deadcode.allow.
#
# Usage: scripts/deadcode.sh
#
# The product binaries are the paper binaries in bench/ (all but
# micro_sim), the examples, testbed and fleet. build-deadcode/ is
# compiled at -O0, so no call is inlined away, with one section per
# function, and linked with --gc-sections, so a binary keeps exactly
# the functions it can reach. A function defined in a library and kept
# by no binary is reachable only from tests, or from nothing.
#
# An allowed function is named in deadcode.allow by its qualified name,
# then " # " and a one-line reason. The entry also covers the
# function's coroutine clones, its lambdas, and template instances that
# name it. Only functions nested in namespace k2 are scanned:
# standard-library instantiations on k2 types are not. An entry that
# matches no unreached function is stale and fails the scan too.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD_DIR=build-deadcode
PRODUCTS=(
    bench/ablation_arch_features bench/ablation_dsm_protocol
    bench/ablation_fault_tolerance bench/ablation_shared_allocator
    bench/extension_ndomain bench/fig1_power_perf bench/fig6a_dma_energy
    bench/fig6b_ext2_energy bench/fig6b_sd_variant bench/fig6c_udp_energy
    bench/goal3_performance bench/nightwatch_overhead
    bench/standby_extension bench/table4_alloc_latency
    bench/table5_dsm_fault bench/table6_dma_concurrent
    examples/quickstart examples/email_sync examples/sensor_logging
    examples/driver_sharing examples/three_domain
    src/workloads/testbed src/workloads/fleet
)

GEN=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    GEN=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${GEN[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
TARGETS=()
BINS=()
for p in "${PRODUCTS[@]}"; do
    TARGETS+=("$(basename "$p")")
    BINS+=("$BUILD_DIR/$p")
done
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}"

python3 - "$ROOT/scripts/deadcode.allow" "$BUILD_DIR"/src/*/lib*.a \
    -- "${BINS[@]}" <<'EOF'
import re, subprocess, sys

# Mangled names of functions nested in namespace k2, including local
# entities (lambdas) of k2 functions. std:: instantiations on k2 types
# mangle as _ZNSt... and do not match.
K2_FUNC = re.compile(r"^_ZZ?N[rVKRO]*2k2")

def functions(path):
    """Demangled signatures of the k2:: functions defined in @path."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    mangled = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWw" and K2_FUNC.match(parts[2]):
            mangled.add(parts[2])
    return set(subprocess.run(["c++filt"], input="\n".join(mangled),
                              check=True, capture_output=True,
                              text=True).stdout.splitlines())

args = sys.argv[1:]
sep = args.index("--")
allow_file, libs, bins = args[0], args[1:sep], args[sep + 1:]

# An entry matches a signature that contains it as a whole name.
allowed = {}
for line in open(allow_file):
    name = line.split(" #", 1)[0].strip()
    if name:
        allowed[name] = re.compile(re.escape(name) + r"(?!\w)")

defined = set().union(*(functions(lib) for lib in libs))
reached = set().union(*(functions(b) for b in bins))
dead = sorted(defined - reached)

used = set()
unexpected = []
for sig in dead:
    hits = [name for name, pat in allowed.items() if pat.search(sig)]
    used.update(hits)
    if not hits:
        unexpected.append(sig)
stale = sorted(set(allowed) - used)
for sig in unexpected:
    print(f"dead: {sig}")
for name in stale:
    print(f"stale allow entry: {name}")
if unexpected or stale:
    print(f"deadcode: {len(unexpected)} unreached function(s) not in "
          f"{allow_file}, {len(stale)} stale entries", file=sys.stderr)
    sys.exit(1)
print(f"deadcode: {len(defined)} k2:: functions in src/ libraries, "
      f"{len(dead)} unreached, all allowed")
EOF
