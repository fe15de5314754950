#!/usr/bin/env bash
# Rewrite the tracked golden artifacts (tests/golden/*.txt) from a
# build's current output, then show what moved. Do this only for an
# intended model change, and commit the golden diff with that change.
#
# Usage: scripts/regolden.sh [build-dir]   (default: build)
#
# The goldens are whatever k2_golden_test registers in
# tests/CMakeLists.txt: each <NAME>_golden ctest runs a command and
# diffs its output (its stdout, or the file it writes to <NAME>.out)
# against tests/golden/<NAME>.txt; a k2_golden_digest test keeps the
# sha256 of the file its command writes in tests/golden/<NAME>.sha256.
# This script reads those commands back from ctest and reruns them;
# k2_golden_variant tests share another test's golden and are not rerun
# here.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD_DIR="${1:-build}"
GEN=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    GEN=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${GEN[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

ctest --test-dir "$BUILD_DIR" -R '_golden$' --show-only=json-v1 \
    > "$BUILD_DIR/golden-tests.json"
python3 - "$BUILD_DIR/golden-tests.json" <<'EOF'
import hashlib, json, subprocess, sys

tests = json.load(open(sys.argv[1]))["tests"]
written = set()
for t in tests:
    # Every golden test registers: sh -c SCRIPT GOLDEN OUT TARGET ARGS...
    # The first test of a golden file (its k2_golden_test) writes it;
    # the variants registered after it only diff against it.
    golden, out, cmd = t["command"][3], t["command"][4], t["command"][5:]
    if golden in written:
        continue
    if any(out in arg for arg in cmd):
        # The command writes the artifact itself (--metrics=<out>).
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        data = open(out, "rb").read()
    else:
        data = subprocess.run(cmd, check=True,
                              stdout=subprocess.PIPE).stdout
    if golden.endswith(".sha256"):
        data = (hashlib.sha256(data).hexdigest() + "\n").encode()
    with open(golden, "wb") as f:
        f.write(data)
    written.add(golden)
print(f"regolden: rewrote {len(written)} golden file(s)")
EOF
git diff --stat -- tests/golden
