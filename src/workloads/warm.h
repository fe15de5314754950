/**
 * @file
 * Boot-once sweep mode: warm-fixture pool over snap::Snapshot.
 *
 * Sweep binaries spend most of their wall-clock booting identical
 * systems: every cell builds a Testbed (two kernel boots, DSM region
 * setup, mkfs on a 64 MB ramdisk) only to run a millisecond-scale
 * episode on it. warmFixture() removes that cost: the first cell per
 * (configuration key, host thread) builds the fixture, quiesces it,
 * and captures a snap::Snapshot; every later cell with the same key
 * rewinds the pooled instance to that image instead of rebooting.
 *
 * Correctness invariant: a restored fixture is byte-identical to a
 * freshly booted one (the snapshot layer rewrites *all* semantic
 * state -- clock, RNG streams, allocator free lists, tracer cursors,
 * service state, disk blocks), so per-cell artifacts are unchanged
 * between `--sweep=warm` and `--sweep=cold` at any `--jobs=N`.
 * tests/snap_test.cpp and the warm/cold x jobs goldens
 * (tests/CMakeLists.txt) enforce this. Each fork restores the image
 * the master last synced with, so it rewrites only what the previous
 * cell wrote (DESIGN.md §10).
 *
 * The pool is thread_local: SweepRunner worker threads never share a
 * fixture, cells on one thread run serially, and masters are destroyed
 * at thread exit.
 */

#ifndef K2_WORKLOADS_WARM_H
#define K2_WORKLOADS_WARM_H

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "snap/snapshot.h"
#include "workloads/testbed.h"

namespace k2 {
namespace wl {

/** How a sweep binary provisions per-cell fixtures. */
enum class SweepMode
{
    Cold, //!< Boot a fresh fixture for every cell (legacy behaviour).
    Warm, //!< Boot once per (key, thread), fork from a snapshot after.
};

/** Human-readable mode name for banners. */
const char *sweepModeName(SweepMode mode);

/**
 * Parse and strip a `--sweep=cold|warm` flag from argv; Warm when the
 * flag is absent.
 */
SweepMode parseSweepFlag(int &argc, char **argv);

/**
 * Provision a fixture for one sweep cell.
 *
 * @tparam T Fixture type exposing `sim::Engine &engine()` and
 *         `void snapState(snap::Io &)` -- e.g. wl::Testbed.
 * @param mode Warm forks from the pooled snapshot; Cold rebuilds.
 * @param key Configuration identity: cells whose @p make produces an
 *        identical fixture must agree on the key, cells with different
 *        configurations must not collide.
 * @param make Factory for a cold fixture. Called on the first warm use
 *        of @p key per thread, and on every cold call.
 * @return A quiesced fixture in the post-boot state. Valid until the
 *         next warmFixture() call with the same key on this thread.
 */
template <typename T>
T &
warmFixture(SweepMode mode, const std::string &key,
            const std::function<std::unique_ptr<T>()> &make)
{
    struct Entry
    {
        std::unique_ptr<T> master;
        snap::Snapshot image;
    };
    thread_local std::map<std::string, Entry> pool;

    Entry &e = pool[key];
    if (mode == SweepMode::Cold) {
        // Rebuild from scratch; reusing the slot just bounds the pool.
        // The image is dropped too: a cold master is dirty after its
        // cell runs, so it must never seed a later warm fork.
        e.image = snap::Snapshot();
        e.master = make();
        e.master->engine().run();
        return *e.master;
    }
    if (e.image.empty()) {
        e.master = make();
        e.master->engine().run(); // Quiesce before capture.
        e.image = snap::Snapshot::of(*e.master);
    } else {
        e.image.restore(*e.master);
    }
    return *e.master;
}

/**
 * Pool a K2 testbed under @p key. Cells whose @p cfg produces a
 * different configuration must use a different key. A null @p cfg
 * means the default K2Config.
 */
Testbed &warmK2(SweepMode mode, const std::string &key,
                const std::function<os::K2Config()> &cfg = {});

/** Pool a baseline-Linux testbed under @p key. */
Testbed &warmLinux(SweepMode mode, const std::string &key,
                   const std::function<baseline::LinuxConfig()> &cfg = {});

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_WARM_H
