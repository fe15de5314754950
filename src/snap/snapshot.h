/**
 * @file
 * Warm-state snapshot of a quiesced simulation.
 *
 * Snapshot::of() captures any object exposing snapState(snap::Io &)
 * -- in practice a wl::Testbed, an os::SystemImage, or a raw
 * sim::Engine -- into a compact in-memory byte image; restore() writes
 * that image back, returning the instance to the captured state.
 * Restoring is the "fork" operation of the boot-once sweep mode:
 * instead of duplicating host objects, the captured instance itself is
 * rewound, which is equivalent to handing out a fresh warm clone
 * because *all* semantic state (simulated clock, event-pool free-list
 * permutation, RNG streams, energy accumulators, tracer cursors,
 * service state, disk blocks) is rewritten exactly.
 *
 * Each image carries a process-unique id. A component with bulk state
 * rewrites only what it changed since it last synced with the image
 * being restored (see snap/io.h), so a fork costs what the cell
 * touched, not what the fixture holds. The id is bookkeeping, not
 * content: it is not part of the bytes and operator== ignores it.
 *
 * Preconditions (asserted by the component snapState methods):
 *  - The engine is quiescent: Engine::run() returned, the event heap
 *    is empty and no live records remain. All scheduler core loops are
 *    parked, all threads are Blocked or Done, no DSM fault, DMA
 *    transfer, or reliable-mail exchange is in flight.
 *  - Restore targets the instance the snapshot was captured from (or
 *    one whose structural history extends it): objects that only ever
 *    grow (kernel thread tables, processes, DSM page infos, tracer
 *    tracks) are pruned back to the captured prefix; they are never
 *    recreated from bytes.
 *
 * See DESIGN.md §10 for the full model.
 */

#ifndef K2_SNAP_SNAPSHOT_H
#define K2_SNAP_SNAPSHOT_H

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "snap/io.h"

namespace k2 {
namespace snap {

class Snapshot
{
  public:
    Snapshot() = default;

    /** Capture @p target's state (it must be quiesced). */
    template <typename T>
    static Snapshot
    of(T &target)
    {
        Snapshot s;
        s.id_ = nextId();
        Io io(s.bytes_, s.id_);
        target.snapState(io);
        return s;
    }

    /** Rewind @p target to the captured state. */
    template <typename T>
    void
    restore(T &target) const
    {
        K2_ASSERT(!bytes_.empty());
        Io io(bytes_, id_);
        target.snapState(io);
        io.finish();
    }

    bool empty() const { return bytes_.empty(); }

    /** Image size in bytes (compactness metric). */
    std::size_t sizeBytes() const { return bytes_.size(); }

    /** Byte-level image comparison (round-trip tests); ids differ
     *  between captures of identical state. */
    bool
    operator==(const Snapshot &other) const
    {
        return bytes_ == other.bytes_;
    }

  private:
    /** One counter for the whole process (not per of<T>), from any
     *  host thread. */
    static std::uint64_t
    nextId()
    {
        static std::atomic<std::uint64_t> last{0};
        return last.fetch_add(1) + 1;
    }

    std::vector<std::uint8_t> bytes_;
    std::uint64_t id_ = 0; //!< 0 for an empty snapshot.
};

} // namespace snap
} // namespace k2

#endif // K2_SNAP_SNAPSHOT_H
