/**
 * @file
 * Per-kernel balloon driver (paper §6.2).
 *
 * K2 retrofits the virtual-machine balloon-driver idea to move
 * physically contiguous 16 MB page blocks between K2 (the meta level)
 * and the individual kernels' page allocators:
 *
 *  - deflate: the driver frees a page block to the local page
 *    allocator, transferring ownership K2 -> kernel;
 *  - inflate: the driver allocates a page block back from the kernel,
 *    forcing it to evacuate (migrate) movable pages from the block,
 *    transferring ownership kernel -> K2.
 *
 * The balloon needs no change to the buddy allocator: it uses the
 * allocator's contiguous-range donate/reclaim interface, mirroring how
 * the real driver builds on Linux CMA. Costs are dominated by page
 * movement through the shared interconnect (similar on both kernels)
 * plus per-page kernel bookkeeping (slower on the weak core), which is
 * why Table 4 shows balloon operations only ~1.2-1.8x slower on the
 * shadow kernel while allocations are ~12x slower.
 */

#ifndef K2_OS_BALLOON_H
#define K2_OS_BALLOON_H

#include "sim/sketch.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "kern/kernel.h"
#include "kern/types.h"
#include "snap/io.h"

namespace k2 {
namespace os {

class BalloonDriver
{
  public:
    /** Pages per balloon page block: 16 MB of 4 KB pages. */
    static constexpr std::uint64_t kBlockPages = 4096;

    /** @name Cost model (one value each, no caller varies them). @{ */
    /** Interconnect time per page on deflate (free-list insert,
     *  struct-page writes). */
    static constexpr sim::Duration kPlatformPerPageDeflate = sim::nsec(2300);
    /** Interconnect time per page on inflate (scan + remap). */
    static constexpr sim::Duration kPlatformPerPageInflate = sim::nsec(2400);
    /** Kernel bookkeeping work units per page. */
    static constexpr std::uint64_t kWorkPerPageDeflate = 28;
    static constexpr std::uint64_t kWorkPerPageInflate = 55;
    /** Extra interconnect time per migrated page (the copy). */
    static constexpr sim::Duration kPerMigratedPage = sim::usec(3);
    /** @} */

    explicit BalloonDriver(kern::Kernel &kernel) : kernel_(kernel) {}

    kern::Kernel &kernel() { return kernel_; }

    /**
     * Deflate: release @p block to the local kernel's page allocator.
     * Must run in a thread of the owning kernel.
     */
    sim::Task<void> deflate(kern::Thread &t, kern::PageRange block);

    /**
     * Inflate: reclaim @p block from the local kernel's allocator,
     * evacuating movable pages.
     *
     * @return false if the block could not be reclaimed (unmovable
     *         pages or insufficient free memory to migrate into).
     */
    sim::Task<bool> inflate(kern::Thread &t, kern::PageRange block);

    /** @name Statistics (latencies in microseconds). @{ */
    sim::Counter deflates;
    sim::Counter inflates;
    sim::Counter failedInflates;
    sim::QuantileSketch deflateUs;
    sim::QuantileSketch inflateUs;
    sim::QuantileSketch migratedPages;
    /** @} */

    /** Capture/restore: the driver is stateless beyond its stats. */
    void
    snapState(snap::Io &io)
    {
        io.pod(deflates);
        io.pod(inflates);
        io.pod(failedInflates);
        deflateUs.snapState(io);
        inflateUs.snapState(io);
        migratedPages.snapState(io);
    }

  private:
    kern::Kernel &kernel_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_BALLOON_H
