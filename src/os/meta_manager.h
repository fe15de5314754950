/**
 * @file
 * The meta-level memory manager (paper §6.2).
 *
 * Decides *when* page blocks move between K2 and the kernels; the
 * balloon drivers are the mechanism. Implemented, as in the paper, as
 * distributed probes: each kernel's page-allocator hooks monitor local
 * memory pressure; a per-kernel background thread (kmetad) reacts by
 * deflating K2-owned blocks into the kernel, or -- when K2 owns no
 * spare blocks -- by asking the peer kernel (through a BalloonGive
 * hardware message) to inflate one back first.
 *
 * Placement policy: the main kernel's blocks grow from the low end of
 * the global region (right after its local region, maximising its
 * contiguous memory); the shadow kernel's from the high end. Inflation
 * proceeds in the reverse directions.
 */

#ifndef K2_OS_META_MANAGER_H
#define K2_OS_META_MANAGER_H

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "kern/kernel.h"
#include "kern/layout.h"
#include "os/balloon.h"
#include "os/messages.h"

namespace k2 {
namespace os {

class MetaLevelManager
{
  public:
    enum class BlockOwner : std::uint8_t { Meta, Main, Shadow };

    /**
     * @param soc Platform.
     * @param kernels Main (0) and shadow (1) kernels.
     * @param global The global region from the address-space layout.
     */
    MetaLevelManager(soc::Soc &soc,
                     std::array<kern::Kernel *, 2> kernels,
                     kern::PageRange global);

    /** Blocks in the global region. */
    std::size_t numBlocks() const { return owners_.size(); }
    BlockOwner blockOwner(std::size_t idx) const { return owners_.at(idx); }
    kern::PageRange blockRange(std::size_t idx) const;

    std::uint64_t blocksOwnedBy(BlockOwner who) const;

    /**
     * Boot-time population: instantly hand @p count blocks to kernel
     * @p k (no simulated cost; this happens before time starts).
     */
    void bootstrapBlocks(KernelIdx k, std::size_t count);

    /** Install pressure probes and start the kmetad threads. */
    void start();

    /**
     * Pick and deflate one K2-owned block into kernel @p k's
     * allocator, from the policy end. Runs in @p t (of kernel k).
     *
     * @return The block index, or nullopt if K2 owns no blocks.
     */
    sim::Task<std::optional<std::size_t>> deflateOne(kern::Thread &t);

    /**
     * Inflate one block of @p t's kernel back to K2, from the policy
     * end. Tries successive blocks if evacuation fails.
     *
     * @return The block index, or nullopt if nothing reclaimable.
     */
    sim::Task<std::optional<std::size_t>> inflateOne(kern::Thread &t);

    /** Mail dispatch for BalloonGive / BalloonDone. */
    sim::Task<void> handleMail(KernelIdx to, Message msg, soc::Core &core);

    BalloonDriver &balloon(KernelIdx k) { return *balloons_[k]; }

    /** @name Statistics. @{ */
    sim::Counter pressureEvents;
    sim::Counter peerRequests;
    /** @} */

    /**
     * Capture/restore: the block-owner table, both balloon drivers,
     * the kmetad kick/peer-done events and pending-pressure flags.
     */
    void snapState(snap::Io &io);

  private:
    /** Deflate a block into a kernel when its free pages drop below
     *  this. */
    static constexpr std::uint64_t kLowWatermarkPages = 1024;
    /** Hardware spinlock index guarding the block-owner table. */
    static constexpr std::size_t kSpinlockIdx = 0;

    sim::Task<void> kmetad(KernelIdx k, kern::Thread &self);

    /** Next block to deflate into kernel @p k, per placement policy. */
    std::optional<std::size_t> pickMetaBlockFor(KernelIdx k) const;

    /** Next block kernel @p k should inflate, per placement policy. */
    std::optional<std::size_t> pickOwnedBlockOf(KernelIdx k,
                                                std::size_t skip) const;

    BlockOwner ownerEnum(KernelIdx k) const
    {
        return k == 0 ? BlockOwner::Main : BlockOwner::Shadow;
    }

    soc::Soc &soc_;
    std::array<kern::Kernel *, 2> kernels_;
    kern::PageRange global_;
    std::vector<BlockOwner> owners_;
    std::array<std::unique_ptr<BalloonDriver>, 2> balloons_;
    std::array<std::unique_ptr<sim::Event>, 2> kick_;
    std::array<bool, 2> pressurePending_{false, false};
    std::array<std::unique_ptr<sim::Event>, 2> peerDone_;
    bool started_ = false;
};

} // namespace os
} // namespace k2

#endif // K2_OS_META_MANAGER_H
