#include "os/meta_manager.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

MetaLevelManager::MetaLevelManager(soc::Soc &soc,
                                   std::array<kern::Kernel *, 2> kernels,
                                   kern::PageRange global)
    : soc_(soc), kernels_(kernels), global_(global)
{
    const std::size_t blocks = global.count / BalloonDriver::kBlockPages;
    K2_ASSERT(blocks > 0);
    owners_.assign(blocks, BlockOwner::Meta);
    for (KernelIdx k = 0; k < 2; ++k) {
        balloons_[k] = std::make_unique<BalloonDriver>(*kernels_[k]);
        kick_[k] = std::make_unique<sim::Event>(soc.engine());
        peerDone_[k] = std::make_unique<sim::Event>(soc.engine());
    }
}

kern::PageRange
MetaLevelManager::blockRange(std::size_t idx) const
{
    K2_ASSERT(idx < owners_.size());
    return kern::PageRange{
        global_.first + idx * BalloonDriver::kBlockPages,
        BalloonDriver::kBlockPages};
}

std::uint64_t
MetaLevelManager::blocksOwnedBy(BlockOwner who) const
{
    std::uint64_t n = 0;
    for (const auto o : owners_)
        n += (o == who);
    return n;
}

void
MetaLevelManager::bootstrapBlocks(KernelIdx k, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        auto idx = pickMetaBlockFor(k);
        if (!idx)
            K2_FATAL("bootstrap: K2 owns no spare page blocks");
        owners_[*idx] = ownerEnum(k);
        kernels_[k]->pageAllocator().addFreeRange(blockRange(*idx));
    }
}

std::optional<std::size_t>
MetaLevelManager::pickMetaBlockFor(KernelIdx k) const
{
    // Main grows from the low end of the global region; shadow from
    // the high end (§6.2 optimisation 2).
    if (k == 0) {
        for (std::size_t i = 0; i < owners_.size(); ++i) {
            if (owners_[i] == BlockOwner::Meta)
                return i;
        }
    } else {
        for (std::size_t i = owners_.size(); i-- > 0;) {
            if (owners_[i] == BlockOwner::Meta)
                return i;
        }
    }
    return std::nullopt;
}

std::optional<std::size_t>
MetaLevelManager::pickOwnedBlockOf(KernelIdx k, std::size_t skip) const
{
    // Inflate in the reverse direction of deflation.
    const BlockOwner who = k == 0 ? BlockOwner::Main : BlockOwner::Shadow;
    std::size_t seen = 0;
    if (k == 0) {
        for (std::size_t i = owners_.size(); i-- > 0;) {
            if (owners_[i] == who && seen++ >= skip)
                return i;
        }
    } else {
        for (std::size_t i = 0; i < owners_.size(); ++i) {
            if (owners_[i] == who && seen++ >= skip)
                return i;
        }
    }
    return std::nullopt;
}

void
MetaLevelManager::start()
{
    K2_ASSERT(!started_);
    started_ = true;
    for (KernelIdx k = 0; k < 2; ++k) {
        kernels_[k]->setPressureProbe(
            [this, k](std::uint64_t free_pages) {
                if (free_pages < kLowWatermarkPages && !pressurePending_[k]) {
                    pressurePending_[k] = true;
                    pressureEvents.inc();
                    kick_[k]->pulse();
                }
            });
        kernels_[k]->spawnThread(
            nullptr, "kmetad", kern::ThreadKind::Normal,
            [this, k](kern::Thread &self) { return kmetad(k, self); });
    }
}

sim::Task<void>
MetaLevelManager::kmetad(KernelIdx k, kern::Thread &self)
{
    // Background daemon: reacts to local memory pressure by growing
    // the local kernel's memory one page block at a time.
    for (;;) {
        if (!pressurePending_[k])
            co_await self.wait(*kick_[k]);
        pressurePending_[k] = false;

        auto got = co_await deflateOne(self);
        if (!got) {
            // K2 owns no spare blocks: ask the peer to inflate one.
            peerRequests.inc();
            peerDone_[k]->reset();
            kernels_[k]->sendMail(
                kernels_[1 - k]->domainId(),
                encodeMessage(MsgType::Control,
                              encodeCtl(CtlOp::BalloonGive, 0), 0));
            co_await self.wait(*peerDone_[k]);
            (void)co_await deflateOne(self);
        }
    }
}

sim::Task<std::optional<std::size_t>>
MetaLevelManager::deflateOne(kern::Thread &t)
{
    auto &kern = t.kernel();
    const KernelIdx k = (&kern == kernels_[0]) ? 0 : 1;

    // The block-owner table is shared K2 state guarded by a hardware
    // spinlock.
    co_await soc_.spinlocks().acquire(kSpinlockIdx, t.core());
    auto idx = pickMetaBlockFor(k);
    if (!idx) {
        soc_.spinlocks().release(kSpinlockIdx);
        co_return std::nullopt;
    }
    owners_[*idx] = ownerEnum(k);
    soc_.spinlocks().release(kSpinlockIdx);

    K2_TRACE(soc_.engine(), sim::TraceCat::Mem, "deflate block %zu -> %s",
             *idx, kernels_[k]->name().c_str());
    co_await balloons_[k]->deflate(t, blockRange(*idx));
    co_return idx;
}

sim::Task<std::optional<std::size_t>>
MetaLevelManager::inflateOne(kern::Thread &t)
{
    auto &kern = t.kernel();
    const KernelIdx k = (&kern == kernels_[0]) ? 0 : 1;

    for (std::size_t skip = 0;; ++skip) {
        co_await soc_.spinlocks().acquire(kSpinlockIdx, t.core());
        auto idx = pickOwnedBlockOf(k, skip);
        soc_.spinlocks().release(kSpinlockIdx);
        if (!idx)
            co_return std::nullopt;

        if (co_await balloons_[k]->inflate(t, blockRange(*idx))) {
            co_await soc_.spinlocks().acquire(kSpinlockIdx, t.core());
            owners_[*idx] = BlockOwner::Meta;
            soc_.spinlocks().release(kSpinlockIdx);
            K2_TRACE(soc_.engine(), sim::TraceCat::Mem,
                     "inflate block %zu <- %s", *idx,
                     kernels_[k]->name().c_str());
            co_return idx;
        }
        // Evacuation failed (unmovable pages); try the next candidate.
    }
}

sim::Task<void>
MetaLevelManager::handleMail(KernelIdx to, Message msg, soc::Core &core)
{
    (void)core;
    switch (msg.type) {
      case MsgType::Control: {
        K2_ASSERT(ctlOp(msg.payload) == CtlOp::BalloonGive);
        // Peer needs memory: inflate one of our blocks in the
        // background and tell it when done.
        kernels_[to]->spawnThread(
            nullptr, "balloon-give", kern::ThreadKind::Normal,
            [this, to](kern::Thread &self) -> sim::Task<void> {
                (void)co_await inflateOne(self);
                kernels_[to]->sendMail(
                    kernels_[1 - to]->domainId(),
                    encodeMessage(MsgType::BalloonDone, 0, 0));
            });
        co_return;
      }
      case MsgType::BalloonDone:
        peerDone_[to]->pulse();
        co_return;
      default:
        K2_PANIC("meta manager received unexpected message type %u",
                 static_cast<unsigned>(msg.type));
    }
}

void
MetaLevelManager::snapState(snap::Io &io)
{
    io.check(owners_.size(), "Meta::blocks");
    io.podVec(owners_);
    io.pod(started_);
    io.pod(pressurePending_);
    io.pod(pressureEvents);
    io.pod(peerRequests);
    for (std::size_t k = 0; k < 2; ++k) {
        balloons_[k]->snapState(io);
        // The kmetad threads park on these between pressure events.
        kick_[k]->snapState(io);
        peerDone_[k]->snapState(io);
    }
}

} // namespace os
} // namespace k2
