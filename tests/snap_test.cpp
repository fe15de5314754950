/**
 * @file
 * Warm-state snapshot/fork: the boot-once sweep mode's correctness
 * contract.
 *
 *  - capture/restore round-trips: restoring and re-capturing yields a
 *    byte-identical image;
 *  - fork-vs-cold: a forked (restored) fixture produces bit-identical
 *    episode results and an identical end-state image to a freshly
 *    booted one, for every fig6-style workload and on the baseline;
 *  - sibling independence: work done on one fork leaves no residue in
 *    the next;
 *  - fault interaction: a snapshot taken with the fault plane armed
 *    rewinds the injector's RNG streams, so forks replay the same
 *    fault sequence a cold boot sees;
 *  - the sync rule: restoring the image an instance last synced with
 *    rewrites only what it wrote since (buddy metadata chunks, disk
 *    blocks), restoring any other image rewrites everything, and both
 *    land on the image byte for byte;
 *  - equal state, equal image: no padding byte reaches the image.
 */

#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "kern/buddy.h"
#include "sim/sketch.h"
#include "snap/snapshot.h"
#include "svc/sdcard.h"
#include "workloads/benchmarks.h"
#include "workloads/episode.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace {

using namespace k2;

/** Exact (bit-level) episode-result comparison; the simulation is
 *  deterministic, so even the doubles must match. */
void
expectSameResult(const wl::EpisodeResult &a, const wl::EpisodeResult &b)
{
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.runTime, b.runTime);
    EXPECT_EQ(a.episodeTime, b.episodeTime);
    EXPECT_EQ(a.energyUj, b.energyUj);
}

wl::EpisodeResult
dmaEpisode(wl::Testbed &tb)
{
    return wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                              wl::dmaCopy(tb.dma(), 4096, 64 * 1024));
}

wl::EpisodeResult
ext2Episode(wl::Testbed &tb)
{
    return wl::runEpisodeWarm(tb.sys(), tb.proc(), "ext2",
                              wl::ext2Sync(tb.fs(), 8192, 4));
}

wl::EpisodeResult
udpEpisode(wl::Testbed &tb)
{
    return wl::runEpisodeWarm(tb.sys(), tb.proc(), "udp",
                              wl::udpLoopback(tb.udp(), 8192,
                                              32 * 1024));
}

TEST(SnapshotTest, CaptureIsIdempotent)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const snap::Snapshot a = snap::Snapshot::of(tb);
    const snap::Snapshot b = snap::Snapshot::of(tb);
    EXPECT_FALSE(a.empty());
    EXPECT_GT(a.sizeBytes(), 0u);
    EXPECT_EQ(a, b);
}

TEST(SnapshotTest, RestoreRoundTripsToIdenticalImage)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const snap::Snapshot boot = snap::Snapshot::of(tb);

    // Dirty every subsystem, then rewind.
    (void)dmaEpisode(tb);
    (void)ext2Episode(tb);
    (void)udpEpisode(tb);
    const snap::Snapshot after = snap::Snapshot::of(tb);
    EXPECT_NE(boot, after);

    boot.restore(tb);
    EXPECT_EQ(boot, snap::Snapshot::of(tb));
}

TEST(SnapshotTest, RestoreRejectsExtraLiveThread)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const snap::Snapshot boot = snap::Snapshot::of(tb);

    // A thread spawned after the capture and still blocked is live
    // state the image knows nothing about.
    sim::Event never(tb.engine());
    tb.sys().spawnNormal(tb.proc(), "stray",
                         [&never](kern::Thread &t) -> sim::Task<void> {
                             co_await t.wait(never);
                         });
    tb.engine().run();
    EXPECT_THROW(boot.restore(tb), sim::FatalError);
}

TEST(SnapshotTest, RestoreRoundTripsOnBaseline)
{
    auto tb = wl::Testbed::makeLinux();
    tb.engine().run();
    const snap::Snapshot boot = snap::Snapshot::of(tb);
    (void)ext2Episode(tb);
    boot.restore(tb);
    EXPECT_EQ(boot, snap::Snapshot::of(tb));
}

/** A sketch has padding before its 128-bit sum. Two sketches of equal
 *  state, built over memory that held different bytes, must capture to
 *  the same image. */
TEST(SnapshotTest, SketchImageIgnoresPadding)
{
    std::vector<std::uint8_t> images[2];
    for (int i = 0; i < 2; ++i) {
        alignas(sim::QuantileSketch) unsigned char
            mem[sizeof(sim::QuantileSketch)];
        std::memset(mem, i == 0 ? 0x00 : 0xA5, sizeof mem);
        auto *sketch = new (mem) sim::QuantileSketch;
        sketch->sample(3.0);
        sketch->sample(1500.0);
        snap::Io io(images[i], 1);
        sketch->snapState(io);
    }
    EXPECT_EQ(images[0], images[1]);
}

/** Fork-vs-cold byte identity over every fig6-style workload. */
TEST(SnapshotTest, ForkedEpisodesMatchColdBoot)
{
    using Episode = wl::EpisodeResult (*)(wl::Testbed &);
    const Episode episodes[] = {dmaEpisode, ext2Episode, udpEpisode};

    // Warm path: one boot, one fork per episode.
    auto warm = wl::Testbed::makeK2();
    warm.engine().run();
    const snap::Snapshot image = snap::Snapshot::of(warm);

    for (Episode ep : episodes) {
        // Cold path: a dedicated boot for this episode.
        auto cold = wl::Testbed::makeK2();
        cold.engine().run();
        const wl::EpisodeResult want = ep(cold);
        const snap::Snapshot coldEnd = snap::Snapshot::of(cold);

        image.restore(warm);
        const wl::EpisodeResult got = ep(warm);
        expectSameResult(want, got);
        EXPECT_EQ(coldEnd, snap::Snapshot::of(warm));
    }
}

TEST(SnapshotTest, SiblingForksAreIndependent)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const snap::Snapshot image = snap::Snapshot::of(tb);

    const wl::EpisodeResult first = dmaEpisode(tb);

    // A sibling fork running a different workload...
    image.restore(tb);
    (void)udpEpisode(tb);
    (void)ext2Episode(tb);

    // ...must not perturb a later fork of the same workload.
    image.restore(tb);
    expectSameResult(first, dmaEpisode(tb));
}

TEST(SnapshotTest, ForkReplaysInjectedFaults)
{
    auto makeCfg = [] {
        os::K2Config cfg;
        fault::FaultSpec drop;
        drop.kind = fault::FaultKind::MailDrop;
        drop.p = 1e-2;
        cfg.faults.add(drop);
        fault::FaultSpec err;
        err.kind = fault::FaultKind::DmaTransferError;
        err.p = 1e-2;
        cfg.faults.add(err);
        return cfg;
    };

    auto cold = wl::Testbed::makeK2(makeCfg());
    cold.engine().run();
    const wl::EpisodeResult want = dmaEpisode(cold);

    auto warm = wl::Testbed::makeK2(makeCfg());
    warm.engine().run();
    const snap::Snapshot image = snap::Snapshot::of(warm);
    (void)dmaEpisode(warm); // Consume RNG draws and recovery state.
    image.restore(warm);
    expectSameResult(want, dmaEpisode(warm));

    // And the fault sequence is identical again on a third fork.
    image.restore(warm);
    expectSameResult(want, dmaEpisode(warm));
}

/** The warmFixture pool itself: warm and cold modes agree. */
TEST(SnapshotTest, WarmFixtureMatchesColdFixture)
{
    const auto runCell = [](wl::SweepMode mode) {
        auto &tb = wl::warmK2(mode, "snap-test-k2");
        return ext2Episode(tb);
    };
    const wl::EpisodeResult cold = runCell(wl::SweepMode::Cold);
    const wl::EpisodeResult warm1 = runCell(wl::SweepMode::Warm);
    const wl::EpisodeResult warm2 = runCell(wl::SweepMode::Warm);
    expectSameResult(cold, warm1);
    expectSameResult(cold, warm2);
}

/**
 * Every buddy write path, one per delta restore: capture (which syncs
 * the allocator with the image), write, restore. The restore copies
 * back only the chunks the writer marked, so a writer that forgot to
 * mark one leaves a re-capture that differs from the image.
 */
TEST(SnapshotTest, BuddyDeltaRestoreCoversEveryWritePath)
{
    using kern::Migrate;
    using kern::PageRange;
    constexpr std::uint64_t kBlock = 1ull << kern::BuddyAllocator::kMaxOrder;
    kern::BuddyAllocator buddy("snap", 0, 16 * kBlock);
    buddy.addFreeRange(PageRange{0, 12 * kBlock});
    // Live state for the writers to disturb, at both ends of memory.
    // Orders above 6 span several 64-page chunks, so a loop that
    // rewrites a block's interior pages must mark them itself.
    std::vector<kern::Pfn> held;
    for (unsigned order : {0u, 3u, 8u}) {
        for (Migrate kind : {Migrate::Movable, Migrate::Unmovable}) {
            auto r = buddy.alloc(order, kind);
            ASSERT_TRUE(r);
            held.push_back(r->range.first);
        }
    }

    using Writer = std::function<void(kern::BuddyAllocator &)>;
    const std::vector<Writer> writers = {
        [](kern::BuddyAllocator &b) {
            ASSERT_TRUE(b.alloc(9, Migrate::Movable));
            ASSERT_TRUE(b.alloc(7, Migrate::Unmovable));
        },
        // Frees of blocks that predate the capture; they coalesce
        // with their free buddies.
        [&held](kern::BuddyAllocator &b) {
            b.free(held[5]); // order 8, unmovable
            b.free(held[0]); // order 0, movable
        },
        [](kern::BuddyAllocator &b) {
            b.addFreeRange(PageRange{12 * kBlock, 4 * kBlock});
        },
        // Reclaim the block holding the movable allocations: migration
        // plus carving the free blocks around them.
        [](kern::BuddyAllocator &b) {
            const auto res =
                b.reclaimRange(PageRange{11 * kBlock, kBlock});
            ASSERT_TRUE(res.ok);
            ASSERT_GT(res.migrated, 256u);
        },
        // Reclaim a range starting inside a free block.
        [](kern::BuddyAllocator &b) {
            ASSERT_TRUE(
                b.reclaimRange(PageRange{kBlock + 100, 300}).ok);
        },
    };

    const snap::Snapshot start = snap::Snapshot::of(buddy);
    for (const Writer &write : writers) {
        const snap::Snapshot image = snap::Snapshot::of(buddy);
        write(buddy);
        ASSERT_NE(image, snap::Snapshot::of(buddy));
        // The probe capture above re-synced the allocator, so undo the
        // write twice: a full restore of the image, then (after the
        // same write again) a delta one.
        image.restore(buddy);
        EXPECT_EQ(image, snap::Snapshot::of(buddy));
        const snap::Snapshot again = snap::Snapshot::of(buddy);
        write(buddy);
        again.restore(buddy);
        buddy.checkInvariants();
        EXPECT_EQ(image, snap::Snapshot::of(buddy));
        // Keep the write for the next writer's starting state.
        write(buddy);
    }

    // All writers at once, then back to the start (a full restore:
    // the allocator last synced with the last writer's image).
    start.restore(buddy);
    buddy.checkInvariants();
    EXPECT_EQ(start, snap::Snapshot::of(buddy));
}

/** An SD-card fixture like fig6b_sd_variant's: ext2 over a cached
 *  SD card on a K2 system. */
struct SdBed
{
    std::unique_ptr<os::SystemImage> sys;
    std::unique_ptr<svc::SdCard> sd;
    std::unique_ptr<svc::CachedBlockDevice> cache;
    std::unique_ptr<svc::Ext2Fs> fs;
    kern::Process *proc = nullptr;

    SdBed()
        : sys(std::make_unique<os::K2System>()),
          sd(std::make_unique<svc::SdCard>(svc::Ext2Fs::kBlockBytes,
                                           4096)),
          cache(std::make_unique<svc::CachedBlockDevice>(*sd, 64)),
          fs(std::make_unique<svc::Ext2Fs>(*sys, *cache))
    {
        proc = &sys->createProcess("p");
        sys->spawnNormal(*proc, "mkfs",
                         [this](kern::Thread &t) -> sim::Task<void> {
                             co_await fs->mkfs(t);
                         });
        sys->engine().run();
    }

    svc::SdCard &disk() { return *sd; }

    void
    snapState(snap::Io &io)
    {
        sys->snapState(io);
        sd->snapState(io);
        cache->snapState(io);
        fs->snapState(io);
    }
};

wl::EpisodeResult
ext2Episode(SdBed &bed)
{
    return wl::runEpisodeWarm(*bed.sys, *bed.proc, "ext2",
                              wl::ext2Sync(*bed.fs, 64 * 1024, 4));
}

/**
 * Capture A, run an ext2 episode, capture B, then restore A, B, A, A
 * with an ext2 episode before each. Every re-capture must equal its
 * image; it also re-syncs the instance with itself (same bytes, new
 * id), so the chain mixes full restores (switching images) with delta
 * ones (A after A).
 */
template <typename Bed>
void
expectAbaaRestores(Bed &bed)
{
    snap::Snapshot a = snap::Snapshot::of(bed);
    const std::uint64_t aDirty = bed.disk().dirtyBlocks();
    (void)ext2Episode(bed);
    snap::Snapshot b = snap::Snapshot::of(bed);
    ASSERT_GT(bed.disk().dirtyBlocks(), aDirty);

    for (snap::Snapshot *image : {&a, &b, &a, &a}) {
        (void)ext2Episode(bed);
        image->restore(bed);
        if (image == &a) {
            EXPECT_EQ(aDirty, bed.disk().dirtyBlocks());
        }
        snap::Snapshot again = snap::Snapshot::of(bed);
        EXPECT_EQ(*image, again);
        *image = std::move(again);
    }
}

TEST(SnapshotTest, DiskRestoresFollowTheSyncRule)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    expectAbaaRestores(tb);
}

TEST(SnapshotTest, SdCardRestoresFollowTheSyncRule)
{
    SdBed bed;
    expectAbaaRestores(bed);
}

} // namespace
