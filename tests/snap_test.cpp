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
 *    fault sequence a cold boot sees.
 */

#include <gtest/gtest.h>

#include "snap/snapshot.h"
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

} // namespace
