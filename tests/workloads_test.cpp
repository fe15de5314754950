/**
 * @file
 * Tests for the workload/harness layer: episode measurement semantics,
 * the benchmark workloads' byte accounting, the standby model, the
 * testbed fixture, and the table renderer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/standby.h"
#include "workloads/testbed.h"

namespace k2::wl {
namespace {

using kern::Thread;
using sim::Task;

TEST(Episode, MetricsAreConsistent)
{
    auto tb = Testbed::makeLinux();
    const auto res = runEpisode(tb.sys(), tb.proc(), "w",
                                [](Thread &t) -> Task<std::uint64_t> {
                                    co_await t.exec(350000); // 1 ms
                                    co_return 1000000;
                                });
    EXPECT_EQ(res.bytes, 1000000u);
    EXPECT_GE(res.runTime, sim::msec(1));
    EXPECT_GT(res.episodeTime, res.runTime);
    EXPECT_GT(res.energyUj, 0.0);
    EXPECT_NEAR(res.mbPerSec(),
                1.0 / sim::toSec(res.runTime), 1.0);
    EXPECT_NEAR(res.mbPerJoule(), 1.0 / (res.energyUj / 1e6), 0.01);
}

TEST(Episode, WarmupEpisodesAreDiscarded)
{
    auto tb = Testbed::makeK2();
    int runs = 0;
    const auto res = runEpisodeWarm(
        tb.sys(), tb.proc(), "w",
        [&runs](Thread &t) -> Task<std::uint64_t> {
            ++runs;
            co_await t.exec(1000);
            co_return 42;
        },
        2);
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(res.bytes, 42u);
}

TEST(Episode, BackToBackEpisodesAreIndependent)
{
    auto tb = Testbed::makeLinux();
    auto w = [](Thread &t) -> Task<std::uint64_t> {
        co_await t.exec(350000);
        co_return 7;
    };
    const auto a = runEpisode(tb.sys(), tb.proc(), "a", w);
    const auto b = runEpisode(tb.sys(), tb.proc(), "b", w);
    EXPECT_NEAR(a.energyUj, b.energyUj, a.energyUj * 0.05);
}

/** Live threads summed over every kernel of @p tb. */
std::size_t
liveThreads(Testbed &tb)
{
    std::size_t n = 0;
    for (kern::Kernel *k : tb.sys().kernels())
        n += k->threads().size();
    return n;
}

TEST(Episode, FinishedEpisodeThreadsAreReaped)
{
    // Thread bookkeeping ends with each episode: a long chain on one
    // testbed holds exactly the threads a single episode leaves.
    auto tb = Testbed::makeK2();
    const Workload works[] = {
        dmaCopy(tb.dma(), 4096, 16 * 1024),
        ext2Sync(tb.fs(), 4096, 2),
        udpLoopback(tb.udp(), 4096, 8 * 1024),
    };
    runEpisode(tb.sys(), tb.proc(), "w0", works[0]);
    const std::size_t afterOne = liveThreads(tb);
    for (int i = 1; i < 200; ++i) {
        runEpisode(tb.sys(), tb.proc(), "w" + std::to_string(i),
                   works[i % 3]);
    }
    EXPECT_EQ(liveThreads(tb), afterOne);
}

/** @p mw x @p t in uW x ps, from the config's figure. */
soc::EnergyFp
charge(double mw, sim::Duration t)
{
    return static_cast<soc::EnergyFp>(std::llround(mw * 1e3)) * t;
}

TEST(Episode, RailEnergyIsResidencyTimesPowerExactly)
{
    // Energy conservation: after dma, ext2 and udp episodes, each rail
    // holds exactly its cores' and uncore's residency x Table 3 power
    // plus wakeups x pulse, recomputed from public getters.
    auto tb = Testbed::makeK2();
    runEpisode(tb.sys(), tb.proc(), "dma",
               dmaCopy(tb.dma(), 4096, 16 * 1024));
    runEpisode(tb.sys(), tb.proc(), "ext2", ext2Sync(tb.fs(), 4096, 2));
    runEpisode(tb.sys(), tb.proc(), "udp",
               udpLoopback(tb.udp(), 4096, 8 * 1024));
    const soc::Soc &chip = tb.sys().soc();
    const sim::Time now = tb.sys().engine().now();
    std::uint64_t wakeups = 0;
    for (soc::DomainId d = 0; d < chip.numDomains(); ++d) {
        const soc::CoherenceDomain &dom = chip.domain(d);
        const soc::CoreSpec &spec = dom.spec().core;
        soc::EnergyFp expect = 0;
        for (std::size_t c = 0; c < dom.numCores(); ++c) {
            const soc::Core &core = dom.core(c);
            ASSERT_EQ(core.operatingPoint(), spec.defaultPoint);
            EXPECT_EQ(core.activeTime() + core.idleTime() +
                          core.inactiveTime(),
                      now);
            expect += charge(spec.points[spec.defaultPoint].activeMw,
                             core.activeTime()) +
                      charge(spec.idleMw, core.idleTime()) +
                      charge(spec.inactiveMw, core.inactiveTime()) +
                      static_cast<soc::EnergyFp>(
                          std::llround(spec.wakeEnergyUj * 1e12)) *
                          core.wakeups();
            wakeups += core.wakeups();
        }
        const soc::PowerClient &uncore = dom.uncorePower();
        EXPECT_EQ(uncore.residency(0, now) + uncore.residency(1, now), now);
        expect += charge(dom.spec().uncoreActiveMw, uncore.residency(0, now)) +
                  charge(dom.spec().uncoreInactiveMw,
                         uncore.residency(1, now));
        EXPECT_EQ(chip.meter().energyUj(dom.rail()), soc::fpToUj(expect))
            << dom.name();
    }
    // The episodes gated and woke cores, so the pulses are covered.
    EXPECT_GT(wakeups, 0u);
}

TEST(Workloads, DmaCopyMovesExactlyTotal)
{
    auto tb = Testbed::makeLinux();
    const auto res = runEpisode(tb.sys(), tb.proc(), "dma",
                                dmaCopy(tb.dma(), 4096, 10000));
    EXPECT_EQ(res.bytes, 10000u); // last batch is the 1808-byte tail
    EXPECT_EQ(tb.dma().bytesMoved.value(), 10000u);
}

TEST(Workloads, Ext2SyncWritesAndCleansUp)
{
    auto tb = Testbed::makeLinux();
    const auto free0 = tb.fs().freeBlocks();
    const auto res = runEpisode(tb.sys(), tb.proc(), "fs",
                                ext2Sync(tb.fs(), 8192, 4));
    EXPECT_EQ(res.bytes, 4u * 8192);
    // Files were unlinked afterwards; only directory blocks remain.
    EXPECT_GE(free0, tb.fs().freeBlocks());
    EXPECT_LE(free0 - tb.fs().freeBlocks(), 2u);
    EXPECT_EQ(tb.fs().opsCreate.value(), 4u);
    EXPECT_EQ(tb.fs().opsUnlink.value(), 4u);
}

TEST(Workloads, UdpLoopbackRecreatesSocketsPerBatch)
{
    auto tb = Testbed::makeLinux();
    const auto res = runEpisode(tb.sys(), tb.proc(), "udp",
                                udpLoopback(tb.udp(), 8192, 32768));
    EXPECT_EQ(res.bytes, 32768u);
    // 4 batches x 2 sockets each.
    EXPECT_EQ(tb.udp().socketsCreated.value(), 8u);
    EXPECT_EQ(tb.udp().packetsDropped.value(), 0u);
}

TEST(Workloads, EmailSyncTouchesNetworkAndStorage)
{
    auto tb = Testbed::makeLinux();
    const auto res = runEpisode(tb.sys(), tb.proc(), "mail",
                                emailSync(tb.udp(), tb.fs(), 16384, 9));
    EXPECT_EQ(res.bytes, 2u * 16384); // fetched + stored
    EXPECT_GT(tb.udp().packetsSent.value(), 0u);
    EXPECT_GT(tb.fs().opsWrite.value(), 0u);
}

TEST(Standby, ModelMatchesPaperArithmetic)
{
    StandbyModel model;
    // The baseline is exactly the calibration point.
    EXPECT_NEAR(model.standbyDays(1.0), model.baselineDays, 0.01);
    // Power decomposition adds up.
    EXPECT_NEAR(model.sleepMw() + model.linuxSyncMw(),
                model.baselineDrainMw(), 1e-9);
    // An 8x sync-energy reduction gives roughly the paper's +59%.
    const double days = model.standbyDays(1.0 / 8.0);
    EXPECT_GT(days / model.baselineDays, 1.45);
    EXPECT_LT(days / model.baselineDays, 1.75);
    // Monotone: cheaper syncs, longer standby.
    EXPECT_GT(model.standbyDays(0.1), model.standbyDays(0.5));
    EXPECT_THROW(model.standbyDays(0.0), sim::FatalError);
}

TEST(Report, TableRendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta-long", "23456"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name      | value |"), std::string::npos);
    EXPECT_NE(out.find("| beta-long | 23456 |"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Report, FormatHelpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtBytes(4096), "4K");
    EXPECT_EQ(fmtBytes(1 << 20), "1M");
    EXPECT_EQ(fmtBytes(1000), "1000");
}

TEST(Testbed, BothFlavoursBootWithServices)
{
    auto k2tb = Testbed::makeK2();
    EXPECT_STREQ(k2tb.sys().modelName(), "K2");
    EXPECT_NE(k2tb.k2(), nullptr);
    EXPECT_GT(k2tb.fs().freeBlocks(), 0u);

    auto lxtb = Testbed::makeLinux();
    EXPECT_STREQ(lxtb.sys().modelName(), "Linux");
    EXPECT_EQ(lxtb.sys().kernels().size(), 1u);
}

TEST(Testbed, LinuxSharedRegionIsFree)
{
    auto tb = Testbed::makeLinux();
    auto region = tb.sys().createSharedRegion("x", 2);
    sim::Duration elapsed = 1;
    tb.sys().spawnNormal(tb.proc(), "t",
                         [&](Thread &t) -> Task<void> {
                             const auto t0 = tb.engine().now();
                             co_await region->touch(
                                 t.kernel(), t.core(), 0,
                                 os::Access::Write);
                             elapsed = tb.engine().now() - t0;
                         });
    tb.engine().run();
    EXPECT_EQ(elapsed, 0u);
}

TEST(Testbed, LinuxHasNoWeakKernel)
{
    auto tb = Testbed::makeLinux();
    EXPECT_DEATH(tb.sys().kernelAt(soc::kWeakDomain), "no kernel");
}

} // namespace
} // namespace k2::wl
