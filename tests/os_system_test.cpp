/**
 * @file
 * Tests for K2System assembly: memory management (balloons, meta-level
 * manager, free redirection), interrupt routing, NightWatch
 * scheduling, cross-ISA dispatch, and message encoding.
 */

#include <gtest/gtest.h>

#include "os/k2_system.h"

namespace k2::os {
namespace {

using kern::PageRange;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

TEST(Messages, EncodeDecodeRoundTrip)
{
    for (const auto type :
         {MsgType::FreeRemote, MsgType::GetExclusive, MsgType::PutExclusive,
          MsgType::SuspendNw, MsgType::AckSuspendNw, MsgType::ResumeNw,
          MsgType::Control, MsgType::BalloonDone}) {
        const auto word = encodeMessage(type, 0xABCDE, 0x1F3);
        const Message m = decodeMessage(word);
        EXPECT_EQ(m.type, type);
        EXPECT_EQ(m.payload, 0xABCDEu);
        EXPECT_EQ(m.seq, 0x1F3u);
    }
}

TEST(Messages, PayloadOverflowAsserts)
{
    EXPECT_DEATH(encodeMessage(MsgType::GetExclusive, 1u << 20, 0),
                 "assertion");
}

class K2SystemTest : public ::testing::Test
{
  protected:
    K2SystemTest()
    {
        k2sys = std::make_unique<K2System>();
        proc = &k2sys->createProcess("app");
    }

    sim::Engine &eng() { return k2sys->ownedEngine(); }

    std::unique_ptr<K2System> k2sys;
    kern::Process *proc = nullptr;
};

TEST_F(K2SystemTest, BootGivesKernelsInitialBlocks)
{
    // Default: 8 blocks to main, 2 to shadow, rest owned by K2.
    EXPECT_EQ(k2sys->meta().blocksOwnedBy(MetaLevelManager::BlockOwner::Main),
              8u);
    EXPECT_EQ(
        k2sys->meta().blocksOwnedBy(MetaLevelManager::BlockOwner::Shadow),
        2u);
    EXPECT_EQ(k2sys->mainKernel().pageAllocator().freePages(),
              8u * BalloonDriver::kBlockPages);
    EXPECT_EQ(k2sys->shadowKernel().pageAllocator().freePages(),
              2u * BalloonDriver::kBlockPages);
}

TEST_F(K2SystemTest, LayoutPlacesShadowMainGlobal)
{
    const auto &layout = k2sys->layout();
    EXPECT_EQ(layout.local(0).owner, "shadow");
    EXPECT_EQ(layout.local(1).owner, "main");
    EXPECT_EQ(layout.local(1).pages.end(),
              layout.global().pages.first);
}

TEST_F(K2SystemTest, MainBlocksGrowFromLowEndShadowFromHighEnd)
{
    const auto &meta = k2sys->meta();
    const std::size_t n = meta.numBlocks();
    EXPECT_EQ(meta.blockOwner(0), MetaLevelManager::BlockOwner::Main);
    EXPECT_EQ(meta.blockOwner(7), MetaLevelManager::BlockOwner::Main);
    EXPECT_EQ(meta.blockOwner(8), MetaLevelManager::BlockOwner::Meta);
    EXPECT_EQ(meta.blockOwner(n - 1),
              MetaLevelManager::BlockOwner::Shadow);
    EXPECT_EQ(meta.blockOwner(n - 2),
              MetaLevelManager::BlockOwner::Shadow);
}

TEST_F(K2SystemTest, AllocServedLocallyFreeRedirectedRemotely)
{
    PageRange main_range;
    // Allocate on the main kernel.
    k2sys->spawnNormal(*proc, "alloc",
                       [&](Thread &t) -> Task<void> {
                           main_range =
                               co_await k2sys->allocPages(t, 0);
                       });
    eng().run();
    ASSERT_FALSE(main_range.empty());
    EXPECT_TRUE(
        k2sys->mainKernel().pageAllocator().isAllocated(main_range.first));

    // Free it from a shadow-kernel thread: must be redirected.
    k2sys->shadowKernel().spawnThread(
        proc, "free", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await k2sys->freePages(t, main_range);
        });
    eng().run();
    EXPECT_EQ(k2sys->remoteFrees(), 1u);
    EXPECT_FALSE(
        k2sys->mainKernel().pageAllocator().isAllocated(main_range.first));
}

TEST_F(K2SystemTest, MemoryPressureTriggersAutomaticDeflate)
{
    // Exhaust the main kernel's 8 blocks; the pressure probe should
    // wake kmetad, which deflates K2-owned blocks into the kernel.
    const auto main_before =
        k2sys->meta().blocksOwnedBy(MetaLevelManager::BlockOwner::Main);
    k2sys->spawnNormal(
        *proc, "hog", [&](Thread &t) -> Task<void> {
            // Allocate 9 blocks' worth of max-order allocations.
            for (int i = 0; i < 9 * 4; ++i) {
                PageRange r = co_await k2sys->allocPages(
                    t, 10, kern::Migrate::Movable);
                if (r.empty()) {
                    // Give kmetad a chance to run.
                    co_await t.sleep(sim::msec(50));
                    r = co_await k2sys->allocPages(
                        t, 10, kern::Migrate::Movable);
                }
                EXPECT_FALSE(r.empty()) << "allocation " << i;
            }
        });
    eng().run(sim::sec(30));
    EXPECT_GT(
        k2sys->meta().blocksOwnedBy(MetaLevelManager::BlockOwner::Main),
        main_before);
    EXPECT_GT(k2sys->meta().pressureEvents.value(), 0u);
}

TEST_F(K2SystemTest, BalloonLatenciesMatchTable4Shape)
{
    // Table 4: deflate ~10.4ms main / ~12.8ms shadow; inflate ~11.6ms
    // main / ~20.4ms shadow.
    auto &meta = k2sys->meta();
    double main_deflate = 0, main_inflate = 0;
    k2sys->spawnNormal(*proc, "bal",
                       [&](Thread &t) -> Task<void> {
                           auto d = co_await meta.deflateOne(t);
                           EXPECT_TRUE(d.has_value());
                           auto i = co_await meta.inflateOne(t);
                           EXPECT_TRUE(i.has_value());
                       });
    eng().run();
    main_deflate = meta.balloon(0).deflateUs.mean();
    main_inflate = meta.balloon(0).inflateUs.mean();
    EXPECT_GT(main_deflate, 5000.0);
    EXPECT_LT(main_deflate, 20000.0);
    EXPECT_GT(main_inflate, 6000.0);
    EXPECT_LT(main_inflate, 25000.0);

    k2sys->shadowKernel().spawnThread(
        proc, "bal", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            auto d = co_await meta.deflateOne(t);
            EXPECT_TRUE(d.has_value());
            auto i = co_await meta.inflateOne(t);
            EXPECT_TRUE(i.has_value());
        });
    eng().run();
    const double shadow_deflate = meta.balloon(1).deflateUs.mean();
    const double shadow_inflate = meta.balloon(1).inflateUs.mean();
    // Shadow balloon ops are slower but by a small factor (1.2-1.8x),
    // unlike allocations (12x): the cost is interconnect-dominated.
    EXPECT_GT(shadow_deflate / main_deflate, 1.05);
    EXPECT_LT(shadow_deflate / main_deflate, 2.5);
    EXPECT_GT(shadow_inflate / main_inflate, 1.2);
    EXPECT_LT(shadow_inflate / main_inflate, 3.0);
}

TEST_F(K2SystemTest, SharedRegionTouchFaultsOnceThenHits)
{
    auto region = k2sys->createSharedRegion("drv-state", 4);
    const auto faults0 = k2sys->dsm().faultStats(1).faults.value();
    k2sys->shadowKernel().spawnThread(
        proc, "svc", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await region->touch(t.kernel(), t.core(), 0,
                                   Access::Write);
            co_await region->touch(t.kernel(), t.core(), 0,
                                   Access::Write);
        });
    eng().run();
    EXPECT_EQ(k2sys->dsm().faultStats(1).faults.value(), faults0 + 1);
}

TEST_F(K2SystemTest, IrqRoutingFollowsStrongDomainPowerState)
{
    // Register a shared handler in both kernels.
    int main_hits = 0;
    int shadow_hits = 0;
    k2sys->mainKernel().registerIrq(
        soc::kIrqNet, [&](soc::Core &) -> Task<void> {
            ++main_hits;
            co_return;
        });
    k2sys->shadowKernel().registerIrq(
        soc::kIrqNet, [&](soc::Core &) -> Task<void> {
            ++shadow_hits;
            co_return;
        });
    k2sys->irqRouter().manageLine(soc::kIrqNet);
    EXPECT_FALSE(k2sys->irqRouter().routedToWeak());

    // Strong domain awake: main handles.
    k2sys->soc().raiseSharedIrq(soc::kIrqNet);
    eng().run(sim::msec(1));
    EXPECT_EQ(main_hits, 1);
    EXPECT_EQ(shadow_hits, 0);

    // Let the strong domain go inactive (5 s idle timeout).
    eng().run(sim::sec(7));
    EXPECT_TRUE(k2sys->mainKernel().domain().allInactive());
    EXPECT_TRUE(k2sys->irqRouter().routedToWeak());

    const int main_before = main_hits;
    k2sys->soc().raiseSharedIrq(soc::kIrqNet);
    eng().run(sim::sec(8));
    EXPECT_GE(shadow_hits, 1);
    EXPECT_EQ(main_hits, main_before);
    // Rule 1: the shared interrupt did NOT wake the strong domain.
    EXPECT_TRUE(k2sys->mainKernel().domain().allInactive());
}

TEST_F(K2SystemTest, NightWatchRunsOnWeakDomain)
{
    bool ran = false;
    soc::DomainId dom = 99;
    k2sys->spawnNightWatch(*proc, "nw",
                           [&](Thread &t) -> Task<void> {
                               co_await t.exec(1000);
                               dom = t.core().domain();
                               ran = true;
                           });
    eng().run(sim::sec(1));
    EXPECT_TRUE(ran);
    EXPECT_EQ(dom, soc::kWeakDomain);
}

TEST_F(K2SystemTest, NightWatchDeferredWhileNormalThreadRuns)
{
    std::vector<std::pair<std::string, sim::Time>> log;
    // A Normal thread computing for 20 ms.
    k2sys->spawnNormal(*proc, "busy",
                       [&](Thread &t) -> Task<void> {
                           co_await t.exec(7000000); // 20 ms at 350 MHz
                           log.emplace_back("normal-done",
                                            t.kernel().engine().now());
                       });
    // A NightWatch thread of the same process.
    k2sys->spawnNightWatch(*proc, "nw",
                           [&](Thread &t) -> Task<void> {
                               co_await t.exec(1000);
                               log.emplace_back(
                                   "nw-done", t.kernel().engine().now());
                           });
    eng().run(sim::sec(1));
    ASSERT_EQ(log.size(), 2u);
    // The NW thread must finish only after the normal thread blocked.
    EXPECT_EQ(log[0].first, "normal-done");
    EXPECT_EQ(log[1].first, "nw-done");
    // The NW thread spawned while a Normal thread was runnable, so it
    // started pre-gated (no SuspendNW message was needed); ResumeNW
    // was sent when the Normal thread blocked.
    EXPECT_GT(k2sys->nightWatch().resumesSent.value(), 0u);
}

TEST_F(K2SystemTest, NightWatchFromDifferentProcessNotBlocked)
{
    // Multi-domain parallelism IS allowed among processes (§4.3).
    auto &other = k2sys->createProcess("other");
    sim::Time nw_done = 0;
    sim::Time normal_done = 0;
    k2sys->spawnNormal(*proc, "busy",
                       [&](Thread &t) -> Task<void> {
                           co_await t.exec(7000000); // 20 ms
                           normal_done = t.kernel().engine().now();
                       });
    k2sys->spawnNightWatch(other, "nw",
                           [&](Thread &t) -> Task<void> {
                               co_await t.exec(1000);
                               nw_done = t.kernel().engine().now();
                           });
    eng().run(sim::sec(1));
    EXPECT_GT(nw_done, 0u);
    EXPECT_LT(nw_done, normal_done);
}

TEST_F(K2SystemTest, SuspendAckOverheadIsMicroseconds)
{
    k2sys->spawnNightWatch(*proc, "nw",
                           [&](Thread &t) -> Task<void> {
                               co_await t.exec(100);
                           });
    k2sys->spawnNormal(*proc, "n",
                       [&](Thread &t) -> Task<void> {
                           co_await t.exec(1000);
                       });
    eng().run(sim::sec(1));
    ASSERT_GT(k2sys->nightWatch().ackWaitUs.count(), 0u);
    ASSERT_GT(k2sys->nightWatch().suspendsSent.value(), 0u);
    // Paper §8: ~1-2 us extra per context switch (5 us RTT minus the
    // 3.5 us switch); our shadow-side ack path costs slightly more
    // because the M3's interrupt entry is modelled explicitly.
    EXPECT_GT(k2sys->nightWatch().ackWaitUs.mean(), 0.3);
    EXPECT_LT(k2sys->nightWatch().ackWaitUs.mean(), 6.0);
}

TEST_F(K2SystemTest, FinishedNightWatchThreadStillGatesNormalSwitches)
{
    // The process's only NightWatch thread runs to completion and is
    // reaped from the shadow kernel's table...
    bool nwDone = false;
    k2sys->spawnNightWatch(*proc, "nw", [&](Thread &t) -> Task<void> {
        co_await t.exec(100);
        nwDone = true;
    });
    eng().run(sim::sec(1));
    ASSERT_TRUE(nwDone);
    for (const auto &t : k2sys->shadowKernel().threads())
        EXPECT_NE(t->process(), proc);
    const std::uint64_t sent = k2sys->nightWatch().suspendsSent.value();

    // ...yet the process keeps its NightWatch bit: its next Normal
    // switch still sends SuspendNW.
    k2sys->spawnNormal(*proc, "n", [](Thread &t) -> Task<void> {
        co_await t.exec(1000);
    });
    eng().run(sim::sec(1));
    EXPECT_EQ(k2sys->nightWatch().suspendsSent.value(), sent + 1);
}

TEST_F(K2SystemTest, CrossIsaDispatchOnlyChargesShadow)
{
    auto &x = k2sys->crossIsa();
    sim::Duration main_t = 0, shadow_t = 0;
    k2sys->spawnNormal(*proc, "m", [&](Thread &t) -> Task<void> {
        const auto t0 = eng().now();
        co_await x.charge(t.kernel(), t.core(), 3);
        main_t = eng().now() - t0;
    });
    eng().run();
    k2sys->shadowKernel().spawnThread(
        proc, "s", ThreadKind::Normal, [&](Thread &t) -> Task<void> {
            const auto t0 = eng().now();
            co_await x.charge(t.kernel(), t.core(), 3);
            shadow_t = eng().now() - t0;
        });
    eng().run();
    EXPECT_EQ(main_t, 0u);
    EXPECT_EQ(shadow_t, 3 * x.perDispatch());
    EXPECT_EQ(x.dispatches(), 3u);
}

TEST_F(K2SystemTest, ServiceRegistryIsWired)
{
    EXPECT_EQ(k2sys->services().of("dma-driver"),
              kern::ServiceClass::Shadowed);
}

} // namespace
} // namespace k2::os
