/**
 * @file
 * Unit tests for threads, the scheduler, the kernel glue, and the
 * address-space layout.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kern/kernel.h"
#include "kern/layout.h"
#include "kern/service.h"

namespace k2::kern {
namespace {

using sim::Task;

class KernTest : public ::testing::Test
{
  protected:
    KernTest()
        : soc(eng, soc::omap4Config()),
          kernel(soc, soc::kStrongDomain, "main"),
          proc(1, "app")
    {
        kernel.boot();
        // Give the kernel's allocator the whole global window for
        // these tests.
        kernel.pageAllocator().addFreeRange(
            PageRange{0, soc.numPages()});
    }

    sim::Engine eng;
    soc::Soc soc;
    Kernel kernel;
    Process proc;
};

TEST_F(KernTest, ThreadRunsAndCompletes)
{
    int steps = 0;
    const std::size_t before = kernel.threads().size();
    kernel.spawnThread(&proc, "worker", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           ++steps;
                           co_await self.exec(350000); // 1 ms at 350 MHz
                           ++steps;
                       });
    EXPECT_EQ(kernel.threads().size(), before + 1);
    eng.run(sim::msec(10));
    EXPECT_EQ(steps, 2);
    // Reaped: the finished thread has left the kernel's table.
    EXPECT_EQ(kernel.threads().size(), before);
    // Active time: context switch + 1 ms of work.
    EXPECT_GE(soc.domain(soc::kStrongDomain).core(0).activeTime() +
                  soc.domain(soc::kStrongDomain).core(1).activeTime(),
              sim::msec(1));
}

TEST_F(KernTest, ContextSwitchCostCharged)
{
    kernel.spawnThread(&proc, "w", ThreadKind::Normal,
                       [](Thread &self) -> Task<void> {
                           co_await self.exec(350);
                       });
    eng.run(sim::msec(1));
    EXPECT_EQ(kernel.scheduler().contextSwitches(), 1u);
    // 3.5 us switch + 1 us work.
    const auto active =
        soc.domain(soc::kStrongDomain).core(0).activeTime() +
        soc.domain(soc::kStrongDomain).core(1).activeTime();
    EXPECT_EQ(active, sim::usec(4) + sim::nsec(500));
}

TEST_F(KernTest, TwoThreadsRunInParallelOnTwoCores)
{
    sim::Time done_a = 0;
    sim::Time done_b = 0;
    kernel.spawnThread(&proc, "a", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           co_await self.exec(3500000); // 10 ms
                           done_a = eng.now();
                       });
    kernel.spawnThread(&proc, "b", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           co_await self.exec(3500000); // 10 ms
                           done_b = eng.now();
                       });
    eng.run(sim::msec(100));
    // Both finish at ~10 ms (parallel), not 20 ms (serial).
    EXPECT_LT(done_a, sim::msec(11));
    EXPECT_LT(done_b, sim::msec(11));
}

TEST_F(KernTest, PreemptionSharesOneCoreFairly)
{
    // Three compute threads on a 1-core kernel (use the weak domain).
    Kernel weak(soc, soc::kWeakDomain, "shadow");
    weak.boot();
    std::vector<sim::Time> done(3);
    for (int i = 0; i < 3; ++i) {
        weak.spawnThread(&proc, "w" + std::to_string(i),
                         ThreadKind::Normal,
                         [&, i](Thread &self) -> Task<void> {
                             co_await self.exec(800000); // 5 ms at M3
                             done[static_cast<size_t>(i)] = eng.now();
                         });
    }
    eng.run(sim::sec(1));
    // With 1 ms quanta all three finish within ~15 ms of each other,
    // not serially (5/10/15 ms would still hold serially; check that
    // the *first* finisher comes late, i.e. after ~12 ms, proving
    // interleaving).
    const sim::Time first = std::min({done[0], done[1], done[2]});
    EXPECT_GT(first, sim::msec(12));
}

TEST_F(KernTest, BlockedThreadFreesCoreAndResumesOnEvent)
{
    sim::Event ev(eng);
    std::vector<std::string> log;
    kernel.spawnThread(&proc, "waiter", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           log.push_back("wait");
                           co_await self.wait(ev);
                           log.push_back("woken");
                       });
    eng.at(sim::msec(5), [&]() { ev.set(); });
    eng.run(sim::msec(10));
    EXPECT_EQ(log, (std::vector<std::string>{"wait", "woken"}));
}

TEST_F(KernTest, SleepBlocksForDuration)
{
    sim::Time woke = 0;
    kernel.spawnThread(&proc, "sleeper", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           co_await self.sleep(sim::msec(7));
                           woke = eng.now();
                       });
    eng.run(sim::msec(20));
    // Wake at 7 ms + context switches.
    EXPECT_GE(woke, sim::msec(7));
    EXPECT_LT(woke, sim::msec(7) + sim::usec(20));
}

TEST_F(KernTest, SuspendedThreadDoesNotRun)
{
    int ran = 0;
    Thread *t = kernel.spawnThread(&proc, "gated", ThreadKind::NightWatch,
                                   [&](Thread &) -> Task<void> {
                                       ++ran;
                                       co_return;
                                   });
    kernel.scheduler().setSuspended(*t, true);
    eng.run(sim::msec(5));
    EXPECT_EQ(ran, 0);
    kernel.scheduler().setSuspended(*t, false);
    eng.run(sim::msec(10));
    EXPECT_EQ(ran, 1);
}

TEST_F(KernTest, RunningThreadParksWhenSuspended)
{
    Kernel weak(soc, soc::kWeakDomain, "shadow");
    weak.boot();
    bool finished = false;
    Thread *t = weak.spawnThread(&proc, "nw", ThreadKind::NightWatch,
                                 [&](Thread &self) -> Task<void> {
                                     co_await self.exec(8000000); // 50ms
                                     finished = true;
                                 });
    eng.run(sim::msec(5));
    EXPECT_FALSE(finished);
    weak.scheduler().setSuspended(*t, true);
    eng.run(sim::msec(200));
    EXPECT_FALSE(finished) << "suspended mid-execution";
    weak.scheduler().setSuspended(*t, false);
    eng.run(sim::msec(500));
    EXPECT_TRUE(finished);
}

TEST_F(KernTest, ProcessBlockedHookFiresWhenLastNormalThreadBlocks)
{
    std::vector<sim::Time> fired;
    kernel.scheduler().setProcessBlockedHook(
        [&](Process &p) {
            EXPECT_EQ(&p, &proc);
            fired.push_back(eng.now());
        });
    kernel.spawnThread(&proc, "a", ThreadKind::Normal,
                       [&](Thread &self) -> Task<void> {
                           co_await self.exec(350000); // 1 ms
                           co_await self.sleep(sim::msec(5));
                       });
    eng.run(sim::sec(1));
    // Fires twice: when the thread sleeps and when it exits.
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_GE(fired[0], sim::msec(1));
    EXPECT_LT(fired[0], sim::msec(2));
}

TEST_F(KernTest, MailRoundTripBetweenKernels)
{
    Kernel shadow(soc, soc::kWeakDomain, "shadow");
    shadow.boot();
    std::vector<std::uint32_t> main_got;
    std::vector<std::uint32_t> shadow_got;
    kernel.setMailHandler(
        [&](soc::Mail m, soc::Core &) -> Task<void> {
            main_got.push_back(m.word);
            co_return;
        });
    shadow.setMailHandler(
        [&](soc::Mail m, soc::Core &) -> Task<void> {
            shadow_got.push_back(m.word);
            shadow.sendMail(soc::kStrongDomain, m.word + 1);
            co_return;
        });
    kernel.sendMail(soc::kWeakDomain, 41);
    eng.run(sim::msec(1));
    EXPECT_EQ(shadow_got, (std::vector<std::uint32_t>{41}));
    EXPECT_EQ(main_got, (std::vector<std::uint32_t>{42}));
}

TEST_F(KernTest, AllocLatencyMatchesTable4MainKernel)
{
    // Table 4 (main kernel): 4KB ~1 us, 256KB ~5 us, 1MB ~13 us.
    struct Case { unsigned order; double lo_us; double hi_us; };
    const Case cases[] = {
        {0, 0.4, 2.5},
        {6, 2.5, 10.0},
        {8, 6.0, 26.0},
    };
    for (const auto &c : cases) {
        sim::Time start = 0;
        sim::Time end = 0;
        kernel.spawnThread(
            &proc, "alloc", ThreadKind::Normal,
            [&, c](Thread &self) -> Task<void> {
                start = eng.now();
                PageRange r =
                    co_await kernel.allocPages(self, c.order);
                end = eng.now();
                EXPECT_FALSE(r.empty());
                co_await kernel.freePages(self, r);
            });
        eng.run();
        const double us = sim::toUsec(end - start);
        EXPECT_GE(us, c.lo_us) << "order " << c.order;
        EXPECT_LE(us, c.hi_us) << "order " << c.order;
    }
}

TEST_F(KernTest, ShadowAllocSlowerThanMain)
{
    Kernel shadow(soc, soc::kWeakDomain, "shadow");
    shadow.boot();
    shadow.pageAllocator().addFreeRange(PageRange{0, 4096});

    auto measure = [&](Kernel &k, unsigned order) {
        sim::Time start = 0, end = 0;
        k.spawnThread(&proc, "alloc", ThreadKind::Normal,
                      [&](Thread &self) -> Task<void> {
                          start = eng.now();
                          PageRange r = co_await k.allocPages(self, order);
                          end = eng.now();
                          co_await k.freePages(self, r);
                      });
        eng.run();
        return end - start;
    };

    const auto main_t = measure(kernel, 0);
    const auto shadow_t = measure(shadow, 0);
    // Table 4: shadow ~12x slower than main for 4 KB.
    const double ratio = static_cast<double>(shadow_t) / main_t;
    EXPECT_GT(ratio, 6.0);
    EXPECT_LT(ratio, 20.0);
}

TEST(Layout, Figure4Invariants)
{
    // 1 GB of 4 KB pages; shadow local 16 MB, main local 48 MB.
    AddressSpaceLayout layout(4096, 262144,
                              {{"shadow", 4096}, {"main", 12288}});
    EXPECT_EQ(layout.numLocals(), 2u);
    // Shadow local first, then main local, then global.
    EXPECT_EQ(layout.local(0).pages.first, 0u);
    EXPECT_EQ(layout.local(1).pages.first, 4096u);
    EXPECT_EQ(layout.global().pages.first, 16384u);
    EXPECT_EQ(layout.global().pages.end(), 262144u);
    // Main's local region is adjacent to the global region: no hole.
    EXPECT_EQ(layout.local(1).pages.end(), layout.global().pages.first);
    // Unified virtual addresses: one shared linear mapping.
    EXPECT_EQ(layout.vaddrOf(0), layout.virtBase());
    EXPECT_EQ(layout.pfnOf(layout.vaddrOf(12345)), 12345u);
    // Regions do not overlap.
    EXPECT_FALSE(layout.local(0).pages.contains(
        layout.local(1).pages.first));
    EXPECT_FALSE(layout.local(1).pages.contains(
        layout.global().pages.first));
    EXPECT_TRUE(layout.isGlobal(20000));
    EXPECT_FALSE(layout.isGlobal(100));
    EXPECT_EQ(layout.localOf("main").pages.first, 4096u);
}

TEST(Layout, LocalSizesRoundUpToPageBlocks)
{
    AddressSpaceLayout layout(4096, 262144, {{"shadow", 100}});
    EXPECT_EQ(layout.local(0).pages.count, 4096u);
}

TEST(Layout, OversizedLocalsAreFatal)
{
    EXPECT_THROW(AddressSpaceLayout(4096, 8192, {{"big", 8192}}),
                 sim::FatalError);
}

TEST(ServiceRegistry, DefaultClassificationMatchesPaper)
{
    ServiceRegistry reg = defaultK2Registry();
    EXPECT_EQ(reg.of("page-allocator"), ServiceClass::Independent);
    EXPECT_EQ(reg.of("interrupt-management"), ServiceClass::Independent);
    EXPECT_EQ(reg.of("dma-driver"), ServiceClass::Shadowed);
    EXPECT_EQ(reg.of("ext2"), ServiceClass::Shadowed);
    EXPECT_EQ(reg.of("udp-stack"), ServiceClass::Shadowed);
    EXPECT_EQ(reg.of("power-management"), ServiceClass::Private);
    // Shadowed is the largest category (§5.3 step 4).
    EXPECT_GT(reg.listed(ServiceClass::Shadowed).size(),
              reg.listed(ServiceClass::Independent).size());
    EXPECT_THROW(reg.of("nonexistent"), sim::FatalError);
}

} // namespace
} // namespace k2::kern
