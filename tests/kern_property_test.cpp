/**
 * @file
 * Property tests for the scheduler and platform primitives under
 * randomized load: completion, fairness, mailbox ordering, spinlock
 * mutual exclusion, and energy-meter conservation.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/random.h"
#include "kern/kernel.h"

namespace k2::kern {
namespace {

using sim::Task;

class SchedPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SchedPropertyTest, RandomThreadMixAllComplete)
{
    sim::Engine eng;
    auto cfg = soc::omap4Config();
    cfg.costs.inactiveTimeout = 0;
    soc::Soc soc(eng, cfg);
    Kernel kernel(soc, soc::kStrongDomain, "main");
    kernel.boot();
    kernel.pageAllocator().addFreeRange(PageRange{0, 1 << 16});
    Process proc(1, "p");
    sim::Rng rng(GetParam());

    constexpr int kThreads = 24;
    int done = 0;
    std::vector<sim::Duration> cpu_used(kThreads, 0);

    for (int i = 0; i < kThreads; ++i) {
        const int steps = 3 + static_cast<int>(rng.below(6));
        // Pre-draw the random plan so the thread body is deterministic
        // regardless of interleaving.
        std::vector<std::pair<int, std::uint64_t>> plan;
        for (int s = 0; s < steps; ++s)
            plan.emplace_back(static_cast<int>(rng.below(4)),
                              1000 + rng.below(400000));
        kernel.spawnThread(
            &proc, "w" + std::to_string(i), ThreadKind::Normal,
            [&, i, plan](Thread &t) -> Task<void> {
                for (const auto &[op, amount] : plan) {
                    switch (op) {
                      case 0:
                        co_await t.exec(amount);
                        break;
                      case 1:
                        co_await t.sleep(sim::usec(amount / 100));
                        break;
                      case 2:
                        co_await t.yield();
                        break;
                      case 3: {
                        PageRange r =
                            co_await kernel.allocPages(t, 0);
                        if (!r.empty())
                            co_await kernel.freePages(t, r);
                        break;
                      }
                    }
                }
                cpu_used[static_cast<std::size_t>(i)] = 1;
                ++done;
            });
    }
    eng.run();
    EXPECT_EQ(done, kThreads);
    EXPECT_EQ(kernel.scheduler().runqueueDepth(), 0u);
    kernel.pageAllocator().checkInvariants();
}

TEST_P(SchedPropertyTest, CpuBoundThreadsShareFairly)
{
    sim::Engine eng;
    auto cfg = soc::omap4Config();
    cfg.costs.inactiveTimeout = 0;
    soc::Soc soc(eng, cfg);
    // One core so sharing is forced.
    Kernel kernel(soc, soc::kWeakDomain, "shadow");
    kernel.boot();
    Process proc(1, "p");

    // Threads of equal demand must finish within ~2 quanta + switch
    // overhead of each other.
    constexpr int kThreads = 4;
    std::vector<sim::Time> finish(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        kernel.spawnThread(&proc, "w" + std::to_string(i),
                           ThreadKind::Normal,
                           [&, i](Thread &t) -> Task<void> {
                               co_await t.exec(1600000); // 10 ms at M3
                               finish[static_cast<std::size_t>(i)] =
                                   eng.now();
                           });
    }
    eng.run();
    const auto minmax =
        std::minmax_element(finish.begin(), finish.end());
    EXPECT_LT(*minmax.second - *minmax.first, sim::msec(12));
    (void)GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedPropertyTest,
                         ::testing::Values(5, 55, 555, 5555));

TEST(MailboxProperty, RandomTrafficStaysFifoPerDirection)
{
    sim::Engine eng;
    soc::Soc soc(eng, soc::omap4Config());
    sim::Rng rng(77);

    std::vector<std::uint32_t> sent_to_weak;
    std::vector<std::uint32_t> sent_to_strong;
    std::vector<std::uint32_t> got_weak;
    std::vector<std::uint32_t> got_strong;

    soc.domain(soc::kWeakDomain).irqCtrl().registerHandler(
        soc::kIrqMailbox, [&](soc::Core &) -> Task<void> {
            while (auto m = soc.mailbox().tryRead(soc::kWeakDomain))
                got_weak.push_back(m->word);
            co_return;
        });
    soc.domain(soc::kStrongDomain).irqCtrl().registerHandler(
        soc::kIrqMailbox, [&](soc::Core &) -> Task<void> {
            while (auto m = soc.mailbox().tryRead(soc::kStrongDomain))
                got_strong.push_back(m->word);
            co_return;
        });

    std::uint32_t word = 0;
    for (int i = 0; i < 200; ++i) {
        const bool to_weak = rng.chance(0.5);
        const auto at = eng.now() + sim::usec(rng.below(50));
        const std::uint32_t w = word++;
        eng.at(at, [&, to_weak, w]() {
            if (to_weak) {
                sent_to_weak.push_back(w);
                soc.mailbox().send(soc::kStrongDomain,
                                   soc::kWeakDomain, w);
            } else {
                sent_to_strong.push_back(w);
                soc.mailbox().send(soc::kWeakDomain,
                                   soc::kStrongDomain, w);
            }
        });
        eng.run(eng.now() + sim::usec(rng.below(30)));
    }
    eng.run();
    EXPECT_EQ(got_weak, sent_to_weak);
    EXPECT_EQ(got_strong, sent_to_strong);
}

TEST(SpinlockProperty, ManyContendersNeverOverlap)
{
    sim::Engine eng;
    auto cfg = soc::omap4Config();
    cfg.costs.inactiveTimeout = 0;
    soc::Soc soc(eng, cfg);
    int inside = 0;
    int peak = 0;
    int completed = 0;

    auto contender = [&](soc::Core &core) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            co_await soc.spinlocks().acquire(7, core);
            ++inside;
            peak = std::max(peak, inside);
            co_await core.execTime(sim::usec(3));
            --inside;
            soc.spinlocks().release(7);
            co_await eng.sleep(sim::usec(1));
        }
        ++completed;
    };
    eng.spawn(contender(soc.domain(soc::kStrongDomain).core(0)));
    eng.spawn(contender(soc.domain(soc::kStrongDomain).core(1)));
    eng.spawn(contender(soc.domain(soc::kWeakDomain).core(0)));
    eng.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(peak, 1);
    EXPECT_FALSE(soc.spinlocks().isHeld(7));
}

TEST(EnergyMeterProperty, RailDecompositionSumsToTotal)
{
    sim::Engine eng;
    soc::Soc soc(eng, soc::omap4Config());
    eng.spawn([](soc::Soc &soc) -> Task<void> {
        co_await soc.domain(soc::kStrongDomain).core(0).exec(350000);
        co_await soc.domain(soc::kWeakDomain).core(0).exec(160000);
    }(soc));
    eng.run(sim::sec(1));

    double sum = 0;
    for (soc::RailId r = 0; r < soc.meter().numRails(); ++r)
        sum += soc.meter().energyUj(r);
    EXPECT_EQ(sum, soc.meter().totalEnergyUj());
    // Both rails actually accumulated energy.
    EXPECT_GT(soc.meter().energyUj(
                  soc.domain(soc::kStrongDomain).rail()),
              0.0);
    EXPECT_GT(soc.meter().energyUj(soc.domain(soc::kWeakDomain).rail()),
              0.0);
}

TEST(CorePinProperty, PinnedCoreStaysActiveAcrossWait)
{
    sim::Engine eng;
    auto cfg = soc::omap4Config();
    soc::Soc soc(eng, cfg);
    auto &core = soc.domain(soc::kStrongDomain).core(0);
    sim::Event ev(eng);
    eng.spawn([](soc::Core &core, sim::Event &ev) -> Task<void> {
        co_await core.ensureAwake();
        core.pinActive();
        co_await ev.wait();
        core.unpinActive();
    }(core, ev));
    eng.run(sim::msec(10));
    EXPECT_EQ(core.state(), soc::PowerState::Active);
    EXPECT_GE(core.activeTime(), sim::msec(9));
    ev.set();
    eng.run(sim::msec(11));
    EXPECT_EQ(core.state(), soc::PowerState::Idle);
}

} // namespace
} // namespace k2::kern
