/**
 * @file
 * Unit tests for core power states, energy metering, and config.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "soc/config.h"
#include "soc/core.h"
#include "soc/power.h"

namespace k2::soc {
namespace {

using sim::Engine;
using sim::Task;

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : meter(eng), cfg(omap4Config())
    {
        rail = meter.addRail("test");
        costs = cfg.costs;
    }

    Engine eng;
    EnergyMeter meter;
    SocConfig cfg;
    RailId rail = 0;
    PlatformCosts costs;
};

TEST_F(CoreTest, Omap4ConfigMatchesPaperTables)
{
    ASSERT_EQ(cfg.domains.size(), 2u);
    const auto &strong = cfg.domains[kStrongDomain];
    const auto &weak = cfg.domains[kWeakDomain];
    EXPECT_EQ(strong.core.name, "Cortex-A9");
    EXPECT_EQ(weak.core.name, "Cortex-M3");
    // Table 3 power numbers.
    EXPECT_DOUBLE_EQ(strong.core.points.front().activeMw, 79.8);
    EXPECT_DOUBLE_EQ(strong.core.points.back().activeMw, 672.0);
    EXPECT_DOUBLE_EQ(strong.core.idleMw, 25.2);
    EXPECT_DOUBLE_EQ(weak.core.points.back().activeMw, 21.1);
    EXPECT_DOUBLE_EQ(weak.core.idleMw, 3.8);
    EXPECT_LT(strong.core.inactiveMw, 0.1);
    EXPECT_LT(weak.core.inactiveMw, 0.1);
    // Table 1 frequencies.
    EXPECT_EQ(strong.core.points.front().hz, 350000000ull);
    EXPECT_EQ(strong.core.points.back().hz, 1200000000ull);
    EXPECT_EQ(weak.core.points.back().hz, 200000000ull);
    // The paper's 5 us mailbox round trip.
    EXPECT_EQ(2 * cfg.costs.mailboxOneWay, sim::usec(5));
}

TEST_F(CoreTest, ConfigValidationCatchesBadConfigs)
{
    SocConfig bad = cfg;
    bad.domains.clear();
    EXPECT_THROW(bad.validate(), sim::FatalError);

    bad = cfg;
    bad.pageBytes = 3000;
    EXPECT_THROW(bad.validate(), sim::FatalError);

    bad = cfg;
    bad.domains[0].core.points.clear();
    EXPECT_THROW(bad.validate(), sim::FatalError);

    bad = cfg;
    bad.domains[0].numCores = 0;
    EXPECT_THROW(bad.validate(), sim::FatalError);
}

TEST_F(CoreTest, ExecChargesActiveTimeAndEnergy)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    // 350 MHz, IPC 1.0: 350000 instructions = 1 ms.
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(350000);
    }(core));
    eng.run(sim::msec(2));

    EXPECT_EQ(core.activeTime(), sim::msec(1));
    // Energy: 1 ms at 79.8 mW (active) + 1 ms at 25.2 mW (idle)
    // = 79.8 uJ + 25.2 uJ.
    EXPECT_NEAR(meter.energyUj(rail), 79.8 + 25.2, 0.5);
}

TEST_F(CoreTest, WeakCoreIsSlowerByFreqAndIpc)
{
    Core strong(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
                0, 0);
    Core weak(eng, meter, rail, cfg.domains[kWeakDomain].core, costs,
              1, 1);
    const std::uint64_t n = 1000000;
    const double ratio = static_cast<double>(weak.instrTime(n)) /
                         static_cast<double>(strong.instrTime(n));
    // (350e6 * 1.0) / (200e6 * 0.8) = 2.1875.
    EXPECT_NEAR(ratio, 2.1875, 0.01);
}

TEST_F(CoreTest, IdleCoreBecomesInactiveAfterTimeout)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    EXPECT_EQ(core.state(), PowerState::Idle);
    eng.run(costs.inactiveTimeout - sim::msec(1));
    EXPECT_EQ(core.state(), PowerState::Idle);
    eng.run(costs.inactiveTimeout + sim::msec(1));
    EXPECT_EQ(core.state(), PowerState::Inactive);
}

TEST_F(CoreTest, ThreadActivityResetsInactiveTimer)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.spawn([](Engine &eng, Core &core) -> Task<void> {
        co_await eng.sleep(sim::sec(4));
        co_await core.exec(1000);
        core.noteThreadActivity(); // what the scheduler does
    }(eng, core));
    // At t=6s: the timer restarted at ~4s, so still idle.
    eng.run(sim::sec(6));
    EXPECT_EQ(core.state(), PowerState::Idle);
    // By t=10s the post-activity timeout has elapsed.
    eng.run(sim::sec(10));
    EXPECT_EQ(core.state(), PowerState::Inactive);
}

TEST_F(CoreTest, InactiveDeadlineTieOrderMatchesEagerRearm)
{
    // No thread ever runs here, so every arm of the inactive timer has
    // the same deadline: 5 s after boot. An eager timer is re-armed
    // after each exec, behind X, so X sees the core still Idle and Y,
    // queued after the second re-arm, sees it gated. The lazy timer
    // must keep that order although its event was queued at boot.
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    PowerState at_x = PowerState::Active;
    PowerState at_y = PowerState::Active;
    const sim::Time deadline = costs.inactiveTimeout;
    eng.spawn([](Engine &eng, Core &core, sim::Time deadline,
                 PowerState *x, PowerState *y) -> Task<void> {
        co_await core.exec(1000);
        eng.at(deadline, [&core, x]() { *x = core.state(); });
        co_await core.exec(1000);
        eng.at(deadline, [&core, y]() { *y = core.state(); });
    }(eng, core, deadline, &at_x, &at_y));
    eng.run();
    EXPECT_EQ(at_x, PowerState::Idle);
    EXPECT_EQ(at_y, PowerState::Inactive);
    EXPECT_EQ(eng.now(), costs.inactiveTimeout);
}

TEST_F(CoreTest, ExecLoopKeepsOneQueuedTimer)
{
    // Back-to-back busy periods cost one sleep event each: the timer
    // stays the one event queued beside the exec's sleep, and it never
    // fires while the loop runs.
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    bool done = false;
    eng.spawn([](Core &core, bool *done) -> Task<void> {
        for (int i = 0; i < 10000; ++i)
            co_await core.exec(150);
        *done = true;
    }(core, &done));
    std::size_t max_pending = 0;
    while (!done && eng.runOne())
        max_pending = std::max(max_pending, eng.pendingEvents());
    ASSERT_TRUE(done);
    EXPECT_LE(max_pending, 2u);
    EXPECT_EQ(eng.eventsDispatched(), 1u + 10000u); // the spawn + sleeps
    EXPECT_LE(eng.poolCapacity(), 2u);
    EXPECT_EQ(core.state(), PowerState::Idle);
    eng.run();
    EXPECT_EQ(core.state(), PowerState::Inactive);
}

TEST_F(CoreTest, PinnedWaitLeavesClockAlone)
{
    // A pinned spin-wait has no known end, so it must not leave the
    // boot timer queued: with nothing else pending, run() returns at
    // once instead of jumping the clock to the stale 5 s deadline.
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    core.pinActive();
    EXPECT_EQ(eng.pendingEvents(), 0u);
    eng.run();
    EXPECT_EQ(eng.now(), 0u);
    EXPECT_EQ(core.state(), PowerState::Active);
    core.unpinActive();
    eng.run();
    EXPECT_EQ(core.state(), PowerState::Inactive);
    EXPECT_EQ(eng.now(), costs.inactiveTimeout);
}

TEST_F(CoreTest, IrqOnlyWakeRegatesQuickly)
{
    // A core woken from the gated state purely to run interrupt work
    // re-gates after irqRegateTimeout, not the full 5 s (cpuidle).
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.run(sim::sec(6));
    ASSERT_TRUE(core.isInactive());
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(1000); // an ISR; no thread dispatched
    }(core));
    eng.run(sim::sec(6) + sim::msec(10));
    EXPECT_TRUE(core.isInactive());
    EXPECT_EQ(core.wakeups(), 1u);
}

TEST_F(CoreTest, WakeFromInactiveChargesPenalty)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.run(sim::sec(6));
    ASSERT_TRUE(core.isInactive());
    const auto before = meter.snapshot();
    const sim::Time start = eng.now();
    sim::Time finished = 0;
    eng.spawn([](Engine &eng, Core &core, sim::Time *fin) -> Task<void> {
        co_await core.exec(350); // 1 us of work
        *fin = eng.now();
    }(eng, core, &finished));
    eng.run();
    EXPECT_EQ(core.wakeups(), 1u);
    // Completion time includes the wake latency.
    EXPECT_EQ(finished - start,
              cfg.domains[kStrongDomain].core.wakeLatency + sim::usec(1));
    // Energy includes the wake pulse.
    EXPECT_GT(before.railUj(meter, rail),
              cfg.domains[kStrongDomain].core.wakeEnergyUj);
}

TEST_F(CoreTest, ConcurrentWakersShareOneWakeup)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.run(sim::sec(6));
    ASSERT_TRUE(core.isInactive());
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        eng.spawn([](Core &core, int *done) -> Task<void> {
            co_await core.ensureAwake();
            ++*done;
        }(core, &done));
    }
    eng.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(core.wakeups(), 1u);
}

TEST_F(CoreTest, OverlappingExecsKeepCoreActive)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    // Two overlapping 1 ms executions, staggered by 0.5 ms (e.g. an
    // interrupt handler overlapping a thread).
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(350000);
    }(core));
    eng.spawn([](Engine &eng, Core &core) -> Task<void> {
        co_await eng.sleep(sim::usec(500));
        co_await core.exec(350000);
    }(eng, core));
    eng.run(sim::msec(3));
    // Active from 0 to 1.5 ms.
    EXPECT_EQ(core.activeTime(), sim::usec(1500));
}

TEST_F(CoreTest, BusyEndRunsBeforeCallerAndKeepsTieOrder)
{
    // Two busy periods end at the same T, with a plain event queued
    // between them. Each ends inside its own event, in insertion order,
    // and releases the core before its caller's next statement: the
    // first caller still sees the second period's Active, the event
    // between sees it too, and the second caller sees the core Idle.
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    const sim::Duration d = sim::usec(10);
    std::vector<std::pair<int, PowerState>> seen;
    eng.spawn([](Engine &eng, Core &core, sim::Duration d,
                 std::vector<std::pair<int, PowerState>> *seen)
                  -> Task<void> {
        co_await core.execTime(d);
        EXPECT_EQ(eng.now(), d);
        seen->emplace_back(1, core.state());
    }(eng, core, d, &seen));
    eng.spawn([](Engine &eng, Core &core, sim::Duration d,
                 std::vector<std::pair<int, PowerState>> *seen)
                  -> Task<void> {
        eng.at(d, [&core, seen]() { seen->emplace_back(2, core.state()); });
        co_await core.execTime(d);
        EXPECT_EQ(eng.now(), d);
        seen->emplace_back(3, core.state());
    }(eng, core, d, &seen));
    eng.run(d);
    const std::vector<std::pair<int, PowerState>> want = {
        {1, PowerState::Active},
        {2, PowerState::Active},
        {3, PowerState::Idle},
    };
    EXPECT_EQ(seen, want);
    EXPECT_EQ(core.activeTime(), d);
}

TEST_F(CoreTest, ZeroDurationExecTimeQueuesNoEvent)
{
    // A zero-length busy period queues no event and takes no time, but
    // still passes through Active and re-arms the inactive timer: X,
    // queued at the gating deadline before it, then runs ahead of the
    // gate and sees the core Idle (the boot arm alone would gate first).
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    PowerState at_x = PowerState::Active;
    bool checked = false;
    eng.spawn([](Engine &eng, Core &core, sim::Time deadline,
                 PowerState *x, bool *checked) -> Task<void> {
        eng.at(deadline, [&core, x]() { *x = core.state(); });
        const std::size_t pending = eng.pendingEvents();
        const std::uint64_t dispatched = eng.eventsDispatched();
        const sim::Time now = eng.now();
        co_await core.execTime(0);
        EXPECT_EQ(eng.pendingEvents(), pending);
        EXPECT_EQ(eng.eventsDispatched(), dispatched);
        EXPECT_EQ(eng.now(), now);
        EXPECT_EQ(core.state(), PowerState::Idle);
        *checked = true;
    }(eng, core, costs.inactiveTimeout, &at_x, &checked));
    eng.run();
    EXPECT_TRUE(checked);
    EXPECT_EQ(core.activeTime(), 0u);
    EXPECT_EQ(at_x, PowerState::Idle);
    EXPECT_EQ(core.state(), PowerState::Inactive);
    EXPECT_EQ(eng.now(), costs.inactiveTimeout);
}

TEST_F(CoreTest, OperatingPointChangesSpeedAndPower)
{
    // The strong core booted at its default (slowest) point, on a rail
    // of its own, and at its fastest point on the measured rail.
    CoreSpec fastest = cfg.domains[kStrongDomain].core;
    fastest.defaultPoint = fastest.points.size() - 1;
    Core slow(eng, meter, meter.addRail("slow"),
              cfg.domains[kStrongDomain].core, costs, 1, 0);
    Core core(eng, meter, rail, fastest, costs, 0, 0);
    EXPECT_EQ(core.hz(), 1200000000ull);
    EXPECT_NEAR(static_cast<double>(slow.instrTime(1200000)) /
                    core.instrTime(1200000),
                1200.0 / 350.0, 0.01);

    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(1200000); // 1 ms at 1.2 GHz
    }(core));
    eng.run(sim::msec(1));
    EXPECT_NEAR(meter.energyUj(rail), 672.0 * 0.001 * 1000, 1.0);
}

TEST_F(CoreTest, InvalidOperatingPointIsFatal)
{
    cfg.domains[kStrongDomain].core.defaultPoint = 99;
    EXPECT_THROW(cfg.validate(), sim::FatalError);
}

TEST_F(CoreTest, RailCounterSamplesOnlyWhenTotalChanges)
{
    // Two clients on one rail, as a core and its domain's uncore: an
    // enter() that leaves a client's draw where it was, at the same or
    // at another level, adds no sample.
    eng.tracer().enableSpans();
    PowerClient a(eng.now());
    PowerClient b(eng.now());
    a.addLevel(10.0);
    const std::uint32_t a4 = a.addLevel(4.0);
    b.addLevel(2.0);
    const std::uint32_t b1 = b.addLevel(1.0);
    const std::uint32_t b2 = b.addLevel(2.0);
    meter.attach(rail, a);
    meter.attach(rail, b);
    auto enter = [this](PowerClient &c, std::uint32_t level) {
        if (c.enter(level, eng.now()) && eng.tracer().spansOn())
            meter.sample(rail);
    };
    enter(a, a4);
    enter(b, b2);
    enter(a, a4);
    eng.run(sim::msec(1));
    enter(b, b1);
    std::vector<double> samples;
    for (const auto &e : eng.tracer().spanEvents()) {
        if (e.phase == sim::SpanPhase::Counter)
            samples.push_back(e.value);
    }
    EXPECT_EQ(samples, (std::vector<double>{6.0, 5.0}));
    // The residency table covers the whole interval at 6 mW.
    EXPECT_EQ(meter.energyUj(rail), 6.0);
    EXPECT_EQ(meter.powerMw(rail), 5.0);
}

TEST_F(CoreTest, TransitionsRecordNoSpanEventsWithSpansOff)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(350000);
    }(core));
    eng.run(sim::sec(6)); // idle -> active -> idle -> inactive
    ASSERT_TRUE(core.isInactive());
    EXPECT_EQ(core.activeTime(), sim::msec(1));
    EXPECT_TRUE(eng.tracer().spanEvents().empty());
}

TEST_F(CoreTest, ResidencyReadKeepsPowerSpanWhole)
{
    // A residency read in the middle of a state (a metrics snapshot)
    // must not cut the span the next transition emits for it.
    eng.tracer().enableSpans();
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(350000); // 1 ms at 350 MHz
    }(core));
    eng.run(sim::usec(400));
    EXPECT_EQ(core.activeTime(), sim::usec(400));
    EXPECT_EQ(core.idleTime(), 0u);
    eng.run(sim::msec(2));
    std::vector<std::pair<sim::Time, sim::Duration>> active;
    for (const auto &e : eng.tracer().spanEvents()) {
        if (e.phase == sim::SpanPhase::Complete &&
            std::string(e.name) == "active")
            active.emplace_back(e.ts, e.dur);
    }
    EXPECT_EQ(active, (std::vector<std::pair<sim::Time, sim::Duration>>{
                          {0, sim::msec(1)}}));
}

TEST_F(CoreTest, SnapshotMeasuresInterval)
{
    Core core(eng, meter, rail, cfg.domains[kStrongDomain].core, costs,
              0, 0);
    eng.spawn([](Core &core) -> Task<void> {
        co_await core.exec(350000);
    }(core));
    eng.run(sim::msec(1));
    const auto snap = meter.snapshot();
    eng.run(sim::msec(2)); // 1 ms idle
    EXPECT_NEAR(snap.railUj(meter, rail), 25.2 * 0.001 * 1000, 0.1);
    EXPECT_NEAR(snap.totalUj(meter), 25.2 * 0.001 * 1000, 0.1);
}

} // namespace
} // namespace k2::soc
