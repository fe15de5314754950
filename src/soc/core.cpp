#include "soc/core.h"

#include <algorithm>

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace soc {

const char *
powerStateName(PowerState s)
{
    switch (s) {
      case PowerState::Active:
        return "active";
      case PowerState::Idle:
        return "idle";
      case PowerState::Inactive:
        return "inactive";
    }
    return "?";
}

Core::Core(sim::Engine &eng, EnergyMeter &meter, RailId rail,
           const CoreSpec &spec, const PlatformCosts &costs, CoreId id,
           DomainId domain)
    : engine_(eng), meter_(meter), rail_(rail), spec_(spec), costs_(costs),
      id_(id), domain_(domain), point_(spec.defaultPoint),
      track_(eng.addTrack(
          sim::strPrintf("soc.domain%u.core%u.power", domain, id))),
      power_(eng.now()), wakeDone_(eng)
{
    // Level order as in level(): a core boots Idle, in level 0.
    power_.addLevel(spec_.idleMw);
    power_.addLevel(spec_.inactiveMw);
    for (const OperatingPoint &p : spec_.points)
        power_.addLevel(p.activeMw);
    power_.setWakeEnergy(spec_.wakeEnergyUj);
    meter_.attach(rail_, power_);
    // Treat boot as thread activity so a fresh core follows the full
    // inactive timeout.
    lastThreadActivity_ = engine_.now();
    armInactiveTimer();
}

sim::Duration
Core::instrTime(std::uint64_t instructions) const
{
    const auto cycles = static_cast<std::uint64_t>(
        static_cast<double>(instructions) / spec_.instrPerCycle + 0.5);
    return sim::cyclesToTime(cycles ? cycles : 1, hz());
}

void
Core::setState(PowerState s)
{
    if (s == state_)
        return;
    const PowerState left = state_;
    state_ = s;
    enterLevel(left);
    if ((s == PowerState::Inactive) != (left == PowerState::Inactive)) {
        for (const auto &fn : gateListeners_)
            fn();
    }
}

void
Core::enterLevel(PowerState left)
{
    const sim::Time now = engine_.now();
    const sim::Time since = power_.since();
    const bool draw_changed = power_.enter(level(), now);
    if (!engine_.tracer().spansOn())
        return;
    // Emit the residency interval that just ended as a complete span,
    // so the exported timeline shows one row of active/idle/inactive
    // segments per core, then the rail's new draw.
    if (now > since)
        engine_.tracer().spanComplete(since, now - since, track_,
                                      powerStateName(left));
    if (draw_changed)
        meter_.sample(rail_);
}

void
Core::noteThreadActivity()
{
    lastThreadActivity_ = engine_.now();
    if (state_ == PowerState::Idle)
        armInactiveTimer();
}

void
Core::armInactiveTimer()
{
    // A zero timeout disables power gating entirely (useful for
    // protocol microbenchmarks).
    if (costs_.inactiveTimeout == 0)
        return;
    // A core that ran a thread stays up for the full timeout counted
    // from the last thread activity; a core woken only for interrupt
    // work re-gates quickly (cpuidle model).
    const sim::Time now = engine_.now();
    const sim::Time thread_deadline =
        lastThreadActivity_ + costs_.inactiveTimeout;
    const sim::Time irq_deadline = now + costs_.irqRegateTimeout;
    gateAt_ = std::max(thread_deadline, irq_deadline);
    gateSeq_ = engine_.reserveSeq();
    gateArmed_ = true;
    if (inactiveTimer_.valid()) {
        // The queued event moves itself on to (gateAt_, gateSeq_) when
        // it fires; only a deadline earlier than it needs a new event.
        if (timerQueuedAt_ <= gateAt_)
            return;
        engine_.cancel(inactiveTimer_);
    }
    queueInactiveTimer();
}

void
Core::queueInactiveTimer()
{
    const std::uint64_t seq = gateSeq_;
    timerQueuedAt_ = gateAt_;
    inactiveTimer_ = engine_.atReserved(
        gateAt_, seq, [this, seq]() { onInactiveTimer(seq); });
}

void
Core::onInactiveTimer(std::uint64_t seq)
{
    inactiveTimer_ = sim::EventId();
    if (!gateArmed_)
        return;
    if (seq != gateSeq_) {
        // Re-armed since this event was queued: move on to the
        // deadline and order position of the latest arm.
        queueInactiveTimer();
        return;
    }
    gateArmed_ = false;
    if (busyCount_ == 0 && !waking_ && state_ == PowerState::Idle)
        setState(PowerState::Inactive);
}

void
Core::beginBusy()
{
    K2_ASSERT(state_ != PowerState::Inactive);
    if (busyCount_++ == 0) {
        gateArmed_ = false;
        setState(PowerState::Active);
    }
}

void
Core::pinActive()
{
    beginBusy();
    engine_.cancel(inactiveTimer_);
}

void
Core::endBusy()
{
    K2_ASSERT(busyCount_ > 0);
    if (--busyCount_ == 0) {
        setState(PowerState::Idle);
        armInactiveTimer();
    }
}

sim::Task<void>
Core::ensureAwake()
{
    while (state_ == PowerState::Inactive || waking_) {
        if (waking_) {
            co_await wakeDone_.wait();
            continue;
        }
        waking_ = true;
        wakeDone_.reset();
        power_.noteWakeup();
        // During the wake transition the core draws active power (the
        // paper's "high penalty in entering/exiting active power
        // state").
        setState(PowerState::Active);
        co_await engine_.sleep(spec_.wakeLatency);
        waking_ = false;
        if (busyCount_ == 0) {
            setState(PowerState::Idle);
            armInactiveTimer();
        }
        wakeDone_.set();
    }
}

sim::Task<void>
Core::wakeThenBusy(sim::Duration d, std::uint64_t instructions)
{
    co_await ensureAwake();
    beginBusy();
    instrs_.inc(instructions);
    co_await engine_.sleep(d);
}

void
Core::snapState(snap::Io &io)
{
    io.check(track_, "Core::track");
    io.check(point_, "Core::point");
    io.pod(state_);
    io.pod(busyCount_);
    io.pod(waking_);
    wakeDone_.snapState(io);
    // Nothing is queued at quiescence, so the timer handle is invalid;
    // the armed deadline and its sequence number are restored as is.
    io.pod(inactiveTimer_);
    io.pod(timerQueuedAt_);
    io.pod(gateArmed_);
    io.pod(gateAt_);
    io.pod(gateSeq_);
    io.pod(lastThreadActivity_);
    power_.snapState(io);
    io.pod(instrs_);
}

sim::Duration
Core::activeTime() const
{
    const sim::Time now = engine_.now();
    sim::Duration d = 0;
    for (std::uint32_t p = 0; p < spec_.points.size(); ++p)
        d += power_.residency(kActiveLevel + p, now);
    return d;
}

} // namespace soc
} // namespace k2
