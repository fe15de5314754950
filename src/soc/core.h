/**
 * @file
 * A simulated heterogeneous core with power-state accounting.
 *
 * Cores have three power states:
 *  - Active: at least one execution (thread or interrupt handler) is
 *    charging cycles; draws the current operating point's active power.
 *  - Idle: clocked but waiting (WFI); draws idle power. After the
 *    platform's inactive timeout elapses without any execution, the
 *    core transitions to...
 *  - Inactive: power-gated; draws ~0. Resuming execution charges the
 *    wake latency and wake energy.
 *
 * The inactive timer is lazy: a core keeps at most one timer event
 * queued. Going busy only disarms it; going idle records the new
 * deadline together with the event sequence number an immediate
 * re-arm would have taken (sim::Engine::reserveSeq). A queued event
 * that fires before that (deadline, sequence) re-queues itself there
 * (sim::Engine::atReserved), so the core gates at exactly the
 * position in the event order an eagerly cancelled and re-armed timer
 * would have, ties included, at one queued event per idle stretch
 * rather than one cancel and one push per busy period.
 *
 * Execution cost is expressed in *reference instructions*; a core
 * converts them to cycles through its sustained IPC and to time through
 * its operating frequency, which is how the strong/weak performance
 * asymmetry (paper §9.2: the weak core delivers 20-70% of the strong
 * core's 350 MHz performance) arises.
 */

#ifndef K2_SOC_CORE_H
#define K2_SOC_CORE_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "soc/config.h"
#include "soc/power.h"

namespace k2 {
namespace soc {

/** Core power state. */
enum class PowerState { Active, Idle, Inactive };

/** Printable name of a power state. */
const char *powerStateName(PowerState s);

class Core
{
  public:
    Core(sim::Engine &eng, EnergyMeter &meter, RailId rail,
         const CoreSpec &spec, const PlatformCosts &costs, CoreId id,
         DomainId domain);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** @name Identity. @{ */
    CoreId id() const { return id_; }
    DomainId domain() const { return domain_; }
    const CoreSpec &spec() const { return spec_; }
    /** @} */

    /** @name Operating point (the spec's defaultPoint, fixed at boot). @{ */
    std::uint64_t hz() const { return spec_.points[point_].hz; }
    std::size_t operatingPoint() const { return point_; }
    /** @} */

    /** Time to execute @p instructions at the current point. */
    sim::Duration instrTime(std::uint64_t instructions) const;

    class Busy;

    /**
     * Execute @p instructions of reference work on this core.
     *
     * Wakes the core if it is inactive (charging the penalty), holds it
     * Active for the computed duration, then releases it (it becomes
     * Idle if no other execution overlaps).
     */
    Busy exec(std::uint64_t instructions);

    /** Execute fixed-duration active work (e.g. device-register IO). */
    Busy execTime(sim::Duration d);

    /** Wake the core if inactive; completes when it is usable. */
    sim::Task<void> ensureAwake();

    /**
     * True when ensureAwake() would complete without suspending --
     * callers on hot paths use this to skip spawning its coroutine
     * (the overwhelmingly common case is an already-awake core).
     */
    bool awake() const
    {
        return state_ != PowerState::Inactive && !waking_;
    }

    /**
     * @name Active pinning.
     *
     * Hold the core in the Active state across an await of unknown
     * duration (modelling a spin-wait, e.g. the DSM requester spinning
     * for PutExclusive). The core must be awake. Pinning drops any
     * queued inactive-timer event outright, so a wait that never ends
     * cannot advance the clock to a stale deadline. @{
     */
    void pinActive();
    void unpinActive() { endBusy(); }
    /** @} */

    /**
     * Register a callback invoked after the core enters or leaves the
     * Inactive state: the only transitions that can change whether its
     * whole domain is gated.
     */
    void
    addGateListener(std::function<void()> fn)
    {
        gateListeners_.push_back(std::move(fn));
    }

    /**
     * Note that a thread ran on this core (called by the scheduler).
     * Threads keep the core awake for the full inactive timeout;
     * interrupt-only wakeups re-gate after the much shorter
     * irqRegateTimeout.
     */
    void noteThreadActivity();

    PowerState state() const { return state_; }
    bool isInactive() const { return state_ == PowerState::Inactive; }

    /** @name Residency statistics, read from the power table. @{ */
    sim::Duration activeTime() const;
    sim::Duration
    idleTime() const
    {
        return power_.residency(kIdleLevel, engine_.now());
    }
    sim::Duration
    inactiveTime() const
    {
        return power_.residency(kInactiveLevel, engine_.now());
    }
    std::uint64_t wakeups() const { return power_.wakeups(); }
    std::uint64_t instructionsRetired() const { return instrs_.value(); }
    /** @} */

    /**
     * The core's power table on its domain's rail: idle, inactive, then
     * active at each operating point.
     */
    const PowerClient &power() const { return power_; }

    /** Capture/restore power state, power table, and timer state. */
    void snapState(snap::Io &io);

  private:
    /** Power-table levels; active at point p is kActiveLevel + p. */
    static constexpr std::uint32_t kIdleLevel = 0;
    static constexpr std::uint32_t kInactiveLevel = 1;
    static constexpr std::uint32_t kActiveLevel = 2;

    /** The power-table level of the current state and point. */
    std::uint32_t
    level() const
    {
        switch (state_) {
          case PowerState::Active:
            return kActiveLevel + static_cast<std::uint32_t>(point_);
          case PowerState::Idle:
            return kIdleLevel;
          case PowerState::Inactive:
            break;
        }
        return kInactiveLevel;
    }

    /** The wake path of a busy period: wake, then hold the core
     *  Active for @p d (Busy::await_resume releases it). */
    sim::Task<void> wakeThenBusy(sim::Duration d,
                                 std::uint64_t instructions);

    void setState(PowerState s);
    void enterLevel(PowerState left);
    void beginBusy();
    void endBusy();
    void armInactiveTimer();
    void queueInactiveTimer();
    void onInactiveTimer(std::uint64_t seq);

    sim::Engine &engine_;
    EnergyMeter &meter_;
    RailId rail_;
    CoreSpec spec_;
    const PlatformCosts &costs_;
    CoreId id_;
    DomainId domain_;

    const std::size_t point_;
    sim::TrackId track_; //!< Structured-span track for power states.
    PowerState state_ = PowerState::Idle;
    PowerClient power_;
    std::uint32_t busyCount_ = 0;
    bool waking_ = false;
    sim::Event wakeDone_;
    std::vector<std::function<void()>> gateListeners_;
    /** The one queued inactive-timer event (invalid when none is) and
     *  the time it is queued at. */
    sim::EventId inactiveTimer_;
    sim::Time timerQueuedAt_ = 0;
    /** Gating is armed for (gateAt_, gateSeq_) in the event order. */
    bool gateArmed_ = false;
    sim::Time gateAt_ = 0;
    std::uint64_t gateSeq_ = 0;
    sim::Time lastThreadActivity_ = 0;
    sim::Counter instrs_;
};

/**
 * One busy period: the awaitable exec() and execTime() return.
 *
 * On an awake core it is a single raw-coroutine event and builds no
 * coroutine frame: await_suspend takes the core busy and queues the
 * caller's own resume at now + d, and await_resume releases the core,
 * so the release runs inside that event, before the caller's next
 * statement. A zero-length period queues nothing and resumes the
 * caller at once. Only the rare wake path (an inactive or waking core)
 * runs a coroutine, Core::wakeThenBusy, which the awaiter owns.
 */
class [[nodiscard]] Core::Busy
{
  public:
    bool await_ready() const { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> caller)
    {
        if (!core_.awake()) {
            wake_ = core_.wakeThenBusy(d_, instructions_);
            return wake_.operator co_await().await_suspend(caller);
        }
        core_.beginBusy();
        core_.instrs_.inc(instructions_);
        if (d_ == 0)
            return caller;
        core_.engine_.atResume(core_.engine_.now() + d_, caller);
        return std::noop_coroutine();
    }

    void
    await_resume()
    {
        if (wake_.valid())
            wake_.operator co_await().await_resume();
        core_.endBusy();
    }

  private:
    friend class Core;

    Busy(Core &core, sim::Duration d, std::uint64_t instructions)
        : core_(core), d_(d), instructions_(instructions)
    {}

    Core &core_;
    sim::Duration d_;
    std::uint64_t instructions_;
    sim::Task<void> wake_; //!< The wake path's coroutine, if taken.
};

inline Core::Busy
Core::exec(std::uint64_t instructions)
{
    return Busy(*this, instrTime(instructions), instructions);
}

inline Core::Busy
Core::execTime(sim::Duration d)
{
    return Busy(*this, d, 0);
}

} // namespace soc
} // namespace k2

#endif // K2_SOC_CORE_H
