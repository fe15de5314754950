/**
 * @file
 * The per-kernel CPU scheduler.
 *
 * One Scheduler multiplexes a kernel's threads onto the cores of its
 * coherence domain. Each core runs a core loop: pick the next ready
 * thread, charge the context-switch cost (waking the core if it was
 * power-gated), dispatch the thread until it parks, and go idle when
 * the runqueue drains -- letting the core's inactive timer run down.
 *
 * Two hook points let the K2 layer implement NightWatch scheduling
 * (§8) without changing the scheduler's mechanism or policy, mirroring
 * how the paper leaves the Linux scheduler untouched:
 *  - pre/post switch hooks around each context switch (the SuspendNW
 *    message overlap);
 *  - a process-blocked hook fired when the last Normal thread of a
 *    process leaves the Ready/Running states (the ResumeNW trigger).
 */

#ifndef K2_KERN_SCHED_H
#define K2_KERN_SCHED_H

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "soc/core.h"
#include "kern/thread.h"

namespace k2 {
namespace kern {

class Scheduler
{
  public:
    /** Awaited around a context switch to the next thread, on the
     *  switching core. */
    using SwitchHook = std::function<sim::Task<void>(Thread &, soc::Core &)>;

    /** Fired when a process's last Normal thread blocks or exits. */
    using ProcessHook = std::function<void(Process &)>;

    Scheduler(sim::Engine &eng, std::vector<soc::Core *> cores,
              const soc::PlatformCosts &costs,
              sim::Duration quantum = sim::msec(1));

    /** Start the per-core loops. Call once at kernel boot. */
    void start();

    /** Enqueue a newly created or readied thread. */
    void makeReady(Thread &t);

    /** Gate / ungate a thread (NightWatch suspension, §8). */
    void setSuspended(Thread &t, bool suspended);

    /** True if @p t should be preempted at the next safe point. */
    bool shouldPreempt(const Thread &t) const;

    /** Scheduling quantum. */
    sim::Duration quantum() const { return quantum_; }

    /** Quantum expressed in instructions for @p core. */
    std::uint64_t quantumInstr(const soc::Core &core) const;

    void setPreSwitchHook(SwitchHook h) { preSwitch_ = std::move(h); }
    void setPostSwitchHook(SwitchHook h) { postSwitch_ = std::move(h); }
    void setProcessBlockedHook(ProcessHook h)
    {
        processBlocked_ = std::move(h);
    }

    /** @name Statistics. @{ */
    std::uint64_t contextSwitches() const { return switches_.value(); }
    std::size_t runqueueDepth() const { return runq_.size(); }
    /** @} */

    /** Number of Ready+Running Normal threads of @p proc here. */
    int runnableNormal(const Process &proc) const;

    /**
     * Capture/restore scheduler state at quiescence (empty runqueue,
     * every core loop parked). @p threads is the owning kernel's
     * thread table, already restored: the gated list is rebuilt from
     * tids and the per-process runnable counts are recomputed from
     * thread states.
     */
    void snapState(snap::Io &io,
                   const std::vector<std::unique_ptr<Thread>> &threads);

  private:
    friend class Thread;

    sim::Task<void> coreLoop(soc::Core &core);
    Thread *pickNext();

    /** Thread->scheduler notifications. */
    void noteBlockedOrDone(Thread &t);

    void bumpRunnable(Thread &t, int delta);

    /**
     * Wake one parked core to serve the runqueue, preferring a core
     * that is merely idle (clocked) over a power-gated one, and the
     * most recently used among those -- mirroring how wake_idle_cpu
     * avoids pulling gated cores out of deep states for a single
     * runnable thread.
     */
    void kickOneCore();

    sim::Engine &engine_;
    std::vector<soc::Core *> cores_;
    const soc::PlatformCosts &costs_;
    sim::Duration quantum_;
    std::deque<Thread *> runq_;
    std::vector<Thread *> gated_; //!< Suspended but otherwise ready.
    struct ParkedCore
    {
        soc::Core *core;
        std::unique_ptr<sim::Event> wake;
        bool parked = false;
        sim::Time lastRan = 0;
        sim::TrackId track = 0; //!< Span track for dispatch slices.
    };
    std::vector<ParkedCore> parked_;
    SwitchHook preSwitch_;
    SwitchHook postSwitch_;
    ProcessHook processBlocked_;
    std::unordered_map<const Process *, int> runnableNormal_;
    sim::Counter switches_;
    bool started_ = false;
};

} // namespace kern
} // namespace k2

#endif // K2_KERN_SCHED_H
