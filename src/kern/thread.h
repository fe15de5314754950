/**
 * @file
 * Simulated kernel threads and processes.
 *
 * A Thread's body is a coroutine that runs *on* a simulated core under
 * a Scheduler. Control transfers between the scheduler's per-core loop
 * and the thread body use symmetric coroutine handoff: the core loop
 * `co_await t->dispatch()` resumes the thread where it parked; blocking
 * operations inside the body `co_await park()` to hand the core back.
 *
 * Inside a body, all interaction with the platform goes through the
 * Thread's context methods (exec, execTime, sleep, wait, yield), which
 * charge time/energy to the current core and cooperate with the
 * scheduler for preemption. Thread code must NOT await raw sim
 * primitives directly -- that would block the simulated core without
 * the scheduler knowing.
 */

#ifndef K2_KERN_THREAD_H
#define K2_KERN_THREAD_H

#include <coroutine>
#include <functional>
#include <string>

#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "soc/core.h"
#include "kern/types.h"

namespace k2 {
namespace kern {

class Kernel;
class Scheduler;
class Thread;

/**
 * A process: threads sharing one address space. The threads themselves
 * live in the thread tables of the kernels they run on.
 */
class Process
{
  public:
    Process(Pid pid, std::string name)
        : pid_(pid), name_(std::move(name))
    {}

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }

    /**
     * True once a NightWatch thread has been spawned in this process.
     * Sticky: it stays set after that thread finishes, so NightWatch
     * gating (§8) keeps the same per-switch behaviour for the life of
     * the process.
     */
    bool hasNightWatch() const { return hasNightWatch_; }
    void noteNightWatch() { hasNightWatch_ = true; }

    /** Capture/restore the NightWatch bit (the pid is verified). */
    void snapState(snap::Io &io);

  private:
    Pid pid_;
    std::string name_;
    bool hasNightWatch_ = false;
};

class Thread
{
  public:
    enum class State { Ready, Running, Blocked, Done };

    /** The thread's simulated code. */
    using Body = std::function<sim::Task<void>(Thread &)>;

    Thread(Kernel &kernel, Process *proc, Tid tid, std::string name,
           ThreadKind kind, Body body);

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    /** @name Identity. @{ */
    Tid tid() const { return tid_; }
    const std::string &name() const { return name_; }
    Process *process() const { return process_; }
    ThreadKind kind() const { return kind_; }
    bool isNightWatch() const { return kind_ == ThreadKind::NightWatch; }
    Kernel &kernel() { return kernel_; }
    /** @} */

    State state() const { return state_; }

    /** The core currently (or last) running this thread. */
    soc::Core &core();

    /** @name Context API (call only from inside the body). @{ */

    /** Execute @p instructions of work, with preemption at quantum
     *  boundaries. */
    sim::Task<void> exec(std::uint64_t instructions);

    /** Execute fixed-duration active work (device register IO).
     *  This is the core's busy period itself: no quantum check. */
    soc::Core::Busy execTime(sim::Duration d) { return core().execTime(d); }

    /** Block for a simulated duration without occupying the core. */
    sim::Task<void> sleep(sim::Duration d);

    /** Block until @p ev is set/pulsed. */
    sim::Task<void> wait(sim::Event &ev);

    /** Offer the core to another ready thread. */
    sim::Task<void> yield();

    /** @} */

    /** @name Scheduler interface. @{ */

    /** Awaitable used by the core loop: runs the thread until it
     *  parks. */
    auto
    dispatch()
    {
        struct Awaiter
        {
            Thread &t;

            bool await_ready() const { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> h)
            {
                t.schedHandle_ = h;
                return std::exchange(t.parked_, nullptr);
            }

            void await_resume() const {}
        };
        return Awaiter{*this};
    }

    bool suspended() const { return suspended_; }
    void setSuspended(bool s) { suspended_ = s; }

    /** @name Critical sections (held cross-domain locks).
     *
     * A thread inside a critical section must not be suspended by
     * NightWatch gating: it may hold a hardware spinlock, and parking
     * it parks every waiter for the whole gated window (or forever,
     * if the gate only lifts once the waiters run). Gating defers the
     * suspension instead; it is applied when the section exits.
     * @{ */
    void enterCritical() { ++critical_; }
    void exitCritical();
    bool inCritical() const { return critical_ > 0; }
    /** Ask to suspend as soon as the critical section exits. */
    void deferSuspend() { suspendPending_ = true; }
    void clearDeferredSuspend() { suspendPending_ = false; }
    /** @} */

    /** True while a preemption/suspension check should park. */
    bool shouldPark() const;

    /** Destroy the parked coroutine frame of a Done thread (the
     *  kernel's reap, just before it frees the thread). */
    void reap();

    /** @} */

    /**
     * Capture/restore the semantic thread state. The coroutine frame
     * itself is structural: a thread alive at capture is parked at the
     * same await site at every quiescent point, so only its state
     * flags, timestamps, and core binding are rewritten.
     */
    void snapState(snap::Io &io);

  private:
    friend class Scheduler;

    /** Awaitable used inside the body: hand the core back. */
    auto
    park()
    {
        struct Awaiter
        {
            Thread &t;

            bool await_ready() const { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> h)
            {
                t.parked_ = h;
                auto sched = std::exchange(t.schedHandle_, nullptr);
                return sched ? sched : std::noop_coroutine();
            }

            void await_resume() const {}
        };
        return Awaiter{*this};
    }

    /** Top-level coroutine that wraps the body. */
    sim::Task<void> run();

    /** Park with the given next state; scheduler requeues if Ready.
     *  The thread must be Running, and is again when resumed. */
    auto
    parkAs(State next)
    {
        struct Awaiter
        {
            Thread &t;
            State next;

            bool await_ready() const { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> h)
            {
                K2_ASSERT(t.state_ == State::Running);
                t.state_ = next;
                return t.park().await_suspend(h);
            }

            void
            await_resume() const
            {
                K2_ASSERT(t.state_ == State::Running);
            }
        };
        return Awaiter{*this, next};
    }

    /** Detached helper: readies the thread when @p ev fires. */
    sim::Task<void> watchAndReady(sim::Event &ev);

    sim::Engine &engine() const;
    Scheduler &scheduler() const;

    Kernel &kernel_;
    Process *process_;
    Tid tid_;
    std::string name_;
    ThreadKind kind_;
    Body body_;
    State state_ = State::Ready;
    bool suspended_ = false;
    int critical_ = 0;            //!< Held critical-section depth.
    bool suspendPending_ = false; //!< Gating wants us once critical_==0.
    bool queued_ = false;   //!< In the runqueue or gated list.
    bool everRan_ = false;  //!< Has been made ready at least once.
    sim::Time dispatchedAt_ = 0;
    soc::Core *core_ = nullptr;
    std::coroutine_handle<> parked_;
    std::coroutine_handle<> schedHandle_;
};

} // namespace kern
} // namespace k2

#endif // K2_KERN_THREAD_H
