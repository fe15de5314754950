#include "kern/thread.h"

#include <algorithm>

#include "sim/log.h"
#include "snap/io.h"
#include "kern/kernel.h"
#include "kern/sched.h"

namespace k2 {
namespace kern {

void
Thread::exitCritical()
{
    K2_ASSERT(critical_ > 0);
    if (--critical_ == 0 && suspendPending_) {
        suspendPending_ = false;
        scheduler().setSuspended(*this, true);
    }
}

void
Process::snapState(snap::Io &io)
{
    io.check(pid_, "Process::pid");
    io.pod(hasNightWatch_);
}

Thread::Thread(Kernel &kernel, Process *proc, Tid tid, std::string name,
               ThreadKind kind, Body body)
    : kernel_(kernel), process_(proc), tid_(tid), name_(std::move(name)),
      kind_(kind), body_(std::move(body))
{
    // Start the wrapper coroutine immediately; it runs to the first
    // park() so the thread is dispatchable before the constructor
    // returns.
    auto task = run();
    auto handle = task.release();
    handle.promise().setDetached();
    handle.resume();
    K2_ASSERT(parked_);
}

sim::Engine &
Thread::engine() const
{
    return kernel_.engine();
}

Scheduler &
Thread::scheduler() const
{
    return kernel_.scheduler();
}

soc::Core &
Thread::core()
{
    K2_ASSERT(core_ != nullptr);
    return *core_;
}

void
Thread::snapState(snap::Io &io)
{
    io.pod(state_);
    io.pod(suspended_);
    io.pod(queued_);
    io.pod(everRan_);
    io.pod(dispatchedAt_);
    // Core binding by id (pointers are host state).
    std::uint32_t core = core_ ? core_->id() + 1 : 0;
    io.pod(core);
    if (io.restoring()) {
        core_ = nullptr;
        if (core != 0) {
            for (soc::Core *c : scheduler().cores_) {
                if (c->id() == core - 1) {
                    core_ = c;
                    break;
                }
            }
            K2_ASSERT(core_ != nullptr);
        }
    }
    // Frame positions are structural: record their shape only.
    io.check(parked_ ? 1 : 0, "Thread::parked");
    io.check(schedHandle_ ? 1 : 0, "Thread::schedHandle");
}

sim::Task<void>
Thread::run()
{
    co_await park(); // wait for the first dispatch
    co_await body_(*this);
    state_ = State::Done;
    co_await park(); // hand the core back; reaped by the kernel
}

void
Thread::reap()
{
    K2_ASSERT(state_ == State::Done);
    if (parked_) {
        auto h = std::exchange(parked_, nullptr);
        h.destroy();
    }
}

bool
Thread::shouldPark() const
{
    if (suspended_)
        return true;
    if (engine().now() - dispatchedAt_ < scheduler().quantum())
        return false;
    return scheduler().shouldPreempt(*this);
}

sim::Task<void>
Thread::exec(std::uint64_t instructions)
{
    while (instructions > 0) {
        const std::uint64_t quantum = scheduler().quantumInstr(core());
        const std::uint64_t slice = std::min(instructions, quantum);
        co_await core().exec(slice);
        instructions -= slice;
        if (instructions > 0 && shouldPark())
            co_await parkAs(State::Ready);
    }
    if (shouldPark())
        co_await parkAs(State::Ready);
}

sim::Task<void>
Thread::sleep(sim::Duration d)
{
    engine().after(d, [this]() { scheduler().makeReady(*this); });
    co_await parkAs(State::Blocked);
}

sim::Task<void>
Thread::watchAndReady(sim::Event &ev)
{
    co_await ev.wait();
    scheduler().makeReady(*this);
}

sim::Task<void>
Thread::wait(sim::Event &ev)
{
    engine().spawn(watchAndReady(ev));
    co_await parkAs(State::Blocked);
}

sim::Task<void>
Thread::yield()
{
    co_await parkAs(State::Ready);
}

} // namespace kern
} // namespace k2
