#include "kern/sched.h"

#include <algorithm>

#include "sim/log.h"
#include "snap/io.h"
#include "kern/kernel.h"

namespace k2 {
namespace kern {

Scheduler::Scheduler(sim::Engine &eng, std::vector<soc::Core *> cores,
                     const soc::PlatformCosts &costs, sim::Duration quantum)
    : engine_(eng), cores_(std::move(cores)), costs_(costs),
      quantum_(quantum)
{
    K2_ASSERT(!cores_.empty());
    for (soc::Core *c : cores_) {
        ParkedCore pc;
        pc.core = c;
        pc.wake = std::make_unique<sim::Event>(eng);
        pc.track = engine_.addTrack(sim::strPrintf(
            "kern.domain%u.core%u.sched", c->domain(), c->id()));
        parked_.push_back(std::move(pc));
    }
}

void
Scheduler::kickOneCore()
{
    if (runq_.empty())
        return;
    ParkedCore *best = nullptr;
    for (auto &pc : parked_) {
        if (!pc.parked)
            continue;
        if (!best) {
            best = &pc;
            continue;
        }
        const bool pc_gated = pc.core->isInactive();
        const bool best_gated = best->core->isInactive();
        if (pc_gated != best_gated) {
            if (best_gated)
                best = &pc;
        } else if (pc.lastRan > best->lastRan) {
            best = &pc;
        }
    }
    if (best) {
        best->parked = false;
        best->wake->pulse();
    }
}

void
Scheduler::start()
{
    K2_ASSERT(!started_);
    started_ = true;
    for (soc::Core *c : cores_)
        engine_.spawn(coreLoop(*c));
}

std::uint64_t
Scheduler::quantumInstr(const soc::Core &core) const
{
    const double instr = sim::toSec(quantum_) *
                         static_cast<double>(core.hz()) *
                         core.spec().instrPerCycle;
    return static_cast<std::uint64_t>(instr);
}

bool
Scheduler::shouldPreempt(const Thread &t) const
{
    (void)t;
    return !runq_.empty();
}

void
Scheduler::bumpRunnable(Thread &t, int delta)
{
    if (t.kind() != ThreadKind::Normal || !t.process())
        return;
    int &count = runnableNormal_[t.process()];
    count += delta;
    K2_ASSERT(count >= 0);
    if (count == 0 && processBlocked_)
        processBlocked_(*t.process());
}

int
Scheduler::runnableNormal(const Process &proc) const
{
    auto it = runnableNormal_.find(&proc);
    return it == runnableNormal_.end() ? 0 : it->second;
}

void
Scheduler::makeReady(Thread &t)
{
    if (t.queued_ || t.state() == Thread::State::Done)
        return;
    K2_ASSERT(t.state() != Thread::State::Running);
    const bool fresh = !t.everRan_;
    t.everRan_ = true;
    if (t.state() == Thread::State::Blocked || fresh) {
        t.state_ = Thread::State::Ready;
        bumpRunnable(t, +1);
    }
    t.queued_ = true;
    if (t.suspended()) {
        gated_.push_back(&t);
    } else {
        runq_.push_back(&t);
        kickOneCore();
    }
}

void
Scheduler::setSuspended(Thread &t, bool suspended)
{
    if (t.suspended() == suspended)
        return;
    t.setSuspended(suspended);
    if (suspended) {
        // If queued, move it out of the runqueue lazily: pickNext()
        // skips suspended threads into gated_. Nothing to do here.
        return;
    }
    auto it = std::find(gated_.begin(), gated_.end(), &t);
    if (it != gated_.end()) {
        gated_.erase(it);
        runq_.push_back(&t);
        kickOneCore();
    }
}

Thread *
Scheduler::pickNext()
{
    while (!runq_.empty()) {
        Thread *t = runq_.front();
        runq_.pop_front();
        if (t->suspended()) {
            gated_.push_back(t);
            continue;
        }
        t->queued_ = false;
        return t;
    }
    return nullptr;
}

void
Scheduler::noteBlockedOrDone(Thread &t)
{
    bumpRunnable(t, -1);
}

void
Scheduler::snapState(snap::Io &io,
                     const std::vector<std::unique_ptr<Thread>> &threads)
{
    // Quiescence: no runnable work, every core loop parked on its
    // wake event.
    K2_ASSERT(runq_.empty());
    io.pod(started_);
    io.pod(switches_);

    // Gated (NightWatch-suspended but ready) threads, by tid.
    std::uint64_t n = io.count(gated_.size());
    if (io.restoring()) {
        gated_.clear();
        gated_.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            Tid tid = 0;
            io.pod(tid);
            Thread *found = nullptr;
            for (const auto &t : threads) {
                if (t->tid() == tid) {
                    found = t.get();
                    break;
                }
            }
            K2_ASSERT(found != nullptr);
            gated_.push_back(found);
        }
    } else {
        for (Thread *t : gated_) {
            Tid tid = t->tid();
            io.pod(tid);
        }
    }

    io.check(parked_.size(), "Scheduler::parked");
    for (ParkedCore &pc : parked_) {
        io.check(pc.track, "Scheduler::coreTrack");
        pc.wake->snapState(io);
        io.pod(pc.parked);
        io.pod(pc.lastRan);
    }

    // Per-process runnable counts: recomputed, not serialised -- the
    // map is keyed by host pointers and only ever queried via find(),
    // so an absent entry and an explicit zero are equivalent.
    if (io.restoring()) {
        runnableNormal_.clear();
        for (const auto &t : threads) {
            if (t->kind() == ThreadKind::Normal && t->process() &&
                (t->state() == Thread::State::Ready ||
                 t->state() == Thread::State::Running)) {
                ++runnableNormal_[t->process()];
            }
        }
    }
}

sim::Task<void>
Scheduler::coreLoop(soc::Core &core)
{
    sim::TrackId track = 0;
    for (const auto &pc : parked_) {
        if (pc.core == &core)
            track = pc.track;
    }
    for (;;) {
        Thread *t = pickNext();
        if (!t) {
            // Nothing runnable: park this core; its inactive timer
            // counts down while we wait to be kicked.
            ParkedCore *slot = nullptr;
            for (auto &pc : parked_) {
                if (pc.core == &core)
                    slot = &pc;
            }
            K2_ASSERT(slot != nullptr);
            slot->parked = true;
            // Work may have arrived while we were dispatching; if the
            // kick picks this very core it clears `parked` before we
            // could start waiting, so re-check instead of waiting on a
            // pulse we already consumed.
            kickOneCore();
            if (slot->parked)
                co_await slot->wake->wait();
            continue;
        }

        if (preSwitch_)
            co_await preSwitch_(*t, core);
        switches_.inc();
        co_await core.execTime(costs_.contextSwitch);
        if (postSwitch_)
            co_await postSwitch_(*t, core);

        K2_TRACE(engine_, sim::TraceCat::Sched, "dispatch '%s' on core %u",
                 t->name().c_str(), core.id());
        t->state_ = Thread::State::Running;
        t->core_ = &core;
        t->dispatchedAt_ = engine_.now();
        co_await t->dispatch();
        // One "run" slice per dispatch, labelled with the thread name,
        // so the trace shows what each core actually executed.
        if (engine_.tracer().spansOn())
            engine_.tracer().spanCompleteStr(
                t->dispatchedAt_, engine_.now() - t->dispatchedAt_, track,
                "run", t->name());
        core.noteThreadActivity();
        for (auto &pc : parked_) {
            if (pc.core == &core)
                pc.lastRan = engine_.now();
        }

        switch (t->state()) {
          case Thread::State::Ready:
            // Preempted or yielded.
            t->queued_ = true;
            if (t->suspended()) {
                gated_.push_back(t);
            } else {
                runq_.push_back(t);
                kickOneCore();
            }
            break;
          case Thread::State::Blocked:
            noteBlockedOrDone(*t);
            break;
          case Thread::State::Done:
            noteBlockedOrDone(*t);
            t->kernel().reap(*t);
            break;
          case Thread::State::Running:
            K2_PANIC("thread '%s' parked while Running",
                     t->name().c_str());
        }
    }
}

} // namespace kern
} // namespace k2
