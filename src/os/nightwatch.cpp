#include "os/nightwatch.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

NightWatch::NightWatch(soc::Soc &soc, kern::Kernel &main,
                       kern::Kernel &shadow)
    : soc_(soc), main_(main), shadow_(shadow)
{}

NightWatch::ProcState &
NightWatch::state(kern::Process &proc)
{
    ProcState &st = procs_[proc.pid()];
    if (!st.proc) {
        st.proc = &proc;
        st.ack = std::make_unique<sim::Event>(soc_.engine());
    }
    return st;
}

bool
NightWatch::isGated(kern::Pid pid) const
{
    auto it = procs_.find(pid);
    return it != procs_.end() && it->second.gated;
}

void
NightWatch::install()
{
    main_.scheduler().setPreSwitchHook(
        [this](kern::Thread &t, soc::Core &c) { return preSwitch(t, c); });
    main_.scheduler().setPostSwitchHook(
        [this](kern::Thread &t, soc::Core &c) {
            return postSwitch(t, c);
        });
    main_.scheduler().setProcessBlockedHook(
        [this](kern::Process &p) { onProcessBlocked(p); });
}

kern::Thread *
NightWatch::spawn(kern::Process &proc, std::string name,
                  kern::Thread::Body body)
{
    kern::Thread *t = shadow_.spawnThread(
        &proc, std::move(name), kern::ThreadKind::NightWatch,
        std::move(body));
    ProcState &st = state(proc);
    if (st.gated || main_.scheduler().runnableNormal(proc) > 0) {
        st.gated = true;
        shadow_.scheduler().setSuspended(*t, true);
    }
    return t;
}

sim::Task<void>
NightWatch::preSwitch(kern::Thread &next, soc::Core &core)
{
    (void)core;
    if (next.kind() != kern::ThreadKind::Normal || !next.process())
        co_return;
    kern::Process &proc = *next.process();
    if (!proc.hasNightWatch())
        co_return;
    ProcState &st = state(proc);
    if (st.gated)
        co_return;
    // Send SuspendNW *before* the context switch so the message round
    // trip overlaps with it (§8).
    st.gated = true;
    st.ackPending = true;
    st.ack->reset();
    suspendsSent.inc();
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw, "SuspendNW pid %u",
             proc.pid());
    main_.sendMail(shadow_.domainId(),
                   encodeMessage(MsgType::SuspendNw,
                                 proc.pid() & kPayloadMask, 0));
}

sim::Task<void>
NightWatch::postSwitch(kern::Thread &next, soc::Core &core)
{
    if (next.kind() != kern::ThreadKind::Normal || !next.process())
        co_return;
    ProcState &st = state(*next.process());
    if (!st.ackPending)
        co_return;
    // The switch is done; only now wait for the ack before returning
    // to user space. The residual wait is the 1-2 us of §8.
    const sim::Time t0 = soc_.engine().now();
    core.pinActive();
    co_await st.ack->wait();
    core.unpinActive();
    st.ackPending = false;
    ackWaitUs.sample(sim::toUsec(soc_.engine().now() - t0));
}

void
NightWatch::onProcessBlocked(kern::Process &proc)
{
    auto it = procs_.find(proc.pid());
    if (it == procs_.end() || !it->second.gated)
        return;
    it->second.gated = false;
    resumesSent.inc();
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw, "ResumeNW pid %u",
             proc.pid());
    main_.sendMail(shadow_.domainId(),
                   encodeMessage(MsgType::ResumeNw,
                                 proc.pid() & kPayloadMask, 0));
}

sim::Task<void>
NightWatch::handleMail(KernelIdx to, Message msg, soc::Core &core)
{
    switch (msg.type) {
      case MsgType::SuspendNw: {
        K2_ASSERT(to == 1);
        // Acknowledge first (the main kernel is waiting), then flag
        // the NightWatch threads out of the runqueue.
        shadow_.sendMail(main_.domainId(),
                         encodeMessage(MsgType::AckSuspendNw, msg.payload,
                                       0));
        auto it = procs_.find(static_cast<kern::Pid>(msg.payload));
        if (it != procs_.end() && it->second.proc) {
            co_await core.exec(200); // flagging cost
            for (const auto &t : shadow_.threads()) {
                if (t->process() != it->second.proc || !t->isNightWatch())
                    continue;
                // A holder of a cross-domain lock finishes its
                // critical section before the suspension lands --
                // parking it would park every waiter of the lock for
                // the whole gated window.
                if (t->inCritical())
                    t->deferSuspend();
                else
                    shadow_.scheduler().setSuspended(*t, true);
            }
        }
        co_return;
      }
      case MsgType::ResumeNw: {
        K2_ASSERT(to == 1);
        auto it = procs_.find(static_cast<kern::Pid>(msg.payload));
        if (it != procs_.end() && it->second.proc) {
            co_await core.exec(200);
            for (const auto &t : shadow_.threads()) {
                if (t->process() == it->second.proc && t->isNightWatch()) {
                    t->clearDeferredSuspend();
                    shadow_.scheduler().setSuspended(*t, false);
                }
            }
        }
        co_return;
      }
      case MsgType::AckSuspendNw: {
        K2_ASSERT(to == 0);
        acksReceived.inc();
        auto it = procs_.find(static_cast<kern::Pid>(msg.payload));
        if (it != procs_.end())
            it->second.ack->set();
        co_return;
      }
      default:
        K2_PANIC("NightWatch received unexpected message type %u",
                 static_cast<unsigned>(msg.type));
    }
}

void
NightWatch::snapState(snap::Io &io)
{
    io.pod(suspendsSent);
    io.pod(resumesSent);
    io.pod(acksReceived);
    ackWaitUs.snapState(io);

    // Per-process entries appear on demand (first spawn or first hook
    // firing) and are never erased.
    for (kern::Pid pid : io.keys(procs_)) {
        auto it = procs_.find(pid);
        if (it == procs_.end())
            K2_FATAL("snapshot NightWatch pid %u missing in target",
                     static_cast<unsigned>(pid));
        ProcState &st = it->second;
        io.pod(st.gated);
        io.pod(st.ackPending);
        st.ack->snapState(io);
    }
}

} // namespace os
} // namespace k2
