#include "os/watchdog.h"


#include "fault/injector.h"
#include "obs/metrics.h"
#include "os/replica.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

Watchdog::Watchdog(soc::Soc &soc, kern::Kernel &main,
                   std::vector<kern::Kernel *> shadows, Dsm &dsm,
                   IrqRouter &router, fault::FaultInjector *inj,
                   Config cfg)
    : soc_(soc), main_(main), shadows_(std::move(shadows)), dsm_(dsm),
      router_(router), injector_(inj), cfg_(cfg)
{
    K2_ASSERT(cfg_.missThreshold >= 1);
    K2_ASSERT(!shadows_.empty());
    probing_.assign(shadows_.size(), 0);
    down_.assign(shadows_.size(), 0);
    ackSeen_.assign(shadows_.size(), 0);
    // Only exists when the fault plane is armed, so this track never
    // appears in zero-fault traces.
    track_ = soc_.engine().addTrack("os.recovery");
}

void
Watchdog::suspect(std::size_t replica)
{
    if (replica >= shadows_.size())
        return;
    if (probing_[replica] || down_[replica])
        return;
    suspicions_.inc();
    probing_[replica] = 1;
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "watchdog suspects kernel '%s'; probing",
             shadows_[replica]->name().c_str());
    soc_.engine().spanInstant(track_, "suspect");
    soc_.engine().spawn(probeLoop(replica));
}

sim::Task<void>
Watchdog::probeLoop(std::size_t r)
{
    std::uint32_t missed = 0;
    for (;;) {
        ackSeen_[r] = 0;
        const std::uint32_t nonce = nonce_++ & 0xFFFF;
        probeOwner_[nonce] = r;
        heartbeats_.inc();
        // The probe is kernel work on the strong domain: wake a core,
        // charge the mailbox write, post the heartbeat.
        soc::Core &core = main_.domain().core(0);
        if (!core.awake())
            co_await core.ensureAwake();
        core.pinActive();
        co_await core.execTime(soc_.costs().busAccess);
        core.unpinActive();
        main_.sendMailRaw(
            shadows_[r]->domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::Heartbeat, nonce), 0));
        co_await soc_.engine().sleep(cfg_.period);
        probeOwner_.erase(nonce);
        if (ackSeen_[r]) {
            falseAlarms_.inc();
            probing_[r] = 0;
            K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                     "watchdog probe answered; false alarm");
            co_return;
        }
        if (++missed >= cfg_.missThreshold) {
            co_await recover(r);
            probing_[r] = 0;
            co_return;
        }
    }
}

sim::Task<void>
Watchdog::recover(std::size_t r)
{
    kern::Kernel &shadow = *shadows_[r];
    down_[r] = 1;
    crashes_.inc();
    const sim::Time t0 = soc_.engine().now();
    if (injector_) {
        const sim::Time crashed_at =
            injector_->crashTime(shadow.domainId());
        if (crashed_at != 0)
            detectUs_.sample(sim::toUsec(t0 - crashed_at));
    }
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "watchdog declares kernel '%s' dead; recovering",
             shadow.name().c_str());

    if (group_) {
        // Replicated mode: the group elects a new leader, inherits the
        // dead replica's DSM pages, and degrades routing only if
        // quorum was lost.
        co_await group_->onReplicaDown(r);
    } else {
        // 1. Degrade: shared IO interrupts pin to the strong domain
        //    and new shadowed spawns run on the main kernel until
        //    restart.
        router_.setDegraded(true);

        // 2. Re-own the dead kernel's DSM pages, completing stranded
        //    main-side faults. Charged as main-kernel work
        //    proportional to the pages whose mappings are rewritten.
        const std::uint64_t reclaimed = dsm_.reclaimFrom(r + 1, 0).size();
        pagesReclaimed_.inc(reclaimed);
        soc::Core &core = main_.domain().core(0);
        if (!core.awake())
            co_await core.ensureAwake();
        core.pinActive();
        co_await core.execTime(soc_.costs().busAccess * (1 + reclaimed));
        core.unpinActive();
    }

    // 3. Restart the shadow kernel: reboot latency, then revive the
    //    domain, reset its interrupt controller and replay the
    //    kernel's recorded IRQ registrations (its shadowed-service
    //    device setup).
    co_await soc_.engine().sleep(cfg_.restartLatency);
    if (injector_)
        injector_->revive(shadow.domainId());
    shadow.domain().irqCtrl().reset();
    const std::size_t replayed = shadow.replayIrqRegistrations();
    servicesReplayed_.inc(replayed);
    restarts_.inc();

    // 4. Resume normal routing. The replayed registrations unmasked
    //    every line on the shadow controller; re-applying the router's
    //    masks restores single-owner routing of the shared lines.
    if (group_)
        co_await group_->onReplicaRestarted(r);
    else
        router_.setDegraded(false);
    router_.reapplyMasks();

    down_[r] = 0;
    downUs_.sample(sim::toUsec(soc_.engine().now() - t0));
    soc_.engine().spanComplete(t0, track_, "shadow_restart");
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "kernel '%s' restarted (%zu IRQ registrations replayed)",
             shadow.name().c_str(), replayed);
}

sim::Task<void>
Watchdog::handleMail(KernelIdx to, Message msg, soc::Core &core)
{
    K2_ASSERT(msg.type == MsgType::Control);
    const std::uint32_t nonce = ctlOperand(msg.payload);
    switch (ctlOp(msg.payload)) {
    case CtlOp::Heartbeat: {
        // Shadow side: answer from the ISR.
        K2_ASSERT(to >= 1 && to <= shadows_.size());
        co_await core.execTime(soc_.costs().busAccess);
        shadows_[to - 1]->sendMailRaw(
            main_.domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::HeartbeatAck, nonce), 0));
        co_return;
    }
    case CtlOp::HeartbeatAck: {
        K2_ASSERT(to == 0);
        heartbeatAcks_.inc();
        auto it = probeOwner_.find(nonce);
        if (it != probeOwner_.end()) {
            ackSeen_[it->second] = 1;
        } else if (shadows_.size() == 1) {
            // Single-shadow legacy semantics: any ack (even with a
            // corrupted nonce) proves the peer alive.
            ackSeen_[0] = 1;
        }
        co_return;
    }
    default:
        K2_PANIC("watchdog: unexpected control op in mail payload 0x%x",
                 msg.payload);
    }
}

void
Watchdog::registerMetrics(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(prefix + ".suspicions", suspicions_);
    reg.addCounter(prefix + ".heartbeats", heartbeats_);
    reg.addCounter(prefix + ".heartbeat_acks", heartbeatAcks_);
    reg.addCounter(prefix + ".false_alarms", falseAlarms_);
    reg.addCounter(prefix + ".crashes_detected", crashes_);
    reg.addCounter(prefix + ".restarts", restarts_);
    reg.addCounter(prefix + ".pages_reclaimed", pagesReclaimed_);
    reg.addCounter(prefix + ".services_replayed", servicesReplayed_);
    reg.addCounter(prefix + ".degraded_spawns", degradedSpawns_);
    reg.addHistogram(prefix + ".detect_us", detectUs_);
    reg.addHistogram(prefix + ".down_us", downUs_);
}

void
Watchdog::snapState(snap::Io &io)
{
    // A probe loop or recovery in flight would hold pending timer
    // events, contradicting engine quiescence.
    for (std::size_t r = 0; r < shadows_.size(); ++r) {
        K2_ASSERT(!probing_[r]);
        K2_ASSERT(!down_[r]);
    }
    K2_ASSERT(probeOwner_.empty());
    io.check(track_, "Watchdog::track");
    io.check(shadows_.size(), "Watchdog::shadows");
    for (std::size_t r = 0; r < shadows_.size(); ++r)
        io.pod(ackSeen_[r]);
    io.pod(nonce_);
    io.pod(heartbeats_);
    io.pod(heartbeatAcks_);
    io.pod(suspicions_);
    io.pod(falseAlarms_);
    io.pod(crashes_);
    io.pod(restarts_);
    io.pod(pagesReclaimed_);
    io.pod(servicesReplayed_);
    io.pod(degradedSpawns_);
    io.pod(detectUs_);
    io.pod(downUs_);
}

} // namespace os
} // namespace k2
