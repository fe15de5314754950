#include "os/watchdog.h"


#include "fault/injector.h"
#include "obs/metrics.h"
#include "os/replica.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

Watchdog::Watchdog(soc::Soc &soc, kern::Kernel &main,
                   ReplicaGroup &group, IrqRouter &router,
                   fault::FaultInjector *inj)
    : soc_(soc), main_(main), group_(group), router_(router),
      injector_(inj)
{
    probing_.assign(group_.numReplicas(), 0);
    down_.assign(group_.numReplicas(), 0);
    ackSeen_.assign(group_.numReplicas(), 0);
    // Only exists when the fault plane is armed, so this track never
    // appears in zero-fault traces.
    track_ = soc_.engine().addTrack("os.recovery");
}

void
Watchdog::suspect(std::size_t replica)
{
    if (replica >= group_.numReplicas())
        return;
    if (probing_[replica] || down_[replica])
        return;
    suspicions_.inc();
    probing_[replica] = 1;
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "watchdog suspects kernel '%s'; probing",
             group_.replicaKernel(replica).name().c_str());
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
            group_.replicaKernel(r).domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::Heartbeat, nonce), 0));
        co_await soc_.engine().sleep(kPeriod);
        probeOwner_.erase(nonce);
        if (ackSeen_[r]) {
            falseAlarms_.inc();
            probing_[r] = 0;
            K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                     "watchdog probe answered; false alarm");
            co_return;
        }
        if (++missed >= kMissThreshold) {
            co_await recover(r);
            probing_[r] = 0;
            co_return;
        }
    }
}

sim::Task<void>
Watchdog::recover(std::size_t r)
{
    kern::Kernel &shadow = group_.replicaKernel(r);
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

    // 1-2. The group elects a new leader if the dead replica led,
    //      hands the dead kernel's DSM pages to the leader (to the
    //      main kernel if no replica is left), and degrades routing
    //      to the strong domain if quorum was lost.
    pagesReclaimed_.inc(co_await group_.onReplicaDown(r));

    // 3. Restart the shadow kernel: reboot latency, then revive the
    //    domain, reset its interrupt controller and replay the
    //    kernel's recorded IRQ registrations (its shadowed-service
    //    device setup).
    co_await soc_.engine().sleep(kRestartLatency);
    if (injector_)
        injector_->revive(shadow.domainId());
    shadow.domain().irqCtrl().reset();
    const std::size_t replayed = shadow.replayIrqRegistrations();
    servicesReplayed_.inc(replayed);
    restarts_.inc();

    // 4. Rejoin the replica, lifting degraded routing once quorum is
    //    back. The replayed registrations unmasked every line on the
    //    shadow controller; re-applying the router's masks restores
    //    single-owner routing of the shared lines.
    co_await group_.onReplicaRestarted(r);
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
        K2_ASSERT(to >= 1 && to <= group_.numReplicas());
        co_await core.execTime(soc_.costs().busAccess);
        group_.replicaKernel(to - 1).sendMailRaw(
            main_.domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::HeartbeatAck, nonce), 0));
        co_return;
    }
    case CtlOp::HeartbeatAck: {
        K2_ASSERT(to == 0);
        heartbeatAcks_.inc();
        // Only an ack of an open probe proves its replica alive; a late
        // or duplicated ack of an earlier probe proves nothing.
        auto it = probeOwner_.find(nonce);
        if (it != probeOwner_.end())
            ackSeen_[it->second] = 1;
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
    // The group counts them; they are a recovery outcome at every
    // replica count.
    reg.addCounter(prefix + ".degraded_spawns",
                   group_.degradedSpawnCounter());
    reg.addHistogram(prefix + ".detect_us", detectUs_);
    reg.addHistogram(prefix + ".down_us", downUs_);
}

void
Watchdog::snapState(snap::Io &io)
{
    // A probe loop or recovery in flight would hold pending timer
    // events, contradicting engine quiescence.
    for (std::size_t r = 0; r < group_.numReplicas(); ++r) {
        K2_ASSERT(!probing_[r]);
        K2_ASSERT(!down_[r]);
    }
    K2_ASSERT(probeOwner_.empty());
    io.check(track_, "Watchdog::track");
    io.check(group_.numReplicas(), "Watchdog::shadows");
    for (std::size_t r = 0; r < group_.numReplicas(); ++r)
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
    detectUs_.snapState(io);
    downUs_.snapState(io);
}

} // namespace os
} // namespace k2
