#include "os/replica.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

ReplicaGroup::ReplicaGroup(soc::Soc &soc,
                           std::vector<kern::Kernel *> kernels,
                           Dsm &dsm, IrqRouter &router,
                           fault::FaultInjector *inj)
    : soc_(soc), kernels_(std::move(kernels)), idx_(kernels_), dsm_(dsm),
      router_(router), injector_(inj)
{
    K2_ASSERT(kernels_.size() >= 2); // coordinator + at least 1 replica
    K2_ASSERT(numReplicas() <= 15);  // leader index fits 4 bits.
    K2_ASSERT(dsm_.numKernels() == kernels_.size());
    alive_.assign(numReplicas(), 1);
    recovery_.assign(numReplicas(), Recovery{});
    epoch_.assign(numReplicas(), 0);
    // A group of one has no peer to vote with or re-sync from: no
    // track (until a quorum span needs one), no state region.
    if (numReplicas() > 1) {
        track_ = soc_.engine().addTrack("os.replica");
        stateRange_ = dsm_.allocRegion(kStatePages);
    }
    // Only when the fault plane is armed, so zero-fault traces never
    // carry this track.
    if (injector_)
        recoveryTrack_ = soc_.engine().addTrack("os.recovery");
}

std::size_t
ReplicaGroup::liveReplicas() const
{
    std::size_t n = 0;
    for (std::uint8_t a : alive_)
        n += a ? 1 : 0;
    return n;
}

std::size_t
ReplicaGroup::servingReplica() const
{
    if (alive_[leader_])
        return leader_;
    for (std::size_t r = 0; r < numReplicas(); ++r) {
        if (alive_[r])
            return r;
    }
    return leader_; // No replica live; callers degrade on quorum loss.
}

std::uint16_t
ReplicaGroup::digest16(std::uint32_t nonce, std::uint32_t epoch)
{
    // Deterministic mix of the request identity and the replica's view
    // of group history; replicas in sync produce identical digests.
    const std::uint32_t h = (nonce * 0x9E37u) ^ (epoch * 0x85EBu) ^
                            (epoch >> 7);
    return static_cast<std::uint16_t>(h & 0xFFFFu);
}

void
ReplicaGroup::noteRequest()
{
    // A lone leader's own ballot is the quorum: nothing to fan out.
    if (numReplicas() > 1)
        soc_.engine().spawn(voteRound());
}

sim::Task<void>
ReplicaGroup::voteRound()
{
    requests_.inc();
    const std::uint32_t nonce = nonce_++ & kSeqMask;
    Round &rd = rounds_[nonce];
    rd.ballots.assign(numReplicas(), -1);
    rd.expected = digest16(nonce, term_);

    // Fan the request out to every live replica from the coordinator.
    const std::uint64_t live = liveReplicas();
    if (live > 0) {
        co_await chargeMailWrites(coord(), live);
        for (std::size_t r = 0; r < numReplicas(); ++r) {
            if (!alive_[r])
                continue;
            coord().sendMail(
                replicaKernel(r).domainId(),
                encodeMessage(MsgType::Control,
                              encodeCtl(CtlOp::ReplicaReq, nonce), 0));
        }
    }
    co_await soc_.engine().sleep(kVoteTimeout);
    closeVote(nonce);
}

void
ReplicaGroup::closeVote(std::uint32_t nonce)
{
    auto it = rounds_.find(nonce);
    if (it == rounds_.end())
        return; // Nonce reused before this round closed.
    Round &rd = it->second;

    // Majority digest among the ballots present; ties break toward the
    // smaller digest (deterministic).
    std::size_t present = 0;
    std::int32_t majority = -1;
    std::size_t majorityCount = 0;
    for (std::size_t r = 0; r < rd.ballots.size(); ++r) {
        const std::int32_t b = rd.ballots[r];
        if (b < 0)
            continue;
        ++present;
        std::size_t count = 0;
        for (std::int32_t other : rd.ballots)
            count += (other == b) ? 1 : 0;
        if (count > majorityCount ||
            (count == majorityCount && b < majority)) {
            majority = b;
            majorityCount = count;
        }
    }

    for (std::size_t r = 0; r < rd.ballots.size(); ++r) {
        const std::int32_t b = rd.ballots[r];
        if (b < 0) {
            if (alive_[r])
                votesAbsent_.inc();
            continue;
        }
        if (b != majority) {
            voteMismatches_.inc();
            soc_.engine().spanInstant(track_, "vote_mismatch");
            K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                     "replica %zu voted digest 0x%x against majority "
                     "0x%x (nonce %u)",
                     r, static_cast<unsigned>(b),
                     static_cast<unsigned>(majority), nonce);
        }
    }
    if (present < quorumSize())
        voteNoQuorum_.inc();
    rounds_.erase(it);
}

sim::Task<void>
ReplicaGroup::runElection()
{
    electing_ = true;
    elections_.inc();
    term_ = (term_ + 1) & 0xFFF;
    const sim::Time t0 = soc_.engine().now();
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "replica election starts (term %u)", term_);

    // Bully challenges: every live replica challenges each live
    // replica with a lower index (higher priority). Indices descend so
    // the eventual winner answers last-in first.
    for (std::size_t c = numReplicas(); c-- > 0;) {
        if (!alive_[c])
            continue;
        std::uint64_t targets = 0;
        for (std::size_t l = 0; l < c; ++l)
            targets += alive_[l] ? 1 : 0;
        if (targets == 0)
            continue;
        co_await chargeMailWrites(replicaKernel(c), targets);
        for (std::size_t l = 0; l < c; ++l) {
            if (!alive_[l])
                continue;
            replicaKernel(c).sendMail(
                replicaKernel(l).domainId(),
                encodeMessage(MsgType::Control,
                              encodeCtl(CtlOp::Election, term_), 0));
        }
    }
    co_await soc_.engine().sleep(kElectionSettle);

    // The lowest live index received no ElectionOk: it leads.
    for (std::size_t r = 0; r < numReplicas(); ++r) {
        if (alive_[r]) {
            leader_ = r;
            break;
        }
    }

    // Coordinator broadcast from the new leader to every other live
    // replica and to the strong-domain coordinator.
    const std::uint32_t operand =
        ((static_cast<std::uint32_t>(leader_) & 0xFu) << 12) |
        (term_ & 0xFFFu);
    std::uint64_t sends = 1; // the strong-domain coordinator
    for (std::size_t r = 0; r < numReplicas(); ++r)
        sends += (alive_[r] && r != leader_) ? 1 : 0;
    co_await chargeMailWrites(replicaKernel(leader_), sends);
    for (std::size_t r = 0; r < numReplicas(); ++r) {
        if (!alive_[r] || r == leader_)
            continue;
        replicaKernel(leader_).sendMail(
            replicaKernel(r).domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::Coordinator, operand), 0));
    }
    replicaKernel(leader_).sendMail(
        coord().domainId(),
        encodeMessage(MsgType::Control,
                      encodeCtl(CtlOp::Coordinator, operand), 0));
    epoch_[leader_] = term_;

    electionUs_.sample(sim::toUsec(soc_.engine().now() - t0));
    soc_.engine().spanComplete(t0, track_, "election");
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "replica %zu leads (term %u)", leader_, term_);
    electing_ = false;
}

sim::Task<void>
ReplicaGroup::resyncState(std::size_t leader)
{
    // The new leader pulls the replicated service state through the
    // DSM from wherever the surviving majority holds it -- real
    // GetExclusive/PutExclusive traffic charged on the leader's core.
    ++resyncing_;
    const sim::Time t0 = soc_.engine().now();
    kern::Kernel &lead = replicaKernel(leader);
    soc::Core &core = lead.domain().core(0);
    if (!core.awake())
        co_await core.ensureAwake();
    for (std::uint64_t i = 0; i < stateRange_.count; ++i) {
        co_await dsm_.access(lead, core, stateRange_.first + i,
                             Access::Write);
    }
    resyncs_.inc();
    resyncPages_.inc(stateRange_.count);
    resyncUs_.sample(sim::toUsec(soc_.engine().now() - t0));
    soc_.engine().spanComplete(t0, track_, "resync");
    --resyncing_;
}

void
ReplicaGroup::updateQuorum()
{
    const bool held = quorumHeld();
    if (held != degraded_)
        return; // No transition.
    // addTrack dedups by name; a group of one registers its track here,
    // so fault-free traces never carry it.
    track_ = soc_.engine().addTrack("os.replica");
    if (!held) {
        degraded_ = true;
        quorumLosses_.inc();
        soc_.engine().spanInstant(track_, "quorum_lost");
        K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                 "replica quorum lost (%zu/%zu live); degrading to the "
                 "strong domain",
                 liveReplicas(), numReplicas());
        router_.setDegraded(true);
    } else {
        degraded_ = false;
        soc_.engine().spanInstant(track_, "quorum_restored");
        K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                 "replica quorum restored (%zu/%zu live)",
                 liveReplicas(), numReplicas());
        router_.setDegraded(false);
    }
}

void
ReplicaGroup::suspect(std::size_t r)
{
    if (r >= numReplicas() || recovery_[r].state != Recovery::State::Up)
        return;
    K2_ASSERT(injector_);
    suspicions_.inc();
    recovery_[r].state = Recovery::State::Probing;
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "watchdog suspects kernel '%s'; probing",
             replicaKernel(r).name().c_str());
    soc_.engine().spanInstant(recoveryTrack_, "suspect");
    soc_.engine().spawn(probeLoop(r));
}

sim::Task<void>
ReplicaGroup::probeLoop(std::size_t r)
{
    Recovery &rec = recovery_[r];
    for (std::uint32_t missed = 1;; ++missed) {
        rec.answered = false;
        rec.probe = static_cast<std::uint16_t>(probeNonce_++ & 0xFFFF);
        heartbeats_.inc();
        // The probe is kernel work on the strong domain: charge the
        // mailbox write, post the heartbeat.
        co_await chargeMailWrites(coord(), 1);
        coord().sendMailRaw(
            replicaKernel(r).domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::Heartbeat, rec.probe), 0));
        co_await soc_.engine().sleep(kProbePeriod);
        if (rec.answered) {
            falseAlarms_.inc();
            rec.state = Recovery::State::Up;
            K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
                     "watchdog probe answered; false alarm");
            co_return;
        }
        if (missed >= kMissThreshold) {
            co_await recover(r);
            co_return;
        }
    }
}

sim::Task<void>
ReplicaGroup::recover(std::size_t r)
{
    kern::Kernel &shadow = replicaKernel(r);
    recovery_[r].state = Recovery::State::Down;
    crashes_.inc();
    const sim::Time t0 = soc_.engine().now();
    const sim::Time crashed_at = injector_->crashTime(shadow.domainId());
    if (crashed_at != 0)
        detectUs_.sample(sim::toUsec(t0 - crashed_at));
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "watchdog declares kernel '%s' dead; recovering",
             shadow.name().c_str());

    // Declare: the replica leaves the group, degrading routing if
    // quorum is lost. If it led, the survivors elect a new leader.
    alive_[r] = 0;
    epoch_[r] = kStaleEpoch;
    updateQuorum();
    const bool leaderDied = (r == leader_);
    if (leaderDied && liveReplicas() > 0)
        co_await runElection();

    // The (possibly new) leader inherits the dead replica's DSM pages;
    // with no live replica left, the strong coordinator takes them.
    const std::size_t heirKernel =
        (liveReplicas() > 0) ? leader_ + 1 : 0;
    const std::vector<std::uint64_t> moved =
        dsm_.reclaimFrom(r + 1, heirKernel);
    co_await chargeMailWrites(*kernels_[heirKernel], 1 + moved.size());
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "replica %zu's %zu DSM pages reclaimed to kernel '%s'",
             r, moved.size(), kernels_[heirKernel]->name().c_str());
    pagesReclaimed_.inc(moved.size());

    // State handoff runs detached: it can outlast the restart window
    // (a page stranded under a dead requester settles only after the
    // revive), and the restart must not wait on it.
    if (leaderDied && liveReplicas() > 0)
        soc_.engine().spawn(resyncState(leader_));

    // Restart: reboot latency, then revive the domain, reset its
    // interrupt controller and replay the kernel's recorded IRQ
    // registrations (its shadowed-service device setup).
    co_await soc_.engine().sleep(kRestartLatency);
    injector_->revive(shadow.domainId());
    shadow.domain().irqCtrl().reset();
    const std::size_t replayed = shadow.replayIrqRegistrations();
    servicesReplayed_.inc(replayed);
    restarts_.inc();

    // Rejoin.
    alive_[r] = 1;
    rejoins_.inc();
    if (!alive_[leader_]) {
        // The revived replica may be the best leader available.
        co_await runElection();
    } else if (r == leader_) {
        // The leader itself came back (a group of one, or every
        // replica died): nobody else can announce it.
        epoch_[r] = term_;
    } else {
        // The leader re-announces itself to the newcomer, refreshing
        // its epoch so its ballots match again.
        const std::uint32_t operand =
            ((static_cast<std::uint32_t>(leader_) & 0xFu) << 12) |
            (term_ & 0xFFFu);
        co_await chargeMailWrites(replicaKernel(leader_), 1);
        replicaKernel(leader_).sendMail(
            shadow.domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::Coordinator, operand), 0));
    }
    // Degraded routing lifts once quorum is back. The replayed
    // registrations unmasked every line on the restarted controller;
    // re-applying the router's masks restores single-owner routing of
    // the shared lines.
    updateQuorum();
    router_.reapplyMasks();

    recovery_[r].state = Recovery::State::Up;
    downUs_.sample(sim::toUsec(soc_.engine().now() - t0));
    soc_.engine().spanComplete(t0, recoveryTrack_, "shadow_restart");
    K2_TRACE(soc_.engine(), sim::TraceCat::Nw,
             "kernel '%s' restarted (%zu IRQ registrations replayed)",
             shadow.name().c_str(), replayed);
}

sim::Task<void>
ReplicaGroup::handleMail(KernelIdx to, soc::Mail mail, soc::Core &core)
{
    const Message msg = decodeMessage(mail.word);
    K2_ASSERT(msg.type == MsgType::Control);
    const std::uint32_t operand = ctlOperand(msg.payload);
    switch (ctlOp(msg.payload)) {
      case CtlOp::Heartbeat:
        // Replica side: answer the probe from the ISR.
        K2_ASSERT(to >= 1 && to <= numReplicas());
        co_await core.execTime(soc_.costs().busAccess);
        kernels_[to]->sendMailRaw(
            coord().domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::HeartbeatAck, operand), 0));
        co_return;
      case CtlOp::HeartbeatAck:
        K2_ASSERT(to == 0);
        heartbeatAcks_.inc();
        // Only an ack of an open probe proves its replica alive; a late
        // or duplicated ack of an earlier probe proves nothing.
        for (Recovery &rec : recovery_) {
            if (rec.state == Recovery::State::Probing &&
                rec.probe == operand) {
                rec.answered = true;
                break;
            }
        }
        co_return;
      case CtlOp::ReplicaReq: {
        // Replica side: answer with a digest of the request and our
        // view of group history. The reply's seq field carries the
        // nonce (ReplicaRep is untracked, so the ARQ never stamps it).
        if (to == 0 || to > numReplicas()) {
            strayMail_.inc();
            co_return;
        }
        const std::size_t r = to - 1;
        co_await core.execTime(soc_.costs().busAccess);
        const std::uint16_t digest = digest16(operand, epoch_[r]);
        kernels_[to]->sendMail(
            coord().domainId(),
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::ReplicaRep, digest),
                          operand & kSeqMask));
        co_return;
      }
      case CtlOp::ReplicaRep: {
        // Coordinator side: record the ballot of a replica's kernel.
        const KernelIdx from = idx_.find(mail.from);
        if (to != 0 || from == 0 || from == idx_.size()) {
            strayMail_.inc();
            co_return;
        }
        const std::size_t r = from - 1;
        co_await core.execTime(soc_.costs().busAccess);
        auto it = rounds_.find(msg.seq);
        if (it == rounds_.end()) {
            votesLate_.inc();
            co_return;
        }
        it->second.ballots[r] = static_cast<std::int32_t>(operand);
        votes_.inc();
        co_return;
      }
      case CtlOp::Election: {
        // A higher-index survivor challenges us; accepting tells it a
        // better candidate lives.
        if (to == 0 || to > numReplicas()) {
            strayMail_.inc();
            co_return;
        }
        co_await core.execTime(soc_.costs().busAccess);
        kernels_[to]->sendMail(
            mail.from,
            encodeMessage(MsgType::Control,
                          encodeCtl(CtlOp::ElectionOk, operand), 0));
        co_return;
      }
      case CtlOp::ElectionOk:
        co_await core.execTime(soc_.costs().busAccess);
        electionOks_.inc();
        co_return;
      case CtlOp::Coordinator:
        co_await core.execTime(soc_.costs().busAccess);
        coordinators_.inc();
        if (to >= 1 && to <= numReplicas())
            epoch_[to - 1] = operand & 0xFFFu;
        co_return;
      default:
        K2_PANIC("replica group: unexpected control op in payload 0x%x",
                 msg.payload);
    }
}

void
ReplicaGroup::registerMetrics(obs::MetricsRegistry &reg)
{
    // Only when armed, so zero-fault runs keep the exact metric key set
    // they had before the fault plane existed.
    if (injector_) {
        const std::string rp = "os.recovery";
        reg.addCounter(rp + ".suspicions", suspicions_);
        reg.addCounter(rp + ".heartbeats", heartbeats_);
        reg.addCounter(rp + ".heartbeat_acks", heartbeatAcks_);
        reg.addCounter(rp + ".false_alarms", falseAlarms_);
        reg.addCounter(rp + ".crashes_detected", crashes_);
        reg.addCounter(rp + ".restarts", restarts_);
        reg.addCounter(rp + ".pages_reclaimed", pagesReclaimed_);
        reg.addCounter(rp + ".services_replayed", servicesReplayed_);
        // A recovery outcome at every replica count.
        reg.addCounter(rp + ".degraded_spawns", degradedSpawns_);
        reg.addHistogram(rp + ".detect_us", detectUs_);
        reg.addHistogram(rp + ".down_us", downUs_);
    }
    // A group of one has no vote, election or re-sync to report.
    if (numReplicas() < 2)
        return;
    const std::string prefix = "os.replica";
    reg.addCounter(prefix + ".requests", requests_);
    reg.addCounter(prefix + ".votes", votes_);
    reg.addCounter(prefix + ".votes_absent", votesAbsent_);
    reg.addCounter(prefix + ".votes_late", votesLate_);
    reg.addCounter(prefix + ".vote_mismatches", voteMismatches_);
    reg.addCounter(prefix + ".vote_no_quorum", voteNoQuorum_);
    reg.addCounter(prefix + ".elections", elections_);
    reg.addCounter(prefix + ".election_oks", electionOks_);
    reg.addCounter(prefix + ".coordinators", coordinators_);
    reg.addCounter(prefix + ".rejoins", rejoins_);
    reg.addCounter(prefix + ".resyncs", resyncs_);
    reg.addCounter(prefix + ".resync_pages", resyncPages_);
    reg.addCounter(prefix + ".quorum_losses", quorumLosses_);
    reg.addCounter(prefix + ".stray_mail", strayMail_);
    reg.addHistogram(prefix + ".election_us", electionUs_);
    reg.addHistogram(prefix + ".resync_us", resyncUs_);
    const ReplicaGroup *self = this;
    reg.addGauge(prefix + ".leader", [self]() {
        return static_cast<double>(self->leader_);
    });
    reg.addGauge(prefix + ".live", [self]() {
        return static_cast<double>(self->liveReplicas());
    });
}

void
ReplicaGroup::snapState(snap::Io &io)
{
    // A probe, recovery, election, open vote round or re-sync in
    // flight would hold pending engine work, contradicting quiescence.
    // Each probe rewrites its nonce and answer before use, so only the
    // nonce counter carries over.
    for (const Recovery &rec : recovery_)
        K2_ASSERT(rec.state == Recovery::State::Up);
    K2_ASSERT(!electing_);
    K2_ASSERT(rounds_.empty());
    K2_ASSERT(resyncing_ == 0);
    io.check(kernels_.size(), "ReplicaGroup::kernels");
    io.check(stateRange_.first, "ReplicaGroup::stateRange");
    io.check(recoveryTrack_, "ReplicaGroup::recoveryTrack");
    io.pod(nonce_);
    io.pod(term_);
    io.pod(leader_);
    io.pod(degraded_);
    for (std::size_t r = 0; r < numReplicas(); ++r) {
        io.pod(alive_[r]);
        io.pod(epoch_[r]);
    }
    io.pod(requests_);
    io.pod(votes_);
    io.pod(votesAbsent_);
    io.pod(votesLate_);
    io.pod(voteMismatches_);
    io.pod(voteNoQuorum_);
    io.pod(elections_);
    io.pod(electionOks_);
    io.pod(coordinators_);
    io.pod(rejoins_);
    io.pod(resyncs_);
    io.pod(resyncPages_);
    io.pod(quorumLosses_);
    io.pod(degradedSpawns_);
    io.pod(strayMail_);
    electionUs_.snapState(io);
    resyncUs_.snapState(io);
    // The recovery stats exist only when armed, which is structural.
    if (!injector_)
        return;
    io.pod(probeNonce_);
    io.pod(suspicions_);
    io.pod(heartbeats_);
    io.pod(heartbeatAcks_);
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
