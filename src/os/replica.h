/**
 * @file
 * Replicated shadow services: N-way weak-domain replication with
 * majority voting, leader election, live handoff, and the detection
 * and restart of a crashed replica.
 *
 * The paper's §11 sketches K2 scaling to "more, but not many" domains;
 * this module uses that headroom for robustness instead of capacity.
 * With `replicas = N`, the shadow kernel is brought up on N weak
 * domains. Every K2System has a group: the paper's two-kernel K2 is a
 * group of one, which keeps no replica track, state region or vote
 * round (its leader's own ballot is the quorum) and loses quorum --
 * degrading to the strong domain -- when its only replica dies.
 * Shadowed-service requests are served on the current *leader*
 * replica, and with N >= 2 every request is additionally fanned out to
 * all live replicas over the reliable-mail shim (Control/ReplicaReq);
 * each replica answers with a state digest (Control/ReplicaRep, digest
 * in the operand, vote nonce in the mail's seq field -- ReplicaRep is
 * untracked, so the ARQ stamp never touches it). The strong-domain
 * coordinator majority-votes the digests inside a fixed vote window:
 * disagreeing or absent ballots are counted and traced, and a round
 * with fewer than quorum ballots is flagged.
 *
 * Crash handling exists only when the fault plane is armed. A weak
 * domain can crash (fault plane: `domain.crash`), silently dropping all
 * its mail and interrupt traffic. Each replica has one recovery state
 * beside its group membership -- up, probing or down -- so concurrent
 * crashes of different replicas recover independently:
 *
 *  1. suspect: the reliable-mail shim raises suspicion when a channel
 *     touching the replica's kernel has retransmitted a few times
 *     without an ack (up -> probing);
 *  2. probe: the main kernel sends explicit heartbeats
 *     (Control/Heartbeat, answered by the replica's ISR with
 *     Control/HeartbeatAck carrying the same nonce). Only an ack of
 *     the open probe counts: an answered probe is a false alarm
 *     (probing -> up); kMissThreshold silent periods declare the
 *     replica dead (probing -> down);
 *  3. declare: the replica leaves the group. If it led, the survivors
 *     run a deterministic bully election (higher-index survivors
 *     challenge every lower-index one with Control/Election,
 *     challenged survivors answer Control/ElectionOk, and the lowest
 *     live index -- the one whose challenge set is empty -- wins and
 *     broadcasts Control/Coordinator carrying `leader << 12 | term`).
 *     The leader inherits the dead replica's DSM pages
 *     (Dsm::reclaimFrom; with no replica left, the strong coordinator
 *     inherits them), completing faults stranded on grants from it,
 *     and a new leader re-syncs the group's shared state region through
 *     the DSM from the surviving majority (real GetExclusive /
 *     PutExclusive traffic, charged on the leader's core). Routing
 *     degrades to the strong domain *only if quorum is lost* (live
 *     replicas < floor(N/2)+1): new shadowed spawns then run on the
 *     main kernel at main-domain energy cost; otherwise the service
 *     stays available on the new leader throughout;
 *  4. restart: after the modelled reboot latency, the domain is
 *     revived, its interrupt controller reset, and the kernel's
 *     recorded IRQ registrations (its device/service setup) replayed;
 *  5. rejoin: the leader re-announces itself to the restarted replica
 *     (Coordinator), which refreshes its epoch -- until then its
 *     ballots carry a stale-epoch digest and count as mismatches. A
 *     restarted replica that is itself the leader refreshes its own
 *     epoch, and with no live leader the rejoin runs an election.
 *     Degraded routing lifts once quorum is back, and the router's
 *     interrupt masks are re-applied (down -> up).
 *
 * Detection latency (crash onset -> declared) and downtime are sampled
 * into os.recovery.* metrics. Every protocol action is charged
 * simulated time and energy on the acting core, and everything is
 * deterministic: probes, elections and votes close on fixed timers,
 * and all iteration is in replica-index order.
 */

#ifndef K2_OS_REPLICA_H
#define K2_OS_REPLICA_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kern/kernel.h"
#include "os/irq_router.h"
#include "os/messages.h"
#include "os/dsm.h"
#include "os/kernel_mail.h"
#include "sim/sketch.h"
#include "sim/stats.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}
namespace fault {
class FaultInjector;
}

namespace os {

class ReplicaGroup
{
  public:
    /**
     * @param soc Platform.
     * @param kernels Strong coordinator kernel first, then one kernel
     *                per replica (weak domains), in kernel-index order;
     *                a single replica is the paper's one shadow kernel.
     * @param dsm The DSM spanning exactly @p kernels.
     * @param router Interrupt router, degraded on quorum loss and
     *               re-masked after a restart.
     * @param inj The fault plane; null when unarmed, which leaves the
     *            group without crash handling, recovery track or
     *            os.recovery metrics.
     */
    ReplicaGroup(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
                 Dsm &dsm, IrqRouter &router, fault::FaultInjector *inj);

    std::size_t numReplicas() const { return kernels_.size() - 1; }
    /** Majority size: floor(N/2) + 1. */
    std::size_t quorumSize() const { return numReplicas() / 2 + 1; }
    std::size_t liveReplicas() const;
    bool quorumHeld() const { return liveReplicas() >= quorumSize(); }
    bool replicaAlive(std::size_t r) const { return alive_.at(r) != 0; }

    /** Replica currently serving shadowed requests. */
    std::size_t leaderReplica() const { return leader_; }
    /**
     * Replica to serve a request on right now: the leader, or --
     * during the brief window between a leader's death and the
     * election settling -- the lowest live replica, which is exactly
     * the election's deterministic winner.
     */
    std::size_t servingReplica() const;
    kern::Kernel &replicaKernel(std::size_t r)
    {
        return *kernels_.at(r + 1);
    }

    /**
     * Account one shadowed-service request: with N >= 2 replicas,
     * spawns an asynchronous fan-out + majority-vote round over the
     * live replicas; a group of one has nobody to ask.
     */
    void noteRequest();

    /** Count a request served on the strong domain under quorum loss. */
    void noteDegradedSpawn() { degradedSpawns_.inc(); }

    /**
     * Raise suspicion that replica @p r's kernel is dead (the
     * reliable-mail shim's repeated-retransmit hook; armed only).
     * Starts a heartbeat probe loop unless the replica is already
     * being probed or recovered.
     */
    void suspect(std::size_t r);

    /** True from replica @p r's declaration until its rejoin ends. */
    bool replicaDown(std::size_t r) const
    {
        return recovery_.at(r).state == Recovery::State::Down;
    }

    /** Replica-protocol control mail (Heartbeat/HeartbeatAck/
     *  ReplicaReq/ReplicaRep/Election/ElectionOk/Coordinator). */
    sim::Task<void> handleMail(KernelIdx to, soc::Mail mail,
                               soc::Core &core);

    /** @name Statistics. @{ */
    std::uint64_t requests() const { return requests_.value(); }
    std::uint64_t votesReceived() const { return votes_.value(); }
    std::uint64_t votesAbsent() const { return votesAbsent_.value(); }
    std::uint64_t voteMismatches() const { return voteMismatches_.value(); }
    std::uint64_t voteNoQuorum() const { return voteNoQuorum_.value(); }
    std::uint64_t elections() const { return elections_.value(); }
    std::uint64_t rejoins() const { return rejoins_.value(); }
    std::uint64_t resyncs() const { return resyncs_.value(); }
    std::uint64_t quorumLosses() const { return quorumLosses_.value(); }
    std::uint64_t degradedSpawns() const { return degradedSpawns_.value(); }
    std::uint32_t term() const { return term_; }
    std::uint64_t crashesDetected() const { return crashes_.value(); }
    std::uint64_t restarts() const { return restarts_.value(); }
    std::uint64_t falseAlarms() const { return falseAlarms_.value(); }
    /** @} */

    /**
     * Register stats: "os.replica.*" with N >= 2 replicas,
     * "os.recovery.*" when armed.
     */
    void registerMetrics(obs::MetricsRegistry &reg);

    /**
     * Capture/restore. Quiescence requires no probe, recovery,
     * election, vote round or re-sync in flight, and every replica
     * alive.
     */
    void snapState(snap::Io &io);

  private:
    /** One replica's recovery state; its membership bit is alive_. */
    struct Recovery
    {
        enum class State : std::uint8_t
        {
            Up,
            Probing, //!< Suspected; heartbeats out.
            Down,    //!< Declared dead, until its rejoin ends.
        };
        State state = State::Up;
        std::uint16_t probe = 0; //!< Nonce of the open heartbeat.
        bool answered = false;   //!< The open heartbeat was acked.
    };

    /** One in-flight vote round, keyed by nonce. */
    struct Round
    {
        std::vector<std::int32_t> ballots; //!< -1 = absent, else digest.
        std::uint16_t expected = 0;
    };

    static constexpr std::uint32_t kStaleEpoch = 0xFFFFFFFFu;
    /** Ballot-collection window per shadowed request. Long enough for
     *  a couple of ARQ retransmits under injected loss. */
    static constexpr sim::Duration kVoteTimeout = sim::msec(2);
    /** Time for Election/ElectionOk mail to fly before the bully round
     *  is scored. */
    static constexpr sim::Duration kElectionSettle = sim::usec(300);
    /** DSM pages of replicated service state the new leader re-syncs
     *  after an election. */
    static constexpr std::uint64_t kStatePages = 32;
    /** Heartbeat probe interval. */
    static constexpr sim::Duration kProbePeriod = sim::msec(2);
    /** Consecutive silent probes that declare a replica dead. */
    static constexpr std::uint32_t kMissThreshold = 3;
    static_assert(kMissThreshold >= 1);
    /** Modelled shadow-kernel reboot time. */
    static constexpr sim::Duration kRestartLatency = sim::msec(10);

    static std::uint16_t digest16(std::uint32_t nonce,
                                  std::uint32_t epoch);
    kern::Kernel &coord() { return *kernels_[0]; }
    sim::Task<void> voteRound();
    void closeVote(std::uint32_t nonce);
    sim::Task<void> runElection();
    sim::Task<void> resyncState(std::size_t leader);
    void updateQuorum();
    sim::Task<void> probeLoop(std::size_t r);
    sim::Task<void> recover(std::size_t r);

    soc::Soc &soc_;
    std::vector<kern::Kernel *> kernels_;
    KernelIndex idx_;
    Dsm &dsm_;
    IrqRouter &router_;
    fault::FaultInjector *injector_;
    sim::TrackId track_{};
    sim::TrackId recoveryTrack_{};
    kern::PageRange stateRange_{};
    std::vector<std::uint8_t> alive_;
    std::vector<Recovery> recovery_;
    std::vector<std::uint32_t> epoch_;
    std::size_t leader_ = 0;
    std::uint32_t term_ = 0;
    bool degraded_ = false;
    bool electing_ = false;
    std::uint32_t nonce_ = 0;
    std::map<std::uint32_t, Round> rounds_;
    std::uint32_t resyncing_ = 0;
    std::uint32_t probeNonce_ = 0;

    sim::Counter requests_;
    sim::Counter votes_;
    sim::Counter votesAbsent_;
    sim::Counter votesLate_;
    sim::Counter voteMismatches_;
    sim::Counter voteNoQuorum_;
    sim::Counter elections_;
    sim::Counter electionOks_;
    sim::Counter coordinators_;
    sim::Counter rejoins_;
    sim::Counter resyncs_;
    sim::Counter resyncPages_;
    sim::Counter quorumLosses_;
    sim::Counter degradedSpawns_;
    sim::Counter strayMail_;
    sim::QuantileSketch electionUs_;
    sim::QuantileSketch resyncUs_;

    sim::Counter suspicions_;
    sim::Counter heartbeats_;
    sim::Counter heartbeatAcks_;
    sim::Counter falseAlarms_;
    sim::Counter crashes_;
    sim::Counter restarts_;
    sim::Counter pagesReclaimed_;
    sim::Counter servicesReplayed_;
    sim::QuantileSketch detectUs_;
    sim::QuantileSketch downUs_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_REPLICA_H
