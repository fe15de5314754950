/**
 * @file
 * Replicated shadow services: N-way weak-domain replication with
 * majority voting, leader election, and live handoff.
 *
 * The paper's §11 sketches K2 scaling to "more, but not many" domains;
 * this module uses that headroom for robustness instead of capacity.
 * With `replicas = N`, the shadow kernel is brought up on N weak
 * domains. Every K2System has a group: the paper's two-kernel K2 is a
 * group of one, which keeps no track, state region or vote round (its
 * leader's own ballot is the quorum) and loses quorum -- degrading to
 * the strong domain -- when its only replica dies. Shadowed-service
 * requests are served on the current *leader* replica, and with N >= 2
 * every request is additionally fanned out to all live replicas over
 * the reliable-mail shim (Control/ReplicaReq); each
 * replica answers with a state digest (Control/ReplicaRep, digest in
 * the operand, vote nonce in the mail's seq field -- ReplicaRep is
 * untracked, so the ARQ stamp never touches it). The strong-domain
 * coordinator majority-votes the digests inside a fixed vote window:
 * disagreeing or absent ballots are counted and traced, and a round
 * with fewer than quorum ballots is flagged.
 *
 * When the watchdog declares a replica dead:
 *  - if the dead replica led the group, the survivors run a
 *    deterministic bully election (higher-index survivors challenge
 *    every lower-index one with Control/Election, challenged survivors
 *    answer Control/ElectionOk, and the lowest live index -- the one
 *    whose challenge set is empty -- wins and broadcasts
 *    Control/Coordinator carrying `leader << 12 | term`);
 *  - the new leader inherits the dead replica's DSM pages
 *    (Dsm::reclaimFrom; with no replica left, the strong coordinator
 *    inherits them) and re-syncs the group's shared state region
 *    through the DSM from the surviving majority (real GetExclusive /
 *    PutExclusive traffic, charged on the leader's core);
 *  - routing degrades to the strong domain *only if quorum is lost*
 *    (live replicas < floor(N/2)+1); otherwise the service stays
 *    available on the new leader throughout.
 *
 * A restarted replica rejoins when the leader re-announces itself to it
 * (Coordinator), which refreshes the replica's epoch; until then its
 * ballots carry a stale-epoch digest and are counted as mismatches. A
 * restarted replica that is itself the leader refreshes its own epoch.
 *
 * Every protocol action is charged simulated time and energy on the
 * acting core, and everything is deterministic: elections settle on a
 * fixed timer, votes close on a fixed timer, and all iteration is in
 * replica-index order.
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
#include "sim/sketch.h"
#include "sim/stats.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
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
     * @param router Interrupt router, degraded on quorum loss.
     */
    ReplicaGroup(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
                 Dsm &dsm, IrqRouter &router);

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
     * Watchdog delegation: replica @p r was declared dead. Runs the
     * election if the leader died, reclaims the dead replica's DSM
     * pages to the leader (to the coordinator if no replica is left),
     * starts the state re-sync, and degrades routing iff quorum is
     * lost.
     *
     * @return The number of DSM pages reclaimed.
     */
    sim::Task<std::uint64_t> onReplicaDown(std::size_t r);

    /**
     * Watchdog delegation: replica @p r finished its restart. Rejoins
     * it (Coordinator from the leader refreshes its epoch) and lifts
     * degraded routing if quorum is restored.
     */
    sim::Task<void> onReplicaRestarted(std::size_t r);

    /** Replica-protocol control mail (ReplicaReq/ReplicaRep/Election/
     *  ElectionOk/Coordinator). */
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
    /** Registered by the watchdog as "os.recovery.degraded_spawns". */
    const sim::Counter &degradedSpawnCounter() const
    {
        return degradedSpawns_;
    }
    std::uint32_t term() const { return term_; }
    /** @} */

    /** Register stats under @p prefix (e.g. "os.replica"). */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix);

    /**
     * Capture/restore. Quiescence requires no election, vote round or
     * re-sync in flight, and every replica alive.
     */
    void snapState(snap::Io &io);

  private:
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

    static std::uint16_t digest16(std::uint32_t nonce,
                                  std::uint32_t epoch);
    kern::Kernel &coord() { return *kernels_[0]; }
    std::size_t replicaOfDomain(soc::DomainId d) const;
    sim::Task<void> chargeSends(kern::Kernel &kern, std::uint64_t n);
    sim::Task<void> voteRound();
    void closeVote(std::uint32_t nonce);
    sim::Task<void> runElection();
    sim::Task<void> resyncState(std::size_t leader);
    void updateQuorum();

    soc::Soc &soc_;
    std::vector<kern::Kernel *> kernels_;
    Dsm &dsm_;
    IrqRouter &router_;
    sim::TrackId track_{};
    kern::PageRange stateRange_{};
    std::vector<std::uint8_t> alive_;
    std::vector<std::uint32_t> epoch_;
    std::size_t leader_ = 0;
    std::uint32_t term_ = 0;
    bool degraded_ = false;
    bool electing_ = false;
    std::uint32_t nonce_ = 0;
    std::map<std::uint32_t, Round> rounds_;
    std::uint32_t resyncing_ = 0;

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
};

} // namespace os
} // namespace k2

#endif // K2_OS_REPLICA_H
