/**
 * @file
 * Shadow-kernel watchdog: crash detection and recovery.
 *
 * A weak domain can crash (fault plane: `domain.crash`), silently
 * dropping all its mail and interrupt traffic. K2 notices through the
 * reliable-mail shim: when a channel touching a shadow kernel has
 * retransmitted a few times without an ack, it raises suspicion here.
 * The watchdog then probes that replica with explicit heartbeats
 * (Control/Heartbeat, answered by the shadow's ISR with
 * Control/HeartbeatAck); after kMissThreshold consecutive silent
 * periods it declares the replica dead and recovers:
 *
 *  1. degrade: the ReplicaGroup elects a new leader among the
 *     surviving replicas; if quorum is lost (always, for the paper's
 *     single shadow) it pins shared IO interrupts to the strong domain
 *     and serves new "shadowed" spawns on the main kernel
 *     (main-domain energy cost) while the replica is down;
 *  2. re-own: the group hands the dead kernel's DSM pages
 *     (Dsm::reclaimFrom) to the leader, or to the main kernel if no
 *     replica is left, completing faults stranded waiting on grants
 *     from it;
 *  3. restart: after the modelled reboot latency, revive the
 *     domain, reset its interrupt controller, and replay the shadow
 *     kernel's recorded IRQ registrations (its device/service setup);
 *  4. resume: the group rejoins the replica and lifts degraded routing
 *     once quorum is restored; the watchdog re-applies interrupt
 *     masks.
 *
 * Detection latency (crash onset -> declared) and downtime are sampled
 * into os.recovery.* metrics; every action is charged simulated
 * time/energy on the acting core. Each replica has its own probe loop
 * and down state, so concurrent crashes of different replicas recover
 * independently.
 */

#ifndef K2_OS_WATCHDOG_H
#define K2_OS_WATCHDOG_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kern/kernel.h"
#include "os/irq_router.h"
#include "os/messages.h"
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

class ReplicaGroup;

class Watchdog
{
  public:
    /**
     * @param main The strong-domain kernel that runs the probes.
     * @param group The shadow replicas to watch (replica r = kernel
     *              index r + 1) and the recovery is delegated to:
     *              leader election, DSM page inheritance and degraded
     *              routing on quorum loss.
     * @param router Interrupt router whose masks are re-applied after
     *               a restart.
     */
    Watchdog(soc::Soc &soc, kern::Kernel &main, ReplicaGroup &group,
             IrqRouter &router, fault::FaultInjector *inj);

    /**
     * Raise suspicion that replica @p replica's kernel is dead (the
     * reliable-mail shim's repeated-retransmit hook). Starts a
     * heartbeat probe loop unless one is already running or recovery
     * is in progress.
     */
    void suspect(std::size_t replica);

    /** True while replica @p r's kernel is declared down. */
    bool replicaDown(std::size_t r) const { return down_.at(r) != 0; }

    /** Handle a Heartbeat / HeartbeatAck control mail. */
    sim::Task<void> handleMail(KernelIdx to, Message msg,
                               soc::Core &core);

    /** @name Statistics. @{ */
    std::uint64_t crashesDetected() const { return crashes_.value(); }
    std::uint64_t restarts() const { return restarts_.value(); }
    std::uint64_t falseAlarms() const { return falseAlarms_.value(); }
    /** @} */

    /** Register stats under @p prefix (e.g. "os.recovery"). */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Capture/restore. Quiescence requires no probe in flight (a probe
     * loop implies pending timer events) and every shadow kernel up.
     */
    void snapState(snap::Io &io);

  private:
    /** Heartbeat probe interval. */
    static constexpr sim::Duration kPeriod = sim::msec(2);
    /** Consecutive silent probes that declare a replica dead. */
    static constexpr std::uint32_t kMissThreshold = 3;
    static_assert(kMissThreshold >= 1);
    /** Modelled shadow-kernel reboot time. */
    static constexpr sim::Duration kRestartLatency = sim::msec(10);

    sim::Task<void> probeLoop(std::size_t r);
    sim::Task<void> recover(std::size_t r);

    soc::Soc &soc_;
    kern::Kernel &main_;
    ReplicaGroup &group_;
    IrqRouter &router_;
    fault::FaultInjector *injector_;
    sim::TrackId track_{};
    std::vector<std::uint8_t> probing_;
    std::vector<std::uint8_t> down_;
    std::vector<std::uint8_t> ackSeen_;
    std::uint32_t nonce_ = 0;
    /** Outstanding probe nonces -> replica, for ack attribution. */
    std::map<std::uint32_t, std::size_t> probeOwner_;
    sim::Counter heartbeats_;
    sim::Counter heartbeatAcks_;
    sim::Counter suspicions_;
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

#endif // K2_OS_WATCHDOG_H
