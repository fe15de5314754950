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
 * Control/HeartbeatAck); after missThreshold consecutive silent
 * periods it declares the replica dead and recovers:
 *
 *  1. degrade: pin shared IO interrupts to the strong domain and serve
 *     new "shadowed" spawns on the main kernel (main-domain energy
 *     cost) while the shadow is down. With a ReplicaGroup attached
 *     this step is delegated: the group elects a new leader among the
 *     surviving replicas and degrades only if quorum is lost;
 *  2. re-own: the main kernel takes over the dead kernel's DSM pages
 *     (Dsm::reclaimFrom), completing main-side faults stranded waiting
 *     on grants from it (group mode: the new leader inherits the dead
 *     replica's pages instead);
 *  3. restart: after the configured restart latency, revive the
 *     domain, reset its interrupt controller, and replay the shadow
 *     kernel's recorded IRQ registrations (its device/service setup);
 *  4. resume: lift degraded routing and re-apply interrupt masks
 *     (group mode: rejoin the replica and lift degradation only once
 *     quorum is restored).
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
#include "os/dsm.h"
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
    struct Config
    {
        sim::Duration period = sim::msec(2);       //!< Probe interval.
        std::uint32_t missThreshold = 3;           //!< Silent probes.
        sim::Duration restartLatency = sim::msec(10); //!< Reboot time.
    };

    /**
     * @param shadows The watched weak-domain kernels, in replica order
     *                (replica r = kernel index r + 1).
     * @param dsm The DSM to re-own pages on (main is kernel 0, replica
     *            r is kernel r + 1); unused when a ReplicaGroup
     *            handles page inheritance instead.
     */
    Watchdog(soc::Soc &soc, kern::Kernel &main,
             std::vector<kern::Kernel *> shadows, Dsm &dsm,
             IrqRouter &router, fault::FaultInjector *inj, Config cfg);

    /** Attach the replica group recovery is delegated to. */
    void setReplicaGroup(ReplicaGroup *g) { group_ = g; }

    /**
     * Raise suspicion that replica @p replica's kernel is dead (the
     * reliable-mail shim's repeated-retransmit hook). Starts a
     * heartbeat probe loop unless one is already running or recovery
     * is in progress.
     */
    void suspect(std::size_t replica);
    void suspect() { suspect(0); }

    /** True while the (first) shadow kernel is declared down. */
    bool shadowDown() const { return down_[0] != 0; }

    /** True while replica @p r's kernel is declared down. */
    bool replicaDown(std::size_t r) const { return down_.at(r) != 0; }

    /** Handle a Heartbeat / HeartbeatAck control mail. */
    sim::Task<void> handleMail(KernelIdx to, Message msg,
                               soc::Core &core);

    /** Count a spawn served on the main kernel while degraded. */
    void noteDegradedSpawn() { degradedSpawns_.inc(); }

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
    sim::Task<void> probeLoop(std::size_t r);
    sim::Task<void> recover(std::size_t r);

    soc::Soc &soc_;
    kern::Kernel &main_;
    std::vector<kern::Kernel *> shadows_;
    Dsm &dsm_;
    IrqRouter &router_;
    fault::FaultInjector *injector_;
    ReplicaGroup *group_ = nullptr;
    Config cfg_;
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
    sim::Counter degradedSpawns_;
    sim::QuantileSketch detectUs_;
    sim::QuantileSketch downUs_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_WATCHDOG_H
