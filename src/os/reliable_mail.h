/**
 * @file
 * Reliable delivery over the lossy hardware mailboxes.
 *
 * The hardware mailbox guarantees per-pair FIFO order but -- once the
 * fault plane is armed -- not delivery: mails can be dropped, ECC-
 * discarded, or duplicated. This shim layers a minimal ARQ protocol on
 * top, per ordered (sender kernel, receiver kernel) channel:
 *
 *  - the sender stamps each *tracked* mail with an 8-bit channel
 *    sequence number (the low 8 bits of the mail's seq field, which no
 *    tracked receiver interprets; bit 8 is unused on tracked mail and
 *    no receiver reads it);
 *  - the receiver acks every tracked mail (Control/MailAck, operand =
 *    seq) -- including duplicates, which covers lost acks -- and
 *    suppresses re-delivery through a 256-entry sliding seq window;
 *  - the sender retransmits unacked mail after a timeout with bounded
 *    exponential backoff; after kSuspectAttempts silent transmits it
 *    fires the suspect hook while continuing to retransmit, so mail
 *    survives a crash-and-restart cycle; after kMaxAttempts it finally
 *    gives up and counts it. K2System points the hook at
 *    ReplicaGroup::suspect for the silent channel's weak end, which
 *    starts the group's heartbeat probe of that replica.
 *
 * Untracked mail (FreeRemote, whose seq field carries real data, and
 * the MailAck/Heartbeat/HeartbeatAck control mails themselves) passes
 * through unstamped and unacked.
 *
 * Every ack and retransmit is charged as kernel work (a bus access) on
 * a core of the acting domain, so recovery shows up in the energy
 * accounts.
 */

#ifndef K2_OS_RELIABLE_MAIL_H
#define K2_OS_RELIABLE_MAIL_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kern/kernel.h"
#include "os/kernel_mail.h"
#include "os/messages.h"
#include "os/retry.h"
#include "sim/sketch.h"
#include "sim/stats.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace os {

class ReliableMail
{
  public:
    /**
     * Retransmit timeout. The initial 300 us must sit above the loaded
     * ack round trip, which includes the receiving core's wake latency
     * (150 us for the strong domain). The 8x cap gives the
     * deterministic doubling schedule (300, 600, 1200, 2400, 2400, ...
     * us), which de-synchronises retransmit storms during injected
     * loss bursts while keeping the per-mail retransmit lifetime long
     * enough to ride out a crash-and-restart cycle.
     */
    static constexpr RetryPolicy kRetry{sim::usec(300), sim::usec(2400)};

    /** Called on repeated retransmission without an ack, and again at
     *  final give-up (from, to kernels). */
    using SuspectHook = std::function<void(KernelIdx, KernelIdx)>;

    /**
     * @param kernels The participating kernels, indexed by KernelIdx.
     *                Works for the K2 pair and for N-domain setups.
     */
    explicit ReliableMail(std::vector<kern::Kernel *> kernels);

    /**
     * Interpose on every kernel's outgoing mail (setMailTransport).
     * Call once, after all kernels are booted.
     */
    void install();

    void setSuspectHook(SuspectHook h) { suspect_ = std::move(h); }

    /**
     * Receive-side interposition. Call first for every arriving mail.
     *
     * @return true if the mail should be dispatched to the OS layer;
     *         false if the shim consumed it (an ack) or suppressed it
     *         (a duplicate).
     */
    sim::Task<bool> onReceive(KernelIdx to, soc::Mail mail,
                              soc::Core &core);

    /** True for mail types the ARQ protocol covers. */
    static bool tracked(std::uint32_t word);

    /** @name Statistics. @{ */
    std::uint64_t trackedSent() const { return trackedSent_.value(); }
    std::uint64_t retransmits() const { return retransmits_.value(); }
    std::uint64_t duplicatesDropped() const { return dupDropped_.value(); }
    std::uint64_t giveups() const { return giveups_.value(); }
    /** @} */

    /** Register stats under @p prefix (e.g. "os.recovery.mail"). */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Capture/restore. Quiescence requires every channel's inflight
     * window empty (unacked mail implies a pending retransmit timer);
     * sequence counters and dedup windows carry over.
     */
    void snapState(snap::Io &io);

  private:
    /**
     * Attempt count at which the suspect hook first fires (the replica
     * group's suspicion trigger). Retransmission continues past it:
     * if the peer was merely slow (or is being restarted), the mail
     * must still get through once it comes back.
     */
    static constexpr std::uint32_t kSuspectAttempts = 4;
    /**
     * Hard cap on transmits per mail. With kRetry the cumulative
     * retransmit lifetime (~55 ms) comfortably outlives a crash +
     * probe + restart cycle, so tracked mail survives a shadow-kernel
     * reboot.
     */
    static constexpr std::uint32_t kMaxAttempts = 25;
    static_assert(kSuspectAttempts >= 1 &&
                  kSuspectAttempts <= kMaxAttempts);

    struct Pending
    {
        std::uint32_t word = 0;
        std::uint32_t attempt = 1;
        sim::Duration rto = 0;
        sim::Time sentAt = 0;
        sim::EventId timer{};
    };

    /** One direction of one kernel pair. */
    struct Channel
    {
        std::uint32_t nextSeq = 0;             //!< Sender side.
        std::map<std::uint32_t, Pending> inflight;
        std::array<bool, 256> seen{};          //!< Receiver side.
    };

    std::size_t chanIdx(KernelIdx from, KernelIdx to) const
    {
        return from * kernels_.size() + to;
    }

    void send(KernelIdx from, soc::DomainId to_domain,
              std::uint32_t word);
    void armTimer(KernelIdx from, KernelIdx to, std::uint32_t seq);
    void onTimeout(KernelIdx from, KernelIdx to, std::uint32_t seq);
    sim::Task<void> chargeAndResend(KernelIdx from,
                                    soc::DomainId to_domain,
                                    std::uint32_t word);
    void handleAck(KernelIdx to, KernelIdx from_peer, std::uint32_t seq);

    std::vector<kern::Kernel *> kernels_;
    KernelIndex idx_;
    std::vector<Channel> channels_;
    SuspectHook suspect_;
    sim::Counter trackedSent_;
    sim::Counter retransmits_;
    sim::Counter acks_;
    sim::Counter dupDropped_;
    sim::Counter giveups_;
    sim::QuantileSketch ackRttUs_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_RELIABLE_MAIL_H
