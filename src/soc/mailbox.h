/**
 * @file
 * Hardware mailboxes for inter-domain communication.
 *
 * Modelled on the OMAP4 mailbox block: a core in one domain posts a
 * 32-bit mail addressed to another domain; after the wire latency the
 * mail is appended to the receiving domain's FIFO and the receiving
 * domain's private mailbox interrupt (kIrqMailbox) fires.
 *
 * Ordering contract: delivery is in-order **per sender-receiver
 * pair** -- mails posted from domain A to domain B are read by B in
 * the order A posted them, which is the guarantee the OMAP4 block's
 * per-direction hardware FIFOs give. Mails from *different* senders to
 * the same receiver interleave by arrival time with no cross-sender
 * guarantee. Each (sender, receiver) pair owns an in-flight channel
 * queue, so the guarantee holds structurally even if transit events
 * were reordered.
 *
 * The paper measures the message round trip at ~5 us; the default
 * one-way latency is half that.
 */

#ifndef K2_SOC_MAILBOX_H
#define K2_SOC_MAILBOX_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "soc/config.h"

namespace k2 {
namespace obs {
class MetricsRegistry;
}
namespace fault {
class FaultInjector;
}

namespace soc {

class InterruptController;

/** A received mail: the sender's domain and the 32-bit payload. */
struct Mail
{
    DomainId from;
    std::uint32_t word;

    bool operator==(const Mail &) const = default;
};

class MailboxNet
{
  public:
    /**
     * @param eng Simulation engine.
     * @param num_domains Number of coherence domains.
     * @param one_way One-way message latency.
     */
    MailboxNet(sim::Engine &eng, std::size_t num_domains,
               sim::Duration one_way);

    /**
     * Attach the receiving-side interrupt controller for @p domain.
     * Mails arriving for that domain raise kIrqMailbox on it.
     */
    void attachController(DomainId domain, InterruptController *ctrl);

    /**
     * Post a 32-bit mail from @p from to @p to.
     *
     * Delivery is asynchronous (after the one-way latency) and
     * in-order per sender-receiver pair (see the file comment).
     */
    void send(DomainId from, DomainId to, std::uint32_t word);

    /** Pop the oldest pending mail for @p domain, if any. */
    std::optional<Mail> tryRead(DomainId domain);

    /** Total mails delivered so far. */
    std::uint64_t messagesDelivered() const { return delivered_.value(); }

    sim::Duration oneWayLatency() const { return oneWay_; }

    /** Register this net's stats under @p prefix (e.g. "soc.mailbox"). */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Attach a fault injector consulted at each delivery (drop,
     * duplicate, bit-flip, crashed-endpoint drop, stall deferral).
     * Null (the default) keeps delivery on the exact zero-fault path.
     */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    /** The attached fault injector, or nullptr. */
    fault::FaultInjector *faultInjector() const { return fault_; }

    /**
     * Capture/restore receive FIFOs and traffic counters. In-flight
     * mail is impossible at quiescence (every posted word has a pending
     * arrival event), so the per-pair channels are only asserted empty.
     */
    void snapState(snap::Io &io);

  private:
    /** Deliver the oldest in-flight mail of the (from, to) channel. */
    void deliver(DomainId from, DomainId to);

    std::size_t
    chanIdx(DomainId from, DomainId to) const
    {
        return static_cast<std::size_t>(from) * fifos_.size() + to;
    }

    sim::Engine &engine_;
    sim::Duration oneWay_;
    std::vector<std::deque<Mail>> fifos_;
    /** Per (sender, receiver) pair: mails posted but not yet arrived. */
    std::vector<std::deque<std::uint32_t>> inflight_;
    std::vector<InterruptController *> ctrls_;
    std::vector<sim::TrackId> tracks_; //!< Per-receiver span track.
    fault::FaultInjector *fault_ = nullptr;
    sim::Counter delivered_;
    sim::Counter sent_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_MAILBOX_H
