#include "soc/mailbox.h"

#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"
#include "soc/irq.h"

namespace k2 {
namespace soc {

MailboxNet::MailboxNet(sim::Engine &eng, std::size_t num_domains,
                       sim::Duration one_way)
    : engine_(eng), oneWay_(one_way), fifos_(num_domains),
      inflight_(num_domains * num_domains), ctrls_(num_domains, nullptr)
{
    tracks_.reserve(num_domains);
    for (std::size_t d = 0; d < num_domains; ++d) {
        tracks_.push_back(engine_.addTrack(
            sim::strPrintf("soc.mailbox.d%zu", d)));
    }
}

void
MailboxNet::attachController(DomainId domain, InterruptController *ctrl)
{
    K2_ASSERT(domain < ctrls_.size());
    ctrls_[domain] = ctrl;
}

void
MailboxNet::send(DomainId from, DomainId to, std::uint32_t word)
{
    K2_ASSERT(from < fifos_.size());
    K2_ASSERT(to < fifos_.size());
    K2_ASSERT(from != to);
    K2_TRACE(engine_, sim::TraceCat::Mail, "mail %u -> %u word 0x%08x",
             from, to, word);
    engine_.spanInstant(tracks_[from], "send",
                        static_cast<double>(word));
    sent_.inc();
    // The payload rides in the per-pair channel queue, not the event
    // capture: arrival events only drain the head of their channel, so
    // per-pair FIFO order holds no matter how transit events are
    // ordered.
    inflight_[chanIdx(from, to)].push_back(word);
    engine_.after(oneWay_, [this, from, to]() { deliver(from, to); });
}

void
MailboxNet::deliver(DomainId from, DomainId to)
{
    auto &chan = inflight_[chanIdx(from, to)];
    K2_ASSERT(!chan.empty());
    if (fault_) {
        // A stalled receiver holds arriving mail on the wire. Defer
        // before popping: every delivery of this channel defers to the
        // same instant, and same-time events dispatch in insertion
        // order, so per-pair FIFO order is preserved.
        const sim::Time stall_end = fault_->stallEnd(to);
        if (stall_end > engine_.now()) {
            engine_.at(stall_end,
                       [this, from, to]() { deliver(from, to); });
            return;
        }
    }
    std::uint32_t word = chan.front();
    chan.pop_front();
    if (fault_) {
        using Fate = fault::FaultInjector::MailFate;
        switch (fault_->onMailDeliver(from, to, word)) {
        case Fate::Drop:
        case Fate::Corrupt:
            // Corrupted mail is detected by the modelled link ECC and
            // discarded at the receiver: same outcome as a drop, with
            // its own injection counter.
            return;
        case Fate::Duplicate:
            fifos_[to].push_back(Mail{from, word});
            delivered_.inc();
            engine_.spanInstant(tracks_[to], "deliver",
                                static_cast<double>(word));
            if (ctrls_[to])
                ctrls_[to]->raise(kIrqMailbox);
            break;
        case Fate::Deliver:
            break;
        }
    }
    fifos_[to].push_back(Mail{from, word});
    delivered_.inc();
    engine_.spanInstant(tracks_[to], "deliver",
                        static_cast<double>(word));
    if (ctrls_[to])
        ctrls_[to]->raise(kIrqMailbox);
}

std::optional<Mail>
MailboxNet::tryRead(DomainId domain)
{
    K2_ASSERT(domain < fifos_.size());
    auto &fifo = fifos_[domain];
    if (fifo.empty())
        return std::nullopt;
    Mail m = fifo.front();
    fifo.pop_front();
    return m;
}

void
MailboxNet::snapState(snap::Io &io)
{
    io.check(fifos_.size(), "MailboxNet::fifos");
    for (auto &f : fifos_)
        io.podDeque(f);
    for (const auto &chan : inflight_)
        K2_ASSERT(chan.empty());
    io.pod(delivered_);
    io.pod(sent_);
}

void
MailboxNet::registerMetrics(obs::MetricsRegistry &reg,
                            const std::string &prefix) const
{
    reg.addCounter(prefix + ".sent", sent_);
    reg.addCounter(prefix + ".delivered", delivered_);
}

} // namespace soc
} // namespace k2
