#include "os/reliable_mail.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

namespace {

/** Low 8 bits of the seq field carry the channel sequence number;
 *  bit 8 is unused on tracked mail, and no receiver reads it. */
constexpr std::uint32_t kChanSeqMask = 0xFFu;
constexpr std::uint32_t kSeqWindow = 256;

std::uint32_t
stamp(std::uint32_t word, std::uint32_t seq)
{
    return (word & ~kChanSeqMask) | (seq & kChanSeqMask);
}

} // namespace

ReliableMail::ReliableMail(std::vector<kern::Kernel *> kernels)
    : kernels_(std::move(kernels)), idx_(kernels_),
      channels_(kernels_.size() * kernels_.size())
{
    K2_ASSERT(kernels_.size() >= 2);
}

bool
ReliableMail::tracked(std::uint32_t word)
{
    const Message msg = decodeMessage(word);
    switch (msg.type) {
    case MsgType::GetExclusive:
    case MsgType::PutExclusive:
    case MsgType::SuspendNw:
    case MsgType::AckSuspendNw:
    case MsgType::ResumeNw:
    case MsgType::BalloonDone:
        return true;
    case MsgType::Control:
        switch (ctlOp(msg.payload)) {
        case CtlOp::BalloonGive:
        case CtlOp::MapCreate:
        case CtlOp::MapDestroy:
            return true;
        case CtlOp::ReplicaReq:
            // The fan-out must reach every live replica; silence on a
            // replica channel is the replica group's suspicion signal.
            return true;
        case CtlOp::MailAck:
        case CtlOp::Heartbeat:
        case CtlOp::HeartbeatAck:
            return false;
        case CtlOp::ReplicaRep:
            // Carries the vote nonce in the seq field (which the ARQ
            // stamp would destroy); a lost reply is an absent vote.
        case CtlOp::Election:
        case CtlOp::ElectionOk:
        case CtlOp::Coordinator:
            // Election traffic runs while peers are dead by design;
            // the protocol's own rounds provide the redundancy.
            return false;
        }
        return false;
    case MsgType::FreeRemote:
        // The seq field carries the free's order -- real data the ARQ
        // stamp would destroy.
        return false;
    }
    return false;
}

void
ReliableMail::install()
{
    for (KernelIdx k = 0; k < kernels_.size(); ++k) {
        kern::Kernel *kern = kernels_[k];
        kern->setMailTransport(
            [this, k](soc::DomainId to, std::uint32_t word) {
                send(k, to, word);
            });
    }
}

void
ReliableMail::send(KernelIdx from, soc::DomainId to_domain,
                   std::uint32_t word)
{
    if (!tracked(word)) {
        kernels_[from]->sendMailRaw(to_domain, word);
        return;
    }
    const KernelIdx to = idx_.at(to_domain);
    Channel &ch = channels_[chanIdx(from, to)];
    const std::uint32_t seq = ch.nextSeq;
    ch.nextSeq = (ch.nextSeq + 1) & kChanSeqMask;
    const std::uint32_t stamped = stamp(word, seq);

    Pending &p = ch.inflight[seq];
    p.word = stamped;
    p.attempt = 1;
    p.rto = kRetry.timeout;
    p.sentAt = kernels_[from]->engine().now();
    trackedSent_.inc();
    kernels_[from]->sendMailRaw(to_domain, stamped);
    armTimer(from, to, seq);
}

void
ReliableMail::armTimer(KernelIdx from, KernelIdx to, std::uint32_t seq)
{
    Channel &ch = channels_[chanIdx(from, to)];
    Pending &p = ch.inflight.at(seq);
    p.timer = kernels_[from]->engine().after(
        p.rto, [this, from, to, seq]() { onTimeout(from, to, seq); });
}

void
ReliableMail::onTimeout(KernelIdx from, KernelIdx to, std::uint32_t seq)
{
    Channel &ch = channels_[chanIdx(from, to)];
    auto it = ch.inflight.find(seq);
    if (it == ch.inflight.end())
        return; // Acked between fire and dispatch.
    Pending &p = it->second;
    if (p.attempt >= kMaxAttempts) {
        giveups_.inc();
        ch.inflight.erase(it);
        if (suspect_)
            suspect_(from, to);
        return;
    }
    if (p.attempt == kSuspectAttempts && suspect_) {
        // The peer has been silent through several backoff rounds:
        // raise suspicion, but keep retransmitting -- the mail must
        // still land if the peer is merely slow or gets restarted.
        suspect_(from, to);
    }
    ++p.attempt;
    p.rto = kRetry.next(p.rto);
    p.sentAt = kernels_[from]->engine().now();
    retransmits_.inc();
    kernels_[from]->engine().spawn(chargeAndResend(
        from, kernels_[to]->domainId(), p.word));
    armTimer(from, to, seq);
}

sim::Task<void>
ReliableMail::chargeAndResend(KernelIdx from, soc::DomainId to_domain,
                              std::uint32_t word)
{
    // Retransmission is kernel work: charge the mailbox-register write
    // on the sending domain before re-posting.
    kern::Kernel &kern = *kernels_[from];
    co_await chargeMailWrites(kern, 1);
    kern.sendMailRaw(to_domain, word);
}

void
ReliableMail::handleAck(KernelIdx to, KernelIdx from_peer,
                        std::uint32_t seq)
{
    // Peer acked our (to -> from_peer) mail with sequence seq.
    Channel &ch = channels_[chanIdx(to, from_peer)];
    auto it = ch.inflight.find(seq);
    if (it == ch.inflight.end())
        return; // Duplicate ack (retransmitted mail acked twice).
    acks_.inc();
    ackRttUs_.sample(sim::toUsec(kernels_[to]->engine().now() -
                                 it->second.sentAt));
    kernels_[to]->engine().cancel(it->second.timer);
    ch.inflight.erase(it);
}

sim::Task<bool>
ReliableMail::onReceive(KernelIdx to, soc::Mail mail, soc::Core &core)
{
    const Message msg = decodeMessage(mail.word);
    if (msg.type == MsgType::Control &&
        ctlOp(msg.payload) == CtlOp::MailAck) {
        handleAck(to, idx_.at(mail.from), ctlOperand(msg.payload));
        co_return false;
    }
    if (!tracked(mail.word))
        co_return true;

    const KernelIdx from = idx_.at(mail.from);
    Channel &ch = channels_[chanIdx(from, to)];
    const std::uint32_t seq = mail.word & kChanSeqMask;

    // Always ack -- a duplicate usually means our previous ack was
    // lost. The ack write costs a bus access in the receiving ISR.
    co_await core.execTime(kernels_[to]->soc().costs().busAccess);
    kernels_[to]->sendMailRaw(
        mail.from, encodeMessage(MsgType::Control,
                                 encodeCtl(CtlOp::MailAck, seq), 0));

    if (ch.seen[seq]) {
        dupDropped_.inc();
        co_return false;
    }
    ch.seen[seq] = true;
    // Slide the window: clear the slot half a wrap ahead so an old
    // sequence number becomes acceptable again by the time the sender
    // can legitimately reuse it.
    ch.seen[(seq + kSeqWindow / 2) % kSeqWindow] = false;
    co_return true;
}

void
ReliableMail::registerMetrics(obs::MetricsRegistry &reg,
                              const std::string &prefix) const
{
    reg.addCounter(prefix + ".tracked_sent", trackedSent_);
    reg.addCounter(prefix + ".retransmits", retransmits_);
    reg.addCounter(prefix + ".acks", acks_);
    reg.addCounter(prefix + ".duplicates_dropped", dupDropped_);
    reg.addCounter(prefix + ".giveups", giveups_);
    reg.addHistogram(prefix + ".ack_rtt_us", ackRttUs_);
}

void
ReliableMail::snapState(snap::Io &io)
{
    io.check(channels_.size(), "ReliableMail::channels");
    for (Channel &ch : channels_) {
        // Unacked mail would imply a pending retransmit timer.
        K2_ASSERT(ch.inflight.empty());
        io.pod(ch.nextSeq);
        io.pod(ch.seen);
    }
    io.pod(trackedSent_);
    io.pod(retransmits_);
    io.pod(acks_);
    io.pod(dupDropped_);
    io.pod(giveups_);
    ackRttUs_.snapState(io);
}

} // namespace os
} // namespace k2
