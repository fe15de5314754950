/**
 * @file
 * 32-bit hardware-mail encoding used by K2 (paper §6.3).
 *
 * Each mail is one hardware mailbox word: 3 bits of message type, 20
 * bits of payload (an opcode and a page for coherence messages -- see
 * coherence::packOp --, a pid for NightWatch messages, a block index
 * for balloon coordination) and a 9-bit seq field. The mailbox
 * hardware guarantees in-order delivery, and no receiver asserts order
 * with the seq field. It carries the reliable-mail ARQ stamp on
 * tracked mail, the buddy order of a FreeRemote and the vote nonce of
 * a ReplicaRep; it is 0 on DSM mail.
 */

#ifndef K2_OS_MESSAGES_H
#define K2_OS_MESSAGES_H

#include <cstddef>
#include <cstdint>

#include "sim/log.h"

namespace k2 {
namespace os {

/** Index of one of a DSM's N kernels; 0 is the strong main kernel. */
using KernelIdx = std::size_t;

enum class MsgType : std::uint32_t
{
    FreeRemote = 0,     //!< Page free redirected to the allocating
                        //!< kernel (payload=pfn, seq=order).
    GetExclusive = 1,   //!< DSM request (payload=packOp(ReqOp, page)).
    PutExclusive = 2,   //!< DSM grant (payload=packOp(RepOp, page)).
    SuspendNw = 3,      //!< NightWatch: gate a process (payload=pid).
    AckSuspendNw = 4,   //!< NightWatch: gating acknowledged.
    ResumeNw = 5,       //!< NightWatch: ungate a process (payload=pid).
    Control = 6,        //!< Rare control ops; subtype in the payload's
                        //!< top 4 bits (CtlOp), operand in the low 16.
    BalloonDone = 7,    //!< Meta mgr: inflate finished (payload=block).
};

/** Subtypes of MsgType::Control. */
enum class CtlOp : std::uint32_t
{
    BalloonGive = 0,  //!< Meta mgr: please inflate one block for me.
    MapCreate = 1,    //!< §6.1: peer created a temporary IO mapping.
    MapDestroy = 2,   //!< §6.1: peer destroyed a temporary IO mapping.
    MailAck = 3,      //!< Reliable-mail ack (operand = acked seq).
    Heartbeat = 4,    //!< Replica group: liveness probe of a
                      //!< suspected replica (operand = nonce).
                      //!< Untracked.
    HeartbeatAck = 5, //!< Replica group: probe reply from the
                      //!< replica's ISR (operand = the probe's
                      //!< nonce). Untracked.
    ReplicaReq = 6,   //!< Replica group: shadowed-request fan-out
                      //!< (operand = vote nonce). ARQ-tracked.
    ReplicaRep = 7,   //!< Replica group: reply digest (operand =
                      //!< digest, mail seq = vote nonce). Untracked:
                      //!< a lost reply is an absent vote.
    Election = 8,     //!< Bully election challenge to a lower-index
                      //!< survivor (operand = term).
    ElectionOk = 9,   //!< Election challenge accepted (operand = term).
    Coordinator = 10, //!< New-leader announcement (operand = leader
                      //!< index << 12 | term).
};

/** Pack a Control payload from subtype and 16-bit operand. */
inline std::uint32_t
encodeCtl(CtlOp op, std::uint32_t operand)
{
    K2_ASSERT(operand <= 0xFFFF);
    return (static_cast<std::uint32_t>(op) << 16) | operand;
}

/** Subtype of a Control payload. */
inline CtlOp
ctlOp(std::uint32_t payload)
{
    return static_cast<CtlOp>(payload >> 16);
}

/** Operand of a Control payload. */
inline std::uint32_t
ctlOperand(std::uint32_t payload)
{
    return payload & 0xFFFF;
}

/** A decoded mail. */
struct Message
{
    MsgType type;
    std::uint32_t payload; //!< 20 bits.
    std::uint32_t seq;     //!< 9 bits.
};

inline constexpr std::uint32_t kPayloadBits = 20;
inline constexpr std::uint32_t kSeqBits = 9;
inline constexpr std::uint32_t kPayloadMask = (1u << kPayloadBits) - 1;
inline constexpr std::uint32_t kSeqMask = (1u << kSeqBits) - 1;

/** Pack a message into a mailbox word. */
inline std::uint32_t
encodeMessage(MsgType type, std::uint32_t payload, std::uint32_t seq)
{
    K2_ASSERT(payload <= kPayloadMask);
    return (static_cast<std::uint32_t>(type) << (kPayloadBits + kSeqBits)) |
           ((payload & kPayloadMask) << kSeqBits) | (seq & kSeqMask);
}

/** Unpack a mailbox word. */
inline Message
decodeMessage(std::uint32_t word)
{
    Message m;
    m.type = static_cast<MsgType>(word >> (kPayloadBits + kSeqBits));
    m.payload = (word >> kSeqBits) & kPayloadMask;
    m.seq = word & kSeqMask;
    return m;
}

} // namespace os
} // namespace k2

#endif // K2_OS_MESSAGES_H
