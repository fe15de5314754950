/**
 * @file
 * The coherence-protocol zoo behind the K2 DSM.
 *
 * The paper hard-wires one protocol (the §6.3 two-state scheme, with a
 * three-state MSI variant for the ablation). This subsystem makes the
 * protocol a run-time choice so the design space the paper
 * leaves unexplored -- directory MESI/MOESI, log-based release-acquire
 * -- can be measured on the same platform model:
 *
 *  - ProtocolKind names every registered protocol; parseProtocol()
 *    backs the `--dsm=PROTO` flag on the sweep binaries.
 *  - The protocol rules live here: the copy-state transitions of the
 *    invalidation family (2state/3state/MESI/MOESI,
 *    coherence/directory.h) and the release-acquire logs and clocks
 *    (coherence/rac.h). Neither keeps per-page state: each page's
 *    copy states and RAC writer stamp sit in one record of the one
 *    DSM engine, os::Dsm. Dsm is the timed interpreter: one fault
 *    path and one service path for every protocol at any kernel
 *    count, which charge time, send mail and ask these rules at each
 *    decision; every state change is one of the rules.
 *
 * Message encoding: every protocol carries a 3-bit opcode in the
 * payload's top bits and the page in the remaining 17 (packOp below),
 * and leaves the seq field 0 -- the reliable-mail ARQ stamps its low
 * eight bits on tracked mail. The opcode names the request (GetS,
 * GetX, Acq) or the granted copy state (GrantS, GrantE, GrantX), so
 * the receiver needs nothing beyond the payload. The 17 page bits cap
 * a DSM at 2^17 pages (kOpMaxPages), the span of K2System's DSM.
 */

#ifndef K2_OS_COHERENCE_PROTOCOL_H
#define K2_OS_COHERENCE_PROTOCOL_H

#include <array>
#include <cstdint>
#include <string>

#include "sim/log.h"
#include "sim/sketch.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "os/messages.h"

namespace k2 {
namespace os {
namespace coherence {

/** Every registered DSM coherence protocol. */
enum class ProtocolKind : std::uint8_t
{
    TwoState = 0, //!< §6.3 default: Valid/Invalid, exclusive-only.
    ThreeState,   //!< §6.3 alternative: MSI with read sharing.
    Mesi,         //!< Directory MESI (clean-exclusive, silent upgrade).
    Moesi,        //!< Directory MOESI (dirty sharing, owner forwards).
    Rac,          //!< Log-based release-acquire (RACoherence-style).
};

inline constexpr std::size_t kNumProtocols = 5;

/** Most kernels one DSM spans (request fan-out is a 32-bit mask). */
inline constexpr std::size_t kMaxKernels = 32;

/** Canonical flag-facing name ("2state", "3state", "mesi", ...). */
const char *protocolName(ProtocolKind kind);

/** All registered protocols, in ProtocolKind order. */
std::array<ProtocolKind, kNumProtocols> allProtocols();

/** Comma-separated list of valid protocol names (for error text). */
std::string protocolNames();

/** Name lookup without error handling; false on unknown name. */
bool lookupProtocol(const std::string &name, ProtocolKind &out);

/**
 * Parse a protocol name as typed after `--dsm=`.
 *
 * @param at Char offset of @p name within the user's full flag text,
 *        carried into the error so a typo is pinpointed the same way
 *        the --faults parser reports positions.
 * @throws sim::FatalError naming the offending text, its position and
 *         the valid names.
 */
ProtocolKind parseProtocol(const std::string &name, std::size_t at = 0);

/** True for protocols that keep read-only copies on several kernels
 *  (these pay the cascaded-MMU read-tracking penalty on weak cores). */
bool readSharing(ProtocolKind kind);

/** Per-sender fault statistics (the Table 5 breakdown). */
struct FaultStats
{
    sim::Counter faults;
    sim::QuantileSketch localFaultUs;
    sim::QuantileSketch protocolUs;
    sim::QuantileSketch commUs;
    sim::QuantileSketch serviceUs;
    sim::QuantileSketch exitUs;
    sim::QuantileSketch totalUs;
};

/**
 * @name Opcode-bearing payload encoding (every protocol). Request
 * verbs ride MsgType::GetExclusive, reply verbs MsgType::PutExclusive,
 * so the mailbox/ARQ plumbing (which tracks exactly those types) needs
 * no changes and invalidation fan-out is automatically retransmitted
 * on loss.
 * @{
 */

inline constexpr std::uint32_t kOpBits = 3;
inline constexpr std::uint32_t kOpPageBits = kPayloadBits - kOpBits;
inline constexpr std::uint64_t kOpMaxPages = 1ull << kOpPageBits;

/** Request opcodes (carried on MsgType::GetExclusive). */
enum class ReqOp : std::uint32_t
{
    GetS = 0, //!< Read copy request (to the page's owner).
    GetX = 1, //!< Exclusive/upgrade request (to every holder).
    Acq = 4,  //!< RAC: acquire against the page's last writer.
};

/** Reply opcodes (carried on MsgType::PutExclusive). */
enum class RepOp : std::uint32_t
{
    GrantS = 0, //!< Read copy granted (requester ends Shared).
    GrantE = 1, //!< Clean-exclusive granted (MESI E).
    GrantX = 2, //!< Exclusive granted (requester ends Modified).
};

inline std::uint32_t
packOp(std::uint32_t op, std::uint64_t page)
{
    K2_ASSERT(op < (1u << kOpBits) && page < kOpMaxPages);
    return (op << kOpPageBits) | static_cast<std::uint32_t>(page);
}

inline std::uint32_t
packOp(ReqOp op, std::uint64_t page)
{
    return packOp(static_cast<std::uint32_t>(op), page);
}

inline std::uint32_t
packOp(RepOp op, std::uint64_t page)
{
    return packOp(static_cast<std::uint32_t>(op), page);
}

inline std::uint32_t
opOf(std::uint32_t payload)
{
    return payload >> kOpPageBits;
}

inline std::uint64_t
pageOf(std::uint32_t payload)
{
    return payload & (kOpMaxPages - 1);
}

/** @} */

} // namespace coherence
} // namespace os
} // namespace k2

#endif // K2_OS_COHERENCE_PROTOCOL_H
