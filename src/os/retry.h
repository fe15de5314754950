/**
 * @file
 * Bounded exponential backoff, the one retry rule of the recovery
 * layer: ReliableMail's retransmit timer and the DSM's grant retry.
 */

#ifndef K2_OS_RETRY_H
#define K2_OS_RETRY_H

#include <algorithm>

#include "sim/time.h"

namespace k2 {
namespace os {

/**
 * A timeout that doubles on every expiry up to a cap. A zero timeout
 * turns retries off where the caller allows that (the DSM then spins
 * on the grant forever, exactly the pre-fault-plane behaviour).
 */
struct RetryPolicy
{
    sim::Duration timeout = 0;
    sim::Duration maxTimeout = sim::msec(4);

    /** The timeout that follows an expired @p rto. */
    sim::Duration
    next(sim::Duration rto) const
    {
        return std::min(rto * 2, maxTimeout);
    }
};

} // namespace os
} // namespace k2

#endif // K2_OS_RETRY_H
