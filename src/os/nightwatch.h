/**
 * @file
 * NightWatch thread management (paper §8).
 *
 * NightWatch threads encapsulate light tasks; they are pinned on the
 * weak domain and enter the shadow kernel's runqueue. To avoid
 * multi-domain parallelism within a process (the third aspect of the
 * shared-most model), a NightWatch thread is only considered for
 * scheduling while all Normal threads of its process are suspended:
 *
 *  - When the main kernel schedules in a Normal thread it sends
 *    SuspendNW to the shadow kernel, overlapping the wait for
 *    AckSuspendNW with the context switch itself, adding only the
 *    message-RTT minus switch-time (1-2 us) to each switch.
 *  - The shadow kernel acknowledges immediately (interrupt context),
 *    then flags all NightWatch threads of the process out of its
 *    runqueue.
 *  - When all Normal threads of the process block, the main kernel
 *    sends ResumeNW and the shadow kernel un-flags them.
 *
 * The Linux scheduler's own mechanism and policy are untouched; this
 * module only installs hooks.
 */

#ifndef K2_OS_NIGHTWATCH_H
#define K2_OS_NIGHTWATCH_H

#include <map>
#include <memory>

#include "sim/sketch.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "kern/kernel.h"
#include "os/messages.h"

namespace k2 {
namespace os {

class NightWatch
{
  public:
    NightWatch(soc::Soc &soc, kern::Kernel &main, kern::Kernel &shadow);

    /** Install the scheduler hooks on the main kernel. */
    void install();

    /**
     * Create a NightWatch thread in @p proc on the shadow kernel.
     * Starts gated if the process currently has runnable Normal
     * threads on the main kernel.
     */
    kern::Thread *spawn(kern::Process &proc, std::string name,
                        kern::Thread::Body body);

    /** Mail dispatch for the NW message types. */
    sim::Task<void> handleMail(KernelIdx to, Message msg,
                               soc::Core &core);

    /** @name Statistics. @{ */
    sim::Counter suspendsSent;
    sim::Counter resumesSent;
    sim::Counter acksReceived;
    /** Extra main-kernel time per context switch waiting for the ack,
     *  in microseconds (paper: 1-2 us). */
    sim::QuantileSketch ackWaitUs;
    /** @} */

    /** True if @p pid's NightWatch threads are currently gated. */
    bool isGated(kern::Pid pid) const;

    /**
     * Capture/restore: per-process gate/ack state (entries created
     * after the capture point are dropped) and the statistics.
     */
    void snapState(snap::Io &io);

  private:
    struct ProcState
    {
        kern::Process *proc = nullptr;
        bool gated = false;
        bool ackPending = false;
        std::unique_ptr<sim::Event> ack;
    };

    ProcState &state(kern::Process &proc);

    sim::Task<void> preSwitch(kern::Thread &next, soc::Core &core);
    sim::Task<void> postSwitch(kern::Thread &next, soc::Core &core);
    void onProcessBlocked(kern::Process &proc);

    soc::Soc &soc_;
    kern::Kernel &main_;
    kern::Kernel &shadow_;
    std::map<kern::Pid, ProcState> procs_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_NIGHTWATCH_H
