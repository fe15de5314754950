/**
 * @file
 * The DMA device driver (the paper's representative shadowed driver,
 * §9.2/§9.4): "used in almost all bulk IO transfers, e.g., for flash
 * and WiFi".
 *
 * One transfer (following the paper's description):
 *  1. clear the destination memory region (CPU memset);
 *  2. look for empty resources (a free channel) in the driver's
 *     channel table -- shared state, guarded by a hardware-spinlock-
 *     augmented lock;
 *  3. program the DMA engine and initiate the transfer;
 *  4. on the completion interrupt, free the resources and complete
 *     the request (waking the sleeping requester).
 *
 * The same driver object serves both kernels; whichever kernel the
 * IrqRouter currently routes kIrqDma to runs the completion ISR, and
 * the DSM keeps the channel table coherent.
 */

#ifndef K2_SVC_DMA_DRIVER_H
#define K2_SVC_DMA_DRIVER_H

#include <memory>
#include <vector>

#include "sim/sketch.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "os/system.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace svc {

class DmaDriver
{
  public:
    /** Hardware spinlock index guarding the channel table. */
    static constexpr std::size_t kSpinlockIdx = 1;

    /**
     * @param sys System image.
     * @param channels Driver-visible DMA channels (<= engine channels).
     */
    explicit DmaDriver(os::SystemImage &sys, std::size_t channels = 16);

    /**
     * Register the completion ISR with @p kern. Call for every kernel
     * that may handle the shared DMA interrupt.
     */
    void attachKernel(kern::Kernel &kern);

    /**
     * Execute one memory-to-memory transfer of @p bytes and wait for
     * completion. Runs in thread context on either kernel.
     */
    sim::Task<void> transfer(kern::Thread &t, std::uint64_t bytes);

    /**
     * Arm the driver's fault-recovery paths: errored transfers (the
     * engine's error status bits) are re-programmed instead of
     * completed with bad data, and waiters poll the status register
     * after a transfer overstays its expected time, covering lost
     * completion interrupts. Off by default -- the zero-fault path is
     * unchanged.
     */
    void enableRecovery() { recovery_ = true; }

    /** @name Statistics. @{ */
    sim::Counter transfers;
    sim::Counter bytesMoved;
    sim::Counter irqsHandled;
    sim::QuantileSketch transferUs;
    sim::Counter transferErrors; //!< Errored transfers re-programmed.
    sim::Counter irqPolls;       //!< Timeout polls for lost IRQs.

    /** Register driver statistics under "<prefix>.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;
    /** @} */

    /** Capture/restore. Quiescence implies no transfer in flight
     *  (a busy channel has a sleeping requester and a pending IRQ). */
    void snapState(snap::Io &io);

  private:
    sim::Task<void> completionIsr(kern::Kernel &kern, soc::Core &core);
    sim::Task<void> harvest(kern::Kernel &kern, soc::Core &core);

    struct Channel
    {
        bool busy = false;
        std::uint64_t bytes = 0;
        std::unique_ptr<sim::Event> done;
    };

    os::SystemImage &sys_;
    std::vector<Channel> channels_;
    std::unique_ptr<os::SharedRegion> state_;
    bool recovery_ = false;
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_DMA_DRIVER_H
