#include "svc/dma_driver.h"

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"
#include "soc/irq.h"

namespace k2 {
namespace svc {

namespace {

/**
 * Driver work units per request: dma_map-style cache maintenance on
 * source and destination buffers, descriptor setup, and resource
 * lookup. Calibrated so 4 KB transfers are CPU-bound on the strong
 * core at ~37.8 MB/s (the Table 6 Linux row) while large transfers are
 * engine-bound at ~40.5 MB/s.
 */
constexpr std::uint64_t kRequestWork = 2600;
/** Work units in the completion handler (unmap, resource free). */
constexpr std::uint64_t kCompleteWork = 800;
/** Function pointers dereferenced per driver call (§5.4). */
constexpr std::uint64_t kDriverPointers = 2;
/** Device-register writes to program one transfer. */
constexpr std::uint64_t kProgramRegs = 6;

/** Shared-state pages: 0 = channel table, 1 = request queue/waitq. */
constexpr std::uint64_t kChanPage = 0;
constexpr std::uint64_t kWaitPage = 1;

} // namespace

DmaDriver::DmaDriver(os::SystemImage &sys, std::size_t channels)
    : sys_(sys), channels_(channels)
{
    K2_ASSERT(channels <= sys.soc().dma().numChannels());
    for (auto &c : channels_)
        c.done = std::make_unique<sim::Event>(sys.engine());
    state_ = sys_.createSharedRegion("dma-state", 2);
}

void
DmaDriver::attachKernel(kern::Kernel &kern)
{
    kern.registerIrq(soc::kIrqDma,
                     [this, &kern](soc::Core &core) {
                         return completionIsr(kern, core);
                     });
}

sim::Task<void>
DmaDriver::transfer(kern::Thread &t, std::uint64_t bytes)
{
    const sim::Time start = sys_.engine().now();
    auto &soc = sys_.soc();

    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kDriverPointers);

    // 1. Clear the destination region (CPU work at the core's memory
    //    bandwidth).
    const double bw = t.core().spec().memBytesPerSec;
    co_await t.execTime(static_cast<sim::Duration>(
        static_cast<double>(bytes) / bw * 1e12));

    // 2. Find a free channel in the shared channel table.
    co_await soc.spinlocks().acquire(kSpinlockIdx, t.core());
    co_await state_->touch(t.kernel(), t.core(), kChanPage,
                           os::Access::Write);
    co_await t.kernel().chargeKernelWork(t, kRequestWork);
    std::size_t chan = channels_.size();
    while (true) {
        for (std::size_t i = 0; i < channels_.size(); ++i) {
            if (!channels_[i].busy) {
                chan = i;
                break;
            }
        }
        if (chan != channels_.size())
            break;
        // All channels busy: drop the lock and retry after a bit.
        soc.spinlocks().release(kSpinlockIdx);
        co_await t.sleep(sim::usec(100));
        co_await soc.spinlocks().acquire(kSpinlockIdx, t.core());
    }
    channels_[chan].busy = true;
    channels_[chan].bytes = bytes;
    channels_[chan].done->reset();
    soc.spinlocks().release(kSpinlockIdx);

    // 3. Program the engine and start the transfer.
    co_await t.execTime(soc.costs().busAccess * kProgramRegs);
    soc.dma().program(chan, bytes);

    // 4. Sleep until the completion ISR signals us. With recovery
    //    armed, don't trust the interrupt: if the transfer overstays
    //    its expected engine time, poll the status register directly
    //    (a lost completion IRQ leaves the status bit latched).
    if (!recovery_) {
        co_await t.wait(*channels_[chan].done);
    } else {
        const sim::Duration expect = soc.dma().transferTime(bytes);
        // Generous first deadline: the engine is FIFO across channels,
        // so queueing behind other transfers is normal.
        sim::Duration patience = expect * 4 + sim::usec(500);
        sim::Event *done = channels_[chan].done.get();
        while (channels_[chan].busy) {
            bool timer_fired = false;
            sim::EventId timer = sys_.engine().after(
                patience, [done, &timer_fired]() {
                    timer_fired = true;
                    done->pulse();
                });
            co_await t.wait(*done);
            sys_.engine().cancel(timer);
            if (!channels_[chan].busy)
                break;
            if (!timer_fired)
                continue; // Unrelated wake; keep waiting.
            irqPolls.inc();
            co_await harvest(t.kernel(), t.core());
            patience = expect * 2 + sim::usec(500);
        }
    }

    transfers.inc();
    bytesMoved.inc(bytes);
    transferUs.sample(sim::toUsec(sys_.engine().now() - start));
}

sim::Task<void>
DmaDriver::completionIsr(kern::Kernel &kern, soc::Core &core)
{
    co_await harvest(kern, core);
}

/**
 * Read-and-clear the status (and, with recovery armed, error) register
 * and complete or re-program the finished channels. Shared between the
 * completion ISR and the recovery-mode timeout poll; the read is
 * destructive, so whoever reads a channel's bit must fully process it.
 */
sim::Task<void>
DmaDriver::harvest(kern::Kernel &kern, soc::Core &core)
{
    auto &soc = sys_.soc();
    // Read-and-clear the engine's status register. A spurious
    // delivery (pending latched while masked, §7) reads zero and
    // returns immediately.
    co_await core.execTime(soc.costs().busAccess);
    const std::uint64_t status = soc.dma().readStatus();
    if (status == 0)
        co_return;
    const std::uint64_t errors = recovery_ ? soc.dma().readErrors() : 0;

    irqsHandled.inc();
    co_await sys_.chargeCrossIsa(kern, core, kDriverPointers);
    co_await state_->touch(kern, core, kChanPage, os::Access::Write);
    co_await state_->touch(kern, core, kWaitPage, os::Access::Write);

    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (!(status & (1ull << i)))
            continue;
        K2_ASSERT(channels_[i].busy);
        if (errors & (1ull << i)) {
            // The transfer finished but the data is bad: re-program
            // the channel and keep the waiter asleep.
            transferErrors.inc();
            co_await core.execTime(soc.costs().busAccess * kProgramRegs);
            soc.dma().program(i, channels_[i].bytes);
            continue;
        }
        co_await core.execTime(kern.kernelWorkTime(core, kCompleteWork));
        channels_[i].busy = false;
        channels_[i].done->set();
    }
}

void
DmaDriver::registerMetrics(obs::MetricsRegistry &reg,
                           const std::string &prefix) const
{
    reg.addCounter(prefix + ".transfers", transfers);
    reg.addCounter(prefix + ".bytes", bytesMoved);
    reg.addCounter(prefix + ".irqs_handled", irqsHandled);
    reg.addHistogram(prefix + ".transfer_us", transferUs);
    // Recovery counters exist only when armed, keeping the zero-fault
    // metric key set unchanged.
    if (recovery_) {
        reg.addCounter(prefix + ".transfer_errors", transferErrors);
        reg.addCounter(prefix + ".irq_polls", irqPolls);
    }
}

void
DmaDriver::snapState(snap::Io &io)
{
    io.check(channels_.size(), "DmaDriver::channels");
    io.check(recovery_ ? 1 : 0, "DmaDriver::recovery");
    for (Channel &c : channels_) {
        // A busy channel has a sleeping requester and an outstanding
        // completion interrupt -- impossible at quiescence.
        K2_ASSERT(!c.busy);
        io.pod(c.bytes);
        c.done->snapState(io);
    }
    io.pod(transfers);
    io.pod(bytesMoved);
    io.pod(irqsHandled);
    transferUs.snapState(io);
    io.pod(transferErrors);
    io.pod(irqPolls);
}

} // namespace svc
} // namespace k2
