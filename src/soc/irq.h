/**
 * @file
 * Per-domain interrupt controller.
 *
 * Each coherence domain has a private interrupt controller (as on
 * OMAP4). IO-peripheral interrupts are physically wired to all domains;
 * a controller only delivers a line if it is locally unmasked and a
 * handler is registered. K2's interrupt management (§7) works by
 * flipping per-domain masks so exactly one kernel handles each shared
 * interrupt.
 */

#ifndef K2_SOC_IRQ_H
#define K2_SOC_IRQ_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "soc/core.h"

namespace k2 {
namespace fault {
class FaultInjector;
}
namespace soc {

/** An interrupt line number. */
using IrqLine = std::uint32_t;

/** Well-known line assignments on the simulated platform. @{ */
inline constexpr IrqLine kIrqDma = 1;      //!< Shared: DMA completion.
inline constexpr IrqLine kIrqBlock = 2;    //!< Shared: block device.
inline constexpr IrqLine kIrqNet = 3;      //!< Shared: network softirq.
inline constexpr IrqLine kIrqMailbox = 40; //!< Private: mailbox arrival.
/** @} */

/**
 * Handler invoked in interrupt context on a core of the domain.
 */
using IrqHandler = std::function<sim::Task<void>(Core &)>;

class InterruptController
{
  public:
    /**
     * @param eng Simulation engine.
     * @param cores The domain's cores (not owned).
     * @param num_lines Number of interrupt lines.
     * @param entry_instr Reference instructions charged for exception
     *        entry/exit around every delivered interrupt.
     */
    InterruptController(sim::Engine &eng, std::vector<Core *> cores,
                        std::size_t num_lines,
                        std::uint64_t entry_instr = 300);

    /** Register (and unmask) a handler for @p line. */
    void registerHandler(IrqLine line, IrqHandler handler);

    /** Mask or unmask a line. Unmasking may fire a pending interrupt. */
    void setMasked(IrqLine line, bool masked);

    bool hasHandler(IrqLine line) const;

    /**
     * Raise a line on this controller.
     *
     * @return true if the interrupt was accepted for delivery; false if
     *         it was masked (it is then latched pending) or has no
     *         handler (dropped).
     */
    bool raise(IrqLine line);

    /** @name Statistics. @{ */
    std::uint64_t delivered() const { return delivered_.value(); }
    std::uint64_t maskedDrops() const { return maskedDrops_.value(); }
    /** @} */

    /**
     * Attach a fault injector; @p domain_id tells it which domain's
     * clauses (lost IRQ, stall, crash) apply to this controller.
     */
    void
    setFaultInjector(fault::FaultInjector *inj, std::uint32_t domain_id)
    {
        fault_ = inj;
        domainId_ = domain_id;
    }

    /**
     * Hardware reset: drop every handler, mask and clear every line.
     * Used when recovery restarts a crashed domain's kernel, which then
     * re-registers its handlers from scratch.
     */
    void reset();

    /**
     * Capture/restore per-line mask/pending bits and delivery counts.
     * Registered handlers are structural (they stay in place across a
     * restore); only their presence is verified.
     */
    void snapState(snap::Io &io);

  private:
    sim::Task<void> deliver(IrqLine line);
    Core &pickTargetCore();

    struct Line
    {
        IrqHandler handler;
        bool masked = true;
        bool pending = false;
    };

    sim::Engine &engine_;
    std::vector<Core *> cores_;
    std::vector<Line> lines_;
    std::uint64_t entryInstr_;
    fault::FaultInjector *fault_ = nullptr;
    std::uint32_t domainId_ = 0;
    sim::Counter delivered_;
    sim::Counter maskedDrops_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_IRQ_H
