#include "soc/irq.h"

#include "fault/injector.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace soc {

InterruptController::InterruptController(sim::Engine &eng,
                                         std::vector<Core *> cores,
                                         std::size_t num_lines,
                                         std::uint64_t entry_instr)
    : engine_(eng), cores_(std::move(cores)), lines_(num_lines),
      entryInstr_(entry_instr)
{
    K2_ASSERT(!cores_.empty());
}

void
InterruptController::registerHandler(IrqLine line, IrqHandler handler)
{
    K2_ASSERT(line < lines_.size());
    lines_[line].handler = std::move(handler);
    setMasked(line, false);
}

void
InterruptController::setMasked(IrqLine line, bool masked)
{
    K2_ASSERT(line < lines_.size());
    Line &l = lines_[line];
    l.masked = masked;
    if (!masked && l.pending && l.handler) {
        l.pending = false;
        delivered_.inc();
        engine_.spawn(deliver(line));
    }
}

bool
InterruptController::hasHandler(IrqLine line) const
{
    K2_ASSERT(line < lines_.size());
    return static_cast<bool>(lines_[line].handler);
}

bool
InterruptController::raise(IrqLine line)
{
    K2_ASSERT(line < lines_.size());
    if (fault_) {
        // A stalled domain sees the line once it resumes: level
        // signals persist at the controller, so re-raise at stall end
        // rather than dropping.
        const sim::Time stall_end = fault_->stallEnd(domainId_);
        if (stall_end > engine_.now()) {
            engine_.at(stall_end, [this, line]() { raise(line); });
            return false;
        }
        // Crashed domain (all raises lost) or an injected lost edge.
        if (fault_->onIrqRaise(domainId_, line))
            return false;
    }
    Line &l = lines_[line];
    if (!l.handler) {
        maskedDrops_.inc();
        return false;
    }
    if (l.masked) {
        // Latched; fires on unmask (standard level-triggered GIC
        // behaviour).
        l.pending = true;
        maskedDrops_.inc();
        return false;
    }
    delivered_.inc();
    engine_.spawn(deliver(line));
    return true;
}

void
InterruptController::reset()
{
    for (Line &l : lines_) {
        l.handler = nullptr;
        l.masked = true;
        l.pending = false;
    }
}

void
InterruptController::snapState(snap::Io &io)
{
    io.check(lines_.size(), "InterruptController::lines");
    for (Line &l : lines_) {
        io.check(l.handler ? 1 : 0, "InterruptController::handler");
        io.pod(l.masked);
        io.pod(l.pending);
    }
    io.pod(delivered_);
    io.pod(maskedDrops_);
}

Core &
InterruptController::pickTargetCore()
{
    // Prefer an idle (but awake) core so we interrupt running work as
    // rarely as possible; otherwise an active core; otherwise wake
    // core 0.
    for (Core *c : cores_) {
        if (c->state() == PowerState::Idle)
            return *c;
    }
    for (Core *c : cores_) {
        if (c->state() == PowerState::Active)
            return *c;
    }
    return *cores_.front();
}

sim::Task<void>
InterruptController::deliver(IrqLine line)
{
    Core &core = pickTargetCore();
    if (!core.awake())
        co_await core.ensureAwake();
    co_await core.exec(entryInstr_);
    // The handler may have been replaced, but never removed, since
    // raise(); re-read it.
    co_await lines_[line].handler(core);
}

} // namespace soc
} // namespace k2
