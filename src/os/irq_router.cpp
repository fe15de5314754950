#include "os/irq_router.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

IrqRouter::IrqRouter(soc::Soc &soc, kern::Kernel &main,
                     kern::Kernel &shadow)
    : soc_(soc), main_(main), shadow_(shadow)
{}

void
IrqRouter::manageLine(soc::IrqLine line)
{
    if (!main_.domain().irqCtrl().hasHandler(line) ||
        !shadow_.domain().irqCtrl().hasHandler(line)) {
        K2_FATAL("IRQ line %u must have handlers in both kernels before "
                 "being managed", line);
    }
    lines_.push_back(line);
    // Apply the current routing to the new line.
    main_.domain().irqCtrl().setMasked(line, routedToWeak_);
    shadow_.domain().irqCtrl().setMasked(line, !routedToWeak_);
}

void
IrqRouter::applyRouting(bool to_weak)
{
    if (to_weak == routedToWeak_)
        return;
    routedToWeak_ = to_weak;
    reroutes_.inc();
    K2_TRACE(soc_.engine(), sim::TraceCat::Irq,
             "shared IRQs rerouted to %s domain",
             to_weak ? "weak" : "strong");
    if (to_weak) {
        // Unmask on the weak domain first so no interrupt is lost in
        // the window, then mask on the strong domain.
        for (const auto line : lines_)
            shadow_.domain().irqCtrl().setMasked(line, false);
        for (const auto line : lines_)
            main_.domain().irqCtrl().setMasked(line, true);
    } else {
        for (const auto line : lines_)
            main_.domain().irqCtrl().setMasked(line, false);
        for (const auto line : lines_)
            shadow_.domain().irqCtrl().setMasked(line, true);
    }
}

void
IrqRouter::onStrongStateChange()
{
    if (degraded_)
        return; // Routing pinned to the strong domain.
    applyRouting(main_.domain().allInactive());
}

void
IrqRouter::setDegraded(bool degraded)
{
    if (degraded == degraded_)
        return;
    degraded_ = degraded;
    if (degraded)
        applyRouting(false);
    else
        applyRouting(main_.domain().allInactive());
}

void
IrqRouter::reapplyMasks()
{
    for (const auto line : lines_) {
        main_.domain().irqCtrl().setMasked(line, routedToWeak_);
        shadow_.domain().irqCtrl().setMasked(line, !routedToWeak_);
    }
}

void
IrqRouter::install()
{
    K2_ASSERT(!installed_);
    installed_ = true;
    auto &dom = main_.domain();
    for (std::size_t i = 0; i < dom.numCores(); ++i) {
        dom.core(i).addGateListener([this]() { onStrongStateChange(); });
    }
    applyRouting(dom.allInactive());
}

void
IrqRouter::snapState(snap::Io &io)
{
    // Managed lines and installation happen at service-setup time
    // only, so both are structural.
    io.check(lines_.size(), "IrqRouter::lines");
    io.check(installed_ ? 1 : 0, "IrqRouter::installed");
    io.pod(routedToWeak_);
    io.pod(degraded_);
    io.pod(reroutes_);
}

} // namespace os
} // namespace k2
