#include "soc/domain.h"

namespace k2 {
namespace soc {

CoherenceDomain::CoherenceDomain(sim::Engine &eng, EnergyMeter &meter,
                                 const DomainSpec &spec,
                                 const PlatformCosts &costs, DomainId id,
                                 std::size_t num_irq_lines,
                                 CoreId first_core_id)
    : engine_(eng), spec_(spec), id_(id), uncore_(eng.now())
{
    rail_ = meter.addRail(spec.name);
    std::vector<Core *> raw;
    for (std::size_t i = 0; i < spec.numCores; ++i) {
        cores_.push_back(std::make_unique<Core>(
            eng, meter, rail_, spec.core, costs,
            first_core_id + static_cast<CoreId>(i), id));
        raw.push_back(cores_.back().get());
    }
    irqCtrl_ = std::make_unique<InterruptController>(
        eng, std::move(raw), num_irq_lines, spec.irqEntryInstr);

    // The uncore (interconnect/L2/SCU) draws power whenever any core
    // in the domain is not power-gated. Cores boot Idle, so it boots on.
    const std::uint32_t on = uncore_.addLevel(spec_.uncoreActiveMw);
    const std::uint32_t off = uncore_.addLevel(spec_.uncoreInactiveMw);
    meter.attach(rail_, uncore_);
    for (auto &c : cores_) {
        c->addGateListener([this, &meter, on, off]() {
            if (uncore_.enter(allInactive() ? off : on, engine_.now()) &&
                engine_.tracer().spansOn())
                meter.sample(rail_);
        });
    }
}

void
CoherenceDomain::snapState(snap::Io &io)
{
    for (auto &c : cores_)
        c->snapState(io);
    uncore_.snapState(io);
    irqCtrl_->snapState(io);
}

bool
CoherenceDomain::allInactive() const
{
    for (const auto &c : cores_) {
        if (!c->isInactive())
            return false;
    }
    return true;
}

sim::Duration
CoherenceDomain::flushTime(std::size_t bytes) const
{
    const std::size_t lines =
        (bytes + spec_.cacheLineBytes - 1) / spec_.cacheLineBytes;
    return static_cast<sim::Duration>(lines) * spec_.cacheLineFlush;
}

} // namespace soc
} // namespace k2
