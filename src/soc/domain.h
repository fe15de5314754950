/**
 * @file
 * A coherence domain: a set of homogeneous cores with hardware cache
 * coherence among them, a private interrupt controller, and a private
 * cache whose contents must be explicitly flushed to be visible to
 * other domains.
 */

#ifndef K2_SOC_DOMAIN_H
#define K2_SOC_DOMAIN_H

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "soc/config.h"
#include "soc/core.h"
#include "soc/irq.h"

namespace k2 {
namespace soc {

class CoherenceDomain
{
  public:
    CoherenceDomain(sim::Engine &eng, EnergyMeter &meter,
                    const DomainSpec &spec, const PlatformCosts &costs,
                    DomainId id, std::size_t num_irq_lines,
                    CoreId first_core_id);

    CoherenceDomain(const CoherenceDomain &) = delete;
    CoherenceDomain &operator=(const CoherenceDomain &) = delete;

    DomainId id() const { return id_; }
    const std::string &name() const { return spec_.name; }
    const DomainSpec &spec() const { return spec_; }
    RailId rail() const { return rail_; }

    std::size_t numCores() const { return cores_.size(); }
    Core &core(std::size_t i) { return *cores_.at(i); }
    const Core &core(std::size_t i) const { return *cores_.at(i); }

    InterruptController &irqCtrl() { return *irqCtrl_; }
    const InterruptController &irqCtrl() const { return *irqCtrl_; }

    /** True if every core in the domain is power-gated. */
    bool allInactive() const;

    /** The uncore's power table: on while any core is not gated, off. */
    const PowerClient &uncorePower() const { return uncore_; }

    /**
     * Time for a core of this domain to flush+invalidate @p bytes of
     * dirty cache to RAM (used by the DSM on PutExclusive).
     */
    sim::Duration flushTime(std::size_t bytes) const;

    /** Capture/restore all cores and the interrupt controller. */
    void snapState(snap::Io &io);

  private:
    sim::Engine &engine_;
    DomainSpec spec_;
    DomainId id_;
    RailId rail_;
    PowerClient uncore_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<InterruptController> irqCtrl_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_DOMAIN_H
