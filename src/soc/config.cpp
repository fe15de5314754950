#include "soc/config.h"

#include "sim/log.h"
#include "soc/power.h"

namespace k2 {
namespace soc {

void
SocConfig::validate() const
{
    if (domains.empty())
        K2_FATAL("SoC '%s' has no coherence domains", name.c_str());
    if (pageBytes == 0 || (pageBytes & (pageBytes - 1)) != 0)
        K2_FATAL("page size %zu is not a power of two", pageBytes);
    if (ramBytes % pageBytes != 0)
        K2_FATAL("RAM size %zu is not page aligned", ramBytes);
    for (const auto &d : domains) {
        if (d.numCores == 0)
            K2_FATAL("domain '%s' has no cores", d.name.c_str());
        if (d.core.points.empty())
            K2_FATAL("core '%s' has no operating points",
                     d.core.name.c_str());
        // A core's power table holds idle, inactive and one active
        // level per operating point.
        if (d.core.points.size() + 2 > PowerClient::kMaxLevels)
            K2_FATAL("core '%s' has more than %zu operating points",
                     d.core.name.c_str(), PowerClient::kMaxLevels - 2);
        if (d.core.defaultPoint >= d.core.points.size())
            K2_FATAL("core '%s' default operating point out of range",
                     d.core.name.c_str());
        if (d.core.instrPerCycle <= 0.0)
            K2_FATAL("core '%s' has non-positive IPC", d.core.name.c_str());
        for (const auto &p : d.core.points) {
            if (p.hz == 0)
                K2_FATAL("core '%s' has a 0 Hz operating point",
                         d.core.name.c_str());
        }
    }
}

SocConfig
omap4Config()
{
    SocConfig cfg;
    cfg.name = "TI OMAP4 (simulated)";

    DomainSpec strong;
    strong.name = "strong";
    strong.numCores = 2;
    strong.core.name = "Cortex-A9";
    strong.core.isa = "ARM";
    // Table 3: 79.8 mW active at 350 MHz, 672 mW at 1200 MHz. Fill the
    // DVFS ladder between them with a roughly cubic power curve.
    strong.core.points = {
        {350000000ull, 79.8},
        {700000000ull, 205.0},
        {920000000ull, 374.0},
        {1200000000ull, 672.0},
    };
    strong.core.defaultPoint = 0;
    strong.core.instrPerCycle = 1.0;
    strong.core.memBytesPerSec = 1.4e9;
    strong.core.idleMw = 25.2;
    strong.core.inactiveMw = 0.05;
    strong.core.wakeLatency = sim::usec(150);
    strong.core.wakeEnergyUj = 30.0;
    strong.core.mmu = MmuKind::SingleLevel;
    strong.core.l1TlbEntries = 32;
    strong.cacheLineFlush = sim::nsec(60);
    strong.cacheLineBytes = 32;
    // SCU + L2 + coherent interconnect of the A9 cluster.
    strong.uncoreActiveMw = 20.0;
    strong.irqEntryInstr = 300;

    DomainSpec weak;
    weak.name = "weak";
    // OMAP4 has dual M3 cores but one is reserved; K2's shadow kernel
    // runs on a single M3.
    weak.numCores = 1;
    weak.core.name = "Cortex-M3";
    weak.core.isa = "Thumb-2";
    weak.core.points = {
        {100000000ull, 11.5},
        {200000000ull, 21.1},
    };
    // The paper fixes the M3 at its *least* efficient point (200 MHz)
    // because OMAP4 couples its voltage rail with the interconnect.
    weak.core.defaultPoint = 1;
    weak.core.instrPerCycle = 0.8;
    weak.core.kernelCostFactor = 5.0;
    weak.core.memBytesPerSec = 0.3e9;
    weak.core.idleMw = 3.8;
    weak.core.inactiveMw = 0.05;
    weak.core.wakeLatency = sim::usec(20);
    weak.core.wakeEnergyUj = 1.0;
    weak.core.mmu = MmuKind::CascadedTwoLevel;
    weak.core.l1TlbEntries = 10; // ten 4KB entries (paper §6.3).
    weak.cacheLineFlush = sim::nsec(120);
    weak.cacheLineBytes = 32;
    // No coherent fabric on the M3 side; just its bus interface.
    weak.uncoreActiveMw = 1.5;
    // Cortex-M3 interrupt entry is hardware-stacked (12 cycles) plus
    // a lean dispatcher.
    weak.irqEntryInstr = 80;

    cfg.domains = {strong, weak};
    cfg.validate();
    return cfg;
}

SocConfig
threeDomainConfig()
{
    SocConfig cfg = omap4Config();
    cfg.name = "three-domain SoC (simulated)";

    DomainSpec hub;
    hub.name = "hub";
    hub.numCores = 1;
    hub.core.name = "Cortex-M0";
    hub.core.isa = "Thumb";
    hub.core.points = {{60000000ull, 5.8}};
    hub.core.defaultPoint = 0;
    hub.core.instrPerCycle = 0.6;
    hub.core.kernelCostFactor = 6.0;
    hub.core.memBytesPerSec = 0.08e9;
    hub.core.idleMw = 0.9;
    hub.core.inactiveMw = 0.02;
    hub.core.wakeLatency = sim::usec(8);
    hub.core.wakeEnergyUj = 0.2;
    hub.core.mmu = MmuKind::CascadedTwoLevel;
    hub.core.l1TlbEntries = 8;
    hub.cacheLineFlush = sim::nsec(200);
    hub.cacheLineBytes = 32;
    hub.uncoreActiveMw = 0.5;
    hub.irqEntryInstr = 40;

    cfg.domains.push_back(hub);
    cfg.validate();
    return cfg;
}

} // namespace soc
} // namespace k2
