#include "soc/power.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace soc {

RailId
EnergyMeter::addRail(std::string name)
{
    Rail rail;
    rail.name = std::move(name);
    rail.lastChange = engine_.now();
    rail.track = engine_.addTrack("soc.power." + rail.name);
    rails_.push_back(std::move(rail));
    return static_cast<RailId>(rails_.size() - 1);
}

std::uint32_t
EnergyMeter::addClient(RailId rail, double initial_mw)
{
    K2_ASSERT(rail < rails_.size());
    Rail &r = rails_[rail];
    settle(r);
    r.clientMw.push_back(initial_mw);
    r.totalMw += initial_mw;
    return static_cast<std::uint32_t>(r.clientMw.size() - 1);
}

void
EnergyMeter::setClientPower(RailId rail, std::uint32_t client, double mw)
{
    K2_ASSERT(rail < rails_.size());
    Rail &r = rails_[rail];
    K2_ASSERT(client < r.clientMw.size());
    settle(r);
    const double before = r.totalMw;
    r.totalMw += mw - r.clientMw[client];
    r.clientMw[client] = mw;
    if (r.totalMw != before)
        engine_.spanCounter(r.track, "mW", r.totalMw);
}

void
EnergyMeter::addPulse(RailId rail, double uj)
{
    K2_ASSERT(rail < rails_.size());
    Rail &r = rails_[rail];
    settle(r);
    r.accumulatedUj += uj;
}

void
EnergyMeter::settle(Rail &rail) const
{
    const sim::Time now = engine_.now();
    if (now > rail.lastChange) {
        // mW * s = mJ; we track uJ, so mW * s * 1000.
        rail.accumulatedUj +=
            rail.totalMw * sim::toSec(now - rail.lastChange) * 1000.0;
    }
    rail.lastChange = now;
}

double
EnergyMeter::energyUj(RailId rail) const
{
    K2_ASSERT(rail < rails_.size());
    settle(rails_[rail]);
    return rails_[rail].accumulatedUj;
}

double
EnergyMeter::totalEnergyUj() const
{
    double total = 0.0;
    for (RailId i = 0; i < rails_.size(); ++i)
        total += energyUj(i);
    return total;
}

double
EnergyMeter::powerMw(RailId rail) const
{
    K2_ASSERT(rail < rails_.size());
    return rails_[rail].totalMw;
}

const std::string &
EnergyMeter::railName(RailId rail) const
{
    K2_ASSERT(rail < rails_.size());
    return rails_[rail].name;
}

void
EnergyMeter::snapState(snap::Io &io)
{
    io.check(rails_.size(), "EnergyMeter::rails");
    for (Rail &r : rails_) {
        io.check(r.clientMw.size(), "EnergyMeter::clients");
        io.check(r.track, "EnergyMeter::track");
        for (double &mw : r.clientMw)
            io.pod(mw);
        io.pod(r.totalMw);
        io.pod(r.accumulatedUj);
        io.pod(r.lastChange);
    }
}

EnergyMeter::Snapshot
EnergyMeter::snapshot() const
{
    Snapshot snap;
    snap.energies_.reserve(rails_.size());
    for (RailId i = 0; i < rails_.size(); ++i)
        snap.energies_.push_back(energyUj(i));
    return snap;
}

double
EnergyMeter::Snapshot::railUj(const EnergyMeter &meter, RailId rail) const
{
    K2_ASSERT(rail < energies_.size());
    return meter.energyUj(rail) - energies_[rail];
}

double
EnergyMeter::Snapshot::totalUj(const EnergyMeter &meter) const
{
    double total = 0.0;
    for (RailId i = 0; i < energies_.size(); ++i)
        total += railUj(meter, i);
    return total;
}

} // namespace soc
} // namespace k2
