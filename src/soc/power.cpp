#include "soc/power.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace soc {

namespace {

/** uW x ps in one uJ. */
constexpr std::uint64_t kFpPerUj = 1000000000000ull;

/** @p v x @p scale as a whole number; fatal if it is not one. */
std::uint64_t
whole(double v, double scale, const char *what)
{
    const double x = v * scale;
    const double r = std::round(x);
    if (!(x >= 0) || std::abs(x - r) > 1e-9 * std::max(1.0, r))
        K2_FATAL("%s %g is not a whole multiple of 1/%g", what, v, scale);
    return static_cast<std::uint64_t>(r);
}

} // namespace

double
fpToUj(EnergyFp e)
{
    return static_cast<double>(static_cast<std::uint64_t>(e / kFpPerUj)) +
           static_cast<double>(static_cast<std::uint64_t>(e % kFpPerUj)) /
               1e12;
}

std::uint32_t
PowerClient::addLevel(double mw)
{
    K2_ASSERT(numLevels_ < kMaxLevels);
    uw_[numLevels_] = whole(mw, 1e3, "power level (mW)");
    return numLevels_++;
}

void
PowerClient::setWakeEnergy(double uj)
{
    wakeFp_ = whole(uj, 1e6, "wake energy (uJ)") * 1000000ull;
}

EnergyFp
PowerClient::energyFp(sim::Time now) const
{
    EnergyFp e = static_cast<EnergyFp>(wakeups_) * wakeFp_;
    for (std::uint32_t l = 0; l < numLevels_; ++l)
        e += static_cast<EnergyFp>(residency(l, now)) * uw_[l];
    return e;
}

void
PowerClient::snapState(snap::Io &io)
{
    io.check(numLevels_, "PowerClient::levels");
    io.pod(since_);
    io.pod(level_);
    for (std::uint32_t l = 0; l < numLevels_; ++l)
        io.pod(timeIn_[l]);
    io.pod(wakeups_);
}

RailId
EnergyMeter::addRail(std::string name)
{
    Rail rail;
    rail.name = std::move(name);
    rail.track = engine_.addTrack("soc.power." + rail.name);
    rails_.push_back(std::move(rail));
    return static_cast<RailId>(rails_.size() - 1);
}

void
EnergyMeter::attach(RailId rail, const PowerClient &client)
{
    K2_ASSERT(rail < rails_.size());
    rails_[rail].clients.push_back(&client);
}

void
EnergyMeter::sample(RailId rail)
{
    engine_.spanCounter(rails_[rail].track, "mW", powerMw(rail));
}

double
EnergyMeter::energyUj(RailId rail) const
{
    K2_ASSERT(rail < rails_.size());
    const sim::Time now = engine_.now();
    EnergyFp e = 0;
    for (const PowerClient *c : rails_[rail].clients)
        e += c->energyFp(now);
    return fpToUj(e);
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
    std::uint64_t uw = 0;
    for (const PowerClient *c : rails_[rail].clients)
        uw += c->levelUw(c->level());
    return static_cast<double>(uw) / 1e3;
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
    for (const Rail &r : rails_) {
        io.check(r.clients.size(), "EnergyMeter::clients");
        io.check(r.track, "EnergyMeter::track");
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
