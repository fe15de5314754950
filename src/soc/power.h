/**
 * @file
 * Energy accounting: the simulated equivalent of sampling current on
 * the board's per-domain power rails.
 *
 * Each consumer (a core) is a "rail client" that reports its draw in
 * milliwatts whenever it changes state; the meter integrates power over
 * simulated time exactly. Benches snapshot the meter before and after a
 * run to obtain per-episode energy.
 */

#ifndef K2_SOC_POWER_H
#define K2_SOC_POWER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace k2 {
namespace soc {

/** Identifies one power rail (one per coherence domain). */
using RailId = std::uint32_t;

/**
 * Integrates power-over-time per rail.
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(sim::Engine &eng)
        : engine_(eng)
    {}

    /** Create a rail and return its id. */
    RailId addRail(std::string name);

    /** Create a client on @p rail; returns the client id. */
    std::uint32_t addClient(RailId rail, double initial_mw);

    /**
     * Report that a client's draw changed to @p mw. The rail's power
     * counter track gets a sample only when the rail total changes.
     */
    void setClientPower(RailId rail, std::uint32_t client, double mw);

    /** Add a one-off energy cost (e.g. a wakeup) to a rail. */
    void addPulse(RailId rail, double uj);

    /** Total energy drawn by a rail so far, in microjoules. */
    double energyUj(RailId rail) const;

    /** Total energy across all rails, in microjoules. */
    double totalEnergyUj() const;

    /** Instantaneous power on a rail, in milliwatts. */
    double powerMw(RailId rail) const;

    /** Name of a rail. */
    const std::string &railName(RailId rail) const;

    std::size_t numRails() const { return rails_.size(); }

    /**
     * A snapshot of all rail energies, for measuring an interval.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;

        /** Energy drawn on @p rail since the snapshot, in uJ. */
        double railUj(const EnergyMeter &meter, RailId rail) const;

        /** Energy drawn on all rails since the snapshot, in uJ. */
        double totalUj(const EnergyMeter &meter) const;

      private:
        friend class EnergyMeter;
        std::vector<double> energies_;
    };

    /** Capture the current accumulated energies. */
    Snapshot snapshot() const;

    /** Capture/restore per-rail energy integrals and client draws. */
    void snapState(snap::Io &io);

  private:
    struct Rail
    {
        std::string name;
        std::vector<double> clientMw;
        double totalMw = 0.0;
        double accumulatedUj = 0.0;
        sim::Time lastChange = 0;
        sim::TrackId track = 0; //!< Span track for the power counter.
    };

    /** Fold elapsed time at the current power into the accumulator. */
    void settle(Rail &rail) const;

    sim::Engine &engine_;
    mutable std::vector<Rail> rails_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_POWER_H
