/**
 * @file
 * Energy accounting: the simulated equivalent of sampling current on
 * the board's per-domain power rails.
 *
 * Each consumer on a rail (a core, a domain's uncore) is a PowerClient:
 * a fixed table of power levels, one per distinct draw, with integer
 * residency per level and a wakeup count. A power transition is one
 * PowerClient::enter(), which folds the time since the last transition
 * into the level being left. The meter holds no energy of its own: it
 * computes a rail's energy when it is read, as the sum over its clients
 * of residency x level power plus wakeups x wake energy, in fixed point
 * (uW x ps, exact in 128 bits), converted to uJ once. Benches snapshot
 * the meter before and after a run to obtain per-episode energy.
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

/** Energy in uW x ps (1e-12 uJ): the unit every rail sums exactly in. */
using EnergyFp = unsigned __int128;

/** @p e in microjoules: the whole part exact, the fraction rounded. */
double fpToUj(EnergyFp e);

/**
 * One consumer on a rail: its power levels, the integer residency in
 * each, the level it is in and since when, and its wakeup count. It
 * lives inline in its owner (a Core, a CoherenceDomain); the meter
 * only points at it.
 */
class PowerClient
{
  public:
    /** Levels a client can have: idle, inactive and six DVFS points. */
    static constexpr std::size_t kMaxLevels = 8;

    /** A client with no levels yet; it starts in level 0 at @p now. */
    explicit PowerClient(sim::Time now)
        : since_(now)
    {}

    /**
     * Append a level drawing @p mw and return its index. Fatal unless
     * @p mw is a whole number of microwatts.
     */
    std::uint32_t addLevel(double mw);

    /** Energy charged per wakeup; fatal unless a whole number of pJ. */
    void setWakeEnergy(double uj);

    /**
     * Enter @p level at @p now, charging the time since the last
     * transition to the level being left. True when the draw changed.
     */
    bool
    enter(std::uint32_t level, sim::Time now)
    {
        const std::uint32_t old = level_;
        timeIn_[old] += now - since_;
        since_ = now;
        level_ = level;
        return uw_[old] != uw_[level];
    }

    /** Count one wakeup (charged wakeEnergy on read). */
    void noteWakeup() { ++wakeups_; }

    std::uint32_t level() const { return level_; }
    sim::Time since() const { return since_; }
    std::uint64_t levelUw(std::uint32_t l) const { return uw_[l]; }
    std::uint64_t wakeups() const { return wakeups_; }

    /** Time spent in @p l up to @p now, the open interval included. */
    sim::Duration
    residency(std::uint32_t l, sim::Time now) const
    {
        return timeIn_[l] + (l == level_ ? now - since_ : 0);
    }

    /** Energy drawn up to @p now, in uW x ps. */
    EnergyFp energyFp(sim::Time now) const;

    /** Capture/restore level, residency and wakeups (levels are
     *  configuration and only checked). */
    void snapState(snap::Io &io);

  private:
    sim::Time since_;
    std::uint32_t level_ = 0;
    std::uint32_t numLevels_ = 0;
    std::uint64_t uw_[kMaxLevels] = {};
    sim::Duration timeIn_[kMaxLevels] = {};
    std::uint64_t wakeups_ = 0;
    std::uint64_t wakeFp_ = 0;
};

/**
 * The per-rail view of the power clients: energy and draw on read.
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(sim::Engine &eng)
        : engine_(eng)
    {}

    /** Create a rail and return its id. */
    RailId addRail(std::string name);

    /** Put @p client on @p rail; it must outlive every read. */
    void attach(RailId rail, const PowerClient &client);

    /**
     * Add a sample of the rail's draw to its power counter track.
     * Clients call it after an enter() that changed their draw, only
     * while spans are on.
     */
    void sample(RailId rail);

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

    /** Check the rail layout; the clients' owners capture their state. */
    void snapState(snap::Io &io);

  private:
    struct Rail
    {
        std::string name;
        std::vector<const PowerClient *> clients;
        sim::TrackId track = 0; //!< Span track for the power counter.
    };

    sim::Engine &engine_;
    std::vector<Rail> rails_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_POWER_H
