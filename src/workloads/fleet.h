/**
 * @file
 * Fleet-scale device population simulation with streaming percentile
 * aggregation (ROADMAP item 1, DESIGN.md §11).
 *
 * A fleet run simulates a *population* of K2 devices over a time
 * window, driven by the ephemeral background traffic that dominates
 * smart-device activity: sensor batches (DMA), push/heartbeat bursts
 * (UDP), and periodic cloud sync (ext2 + UDP). It is a two-level
 * model:
 *
 *  1. Grounding: episode kinds are *measured* on a warm-forked K2
 *     testbed (wl::warmFixture) at two payload sizes each, yielding a
 *     per-kind linear energy/latency model (Calibration). The
 *     snapshot layer's warm==cold guarantee makes these measurements
 *     byte-identical in either sweep mode, which is what lets
 *     calibrationFor() memoize them: one calibration per unique
 *     (sweep mode, config key) per host thread, bit-identical to
 *     recalibrating every cell.
 *
 *  2. Population synthesis: devices are drawn from a seeded
 *     generator -- per-device parameter jitter over app mix, arrival
 *     rates, payload scale, and battery class, around a named
 *     TrafficMix. Each device owns a family of counter-based RNG
 *     streams keyed (seed, id, stream) -- sim::CounterRng, so no
 *     draw depends on how devices are sharded into cells -- from
 *     which its episode count per kind is drawn as a Poisson count
 *     and its per-episode payloads and noise are filled into flat
 *     scratch arrays, priced through the measured calibration in a
 *     branch-lean batched loop, and streamed into QuantileSketches
 *     (DESIGN.md §12).
 *
 * Aggregation is memory-bounded and order-independent: cells
 * accumulate into per-lane FleetStats partials (SweepRunner's
 * streaming-reducer mode), which fold with QuantileSketch::merge --
 * exactly associative and commutative -- so the fleet report is
 * byte-identical at any --jobs=N and between --sweep=warm|cold.
 */

#ifndef K2_WORKLOADS_FLEET_H
#define K2_WORKLOADS_FLEET_H

#include <array>
#include <cstdint>
#include <string>

#include "sim/sketch.h"
#include "sim/stats.h"
#include "workloads/warm.h"

namespace k2 {
namespace wl {

/** The background episode kinds of the fleet traffic model. */
enum class FleetKind : std::uint8_t
{
    Sensor = 0, //!< Sensor batch drained over DMA.
    Push,       //!< Push notification / heartbeat burst over UDP.
    Sync,       //!< Periodic cloud sync persisted through ext2.
};
constexpr std::size_t kFleetKinds = 3;
const char *fleetKindName(FleetKind kind);

/**
 * A named traffic mix: fleet-wide base arrival rates and payload
 * ranges per episode kind. Individual devices jitter around these.
 */
struct TrafficMix
{
    const char *name;
    const char *summary;
    double perHour[kFleetKinds];      //!< Mean episodes per hour.
    std::uint64_t minBytes[kFleetKinds];
    std::uint64_t maxBytes[kFleetKinds];
};

/** The mix registry. @{ */
const TrafficMix *findMix(const std::string &name); //!< Null if unknown.
std::string mixNames(); //!< Comma-separated, for usage text.
/** @} */

/**
 * One device's sampled parameters: per-kind arrival-rate and payload
 * jitter around the mix, plus a battery class scaling energy cost
 * (smaller devices pay proportionally more per byte moved).
 */
struct DeviceModel
{
    std::uint64_t id = 0;
    std::uint8_t batteryClass = 0;       //!< 0 small, 1 medium, 2 large.
    double energyScale = 1.0;            //!< Battery-class cost factor.
    double rateScale[kFleetKinds] = {};  //!< Arrival-rate jitter.
    double sizeScale[kFleetKinds] = {};  //!< Payload jitter.
};

/** Deterministically derive device @p id's model from the fleet seed;
 *  independent of how devices are sharded into cells. */
DeviceModel makeDevice(std::uint64_t seed, std::uint64_t id);

/**
 * Per-kind measured episode cost: linear in payload bytes, fitted
 * from two full-simulation measurements on a (warm-forked) testbed.
 */
struct EpisodeModel
{
    double energyBaseUj = 0;    //!< Wakeup + idle-tail energy.
    double energyPerByteUj = 0;
    double latencyBaseUs = 0;
    double latencyPerByteUs = 0;

    bool operator==(const EpisodeModel &) const = default;
};

struct Calibration
{
    std::array<EpisodeModel, kFleetKinds> kinds{};

    bool operator==(const Calibration &) const = default;
};

/** Measure the episode kinds on @p tb (quiesced, post-boot). */
Calibration calibrate(Testbed &tb);

/**
 * Memoized calibration for one canonical configuration.
 *
 * @p key is the configuration identity (same contract as
 * warmFixture's key: configs that provision identical testbeds must
 * agree, different configs must not collide). The first call per
 * (sweep mode, key) on a host thread provisions a testbed through
 * warmK2() and measures it with calibrate(); later calls return the
 * cached model without touching the simulation. Because a warm fork
 * restores the exact post-boot state, the cached result is
 * bit-identical to recalibrating (a test asserts this), so sweep
 * artifacts are unchanged -- only the per-cell simulation cost is
 * gone. The cache is thread_local, mirroring the warm-fixture pool:
 * no locks, and SweepRunner lanes never share an entry.
 */
const Calibration &
calibrationFor(SweepMode mode, const std::string &key,
               const std::function<os::K2Config()> &makeConfig = {});

/**
 * Streaming aggregate over any shard of the fleet. All fields merge
 * exactly (associative + commutative), so shard partials fold into
 * the fleet total in any order with byte-identical results.
 */
struct FleetStats
{
    sim::QuantileSketch episodeLatencyUs;
    sim::QuantileSketch deviceEnergyUj;  //!< Per-device window total.
    std::array<sim::QuantileSketch, kFleetKinds> kindEnergyUj;
    std::uint64_t episodes[kFleetKinds] = {};
    std::uint64_t bytes = 0;             //!< Useful payload bytes.
    std::uint64_t devices = 0;

    void merge(const FleetStats &other);

    /**
     * The all-kinds per-episode energy sketch, derived by merging the
     * per-kind sketches. Every episode's energy is sampled into
     * exactly one kind sketch and merge is exactly associative and
     * commutative, so this equals having sampled each episode into a
     * dedicated sketch as well -- without the third sample() on the
     * synthesis hot path.
     */
    sim::QuantileSketch episodeEnergy() const;
};

/**
 * Synthesise device @p id's episode timeline over @p hours and
 * stream it into @p into. Pure host computation (the simulation cost
 * was paid once, in @p cal); this is the fleet hot path: episode
 * counts are Poisson draws, payload/noise come from batched
 * counter-RNG fills over flat scratch arrays, and samples enter the
 * sketches through sampleBatch (DESIGN.md §12).
 *
 * @p diurnal > 0 modulates arrival rates sinusoidally over the day,
 * amplitude in [0, 1] (see FleetConfig::diurnal); 0 is the exact
 * unmodulated path.
 */
void synthesizeDevice(const TrafficMix &mix, const Calibration &cal,
                      std::uint64_t seed, std::uint64_t id,
                      double hours, FleetStats &into,
                      double diurnal = 0.0);

struct FleetConfig
{
    std::uint64_t devices = 1000;
    double hours = 24.0;
    std::string mix = "default";
    std::uint64_t seed = 42;
    std::string faults;           //!< FaultPlan spec; empty = none.
    std::size_t replicas = 1;     //!< Shadow replication degree.
    SweepMode sweep = SweepMode::Warm;
    unsigned jobs = 0;            //!< 0 = hardware concurrency.

    /**
     * Diurnal arrival-rate modulation amplitude A in [0, 1]:
     * lambda(t) = lambda0 * (1 + A * sin(2*pi * t / 24h)). 0 (the
     * default) takes the exact unmodulated code path, so unset runs
     * are byte-identical to a build without the feature; when set,
     * episode counts are drawn by Poisson thinning at the peak rate,
     * deterministic and jobs-invariant like everything else.
     */
    double diurnal = 0.0;
};

struct FleetResult
{
    FleetStats stats;
    Calibration calibration;
    std::uint64_t cells = 0;
    std::string text; //!< Rendered report (deterministic).
    std::string json; //!< Sketch JSON artifact (deterministic).
};

/**
 * Run the whole fleet: shard devices into cells, calibrate +
 * synthesise each cell on the sweep runner's reduction lanes, fold
 * the lane partials, and render the report. Deterministic for a
 * given config: byte-identical text/json at any jobs count and in
 * both sweep modes.
 */
FleetResult runFleet(const FleetConfig &cfg);

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_FLEET_H
