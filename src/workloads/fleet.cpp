#include "workloads/fleet.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fault/plan.h"
#include "obs/sketch_json.h"
#include "sim/random.h"
#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/sweep.h"

namespace k2 {
namespace wl {

namespace {

/** Devices per sweep cell. Fixed (never derived from the job count)
 *  so the cell partition -- and with it every RNG stream -- is
 *  independent of --jobs=N. */
constexpr std::uint64_t kCellDevices = 128;

const TrafficMix kMixes[] = {
    {"default", "background mix of a mainstream smart device",
     {12.0, 20.0, 2.0},
     {2048, 256, 8192},
     {65536, 4096, 262144}},
    {"sensor_heavy", "wearable-style continuous sensing",
     {60.0, 6.0, 1.0},
     {4096, 256, 8192},
     {131072, 2048, 131072}},
    {"push_heavy", "messaging-centric device, chatty push path",
     {4.0, 90.0, 2.0},
     {2048, 256, 8192},
     {32768, 8192, 131072}},
    {"sync_heavy", "media device syncing content periodically",
     {6.0, 10.0, 12.0},
     {2048, 256, 32768},
     {65536, 4096, 1048576}},
    {"idle", "mostly-asleep device, sparse heartbeats",
     {1.0, 4.0, 0.25},
     {1024, 256, 4096},
     {8192, 1024, 32768}},
};

/**
 * Per-device RNG stream ids: every device owns a CounterRng family
 * keyed (fleet seed, device id, stream), so no draw depends on cell
 * or lane placement, and each synthesis pass reads its own stream at
 * whatever offsets it likes (DESIGN.md §12).
 */
enum : std::uint32_t
{
    kStreamModel = 0,   //!< Device parameter draw (sequential).
    kStreamCount = 1,   //!< + kind: episode/candidate count draw.
    kStreamEpisode = 4, //!< + kind: packed per-episode draw (fill).
    kStreamThin = 10,   //!< + kind: diurnal thinning draws (fill).
};

/** Draw a device's parameters from its model stream. */
DeviceModel
drawDevice(sim::CounterRng &rng, std::uint64_t id)
{
    DeviceModel dev;
    dev.id = id;
    dev.batteryClass = static_cast<std::uint8_t>(rng.below(3));
    // Small batteries pay more per byte (worse rails, hotter DRAM);
    // big devices amortise better.
    constexpr double kBatteryScale[3] = {1.25, 1.0, 0.85};
    dev.energyScale = kBatteryScale[dev.batteryClass];
    for (std::size_t k = 0; k < kFleetKinds; ++k) {
        // App-mix jitter: how much of each traffic kind this device
        // sees, and how large its payloads run.
        dev.rateScale[k] = 0.6 + 0.8 * rng.uniform();
        dev.sizeScale[k] = 0.7 + 0.6 * rng.uniform();
    }
    return dev;
}

/** Episodes per synthesis batch: bounds scratch memory (and keeps it
 *  cache-resident) however long the window is. */
constexpr std::size_t kChunk = 2048;

/** Flat per-chunk arrays the batched synthesis loop streams through:
 *  raw RNG draws in, priced episodes out. */
struct Scratch
{
    std::uint64_t raw[kChunk];
    double energy[kChunk];
    double latency[kChunk];
};

/**
 * Episode count for one (device, kind) under diurnal modulation, by
 * Poisson thinning: draw candidates at the peak rate
 * lambda0 * (1 + A), then accept each with probability
 * lambda(t) / lambdaMax. Candidate times are iid uniform over the
 * window -- the order-free view of a Poisson process -- and episodes
 * carry no timestamps downstream, so only the accepted count is
 * kept. Deterministic: candidates come from the kind's count stream,
 * thinning draws from its own stream, both keyed (seed, id) only.
 */
std::uint64_t
diurnalCount(sim::CounterRng &countRng, std::uint64_t seed,
             std::uint64_t id, std::size_t k, double mean,
             double ampl, double hours)
{
    const std::uint64_t candidates =
        sim::poisson(countRng, mean * (1.0 + ampl));
    sim::CounterRng thinRng(
        seed, id, kStreamThin + static_cast<std::uint32_t>(k));
    constexpr double kTwoPi = 6.283185307179586476925287;
    const double peak = 1.0 + ampl;
    std::uint64_t raw[kChunk];
    std::uint64_t accepted = 0;
    std::uint64_t done = 0;
    while (done < candidates) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, candidates - done));
        thinRng.fill(done, raw, n);
        for (std::size_t i = 0; i < n; ++i) {
            // Low half: candidate time as a window fraction; high
            // half: the acceptance uniform.
            const double tHours =
                hours * (static_cast<double>(static_cast<std::uint32_t>(
                             raw[i])) *
                         0x1.0p-32);
            const double rate =
                1.0 + ampl * std::sin(kTwoPi * tHours / 24.0);
            const double u =
                static_cast<double>(raw[i] >> 32) * 0x1.0p-32;
            accepted += (u * peak < rate) ? 1 : 0;
        }
        done += n;
    }
    return accepted;
}

/** The measured calibration points per kind: two payload sizes so a
 *  base + per-byte line can be fitted. */
constexpr std::uint64_t kCalibBytes[kFleetKinds][2] = {
    {8192, 131072},  // Sensor: DMA batch totals.
    {2048, 32768},   // Push: UDP loopback totals.
    {8192, 131072},  // Sync: ext2 bytes (2 files each).
};

EpisodeResult
runCalibEpisode(Testbed &tb, FleetKind kind, std::uint64_t bytes)
{
    switch (kind) {
      case FleetKind::Sensor:
        return runEpisodeWarm(tb.sys(), tb.proc(), "fleet.sensor",
                              dmaCopy(tb.dma(), 4096, bytes));
      case FleetKind::Push:
        return runEpisodeWarm(tb.sys(), tb.proc(), "fleet.push",
                              udpLoopback(tb.udp(), 8192, bytes));
      case FleetKind::Sync:
        return runEpisodeWarm(tb.sys(), tb.proc(), "fleet.sync",
                              ext2Sync(tb.fs(), bytes / 2, 2));
    }
    K2_PANIC("bad fleet kind");
}

/** Render one sketch as a report row. */
std::vector<std::string>
sketchRow(const std::string &label, const sim::QuantileSketch &sk,
          int decimals)
{
    return {label,
            std::to_string(sk.count()),
            fmt(sk.mean(), decimals),
            fmt(sk.percentile(0.50), decimals),
            fmt(sk.percentile(0.90), decimals),
            fmt(sk.percentile(0.99), decimals),
            fmt(sk.percentile(0.999), decimals),
            fmt(sk.max(), decimals)};
}

} // namespace

const char *
fleetKindName(FleetKind kind)
{
    switch (kind) {
      case FleetKind::Sensor:
        return "sensor";
      case FleetKind::Push:
        return "push";
      case FleetKind::Sync:
        return "sync";
    }
    return "?";
}

const TrafficMix *
findMix(const std::string &name)
{
    for (const TrafficMix &mix : kMixes) {
        if (name == mix.name)
            return &mix;
    }
    return nullptr;
}

std::string
mixNames()
{
    std::string names;
    for (const TrafficMix &mix : kMixes) {
        if (!names.empty())
            names += ", ";
        names += mix.name;
    }
    return names;
}

DeviceModel
makeDevice(std::uint64_t seed, std::uint64_t id)
{
    sim::CounterRng rng(seed, id, kStreamModel);
    return drawDevice(rng, id);
}

Calibration
calibrate(Testbed &tb)
{
    Calibration cal;
    for (std::size_t k = 0; k < kFleetKinds; ++k) {
        const auto kind = static_cast<FleetKind>(k);
        const EpisodeResult lo =
            runCalibEpisode(tb, kind, kCalibBytes[k][0]);
        const EpisodeResult hi =
            runCalibEpisode(tb, kind, kCalibBytes[k][1]);
        K2_ASSERT(hi.bytes > lo.bytes);
        EpisodeModel &m = cal.kinds[k];
        const double db = static_cast<double>(hi.bytes - lo.bytes);
        m.energyPerByteUj = (hi.energyUj - lo.energyUj) / db;
        m.energyBaseUj =
            lo.energyUj -
            m.energyPerByteUj * static_cast<double>(lo.bytes);
        const double loUs = sim::toSec(lo.runTime) * 1e6;
        const double hiUs = sim::toSec(hi.runTime) * 1e6;
        m.latencyPerByteUs = (hiUs - loUs) / db;
        m.latencyBaseUs =
            loUs - m.latencyPerByteUs * static_cast<double>(lo.bytes);
    }
    return cal;
}

const Calibration &
calibrationFor(SweepMode mode, const std::string &key,
               const std::function<os::K2Config()> &makeConfig)
{
    // thread_local like the warm-fixture pool: lanes never contend,
    // and the cache lives for the thread -- repeated runFleet calls
    // (a parameter sweep) pay one calibration per unique config.
    thread_local std::map<std::string, Calibration> cache;
    // Mode-qualified key: a cold-mode caller still measures a real
    // cold boot the first time, as the historical cost model expects.
    std::string full =
        (mode == SweepMode::Cold ? "cold:" : "warm:") + key;
    auto it = cache.find(full);
    if (it == cache.end()) {
        Testbed &tb = warmK2(mode, key, makeConfig);
        it = cache.emplace(std::move(full), calibrate(tb)).first;
    }
    return it->second;
}

void
FleetStats::merge(const FleetStats &other)
{
    episodeLatencyUs.merge(other.episodeLatencyUs);
    deviceEnergyUj.merge(other.deviceEnergyUj);
    for (std::size_t k = 0; k < kFleetKinds; ++k) {
        kindEnergyUj[k].merge(other.kindEnergyUj[k]);
        episodes[k] += other.episodes[k];
    }
    bytes += other.bytes;
    devices += other.devices;
}

sim::QuantileSketch
FleetStats::episodeEnergy() const
{
    sim::QuantileSketch all;
    for (const sim::QuantileSketch &sk : kindEnergyUj)
        all.merge(sk);
    return all;
}

void
synthesizeDevice(const TrafficMix &mix, const Calibration &cal,
                 std::uint64_t seed, std::uint64_t id, double hours,
                 FleetStats &into, double diurnal)
{
    const DeviceModel dev = makeDevice(seed, id);

    Scratch s;
    // Four device-total accumulators, combined in a fixed grouping
    // at the end: a single `total += energy` chain would bound the
    // episode loop at the addsd latency. The lane pattern depends
    // only on the chunk-local episode index (chunks are fixed-size),
    // so the total is as placement-independent as a sequential sum.
    double tot[4] = {0.0, 0.0, 0.0, 0.0};
    std::uint64_t totalBytes = 0;
    for (std::size_t k = 0; k < kFleetKinds; ++k) {
        const double mean = mix.perHour[k] * dev.rateScale[k] * hours;
        if (mean <= 0.0)
            continue;
        const EpisodeModel &m = cal.kinds[k];
        // Per-(device, kind) constants, hoisted so the episode loop
        // is pure arithmetic on the scratch arrays.
        const double energyBase = m.energyBaseUj * dev.energyScale;
        const double energyPerB = m.energyPerByteUj * dev.energyScale;
        const double latencyBase = m.latencyBaseUs;
        const double latencyPerB = m.latencyPerByteUs;
        const double sizeScale = dev.sizeScale[k];
        const std::uint64_t minB = mix.minBytes[k];
        const std::uint64_t span = mix.maxBytes[k] - minB + 1;
        // The 32-bit payload draw below needs span * 2^32 < 2^64.
        K2_ASSERT(span <= 0xFFFFFFFFull);

        // Episode *count* first -- O(1) per kind instead of walking
        // O(episodes) exponential inter-arrivals. Arrival times are
        // not observable downstream (episodes are exchangeable within
        // the window), so the count is the whole timeline.
        sim::CounterRng countRng(
            seed, id, kStreamCount + static_cast<std::uint32_t>(k));
        const std::uint64_t episodes =
            diurnal > 0.0
                ? diurnalCount(countRng, seed, id, k, mean, diurnal,
                               hours)
                : sim::poisson(countRng, mean);

        // One packed 64-bit draw per episode: low 32 bits size the
        // payload by multiply-shift over [minBytes, maxBytes], the
        // two high 16-bit halves are the energy/latency noise
        // uniforms (quantised to 2^-16 -- far below the +/-5% noise
        // band they modulate).
        sim::CounterRng epRng(
            seed, id, kStreamEpisode + static_cast<std::uint32_t>(k));
        sim::QuantileSketch &kindSk = into.kindEnergyUj[k];
        std::uint64_t done = 0;
        while (done < episodes) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kChunk, episodes - done));
            epRng.fill(done, s.raw, n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t x = s.raw[i];
                // Signed intermediate casts throughout: the values
                // all fit in int64, and signed int<->double is one
                // instruction on the baseline target where unsigned
                // needs a branchy fixup.
                const std::int64_t raw = static_cast<std::int64_t>(
                    minB +
                    ((static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(x)) *
                      span) >>
                     32));
                const std::int64_t payload = std::max<std::int64_t>(
                    16, static_cast<std::int64_t>(
                            static_cast<double>(raw) * sizeScale +
                            0.5));
                const double b = static_cast<double>(payload);
                // Per-episode noise models interference the
                // calibration episode (run in isolation) cannot see.
                const double energyUj =
                    (energyBase + energyPerB * b) *
                    (0.95 +
                     0.1 * (static_cast<double>(static_cast<int>(
                                (x >> 32) & 0xFFFF)) *
                            0x1.0p-16));
                const double latencyUs =
                    (latencyBase + latencyPerB * b) *
                    (0.95 + 0.1 * (static_cast<double>(
                                       static_cast<int>(x >> 48)) *
                                   0x1.0p-16));
                s.energy[i] = energyUj;
                s.latency[i] = latencyUs;
                totalBytes += static_cast<std::uint64_t>(payload);
                tot[i & 3] += energyUj;
            }
            kindSk.sampleBatch(s.energy, n);
            into.episodeLatencyUs.sampleBatch(s.latency, n);
            done += n;
        }
        into.episodes[k] += episodes;
    }
    into.bytes += totalBytes;
    into.deviceEnergyUj.sample((tot[0] + tot[1]) + (tot[2] + tot[3]));
    ++into.devices;
}

FleetResult
runFleet(const FleetConfig &cfg)
{
    const TrafficMix *mix = findMix(cfg.mix);
    if (!mix)
        K2_FATAL("unknown traffic mix '%s' (available: %s)",
                 cfg.mix.c_str(), mixNames().c_str());
    if (cfg.devices == 0)
        K2_FATAL("--devices must be at least 1");
    if (!(cfg.hours > 0))
        K2_FATAL("--hours must be positive");
    if (!(cfg.diurnal >= 0.0 && cfg.diurnal <= 1.0))
        K2_FATAL("--diurnal amplitude must be in [0, 1]");

    const std::uint64_t cells =
        (cfg.devices + kCellDevices - 1) / kCellDevices;

    // Streaming reduction: one partial per lane, merged after the
    // barrier. Memory is O(lanes), not O(cells) -- a million-device
    // fleet reduces through the same handful of sketches.
    struct Lane
    {
        FleetStats stats;
        Calibration cal;
        bool calibrated = false;
    };
    SweepRunner runner(cfg.jobs);
    std::vector<Lane> lanes(runner.lanes());

    // The replica suffix appears only when the degree differs from
    // the default so replicas=1 runs keep the pre-replication key.
    std::string fixtureKey = "fleet:" + cfg.faults;
    if (cfg.replicas > 1)
        fixtureKey += ":r" + std::to_string(cfg.replicas);
    const auto makeConfig = [&cfg]() {
        os::K2Config kcfg;
        if (!cfg.faults.empty())
            kcfg.faults = fault::FaultPlan::parse(cfg.faults);
        kcfg.replicas = std::max<std::size_t>(cfg.replicas, 1);
        return kcfg;
    };

    for (std::uint64_t c = 0; c < cells; ++c) {
        const std::uint64_t lo = c * kCellDevices;
        const std::uint64_t hi =
            std::min(cfg.devices, lo + kCellDevices);
        runner.submitLane([&cfg, &lanes, &fixtureKey, &makeConfig,
                           mix, lo, hi](std::size_t laneIdx) {
            Lane &lane = lanes.at(laneIdx);
            // Ground the episode models in the full simulation --
            // memoized: one measurement per (sweep mode, config) per
            // worker thread, bit-identical to recalibrating every
            // cell because a warm fork restores the exact post-boot
            // state (and cold boots are reproducible). Cold mode
            // still pays its first boot cold, preserving the
            // historical cost model's entry point.
            const Calibration &cal =
                calibrationFor(cfg.sweep, fixtureKey, makeConfig);
            if (!lane.calibrated) {
                lane.cal = cal;
                lane.calibrated = true;
            }
            for (std::uint64_t id = lo; id < hi; ++id)
                synthesizeDevice(*mix, cal, cfg.seed, id, cfg.hours,
                                 lane.stats, cfg.diurnal);
        });
    }
    runner.run();

    FleetResult res;
    res.cells = cells;
    bool haveCal = false;
    for (const Lane &lane : lanes) {
        res.stats.merge(lane.stats);
        if (lane.calibrated && !haveCal) {
            res.calibration = lane.cal;
            haveCal = true;
        }
    }

    // Render the report. Deliberately silent about --jobs and
    // --sweep: the artifact must diff clean across both. --diurnal
    // appears only when set, keeping unset artifacts byte-identical.
    const FleetStats &fs = res.stats;
    const sim::QuantileSketch episodeEnergyUj = fs.episodeEnergy();
    std::uint64_t totalEpisodes = 0;
    for (std::size_t k = 0; k < kFleetKinds; ++k)
        totalEpisodes += fs.episodes[k];

    std::string text = sim::strPrintf(
        "fleet: mix=%s (%s)\n"
        "devices=%llu hours=%.3f seed=%llu device-hours=%.1f\n"
        "%s"
        "episodes=%llu (sensor %llu, push %llu, sync %llu) "
        "payload=%.1f MB\n"
        "fleet energy=%.3f J  mean device power=%.2f uW\n\n",
        mix->name, mix->summary,
        static_cast<unsigned long long>(cfg.devices), cfg.hours,
        static_cast<unsigned long long>(cfg.seed),
        static_cast<double>(cfg.devices) * cfg.hours,
        cfg.diurnal > 0.0
            ? sim::strPrintf("diurnal=%.3f\n", cfg.diurnal).c_str()
            : "",
        static_cast<unsigned long long>(totalEpisodes),
        static_cast<unsigned long long>(fs.episodes[0]),
        static_cast<unsigned long long>(fs.episodes[1]),
        static_cast<unsigned long long>(fs.episodes[2]),
        static_cast<double>(fs.bytes) / 1e6,
        episodeEnergyUj.sum() / 1e6,
        fs.deviceEnergyUj.sum() /
            (static_cast<double>(cfg.devices) * cfg.hours * 3600.0));

    Table table({"metric", "count", "mean", "p50", "p90", "p99",
                 "p99.9", "max"});
    table.addRow(sketchRow("episode energy (uJ)", episodeEnergyUj,
                           1));
    table.addRow(
        sketchRow("episode latency (us)", fs.episodeLatencyUs, 1));
    table.addRow(
        sketchRow("device energy (uJ)", fs.deviceEnergyUj, 0));
    for (std::size_t k = 0; k < kFleetKinds; ++k)
        table.addRow(sketchRow(
            std::string(fleetKindName(static_cast<FleetKind>(k))) +
                " episode energy (uJ)",
            fs.kindEnergyUj[k], 1));
    text += table.render();
    res.text = std::move(text);

    obs::NamedSketches named = {
        {"fleet.episode.energy_uj", &episodeEnergyUj},
        {"fleet.episode.latency_us", &fs.episodeLatencyUs},
        {"fleet.device.energy_uj", &fs.deviceEnergyUj},
    };
    for (std::size_t k = 0; k < kFleetKinds; ++k)
        named.emplace_back(
            std::string("fleet.kind.") +
                fleetKindName(static_cast<FleetKind>(k)) +
                ".energy_uj",
            &fs.kindEnergyUj[k]);
    res.json = obs::sketchJson(named);
    return res;
}

} // namespace wl
} // namespace k2
