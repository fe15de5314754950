/**
 * @file
 * Fleet workload tests: the seeded device-model generator is
 * shard-independent, FleetStats partials fold exactly, and the
 * headline guarantee holds -- the rendered fleet report and JSON
 * artifact are byte-identical at any jobs count and in both sweep
 * modes.
 */

#include <gtest/gtest.h>

#include <string>

#include "workloads/fleet.h"

namespace {

using namespace k2;

TEST(FleetMix, RegistryLookup)
{
    const wl::TrafficMix *def = wl::findMix("default");
    ASSERT_NE(def, nullptr);
    EXPECT_STREQ(def->name, "default");
    EXPECT_NE(wl::findMix("sensor_heavy"), nullptr);
    EXPECT_NE(wl::findMix("push_heavy"), nullptr);
    EXPECT_NE(wl::findMix("sync_heavy"), nullptr);
    EXPECT_NE(wl::findMix("idle"), nullptr);
    EXPECT_EQ(wl::findMix("nope"), nullptr);
    EXPECT_EQ(wl::findMix(""), nullptr);

    const std::string names = wl::mixNames();
    EXPECT_NE(names.find("default"), std::string::npos);
    EXPECT_NE(names.find("idle"), std::string::npos);
}

TEST(FleetDevice, ModelDerivationIsSeedAndIdPure)
{
    const wl::DeviceModel a = wl::makeDevice(42, 7);
    const wl::DeviceModel b = wl::makeDevice(42, 7);
    EXPECT_EQ(a.id, 7u);
    EXPECT_EQ(a.batteryClass, b.batteryClass);
    EXPECT_EQ(a.energyScale, b.energyScale);
    for (std::size_t k = 0; k < wl::kFleetKinds; ++k) {
        EXPECT_EQ(a.rateScale[k], b.rateScale[k]);
        EXPECT_EQ(a.sizeScale[k], b.sizeScale[k]);
        EXPECT_GT(a.rateScale[k], 0.0);
        EXPECT_GT(a.sizeScale[k], 0.0);
    }
    // Different ids (and different seeds) draw different jitter.
    const wl::DeviceModel c = wl::makeDevice(42, 8);
    const wl::DeviceModel d = wl::makeDevice(43, 7);
    EXPECT_NE(a.rateScale[0], c.rateScale[0]);
    EXPECT_NE(a.rateScale[0], d.rateScale[0]);
}

TEST(FleetStats, ShardedSynthesisFoldsExactly)
{
    // Synthesising devices into shard partials and merging must equal
    // synthesising them all into one accumulator -- in any order.
    const wl::TrafficMix &mix = *wl::findMix("default");
    wl::Calibration cal;
    for (auto &m : cal.kinds)
        m = {120.0, 0.004, 90.0, 0.002};

    wl::FleetStats whole;
    for (std::uint64_t id = 0; id < 40; ++id)
        wl::synthesizeDevice(mix, cal, 42, id, 3.0, whole);

    wl::FleetStats s0, s1, s2;
    for (std::uint64_t id = 0; id < 40; ++id)
        wl::synthesizeDevice(mix, cal, 42, id, 3.0,
                             id % 3 == 0 ? s0
                             : id % 3 == 1 ? s1
                                           : s2);
    wl::FleetStats folded;
    folded.merge(s2); // adversarial order
    folded.merge(s0);
    folded.merge(s1);

    EXPECT_EQ(folded.devices, whole.devices);
    EXPECT_EQ(folded.bytes, whole.bytes);
    for (std::size_t k = 0; k < wl::kFleetKinds; ++k)
        EXPECT_EQ(folded.episodes[k], whole.episodes[k]);
    EXPECT_TRUE(folded.episodeEnergy() == whole.episodeEnergy());
    EXPECT_TRUE(folded.episodeLatencyUs == whole.episodeLatencyUs);
    EXPECT_TRUE(folded.deviceEnergyUj == whole.deviceEnergyUj);
    for (std::size_t k = 0; k < wl::kFleetKinds; ++k)
        EXPECT_TRUE(folded.kindEnergyUj[k] == whole.kindEnergyUj[k]);
}

TEST(Fleet, ByteIdenticalAtAnyJobsAndSweepMode)
{
    // The headline determinism contract: same config => byte-identical
    // text report and JSON artifact at jobs 1/4/13 and warm vs cold.
    wl::FleetConfig cfg;
    cfg.devices = 300; // 3 cells of 128 -- exercises sharding
    cfg.hours = 6.0;
    cfg.seed = 7;

    cfg.jobs = 1;
    const wl::FleetResult serial = wl::runFleet(cfg);
    ASSERT_FALSE(serial.text.empty());
    ASSERT_FALSE(serial.json.empty());
    EXPECT_EQ(serial.cells, 3u);
    EXPECT_EQ(serial.stats.devices, 300u);

    cfg.jobs = 4;
    const wl::FleetResult par4 = wl::runFleet(cfg);
    EXPECT_EQ(serial.text, par4.text);
    EXPECT_EQ(serial.json, par4.json);

    cfg.jobs = 13; // more workers than cells
    const wl::FleetResult par13 = wl::runFleet(cfg);
    EXPECT_EQ(serial.text, par13.text);
    EXPECT_EQ(serial.json, par13.json);

    cfg.jobs = 4;
    cfg.sweep = wl::SweepMode::Cold;
    const wl::FleetResult cold = wl::runFleet(cfg);
    EXPECT_EQ(serial.text, cold.text);
    EXPECT_EQ(serial.json, cold.json);

    // The artifacts carry the expected sketch series and tails.
    for (const char *needle :
         {"\"fleet.episode.energy_uj\"", "\"fleet.episode.latency_us\"",
          "\"fleet.device.energy_uj\"", "\"fleet.kind.sync.energy_uj\"",
          "\"p50\"", "\"p999\""})
        EXPECT_NE(serial.json.find(needle), std::string::npos) << needle;
    EXPECT_NE(serial.text.find("p99.9"), std::string::npos);

    // Artifacts must not leak host-side facts that vary run to run.
    EXPECT_EQ(serial.text.find("jobs"), std::string::npos);
    EXPECT_EQ(serial.json.find("jobs"), std::string::npos);
}

TEST(FleetCalibration, MemoizedEqualsFreshBitForBit)
{
    // calibrationFor's contract: the cached model is bit-identical to
    // measuring a freshly provisioned fixture, in both sweep modes
    // (the snapshot layer's warm==cold guarantee transfers to the
    // calibration numbers).
    const std::string key = "fleet-test:memo";

    const wl::Calibration &cached =
        wl::calibrationFor(wl::SweepMode::Warm, key);
    const wl::Calibration &again =
        wl::calibrationFor(wl::SweepMode::Warm, key);
    EXPECT_EQ(&cached, &again); // hit: same entry, no re-measure

    // Reference: measure an independently restored fixture.
    const wl::Calibration fresh =
        wl::calibrate(wl::warmK2(wl::SweepMode::Warm, key));
    EXPECT_TRUE(cached == fresh);
    // And measuring is itself reproducible fixture-to-fixture.
    EXPECT_TRUE(wl::calibrate(wl::warmK2(wl::SweepMode::Warm, key)) ==
                fresh);

    // Cold mode boots its own master, measures the same numbers, and
    // caches under a distinct entry.
    const wl::Calibration &cold =
        wl::calibrationFor(wl::SweepMode::Cold, key);
    EXPECT_NE(&cold, &cached);
    EXPECT_TRUE(cold == cached);

    // Sanity: the measured models are physically plausible.
    for (const wl::EpisodeModel &m : cached.kinds) {
        EXPECT_GT(m.energyPerByteUj, 0.0);
        EXPECT_GT(m.latencyPerByteUs, 0.0);
    }
}

TEST(Fleet, DiurnalModulationIsDeterministicAndJobsInvariant)
{
    wl::FleetConfig cfg;
    cfg.devices = 300;
    cfg.hours = 6.0;
    cfg.seed = 7;
    cfg.jobs = 1;
    const wl::FleetResult base = wl::runFleet(cfg);
    // The unmodulated artifact never mentions the flag (byte-identical
    // to builds predating it).
    EXPECT_EQ(base.text.find("diurnal"), std::string::npos);

    cfg.diurnal = 0.5;
    const wl::FleetResult mod = wl::runFleet(cfg);
    EXPECT_NE(mod.json, base.json);
    EXPECT_NE(mod.text.find("diurnal=0.500"), std::string::npos);

    // Same determinism contract as the unmodulated path.
    cfg.jobs = 13;
    const wl::FleetResult mod13 = wl::runFleet(cfg);
    EXPECT_EQ(mod.text, mod13.text);
    EXPECT_EQ(mod.json, mod13.json);
    cfg.jobs = 1;
    EXPECT_EQ(wl::runFleet(cfg).json, mod.json);

    // The amplitude participates in the draw, not just the header.
    cfg.diurnal = 0.2;
    const wl::FleetResult mild = wl::runFleet(cfg);
    EXPECT_NE(mild.json, mod.json);
    EXPECT_NE(mild.json, base.json);
}

TEST(Fleet, SeedAndMixChangeTheReport)
{
    wl::FleetConfig cfg;
    cfg.devices = 64;
    cfg.hours = 2.0;
    const wl::FleetResult base = wl::runFleet(cfg);

    wl::FleetConfig seeded = cfg;
    seeded.seed = 43;
    EXPECT_NE(base.json, wl::runFleet(seeded).json);

    wl::FleetConfig idle = cfg;
    idle.mix = "idle";
    const wl::FleetResult quietFleet = wl::runFleet(idle);
    EXPECT_NE(base.json, quietFleet.json);
    // Fewer arrivals per hour under the idle mix.
    std::uint64_t baseEp = 0, idleEp = 0;
    for (std::size_t k = 0; k < wl::kFleetKinds; ++k) {
        baseEp += base.stats.episodes[k];
        idleEp += quietFleet.stats.episodes[k];
    }
    EXPECT_LT(idleEp, baseEp);
}

} // namespace
