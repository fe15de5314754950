#include <fstream>
#include <numeric>
#include <sstream>

#include <gtest/gtest.h>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace k2perf;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

/** A tiny run: the fewest short rounds. */
RunConfig
tiny(const std::string &workload, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.workload = workload;
    cfg.seed = seed;
    cfg.seconds = 0;
    cfg.roundOps = 10;
    return cfg;
}

TEST(TailPercentile, P99WhenTenSamplesLieBeyondIt)
{
    const Tail t = tailPercentile(iota(1000));
    EXPECT_DOUBLE_EQ(t.percentile, 0.99);
    EXPECT_DOUBLE_EQ(t.value, 990);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, StepsDownToKeepTenSamplesBeyond)
{
    const Tail t = tailPercentile(iota(500));
    EXPECT_DOUBLE_EQ(t.percentile, 0.98);
    EXPECT_DOUBLE_EQ(t.value, 490);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToTheMedianWithoutATail)
{
    const Tail t = tailPercentile({5, 1, 3, 2, 4});
    EXPECT_DOUBLE_EQ(t.percentile, 0.6);
    EXPECT_DOUBLE_EQ(t.value, 3);
    EXPECT_EQ(t.beyond, 2u);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Drift, ComparesLastTenthWithFirstTenth)
{
    Drift d;
    d.addChain(iota(100)); // First tenth 1..10, last tenth 91..100.
    EXPECT_DOUBLE_EQ(d.ratio(), 955.0 / 55.0);

    Drift flat;
    flat.addChain(std::vector<double>(50, 7.0));
    flat.addChain(std::vector<double>(9, 100.0)); // Too short: ignored.
    EXPECT_DOUBLE_EQ(flat.ratio(), 1.0);
}

TEST(Drift, PoolsChainsByTime)
{
    Drift d;
    d.addChain(std::vector<double>(10, 1.0));
    d.addChain(std::vector<double>(10, 3.0));
    EXPECT_DOUBLE_EQ(d.ratio(), 1.0);
    EXPECT_DOUBLE_EQ(Drift().ratio(), 0.0);
}

TEST(Workloads, SameSeedSameDigestAndNoFailures)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        const RunResult a = runWorkload(tiny(w, 7));
        const RunResult b = runWorkload(tiny(w, 7));
        const RunResult c = runWorkload(tiny(w, 8));
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_NE(a.digest, c.digest);
        EXPECT_GT(a.attempted, 0u);
        EXPECT_EQ(a.failed, 0u);
        ASSERT_EQ(a.metrics.size(), endToEndMetrics().size());
        for (const Metric &m : a.metrics)
            EXPECT_GT(m.value, 0) << m.name;
    }
}

TEST(Workloads, PlantedCheckFailureCountsAsOneFailedOp)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        RunConfig cfg = tiny(w, 3);
        const RunResult clean = runWorkload(cfg);
        cfg.plantFailureAt = 0;
        const RunResult r = runWorkload(cfg);
        EXPECT_EQ(r.attempted, clean.attempted);
        EXPECT_EQ(r.failed, 1u); // One failed op out of all attempted.
        EXPECT_EQ(r.digest, clean.digest);
    }
}

TEST(Workloads, TracedRunReportsEveryPerLayerMetricWithTheSameDigest)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        RunConfig cfg = tiny(w, 5);
        const RunResult plain = runWorkload(cfg);
        cfg.trace = true;
        const RunResult traced = runWorkload(cfg);
        EXPECT_EQ(traced.rounds, 3u);
        EXPECT_EQ(traced.failed, 0u);
        EXPECT_EQ(traced.digest, plain.digest);
        ASSERT_EQ(traced.metrics.size(), perLayerMetrics().size());
        for (std::size_t i = 0; i < traced.metrics.size(); ++i)
            EXPECT_EQ(traced.metrics[i].name, perLayerMetrics()[i].first);
    }
}

TEST(Workloads, UnknownWorkloadThrows)
{
    EXPECT_THROW(runWorkload(tiny("nope", 1)), std::invalid_argument);
}

TEST(BenchmarkJson, NamesEveryWorkloadAndMetric)
{
    std::ifstream in(K2PERF_BENCHMARK_JSON);
    ASSERT_TRUE(in) << K2PERF_BENCHMARK_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    const auto expectNamed = [&](const std::string &name,
                                 const std::string &unit) {
        std::string want = "{\"name\": \"" + name + "\"";
        if (!unit.empty())
            want += ", \"unit\": \"" + unit + "\"";
        EXPECT_NE(json.find(want), std::string::npos) << want;
    };
    for (const std::string &w : workloadNames())
        expectNamed(w, "");
    for (const auto &[name, unit] : endToEndMetrics())
        expectNamed(name, unit);
    for (const auto &[name, unit] : perLayerMetrics())
        expectNamed(name, unit);
}

} // namespace
