/**
 * @file
 * SweepRunner determinism and isolation tests: the same sweep must
 * produce byte-identical serialized artifacts at any thread count,
 * including an adversarial worker count that does not divide the cell
 * count; failures surface by lowest submission index, with the
 * suppressed count in the rethrown message.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workloads/benchmarks.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

namespace {

using namespace k2;

/**
 * Run a miniature fig6-style sweep (alternating K2/Linux cells over
 * three DMA batch sizes) at the given job count and serialize every
 * artifact a real bench would emit: the numeric episode results and a
 * full metrics-registry JSON snapshot per cell.
 */
std::string
runSweepArtifact(unsigned jobs)
{
    const std::uint64_t batches[] = {4096, 8192, 16384};
    constexpr std::size_t kCells = 2 * std::size(batches);

    wl::SweepRunner runner(jobs);
    std::vector<wl::EpisodeResult> results(kCells);
    std::vector<std::string> metrics(kCells);
    for (std::size_t i = 0; i < std::size(batches); ++i) {
        const std::uint64_t batch = batches[i];
        runner.submit([&results, &metrics, i, batch]() {
            auto tb = wl::Testbed::makeK2();
            obs::MetricsRegistry reg;
            tb.registerMetrics(reg);
            results[2 * i] =
                wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                                   wl::dmaCopy(tb.dma(), batch,
                                               16 * batch));
            metrics[2 * i] = reg.snapshot().toJson();
        });
        runner.submit([&results, &metrics, i, batch]() {
            auto tb = wl::Testbed::makeLinux();
            obs::MetricsRegistry reg;
            tb.registerMetrics(reg);
            results[2 * i + 1] =
                wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                                   wl::dmaCopy(tb.dma(), batch,
                                               16 * batch));
            metrics[2 * i + 1] = reg.snapshot().toJson();
        });
    }
    runner.run();

    std::string artifact;
    for (std::size_t i = 0; i < kCells; ++i) {
        artifact += sim::strPrintf(
            "cell %zu: energy=%.17g run=%llu episode=%llu bytes=%llu\n",
            i, results[i].energyUj,
            static_cast<unsigned long long>(results[i].runTime),
            static_cast<unsigned long long>(results[i].episodeTime),
            static_cast<unsigned long long>(results[i].bytes));
        artifact += metrics[i];
        artifact += '\n';
    }
    return artifact;
}

TEST(SweepRunner, ByteIdenticalArtifactsAtAnyThreadCount)
{
    const std::string serial = runSweepArtifact(1);
    ASSERT_FALSE(serial.empty());
    // Sanity: the serial artifact contains real simulation output.
    EXPECT_NE(serial.find("\"kern.main.buddy.alloc_calls\""),
              std::string::npos);

    EXPECT_EQ(serial, runSweepArtifact(4));
    // Adversarial: more workers than cells, and a count that divides
    // nothing.
    EXPECT_EQ(serial, runSweepArtifact(13));
}

TEST(SweepRunner, RethrowsFirstFailureBySubmissionIndex)
{
    wl::SweepRunner runner(4);
    runner.submit([]() {});
    runner.submit([]() { K2_FATAL("first failure"); });
    runner.submit([]() { K2_FATAL("second failure"); });
    runner.submit([]() {});
    try {
        runner.run();
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("first failure"),
                  std::string::npos);
    }
    // The runner drains and is reusable after a failure.
    EXPECT_EQ(runner.size(), 0u);
    bool ran = false;
    runner.submit([&ran]() { ran = true; });
    runner.run();
    EXPECT_TRUE(ran);
}

TEST(SweepRunner, FailureIdentifiesCellIndex)
{
    // Regression: run() used to rethrow the first failure verbatim,
    // leaving the user to guess which of N cells died. The rethrown
    // error must name the failing cell's submission index.
    wl::SweepRunner runner(2);
    runner.submit([]() {});
    runner.submit([]() { K2_FATAL("boom"); });
    runner.submit([]() {});
    try {
        runner.run();
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("sweep cell 1"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
    // Non-FatalError exceptions get the same wrapping.
    runner.submit([]() { throw std::runtime_error("plain"); });
    try {
        runner.run();
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("sweep cell 0"), std::string::npos) << what;
        EXPECT_NE(what.find("plain"), std::string::npos) << what;
    }
}

TEST(SweepRunner, MultipleFailuresWarnAboutSuppression)
{
    wl::SweepRunner runner(4);
    for (int i = 0; i < 3; ++i)
        runner.submit([i]() { K2_FATAL("cell %d died", i); });
    try {
        runner.run();
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        // The count of additional failures travels in the rethrown
        // error, not silently lost.
        const std::string what = e.what();
        EXPECT_NE(what.find("sweep cell 0: cell 0 died"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("3 cell(s) failed"), std::string::npos)
            << what;
        EXPECT_NE(what.find("suppressing 2"), std::string::npos) << what;
    }
}

TEST(SweepRunner, LaneCellsPartitionWorkWithoutRaces)
{
    // Streaming-reducer mode: lane-indexed cells accumulate into
    // unsynchronized per-lane partials; the fold over lanes must see
    // every cell exactly once regardless of scheduling.
    for (unsigned jobs : {1u, 4u, 13u}) {
        wl::SweepRunner runner(jobs);
        ASSERT_EQ(runner.lanes(), runner.jobs());
        std::vector<std::uint64_t> partial(runner.lanes(), 0);
        for (std::uint64_t i = 1; i <= 100; ++i) {
            runner.submitLane([&partial, i](std::size_t lane) {
                partial[lane] += i; // safe: lanes never run concurrently
            });
        }
        runner.run();
        std::uint64_t total = 0;
        for (std::uint64_t p : partial)
            total += p;
        EXPECT_EQ(total, 5050u) << jobs << " jobs";
    }
}

TEST(ParseJobsFlag, ParsesAndStripsTheFlag)
{
    std::vector<std::string> storage = {"bench", "--seed=7", "--jobs=12",
                                        "--trace=t.json"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());

    EXPECT_EQ(wl::parseJobsFlag(argc, argv.data()), 12u);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "--seed=7");
    EXPECT_STREQ(argv[2], "--trace=t.json");
}

TEST(ParseJobsFlag, FallbackWhenAbsent)
{
    std::vector<std::string> storage = {"bench"};
    std::vector<char *> argv = {storage[0].data()};
    int argc = 1;
    EXPECT_EQ(wl::parseJobsFlag(argc, argv.data()), 0u);
    EXPECT_EQ(argc, 1);
}

TEST(ParseJobsFlag, RejectsMalformedValues)
{
    for (const char *bad : {"--jobs=", "--jobs=0", "--jobs=nope",
                            "--jobs=12x", "--jobs=99999"}) {
        std::vector<std::string> storage = {"bench", bad};
        std::vector<char *> argv = {storage[0].data(),
                                    storage[1].data()};
        int argc = 2;
        EXPECT_THROW(wl::parseJobsFlag(argc, argv.data()),
                     sim::FatalError)
            << bad;
    }
}

TEST(ParseJobsFlag, DuplicateOccurrencesLastWinsAndAllStripped)
{
    // Regression: the old parser took the *first* occurrence and left
    // the duplicate in argv, so `--jobs=4 --jobs=8` ran with 4 jobs
    // and then tripped the unknown-argument check (or worse, was
    // silently ignored). Conventional CLI semantics: last one wins,
    // and every occurrence is consumed.
    std::vector<std::string> storage = {"bench", "--jobs=4", "--seed=7",
                                        "--jobs=8"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());

    EXPECT_EQ(wl::parseJobsFlag(argc, argv.data()), 8u);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "--seed=7");
}

TEST(ConsumeFlag, LastWinsStripsAllPreservesOrder)
{
    std::vector<std::string> storage = {"prog", "--x=1", "a", "--x=2",
                                        "b",    "--x=3"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());

    std::string value;
    EXPECT_TRUE(wl::consumeFlag(argc, argv.data(), "--x=", value));
    EXPECT_EQ(value, "3");
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "a");
    EXPECT_STREQ(argv[2], "b");

    // Absent flag: argv untouched, value untouched.
    value = "sentinel";
    EXPECT_FALSE(wl::consumeFlag(argc, argv.data(), "--y=", value));
    EXPECT_EQ(value, "sentinel");
    EXPECT_EQ(argc, 3);
}

TEST(ParseTypedFlags, UintFloatString)
{
    std::vector<std::string> storage = {"fleet", "--devices=500",
                                        "--hours=0.25", "--mix=idle"};
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());

    EXPECT_EQ(wl::parseUintFlag(argc, argv.data(), "--devices=", 7, 1,
                                100000000),
              500u);
    EXPECT_DOUBLE_EQ(
        wl::parseFloatFlag(argc, argv.data(), "--hours=", 24.0, 1e6),
        0.25);
    EXPECT_EQ(wl::parseStringFlag(argc, argv.data(), "--mix=", "def"),
              "idle");
    EXPECT_EQ(argc, 1);

    // Fallbacks when absent.
    EXPECT_EQ(wl::parseUintFlag(argc, argv.data(), "--devices=", 7, 1,
                                100),
              7u);
    EXPECT_DOUBLE_EQ(
        wl::parseFloatFlag(argc, argv.data(), "--hours=", 24.0, 1e6),
        24.0);
    EXPECT_EQ(wl::parseStringFlag(argc, argv.data(), "--mix=", "def"),
              "def");
}

TEST(ParseTypedFlags, RejectsOutOfRangeAndMalformed)
{
    const struct
    {
        const char *arg;
        const char *flag;
        int kind; // 0 uint, 1 float, 2 string
    } bad[] = {
        {"--n=", "--n=", 0},      {"--n=zero", "--n=", 0},
        {"--n=0", "--n=", 0},     {"--n=101", "--n=", 0},
        {"--h=", "--h=", 1},      {"--h=-1", "--h=", 1},
        {"--h=0", "--h=", 1},     {"--h=2e9", "--h=", 1},
        {"--h=abc", "--h=", 1},   {"--s=", "--s=", 2},
    };
    for (const auto &b : bad) {
        std::vector<std::string> storage = {"prog", b.arg};
        std::vector<char *> argv = {storage[0].data(),
                                    storage[1].data()};
        int argc = 2;
        switch (b.kind) {
        case 0:
            EXPECT_THROW(wl::parseUintFlag(argc, argv.data(), b.flag, 5,
                                           1, 100),
                         sim::FatalError)
                << b.arg;
            break;
        case 1:
            EXPECT_THROW(wl::parseFloatFlag(argc, argv.data(), b.flag,
                                            1.0, 1e6),
                         sim::FatalError)
                << b.arg;
            break;
        default:
            EXPECT_THROW(wl::parseStringFlag(argc, argv.data(), b.flag,
                                             "d"),
                         sim::FatalError)
                << b.arg;
        }
    }
}

TEST(SweepRunner, DefaultJobsUsesHardwareConcurrency)
{
    wl::SweepRunner def;
    EXPECT_GE(def.jobs(), 1u);
    wl::SweepRunner one(1);
    EXPECT_EQ(one.jobs(), 1u);
}

} // namespace
