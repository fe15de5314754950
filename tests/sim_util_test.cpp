/**
 * @file
 * Unit tests for PRNG, stats, and logging utilities.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/log.h"
#include "sim/random.h"
#include "sim/sketch.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace k2::sim {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRoughlyUniform)
{
    Rng rng(99);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(10);
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

// The Accumulator suite keeps its name from the count/sum/min/max type
// that QuantileSketch replaced: the sketch must keep that type's moments
// and its empty-is-NaN extrema.
TEST(Accumulator, Moments)
{
    QuantileSketch acc;
    EXPECT_EQ(acc.mean(), 0.0);
    acc.sample(1.0);
    acc.sample(2.0);
    acc.sample(3.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(Accumulator, EmptyMinMaxAreNaN)
{
    QuantileSketch acc;
    EXPECT_TRUE(std::isnan(acc.min()));
    EXPECT_TRUE(std::isnan(acc.max()));
    EXPECT_EQ(acc.mean(), 0.0);
    acc.sample(5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    acc.reset();
    EXPECT_TRUE(std::isnan(acc.min()));
    EXPECT_TRUE(std::isnan(acc.max()));
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(K2_FATAL("bad config value %d", 3), FatalError);
}

TEST(Log, FormatTimeUnits)
{
    EXPECT_EQ(formatTime(psec(5)), "5 ps");
    EXPECT_NE(formatTime(usec(123)).find("us"), std::string::npos);
    EXPECT_NE(formatTime(sec(100)).find(" s"), std::string::npos);
}

} // namespace
} // namespace k2::sim
