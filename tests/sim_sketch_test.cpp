/**
 * @file
 * QuantileSketch unit + property tests. The load-bearing property is
 * that merge() is *exactly* associative and commutative -- the fleet
 * workload's byte-identical-at-any-jobs guarantee rests on it -- so
 * the merge tests assert operator== (field-exact), not tolerance.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sketch.h"

using k2::sim::QuantileSketch;

namespace {

// Deterministic value stream with a heavy tail, exercising many
// buckets and non-integer fixed-point rounding.
std::vector<double>
makeStream(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = u(gen);
        out.push_back(std::exp(14.0 * x) * (0.5 + u(gen)));
    }
    return out;
}

QuantileSketch
sketchOf(const std::vector<double> &vals)
{
    QuantileSketch s;
    for (double v : vals)
        s.sample(v);
    return s;
}

} // namespace

TEST(QuantileSketch, EmptyState)
{
    QuantileSketch s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    EXPECT_TRUE(std::isnan(s.percentile(0.5)));
}

TEST(QuantileSketch, BasicMoments)
{
    QuantileSketch s;
    s.sample(1.0);
    s.sample(2.0);
    s.sample(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(QuantileSketch, BucketBoundaries)
{
    // Bucket 0 absorbs [0, 2) including zero and sub-unit samples;
    // bucket i holds [2^i, 2^(i+1)).
    EXPECT_EQ(QuantileSketch::bucketIndex(0.0), 0u);
    EXPECT_EQ(QuantileSketch::bucketIndex(0.5), 0u);
    EXPECT_EQ(QuantileSketch::bucketIndex(1.0), 0u);
    EXPECT_EQ(QuantileSketch::bucketIndex(1.999), 0u);
    EXPECT_EQ(QuantileSketch::bucketIndex(2.0), 1u);
    EXPECT_EQ(QuantileSketch::bucketIndex(3.999), 1u);
    EXPECT_EQ(QuantileSketch::bucketIndex(4.0), 2u);
    EXPECT_EQ(QuantileSketch::bucketIndex(1024.0), 10u);
    EXPECT_EQ(QuantileSketch::bucketIndex(2047.0), 10u);
    EXPECT_EQ(QuantileSketch::bucketIndex(2048.0), 11u);
}

TEST(QuantileSketch, HugeValuesDoNotOverflowTheCast)
{
    // Values at or above 2^63 would be UB to cast to uint64_t; they
    // must land in the last bucket instead.
    constexpr std::size_t kLast = QuantileSketch::kBuckets - 1;
    EXPECT_EQ(QuantileSketch::bucketIndex(9.3e18), kLast);
    EXPECT_EQ(QuantileSketch::bucketIndex(1e300), kLast);
    EXPECT_EQ(QuantileSketch::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              kLast);
    QuantileSketch s;
    s.sample(1e300);
    EXPECT_EQ(s.bucket(kLast), 1u);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 1e300);
}

TEST(QuantileSketch, ZeroAndSubUnitSamples)
{
    QuantileSketch s;
    s.sample(0.0);
    s.sample(0.5);
    EXPECT_EQ(s.bucket(0), 2u);
    // Nearest-rank: the median of two samples is the lower one (rank
    // ceil(0.5 * 2) = 1), which is tracked exactly as the min.
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 0.5);
}

TEST(QuantileSketch, NearestRankTwoSampleMedian)
{
    // Regression: the median of {1, 2^20} is 1, not 2^20. The old
    // truncated-target / strictly-greater cumulative scan skipped 1's
    // bucket entirely and reported the top sample as the median.
    QuantileSketch s;
    s.sample(1.0);
    s.sample(static_cast<double>(1u << 20));
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.0);
    // p=1 is the max-rank order statistic.
    EXPECT_DOUBLE_EQ(s.percentile(1.0), static_cast<double>(1u << 20));
}

TEST(QuantileSketch, NearestRankEdgeCases)
{
    QuantileSketch s;
    s.sample(3.0);
    s.sample(5.0);
    s.sample(100.0);
    // p=0 (and any p whose rank rounds to 1) is the exact minimum.
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.2), 3.0);
    // rank ceil(0.5*3) = 2 -> 5.0's bucket [4,8); reported as the
    // bucket's upper edge clamped into the observed range.
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 8.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 100.0);
    // Out-of-range p clamps instead of misbehaving.
    EXPECT_DOUBLE_EQ(s.percentile(-0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(7.0), 100.0);
}

TEST(QuantileSketch, NearestRankSingleBucket)
{
    // All mass in one bucket: every percentile collapses into the
    // observed [min, max] range, min for rank 1 and the clamped edge
    // otherwise.
    QuantileSketch s;
    for (int i = 0; i < 100; ++i)
        s.sample(40.0 + static_cast<double>(i % 8)); // bucket [32,64)
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 40.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 47.0);  // upper edge 64 clamped
    EXPECT_DOUBLE_EQ(s.percentile(0.999), 47.0);
}

TEST(QuantileSketch, ExactPowersOfTwo)
{
    QuantileSketch s;
    for (int i = 1; i <= 16; ++i)
        s.sample(static_cast<double>(1ull << i));
    // 2^i sits at the inclusive lower edge of bucket i.
    for (std::size_t i = 1; i <= 16; ++i)
        EXPECT_EQ(s.bucket(i), 1u) << "bucket " << i;
    // Percentiles never exceed the observed maximum.
    EXPECT_LE(s.percentile(0.99), s.max());
    EXPECT_LE(s.percentile(0.5), s.percentile(0.99));
}

TEST(QuantileSketch, PercentileMonotonic)
{
    QuantileSketch s;
    for (int i = 1; i <= 1024; ++i)
        s.sample(static_cast<double>(i));
    EXPECT_LE(s.percentile(0.5), s.percentile(0.99));
    EXPECT_GE(s.percentile(0.99), 512.0);
}

TEST(QuantileSketch, EmptyPercentileIsNaN)
{
    // Like min()/max(): an empty sketch has no sample to report, and a
    // 0 would read as a measured latency.
    QuantileSketch s;
    EXPECT_TRUE(std::isnan(s.percentile(0.0)));
    EXPECT_TRUE(std::isnan(s.percentile(0.5)));
    EXPECT_TRUE(std::isnan(s.percentile(0.99)));
}

TEST(QuantileSketch, MergeEqualsStreaming)
{
    // Splitting one stream into shards and merging the shard sketches
    // reproduces the single-stream sketch exactly.
    const auto vals = makeStream(7, 4096);
    const QuantileSketch whole = sketchOf(vals);
    for (std::size_t shards : {2u, 3u, 13u}) {
        std::vector<QuantileSketch> parts(shards);
        for (std::size_t i = 0; i < vals.size(); ++i)
            parts[i % shards].sample(vals[i]);
        QuantileSketch folded;
        for (const auto &p : parts)
            folded.merge(p);
        EXPECT_TRUE(folded == whole) << shards << " shards";
    }
}

TEST(QuantileSketch, MergeAssociativeAndCommutative)
{
    // Property test: any parenthesisation and any order of the same
    // shard set produces a field-exact identical sketch.
    const auto a = sketchOf(makeStream(1, 1000));
    const auto b = sketchOf(makeStream(2, 37));
    const auto c = sketchOf(makeStream(3, 2048));

    QuantileSketch ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);

    QuantileSketch bc = b;
    bc.merge(c);
    QuantileSketch a_bc = a;
    a_bc.merge(bc);

    QuantileSketch cba = c;
    cba.merge(b);
    cba.merge(a);

    EXPECT_TRUE(ab_c == a_bc);
    EXPECT_TRUE(ab_c == cba);

    // Randomised orders over more shards.
    std::vector<QuantileSketch> shards;
    for (std::uint64_t s = 0; s < 8; ++s)
        shards.push_back(sketchOf(makeStream(100 + s, 64 * (s + 1))));
    QuantileSketch fwd;
    for (const auto &s : shards)
        fwd.merge(s);
    std::mt19937_64 gen(99);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::size_t> order(shards.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), gen);
        QuantileSketch perm;
        for (std::size_t i : order)
            perm.merge(shards[i]);
        EXPECT_TRUE(perm == fwd) << "trial " << trial;
    }
}

TEST(QuantileSketch, MergeWithEmptyIsIdentity)
{
    const auto s = sketchOf(makeStream(5, 100));
    QuantileSketch left = s;
    left.merge(QuantileSketch{});
    EXPECT_TRUE(left == s);
    QuantileSketch right;
    right.merge(s);
    EXPECT_TRUE(right == s);
}

TEST(QuantileSketch, HugeAndDegenerateSamplesStayFinite)
{
    QuantileSketch s;
    s.sample(1e300); // saturates the fixed-point sum, lands top bucket
    s.sample(0.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 1e300);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 1e300);
    // Saturated sums still merge exactly.
    QuantileSketch t = s;
    t.merge(s);
    QuantileSketch u;
    u.merge(s);
    u.merge(s);
    EXPECT_TRUE(t == u);
}

TEST(QuantileSketch, ResetClears)
{
    auto s = sketchOf(makeStream(11, 50));
    s.reset();
    EXPECT_TRUE(s == QuantileSketch{});
    EXPECT_EQ(s.count(), 0u);
}

TEST(QuantileSketch, MicrosecondSumsAreExactToThePicosecond)
{
    // A microsecond sample made from integer picoseconds sums exactly:
    // ten 2.6 us phases are 26 us, not 26.0000038 (a binary fixed
    // point cannot hold 2.6 exactly).
    QuantileSketch s;
    for (int i = 0; i < 10; ++i)
        s.sample(2.6);
    EXPECT_EQ(s.sum(), 26.0);
    EXPECT_EQ(s.mean(), 2.6);
    QuantileSketch t;
    for (int i = 0; i < 10; ++i)
        t.sample(7.83);
    EXPECT_EQ(t.sum(), 78.3);
}

TEST(QuantileSketch, SampleBatchMatchesSequentialSampleExactly)
{
    // sampleBatch is the fleet hot path; its contract is field-exact
    // equality with per-element sample() in order -- including the
    // degenerate values that take its spill/saturation slow paths.
    auto vals = makeStream(21, 5000); // crosses the internal span
    // Values chosen against the batch fast path's internals: NaN and
    // out-of-int64-range inputs (cvt sentinel), values whose scaled
    // magnitude exceeds the overflow-proof partial-sum cap 2^52 but
    // still fits int64 (exact spill), the saturation threshold, zero,
    // signed zero, and subnormals.
    vals[7] = std::numeric_limits<double>::quiet_NaN();
    vals[11] = 1e300;
    vals[13] = -1e300;
    vals[17] = std::numeric_limits<double>::infinity();
    vals[19] = -std::numeric_limits<double>::infinity();
    vals[23] = 8.79e12;  // scaled ~9.2e18: between 2^52 and int64 max
    vals[29] = 9e12;     // scaled past the saturation threshold
    vals[31] = -9e12;
    vals[37] = 5e9;      // scaled ~5.2e15: just past the 2^52 cap
    vals[41] = 0.0;
    vals[43] = -0.0;
    vals[47] = 5e-324;

    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{53}, std::size_t{2048},
                          std::size_t{2049}, std::size_t{5000}}) {
        QuantileSketch seq, batch;
        for (std::size_t i = 0; i < n; ++i)
            seq.sample(vals[i]);
        batch.sampleBatch(vals.data(), n);
        EXPECT_TRUE(batch == seq) << "n=" << n;
    }

    // Batches append: splitting one stream into consecutive
    // sampleBatch calls of awkward lengths equals one call.
    QuantileSketch whole, split;
    whole.sampleBatch(vals.data(), vals.size());
    std::size_t at = 0;
    for (std::size_t len : {std::size_t{1}, std::size_t{7},
                            std::size_t{2048}, std::size_t{2944}}) {
        split.sampleBatch(vals.data() + at, len);
        at += len;
    }
    ASSERT_EQ(at, vals.size());
    EXPECT_TRUE(split == whole);
}

TEST(QuantileSketch, BucketIndexMatchesReferenceOnBoundaries)
{
    // The exponent-bits bucketIndex must agree with the definitional
    // reference (truncate, then bit width) everywhere -- most
    // delicately at every power-of-two boundary and around the top
    // bucket's 2^63 clamp.
    const auto reference = [](double v) -> std::size_t {
        if (!(v >= 2.0))
            return 0;
        if (v >= 9.223372036854775808e18) // 2^63
            return QuantileSketch::kBuckets - 1;
        const auto t = static_cast<std::uint64_t>(v);
        return std::min<std::size_t>(std::bit_width(t) - 1,
                                     QuantileSketch::kBuckets - 1);
    };
    const auto check = [&](double v) {
        EXPECT_EQ(QuantileSketch::bucketIndex(v), reference(v)) << v;
    };
    for (int e = 1; e < 64; ++e) {
        const double p = std::ldexp(1.0, e);
        check(std::nextafter(p, 0.0));
        check(p);
        check(std::nextafter(p, 1e300));
    }
    for (double v : {0.0, -0.0, 1.0, 1.5, 1.9999999, -5.0, 1e-300,
                     5e-324, 1e300, 3.7, 1024.001,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
        check(v);
}
