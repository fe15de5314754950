#include "sim/sketch.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace k2 {
namespace sim {

namespace {

/**
 * Rounds an already-scaled sample to the nearest integer in the
 * hardware rounding mode (to nearest, ties to even -- the IEEE-754
 * default no code in this repo changes). The caller guarantees
 * @p scaled is finite and strictly inside int64 range.
 *
 * One instruction (cvtsd2si) on x86-64; std::llround is a libm call
 * on the baseline target and dominated the per-sample cost on the
 * fleet hot path before this.
 */
inline std::int64_t
toNearestInt(double scaled)
{
#if defined(__x86_64__)
    return _mm_cvtsd_si64(_mm_set_sd(scaled));
#else
    return static_cast<std::int64_t>(std::nearbyint(scaled));
#endif
}

/**
 * One deterministic rounding per sample; the integer sum is then
 * independent of accumulation and merge order. Out-of-range and NaN
 * contributions saturate (respectively vanish) per sample, keeping
 * the sum merge-order-independent even for degenerate streams.
 * sample() and sampleBatch() share this helper (sampleBatch's fast
 * path reproduces it exactly, see there), which is what makes them
 * bit-identical to each other.
 */
inline std::int64_t
roundScaled(double v)
{
    constexpr double kLimit = 9.2e18; // just inside int64 range
    constexpr std::int64_t kSat = 9200000000000000000ll;
    const double scaled = v * QuantileSketch::kSumScale;
    if (scaled != scaled) // NaN
        return 0;
    if (scaled >= kLimit)
        return kSat;
    if (scaled <= -kLimit)
        return -kSat;
    return toNearestInt(scaled);
}

} // namespace

void
QuantileSketch::sample(double v)
{
    ++count_;
    sumFp_ += roundScaled(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[bucketIndex(v)];
}

void
QuantileSketch::sampleBatch(const double *v, std::size_t n)
{
    // Same per-element arithmetic as sample(), with every accumulator
    // split into one independent instance per unrolled element:
    // loop-carried latency, not throughput, bounds this loop. A lone
    // minsd/maxsd chain costs 4 cycles per element, a lone 128-bit
    // add-with-carry chain 2, and consecutive increments of the SAME
    // log2 bucket -- the common case, real episode costs cluster in a
    // handful of buckets -- stall on store-to-load forwarding. Two
    // chains each, plus batch-local bucket deltas folded in at the
    // end, run them all in parallel.
    //
    // The sum fast path converts unconditionally (cvtsd2si) and
    // filters the result with ONE integer magnitude check instead of
    // roundScaled's three FP-domain guards, which cost more than the
    // conversion itself: NaN and out-of-int64-range inputs convert to
    // INT64_MIN, whose magnitude fails the |r| <= kFastMax filter
    // along with every other value too large for an overflow-proof
    // int64 partial (kFastMax * kSpan < 2^63). Filtered elements take
    // the guarded roundScaled into the 128-bit spill -- so every
    // element contributes exactly roundScaled(v[i]), merely via a
    // different adder.
    //
    // All of it is exactly equal to the sequential fold: integer adds
    // are associative, and min/max are associative and commutative
    // for any stream without both signed zeros (NaNs lose every
    // std::min/max comparison and vanish in either grouping, exactly
    // as in sample()).
    constexpr std::uint64_t kFastMax = (1ull << 52) - 1;
    constexpr std::size_t kSpan = 2048;
    __int128 spill = 0;
    double mn0 = min_;
    double mx0 = max_;
    double mn1 = min_;
    double mx1 = max_;
    std::uint64_t delta0[kBuckets] = {};
    std::uint64_t delta1[kBuckets] = {};
    std::size_t done = 0;
    while (done < n) {
        const std::size_t lim = std::min(n - done, kSpan);
        const double *p = v + done;
        std::int64_t sum0 = 0;
        std::int64_t sum1 = 0;
        std::size_t i = 0;
        for (; i + 2 <= lim; i += 2) {
            const double a = p[i];
            const double b = p[i + 1];
#if defined(__x86_64__)
            // Unconditional convert; NaN and out-of-int64-range
            // inputs yield the INT64_MIN sentinel, which the filter
            // below rejects along with every other oversized value.
            std::int64_t ra =
                toNearestInt(a * QuantileSketch::kSumScale);
            std::int64_t rb =
                toNearestInt(b * QuantileSketch::kSumScale);
#else
            // Portable targets cannot rely on the sentinel (the
            // out-of-range cast is undefined there); guard first.
            std::int64_t ra = roundScaled(a);
            std::int64_t rb = roundScaled(b);
#endif
            // Unsigned shift-by-kFastMax: in-range iff the biased
            // value lands in [0, 2*kFastMax] (wraparound parks every
            // out-of-range r, INT64_MIN included, far above it).
            if (__builtin_expect(static_cast<std::uint64_t>(ra) +
                                         kFastMax >
                                     2 * kFastMax,
                                 0)) {
                spill += roundScaled(a);
                ra = 0;
            }
            if (__builtin_expect(static_cast<std::uint64_t>(rb) +
                                         kFastMax >
                                     2 * kFastMax,
                                 0)) {
                spill += roundScaled(b);
                rb = 0;
            }
            sum0 += ra;
            sum1 += rb;
            mn0 = std::min(mn0, a);
            mx0 = std::max(mx0, a);
            mn1 = std::min(mn1, b);
            mx1 = std::max(mx1, b);
            ++delta0[bucketIndex(a)];
            ++delta1[bucketIndex(b)];
        }
        if (i < lim) {
            const double x = p[i];
            spill += roundScaled(x);
            mn0 = std::min(mn0, x);
            mx0 = std::max(mx0, x);
            ++delta0[bucketIndex(x)];
            ++i;
        }
        spill += static_cast<__int128>(sum0) + sum1;
        done += i;
    }
    count_ += n;
    sumFp_ += spill;
    min_ = std::min(mn0, mn1);
    max_ = std::max(mx0, mx1);
    for (std::size_t b = 0; b < kBuckets; ++b)
        buckets_[b] += delta0[b] + delta1[b];
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    count_ += other.count_;
    sumFp_ += other.sumFp_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
}

double
QuantileSketch::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
QuantileSketch::max() const
{
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double
QuantileSketch::percentile(double p) const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    p = std::clamp(p, 0.0, 1.0);
    // Nearest rank: the rank-th smallest sample, rank in [1, count].
    // ceil(), not truncation, so that e.g. p50 of two samples is rank
    // 1, the lower sample.
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(count_))));
    // The rank-1 order statistic is the minimum, which is tracked
    // exactly; don't degrade it to a bucket boundary.
    if (rank <= 1)
        return min_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            // Upper boundary of bucket i is 2^(i+1); the last bucket
            // is unbounded. Clamp into the observed range either way.
            if (i + 1 >= kBuckets)
                return max_;
            const double upper = static_cast<double>(1ull << (i + 1));
            return std::clamp(upper, min_, max_);
        }
    }
    return max_;
}

} // namespace sim
} // namespace k2
