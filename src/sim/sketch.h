/**
 * @file
 * Mergeable streaming quantile sketch: the simulator's one
 * distribution type.
 *
 * A QuantileSketch summarises an unbounded sample stream in O(1)
 * memory: count, fixed-point sum, exact min/max, and 64 log2 buckets.
 * Every sampled value in the system is one: the DSM's Table 5 fault
 * phases, the DMA transfer time, the NightWatch ack wait, the balloon
 * timings, the recovery latencies (ack RTTs, failure detection,
 * elections, re-syncs) that components register as "histogram"
 * metrics, and the fleet's streaming reducer. Every field merges with
 * an operation that is exactly associative AND commutative on the
 * host:
 *
 *  - count and buckets are integers (modular addition is exact);
 *  - the sum is kept in 10^-6 fixed point (each sample is rounded
 *    once at sample() time, then summed in a 128-bit integer, so no
 *    floating-point rounding depends on merge order);
 *  - min/max use IEEE min/max, associative and commutative for the
 *    non-NaN samples the simulator produces.
 *
 * Consequence: reducing per-worker partial sketches yields
 * byte-identical results no matter how samples were sharded or in
 * which order the partials are merged -- the property the parallel
 * fleet harness's streaming reducer relies on (DESIGN.md §11).
 */

#ifndef K2_SIM_SKETCH_H
#define K2_SIM_SKETCH_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace k2 {
namespace sim {

/**
 * Bucket boundaries: bucket i holds samples in [2^i, 2^(i+1)), except
 * that bucket 0 additionally absorbs everything below 2 (zero,
 * sub-unit samples, negatives, NaN) and the last bucket absorbs
 * everything at or above 2^63 -- including values too large to
 * represent in a uint64_t, which must never reach the double->integer
 * cast (that conversion is undefined behaviour out of range).
 */
class QuantileSketch
{
  public:
    static constexpr std::size_t kBuckets = 64;

    /** The bucket a sample value falls into (see class comment). */
    static std::size_t
    bucketIndex(double v)
    {
        // Catches v < 2 as well as NaN (every comparison with NaN is
        // false), so the exponent read below sees a positive value.
        if (!(v >= 2.0))
            return 0;
        // For v >= 2 the unbiased IEEE-754 exponent IS floor(log2 v),
        // i.e. the log2 bucket; reading it from the bits replaces the
        // double->integer conversion + bit_width of the truncated
        // value (bit-identical on the whole domain, including the
        // >= 2^63 clamp and infinity -- a test checks every power-of-
        // two boundary) with two integer ops on the sample hot path.
        // The sign bit is 0 here (v >= 2), so no masking is needed.
        const auto bits = std::bit_cast<std::uint64_t>(v);
        return std::min<std::size_t>((bits >> 52) - 1023,
                                     kBuckets - 1);
    }

    /** Fixed-point scale for the sum: 10^6 sub-unit steps, so a
     *  microsecond sample made from integer picoseconds
     *  (sim::toUsec) is summed exactly to the picosecond. Samples
     *  are exact to 5e-7; representable magnitude ~9.2e12 per
     *  sample, far beyond any simulated energy/latency value. */
    static constexpr double kSumScale = 1e6;

    void sample(double v);

    /**
     * Sample @p n contiguous values. Element-for-element identical to
     * calling sample(v[i]) in order (a test asserts exact state
     * equality); batched so the accumulators stay in registers across
     * the fleet synthesizer's scratch arrays instead of being
     * reloaded per call.
     */
    void sampleBatch(const double *v, std::size_t n);

    /**
     * Fold @p other into this sketch. Exactly associative and
     * commutative (see file comment); merging shard sketches is
     * bit-identical to sampling the concatenated stream.
     */
    void merge(const QuantileSketch &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return static_cast<double>(sumFp_) / kSumScale; }
    double mean() const { return count_ ? sum() / count_ : 0.0; }

    /** NaN when empty (there is no sample to report). @{ */
    double min() const;
    double max() const;
    /** @} */

    /**
     * Approximate p-th percentile with nearest-rank semantics: the
     * value of the rank-ceil(p*count) smallest sample, located by
     * bucket. Rank 1 (p == 0, or any p small enough) is the exact
     * observed minimum; otherwise the result is the upper boundary
     * 2^(i+1) of the bucket holding the ranked sample, clamped into
     * [min(), max()]. NaN when empty, like min()/max(); @p p is
     * clamped into [0, 1].
     */
    double percentile(double p) const;

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

    void reset() { *this = QuantileSketch(); }

    /** Exact state equality (merge property tests). */
    bool operator==(const QuantileSketch &) const = default;

    /**
     * Capture/restore (a snap::Io), field by field: the object has
     * indeterminate padding before the 128-bit sum, so a whole-object
     * copy would make two images of equal state differ.
     */
    template <typename Io>
    void
    snapState(Io &io)
    {
        io.pod(count_);
        io.pod(sumFp_);
        io.pod(min_);
        io.pod(max_);
        io.pod(buckets_);
    }

  private:
    std::uint64_t count_ = 0;
    __int128 sumFp_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, kBuckets> buckets_{};
};

} // namespace sim
} // namespace k2

#endif // K2_SIM_SKETCH_H
