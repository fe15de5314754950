/**
 * @file
 * Lightweight statistics: counters and sample accumulators.
 *
 * Components expose Counter and Accumulator members; benches and tests
 * read them directly, and the observability layer (obs::MetricsRegistry)
 * registers them under hierarchical names. Accumulator tracks
 * count/sum/min/max and mean. A distribution (percentiles) is a
 * sim::QuantileSketch (sim/sketch.h).
 */

#ifndef K2_SIM_STATS_H
#define K2_SIM_STATS_H

#include <algorithm>
#include <cstdint>
#include <limits>

namespace k2 {
namespace sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Accumulates scalar samples (latencies, sizes, ...).
 *
 * min()/max() of an empty accumulator are NaN (there is no sample to
 * report); renderers show them as "-". mean() of an empty accumulator
 * stays 0.0 so rate-style readers need no special case.
 */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    double
    min() const
    {
        return count_ ? min_
                      : std::numeric_limits<double>::quiet_NaN();
    }

    double
    max() const
    {
        return count_ ? max_
                      : std::numeric_limits<double>::quiet_NaN();
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace sim
} // namespace k2

#endif // K2_SIM_STATS_H
