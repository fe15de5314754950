/**
 * @file
 * Event counters.
 *
 * Components expose Counter members; benches and tests read them
 * directly, and the observability layer (obs::MetricsRegistry)
 * registers them under hierarchical names. Every sampled value
 * (latencies, sizes) goes into the one distribution type,
 * sim::QuantileSketch (sim/sketch.h).
 */

#ifndef K2_SIM_STATS_H
#define K2_SIM_STATS_H

#include <cstdint>

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

} // namespace sim
} // namespace k2

#endif // K2_SIM_STATS_H
