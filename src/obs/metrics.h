/**
 * @file
 * The metrics registry: one queryable namespace over every counter,
 * gauge, and distribution in the system.
 *
 * The paper's evaluation is a set of energy/latency breakdowns sampled
 * off power rails and instrumented code paths; our reproduction keeps
 * the equivalent numbers in sim::Counter and sim::QuantileSketch
 * members scattered across subsystems (a sketch, the one distribution
 * type, registers as a "histogram" metric: count/sum/mean/min/max plus
 * p50/p99). A
 * MetricsRegistry gives them one hierarchical namespace
 * ("os.dsm.shadow.faults") that can be snapshotted at any simulated
 * instant, diffed across an episode, and serialised as deterministic
 * JSON.
 *
 * Registration stores a pointer to the live stat (or a gauge callback
 * for derived values such as rail energies); the registered objects
 * must outlive the registry's use. Names are unique; registering a
 * duplicate is a fatal configuration error. Snapshots are plain data
 * and remain valid after the system is gone.
 */

#ifndef K2_OBS_METRICS_H
#define K2_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>

#include "sim/sketch.h"
#include "sim/stats.h"

namespace k2 {
namespace obs {

/** Append a JSON number ("%.9g"), rendering non-finite values as null.
 *  Shared by every obs JSON serialiser so their numbers agree. */
void jsonNumber(std::ostream &os, double v);

/** One metric's sampled value inside a snapshot. */
struct MetricValue
{
    enum class Kind : std::uint8_t
    {
        Counter,   //!< Monotonic count.
        Gauge,     //!< Point-in-time scalar.
        Histogram, //!< A QuantileSketch: count/sum/min/max, p50/p99.
    };

    Kind kind = Kind::Counter;
    std::uint64_t count = 0; //!< Counter value or sample count.
    double value = 0.0;      //!< Gauge value.
    double sum = 0.0;
    double min = 0.0; //!< NaN when unavailable (no samples / a diff).
    double max = 0.0; //!< NaN when unavailable.
    double p50 = 0.0; //!< Histogram only; NaN when unavailable.
    double p99 = 0.0; //!< Histogram only; NaN when unavailable.

    double mean() const { return count ? sum / count : 0.0; }
};

/**
 * An immutable capture of every registered metric at one instant.
 * Ordered by name, so iteration and serialisation are deterministic.
 */
class MetricsSnapshot
{
  public:
    using Map = std::map<std::string, MetricValue>;

    const Map &values() const { return values_; }
    std::size_t size() const { return values_.size(); }

    /** The value for @p name, or nullptr if not present. */
    const MetricValue *find(const std::string &name) const;

    /** True if any metric name starts with @p prefix. */
    bool hasPrefix(const std::string &prefix) const;

    /**
     * Serialise as a JSON object keyed by metric name. NaN fields
     * (e.g. min/max of an empty histogram) render as null, keeping
     * the output standard JSON. Deterministic: same snapshot bits,
     * same bytes.
     */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

  private:
    friend class MetricsRegistry;
    Map values_;
};

class MetricsRegistry
{
  public:
    using Gauge = std::function<double()>;

    /** @name Registration (cold path, at system assembly). @{ */
    void addCounter(const std::string &name, const sim::Counter &c);
    void addHistogram(const std::string &name,
                      const sim::QuantileSketch &h);
    void addGauge(const std::string &name, Gauge fn);
    /** @} */

    std::size_t size() const { return entries_.size(); }

    /** Capture every registered metric at this instant. */
    MetricsSnapshot snapshot() const;

    /**
     * Per-episode delta: @p after minus @p before, per metric.
     * Counters, sums, and gauges subtract; min/max/percentiles of an
     * interval are not derivable from two endpoint snapshots and come
     * back NaN (rendered "-"/null). Metrics present only in @p after
     * (registered mid-episode) are passed through unchanged.
     */
    static MetricsSnapshot diff(const MetricsSnapshot &before,
                                const MetricsSnapshot &after);

  private:
    struct Entry
    {
        MetricValue::Kind kind;
        const sim::Counter *counter = nullptr;
        const sim::QuantileSketch *hist = nullptr;
        Gauge gauge;
    };

    void insert(const std::string &name, Entry e);

    std::map<std::string, Entry> entries_;
};

} // namespace obs
} // namespace k2

#endif // K2_OBS_METRICS_H
