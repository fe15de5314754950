/**
 * @file
 * Measurement plumbing of the k2perf benchmark: host-time samples and
 * their percentiles, the per-chain drift windows, a digest of modelled
 * results, peak RSS, registry-snapshot counting, and host-time spans
 * recorded around each call into a K2 layer.
 */

#ifndef K2PERF_HARNESS_H
#define K2PERF_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace k2perf {

/** Host nanoseconds on the monotonic clock. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host nanoseconds of one pass of the reference kernel: a fixed mix of
 * heap allocation and tree walks over ~3 MB (200k std::map updates in a
 * 50k-entry window), ~50 ms on a 4-vCPU Xeon VM. It shares no code with
 * K2, so a change to K2 never moves it, but the speed phases of a shared
 * host (cache and memory contention from its neighbours, lasting from
 * seconds to minutes) slow it down along with the workloads.
 */
std::int64_t referenceNs();

/**
 * The reference kernel's nominal time. Host times are reported as if
 * each round ran at the speed where one reference pass takes this long:
 * scaled by kReferenceNs over the mean of the passes just before and
 * just after the round.
 */
constexpr double kReferenceNs = 50e6;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);


/** One reported tail percentile and the evidence behind it. */
struct Tail
{
    double percentile = 0; //!< In (0, 1): 0.99 when enough samples.
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0; //!< Samples strictly above the rank.
};

/**
 * The highest percentile no higher than @p target that leaves at least
 * @p minBeyond samples beyond it, as a nearest-rank value. With fewer
 * than @p minBeyond + 1 samples there is no such percentile and the
 * median is reported instead.
 */
Tail tailPercentile(std::vector<double> v, double target = 0.99,
                    std::size_t minBeyond = 10);

/**
 * Drift of per-op host cost along fixed-length op chains: the mean of
 * each chain's last tenth over the mean of its first tenth, pooled over
 * chains. A chain whose per-op cost does not depend on its length reads
 * ~1; a leak that grows a structure per op reads > 1.
 */
class Drift
{
  public:
    void addChain(const std::vector<double> &us);
    double ratio() const { return firstUs_ > 0 ? lastUs_ / firstUs_ : 0; }

  private:
    double firstUs_ = 0;
    double lastUs_ = 0;
};

/** FNV-1a over the bits of modelled results. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** The process's resident-set high-water mark in MB (VmHWM). */
double peakRssMb();

/**
 * Scalar registry deltas summed by name: counters and gauges by value,
 * accumulators and histograms by sum.
 */
class Counts
{
  public:
    void add(const k2::obs::MetricsSnapshot &before,
             const k2::obs::MetricsSnapshot &after);
    void add(const Counts &other);
    double at(const std::string &name) const;
    /** Sum over names starting with @p prefix and ending in @p suffix. */
    double sum(const std::string &prefix, const std::string &suffix) const;

  private:
    std::map<std::string, double> v_;
};

/** The scalar a snapshot holds for @p name (0 if absent). */
double scalar(const k2::obs::MetricsSnapshot &s, const std::string &name);

/**
 * Host-time spans at layer-call boundaries, kept in memory and written
 * at exit as a Chrome trace_event file. Span names are the per-layer
 * metric names; the layer is the name's first component. Every span of
 * one op carries the op's id. Does nothing while disabled.
 */
class SpanLog
{
  public:
    /** Root span of every timed op; its layer is the harness's own. */
    static constexpr const char *kOp = "bench.op";

    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Open a span; returns a token for close(). */
    std::size_t open(const char *name, std::uint64_t op);
    /** Close the span @p token. */
    void close(std::size_t token);

    /** Total ns of closed spans named @p name, and their count. */
    double totalNs(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;

    /** Self time (ns) per layer, inside op roots only. */
    const std::map<std::string, double> &selfNs() const { return self_; }

    /** Write the kept spans as Chrome trace_event JSON; false on I/O
     *  error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Open
    {
        const char *name;
        std::uint64_t op;
        std::int64_t start;
        std::int64_t childNs;
        bool inOp;
    };
    struct Kept
    {
        const char *name;
        std::uint64_t op;
        std::int64_t start;
        std::int64_t dur;
    };
    static constexpr std::size_t kMaxKept = 1 << 16;

    bool on_ = false;
    std::int64_t epoch_ = hostNs();
    std::vector<Open> stack_;
    std::vector<Kept> kept_;
    std::uint64_t dropped_ = 0;
    std::map<std::string, double> self_;
    std::map<std::string, std::pair<double, std::uint64_t>> byName_;
};

/** RAII span; a no-op when the log is disabled. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, std::uint64_t op)
        : log_(log.on() ? &log : nullptr),
          token_(log_ ? log_->open(name, op) : 0)
    {}
    ~Span()
    {
        if (log_)
            log_->close(token_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    std::size_t token_;
};

} // namespace k2perf

#endif // K2PERF_HARNESS_H
