/**
 * @file
 * The k2perf workloads and the run loop around them.
 *
 * Every workload is a closed loop on one host thread: each op starts
 * after the previous one returned. Ops come in rounds of a fixed
 * length, each on freshly provisioned state, and rounds repeat until
 * the run's time is up, so per-op cost and memory reflect the round
 * length and never how long the run was. All inputs derive from the
 * seed; modelled results (the sim_* metrics and the digest) come from
 * round 0 only and are therefore a pure function of the seed.
 */

#ifndef K2PERF_WORKLOADS_H
#define K2PERF_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace k2perf {

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Traced run: alternate untraced and traced rounds and report the
     *  per-layer metrics (from the traced ones) instead of the
     *  end-to-end metrics. */
    bool trace = false;
    /** Chrome trace_event output of a traced run; empty = none. */
    std::string traceFile;
    /** Ops per round; 0 selects the workload's default. */
    std::uint64_t roundOps = 0;
    /** Index of the checked op whose expected output is falsified, to
     *  test that a failing check counts as a failed op; -1 = none. */
    std::int64_t plantFailureAt = -1;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t rounds = 0;
    std::vector<Metric> metrics;
    /** Digest of round 0's modelled results (same seed, same digest). */
    std::string digest;
    /** Human-readable lines: percentile evidence, round sizes. */
    std::vector<std::string> notes;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** (name, unit) of every end-to-end and every per-layer metric. @{ */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/** @} */

/** Run @p cfg.workload; throws std::invalid_argument on unknown names. */
RunResult runWorkload(const RunConfig &cfg);

} // namespace k2perf

#endif // K2PERF_WORKLOADS_H
