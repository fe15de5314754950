/**
 * @file
 * k2perf: run one benchmark workload and print its metrics.
 *
 *   k2perf --workload NAME --seed N --seconds S --trace 0|1
 *          [--trace-out FILE]
 *
 * Human-readable lines (percentile evidence, the digest of modelled
 * results) come first; the last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
 * with the end-to-end metrics, or with --trace 1 the per-layer ones.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: k2perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return !s.empty() && s[0] != '-' && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    k2perf::RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            cfg.workload = v;
        } else if (flag == "--seed" && parseU64(v, n)) {
            cfg.seed = n;
        } else if (flag == "--seconds" && parseU64(v, n) && n <= 3600) {
            cfg.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && (v == "0" || v == "1")) {
            cfg.trace = v == "1";
        } else if (flag == "--trace-out") {
            cfg.traceFile = v;
        } else {
            return usage();
        }
    }
    if (cfg.workload.empty())
        return usage();

    k2perf::RunResult r;
    try {
        r = k2perf::runWorkload(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "k2perf: %s\n", e.what());
        return 1;
    }

    for (const std::string &note : r.notes)
        std::printf("%s\n", note.c_str());
    std::printf("rounds: %llu\n", static_cast<unsigned long long>(r.rounds));
    std::printf("digest %s seed=%llu: %s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), r.digest.c_str());

    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const k2perf::Metric &m = r.metrics[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "k2perf: %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
