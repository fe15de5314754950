/**
 * @file
 * The `testbed` binary: run a mixed episode scenario on the K2 or
 * baseline system and export observability artifacts.
 *
 *   testbed [--system=k2|linux] [--episodes=N] [--runs=N] [--seed=N]
 *           [--jobs=N] [--sweep=warm|cold] [--faults=SPEC]
 *           [--dsm=PROTO] [--replicas=N] [--metrics=FILE]
 *           [--trace=FILE]
 *
 * --faults arms the K2 fault-injection plane with a declarative
 * schedule (e.g. --faults="mailbox.drop:p=1e-3,dma.err:at=2s"); the
 * recovery protocols and their os.recovery.* metrics come with it.
 *
 * --dsm selects the DSM coherence protocol (2state, 3state, mesi,
 * moesi, rac; see DESIGN.md §14). The default 2state is byte-identical
 * to builds before the protocol zoo.
 *
 * --replicas=N (default 1) runs each shadowed service on N weak
 * domains with majority voting and leader election (os.replica.*
 * metrics). N=1 is byte-identical to builds before the replica layer.
 *
 * --metrics writes the final registry snapshot as JSON; --trace writes
 * a Chrome trace_event (catapult) file loadable in chrome://tracing or
 * Perfetto. Both are byte-deterministic for a given flag set. The
 * per-episode report (DSM fault breakdown, per-rail energy split,
 * service activity) prints to stdout either way.
 *
 * --runs=N repeats the whole episode chain N times, run r seeded with
 * seed+r; the runs are independent sweep cells and execute in parallel
 * under --jobs (metrics/trace artifacts always come from run 0, so
 * they stay byte-identical to a single run). By default each worker
 * boots one testbed and forks the remaining runs from a warm snapshot;
 * --sweep=cold boots per run instead. Both modes produce identical
 * bytes.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "obs/metrics.h"
#include "os/coherence/protocol.h"
#include "obs/trace_export.h"
#include "sim/random.h"
#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace {

struct Options
{
    bool k2 = true;
    int episodes = 6;
    int runs = 1;
    int replicas = 1;
    std::uint64_t seed = 42;
    k2::os::coherence::ProtocolKind dsm =
        k2::os::coherence::ProtocolKind::TwoState;
    std::string faults;
    std::string metricsFile;
    std::string traceFile;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0)
                return arg.c_str() + n;
            return nullptr;
        };
        if (const char *v = value("--system=")) {
            if (std::strcmp(v, "k2") == 0) {
                opt.k2 = true;
            } else if (std::strcmp(v, "linux") == 0) {
                opt.k2 = false;
            } else {
                std::fprintf(stderr, "unknown system '%s'\n", v);
                return false;
            }
        } else if (const char *v = value("--episodes=")) {
            opt.episodes = std::atoi(v);
            if (opt.episodes <= 0) {
                std::fprintf(stderr, "bad episode count '%s'\n", v);
                return false;
            }
        } else if (const char *v = value("--runs=")) {
            opt.runs = std::atoi(v);
            if (opt.runs <= 0) {
                std::fprintf(stderr, "bad run count '%s'\n", v);
                return false;
            }
        } else if (const char *v = value("--seed=")) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value("--faults=")) {
            opt.faults = v;
        } else if (const char *v = value("--replicas=")) {
            opt.replicas = std::atoi(v);
            if (opt.replicas < 1 || opt.replicas > 15) {
                std::fprintf(stderr, "bad replica count '%s' (1..15)\n",
                             v);
                return false;
            }
        } else if (const char *v = value("--metrics=")) {
            opt.metricsFile = v;
        } else if (const char *v = value("--trace=")) {
            opt.traceFile = v;
        } else {
            std::fprintf(
                stderr,
                "usage: testbed [--system=k2|linux] [--episodes=N] "
                "[--runs=N] [--seed=N] [--jobs=N] [--sweep=warm|cold] "
                "[--faults=SPEC] [--dsm=PROTO] [--replicas=N] "
                "[--metrics=FILE] [--trace=FILE]\n");
            return false;
        }
    }
    if (!opt.faults.empty() && !opt.k2) {
        std::fprintf(stderr,
                     "--faults requires --system=k2 (the baseline has "
                     "no fault plane)\n");
        return false;
    }
    if (opt.replicas > 1 && !opt.k2) {
        std::fprintf(stderr,
                     "--replicas requires --system=k2 (the baseline "
                     "has no shadow services)\n");
        return false;
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    os << content;
    return os.good();
}

/** Everything one run (a whole episode chain) produces. */
struct RunOutput
{
    std::string text;        //!< Episode table + per-episode report.
    std::string metricsJson; //!< Run 0 only, when --metrics is set.
    std::string traceJson;   //!< Run 0 only, when --trace is set.
    std::size_t metricsCount = 0;
    std::size_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
};

/**
 * Run the episode chain on a fresh testbed seeded with seed+run.
 * Only run 0 exports metrics/trace, so those artifacts are
 * byte-identical to a single-run invocation regardless of --runs or
 * --jobs.
 */
void
runChain(const Options &opt, k2::wl::SweepMode sweep, int run,
         RunOutput &out)
{
    using namespace k2;

    // All runs share one configuration, so under --sweep=warm each
    // worker boots a single testbed and forks every run from its
    // snapshot. The tracer enable flags below are snapshotted state,
    // so run 0's span recording does not leak into sibling runs.
    // The warm-fixture key embeds the replica degree only when it
    // differs from the default, so replicas=1 invocations keep the
    // exact pre-replication key (and hence fixture reuse behaviour).
    // Likewise the DSM protocol: the key gains a suffix only when it
    // deviates from the default, keeping pre-zoo keys (and fixture
    // reuse) for plain invocations.
    std::string key = "k2:" + opt.faults;
    if (opt.replicas > 1)
        key += ":r" + std::to_string(opt.replicas);
    if (opt.dsm != os::coherence::ProtocolKind::TwoState)
        key += ":" + std::string(os::coherence::protocolName(opt.dsm));
    wl::Testbed &tb = opt.k2
        ? wl::warmK2(sweep, key, [&opt] {
              os::K2Config cfg;
              if (!opt.faults.empty())
                  cfg.faults = fault::FaultPlan::parse(opt.faults);
              cfg.replicas = static_cast<std::size_t>(opt.replicas);
              cfg.dsmProtocol = opt.dsm;
              return cfg;
          })
        : wl::warmLinux(sweep, "linux");

    const bool exportArtifacts = run == 0;
    if (exportArtifacts && !opt.traceFile.empty()) {
        // Structured spans plus every K2_TRACE category's text
        // instants on its trace.<cat> track.
        tb.engine().tracer().enableSpans();
        tb.engine().tracer().enable(sim::kTraceAll);
    }

    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    const obs::MetricsSnapshot before = reg.snapshot();

    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(run));
    wl::Table episodes(
        {"episode", "workload", "run ms", "energy uJ", "MB/J"});
    for (int i = 0; i < opt.episodes; ++i) {
        const std::uint64_t bytes = 1024 + rng.below(65536);
        const char *kind = (i % 3 == 0)   ? "dma"
                           : (i % 3 == 1) ? "ext2"
                                          : "udp";
        const wl::EpisodeResult res = wl::runEpisode(
            tb.sys(), tb.proc(), kind,
            (i % 3 == 0)
                ? wl::dmaCopy(tb.dma(), 4096, bytes)
                : (i % 3 == 1)
                    ? wl::ext2Sync(tb.fs(), bytes, 2)
                    : wl::udpLoopback(tb.udp(), 8192, bytes));
        episodes.addRow({std::to_string(i), kind,
                         wl::fmt(sim::toSec(res.runTime) * 1e3, 3),
                         wl::fmt(res.energyUj),
                         wl::fmt(res.mbPerJoule(), 2)});
    }
    out.text = episodes.render();

    const obs::MetricsSnapshot after = reg.snapshot();
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::diff(before, after);

    const std::string report = wl::episodeReport(delta);
    if (!report.empty()) {
        out.text += "\n";
        out.text += report;
    }

    if (exportArtifacts && !opt.metricsFile.empty()) {
        out.metricsJson = after.toJson();
        out.metricsCount = after.size();
    }
    if (exportArtifacts && !opt.traceFile.empty()) {
        out.traceJson = obs::chromeTraceJson(tb.engine().tracer());
        out.traceEvents = tb.engine().tracer().spanEvents().size();
        out.traceDropped = tb.engine().tracer().spansDropped();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace k2;

    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    const wl::SweepMode sweep = wl::parseSweepFlag(argc, argv);

    Options opt;
    bool dsmSet = false;
    try {
        dsmSet = wl::parseDsmFlag(argc, argv, opt.dsm);
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!parseArgs(argc, argv, opt))
        return 2;
    if (dsmSet && !opt.k2) {
        std::fprintf(stderr,
                     "--dsm requires --system=k2 (the baseline has no "
                     "DSM)\n");
        return 2;
    }

    // Validate the fault spec up front so a typo fails fast instead of
    // surfacing from inside a sweep cell.
    if (!opt.faults.empty()) {
        try {
            (void)fault::FaultPlan::parse(opt.faults);
        } catch (const sim::FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    // Each run is an independent sweep cell on its own testbed.
    wl::SweepRunner runner(jobs);
    std::vector<RunOutput> outputs(
        static_cast<std::size_t>(opt.runs));
    for (int r = 0; r < opt.runs; ++r) {
        runner.submit([&opt, &outputs, r, sweep]() {
            runChain(opt, sweep, r,
                     outputs[static_cast<std::size_t>(r)]);
        });
    }
    runner.run();

    wl::banner(std::string("testbed: ") +
               (opt.k2 ? "K2" : "baseline Linux"));
    for (int r = 0; r < opt.runs; ++r) {
        if (opt.runs > 1)
            std::printf("%s-- run %d (seed %llu) --\n\n",
                        r == 0 ? "" : "\n", r,
                        static_cast<unsigned long long>(
                            opt.seed + static_cast<std::uint64_t>(r)));
        std::fputs(outputs[static_cast<std::size_t>(r)].text.c_str(),
                   stdout);
    }

    const RunOutput &first = outputs.front();
    if (!opt.metricsFile.empty()) {
        if (!writeFile(opt.metricsFile, first.metricsJson))
            return 1;
        std::printf("\nmetrics: %s (%zu metrics)\n",
                    opt.metricsFile.c_str(), first.metricsCount);
    }
    if (!opt.traceFile.empty()) {
        if (!writeFile(opt.traceFile, first.traceJson))
            return 1;
        std::printf("trace: %s (%zu events, %llu dropped)\n",
                    opt.traceFile.c_str(), first.traceEvents,
                    static_cast<unsigned long long>(first.traceDropped));
    }
    return 0;
}
