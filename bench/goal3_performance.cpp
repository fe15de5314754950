/**
 * @file
 * Design goal (iii) of §4.1: "maintain the current performance level
 * of demanding tasks".
 *
 * A demanding foreground task (repeated fixed-size compute bursts, as
 * in UI rendering) runs while a light background task keeps syncing.
 * Under Linux the light task competes for the strong cores; under K2
 * it runs on the weak domain, and the NightWatch rule even defers it
 * whenever a Normal thread of its process is schedulable. We measure
 * the foreground bursts' latency distribution on both systems, with
 * and without background load.
 */

#include <cstdio>

#include "sim/sketch.h"
#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/testbed.h"

namespace {

using namespace k2;
using kern::Thread;
using sim::Task;

struct Result
{
    double meanUs;
    double maxUs;
};

/**
 * @param background If true, a same-process light task runs alongside.
 */
Result
foregroundLatency(wl::Testbed &tb, bool background)
{
    constexpr int kBursts = 40;
    constexpr std::uint64_t kBurstInstr = 3500000; // 10 ms at 350 MHz

    sim::QuantileSketch lat;
    if (background) {
        tb.sys().spawnNightWatch(
            tb.proc(), "bg-sync", [&tb](Thread &t) -> Task<void> {
                for (int i = 0; i < 10000; ++i) {
                    co_await wl::emailSync(tb.udp(), tb.fs(), 16384,
                                           i)(t);
                    co_await t.sleep(sim::msec(5));
                }
            });
    }

    // A demanding app saturates the strong domain: one burst thread
    // per strong core (UI + render threads).
    int fg_done = 0;
    const int fg_threads =
        static_cast<int>(tb.sys().mainKernel().domain().numCores());
    for (int n = 0; n < fg_threads; ++n) {
        tb.sys().spawnNormal(
            tb.proc(), "fg" + std::to_string(n),
            [&](Thread &t) -> Task<void> {
                for (int i = 0; i < kBursts; ++i) {
                    const sim::Time t0 = tb.engine().now();
                    co_await t.exec(kBurstInstr);
                    lat.sample(sim::toUsec(tb.engine().now() - t0));
                    co_await t.sleep(sim::msec(3));
                }
                ++fg_done;
            });
    }

    // Run until the foreground finishes (the background task is
    // endless by design).
    while (fg_done < fg_threads)
        tb.engine().run(tb.engine().now() + sim::msec(100));
    return Result{lat.mean(), lat.max()};
}

} // namespace

int
main()
{
    wl::banner("Design goal 3 (§4.1): demanding-task performance is "
               "preserved");

    os::K2Config k2cfg;
    k2cfg.soc.costs.inactiveTimeout = 0;
    baseline::LinuxConfig lxcfg;
    lxcfg.soc.costs.inactiveTimeout = 0;

    wl::Table table({"System", "background", "mean burst (us)",
                     "worst burst (us)"});
    double k2_clean = 0, k2_loaded = 0, lx_clean = 0, lx_loaded = 0;
    {
        auto tb = wl::Testbed::makeK2(k2cfg);
        const auto r = foregroundLatency(tb, false);
        k2_clean = r.meanUs;
        table.addRow({"K2", "none", wl::fmt(r.meanUs, 1),
                      wl::fmt(r.maxUs, 1)});
    }
    {
        auto tb = wl::Testbed::makeK2(k2cfg);
        const auto r = foregroundLatency(tb, true);
        k2_loaded = r.meanUs;
        table.addRow({"K2", "light task (weak domain)",
                      wl::fmt(r.meanUs, 1), wl::fmt(r.maxUs, 1)});
    }
    {
        auto tb = wl::Testbed::makeLinux(lxcfg);
        const auto r = foregroundLatency(tb, false);
        lx_clean = r.meanUs;
        table.addRow({"Linux", "none", wl::fmt(r.meanUs, 1),
                      wl::fmt(r.maxUs, 1)});
    }
    {
        auto tb = wl::Testbed::makeLinux(lxcfg);
        const auto r = foregroundLatency(tb, true);
        lx_loaded = r.meanUs;
        table.addRow({"Linux", "light task (strong domain)",
                      wl::fmt(r.meanUs, 1), wl::fmt(r.maxUs, 1)});
    }
    table.print();

    std::printf("\nforeground slowdown under background load: "
                "K2 %+.1f%%, Linux %+.1f%%\n",
                (k2_loaded / k2_clean - 1.0) * 100.0,
                (lx_loaded / lx_clean - 1.0) * 100.0);
    std::printf("K2 keeps the strong domain's peak performance for "
                "demanding tasks (the light task is both offloaded to "
                "the weak domain and NightWatch-deferred while the "
                "foreground thread is runnable).\n");
    return 0;
}
