/**
 * @file
 * Fault-tolerance ablation: energy efficiency and recovery latency of
 * the three OS benchmarks under increasing fault pressure.
 *
 * Two sweeps over fresh K2 testbeds (each cell an independent
 * simulation, so the sweep shards across --jobs workers with
 * byte-identical output):
 *
 *  1. fault rate x workload: a probabilistic mix of mailbox faults
 *     (drop at the named rate, duplicate/bit-flip at half of it) and
 *     DMA faults (transfer error at the rate, completion-IRQ loss at
 *     half), swept over {0, 1e-3, 1e-2, 1e-1}. Reports MB/J, the
 *     degradation vs. the zero-fault cell, the recovery counters, and
 *     the ARQ ack round-trip percentiles.
 *
 *  2. shadow-domain crash: one crash mid-run per workload (plus
 *     background mail drops at the acceptance scenario's p=1e-3);
 *     reports the efficiency hit plus the replica group's crash
 *     detection and restart latencies and the re-owned DSM pages /
 *     replayed services.
 *
 *  3. replication degree x crash: N in {1, 2, 3} shadow replicas, with
 *     and without the crash. A probe pump spawns one shadowed request
 *     every 2 ms across a window bracketing the crash; each probe does
 *     real service work (an ext2 write) and records which kernel served
 *     it. Availability is the fraction of probes served on a weak
 *     domain rather than degraded to the strong one; the table adds the
 *     election latency, quorum losses, and the energy drawn during the
 *     probe window. Expected shape: at N=3 a single crash never costs
 *     quorum, so availability stays 100% through election + handoff and
 *     the window energy stays low (no probe burns strong-domain power);
 *     N=1 and N=2 degrade for the restart window.
 *
 * Every cell runs the same mixed episode pattern: one warmup plus four
 * measured episodes, the second of which runs as a Normal thread on
 * the main domain. The main-domain episode matters twice over: it
 * exercises the ARQ path under load (its first touches pull
 * shadow-owned service pages through DSM mailbox traffic), and after a
 * crash it is the traffic that *detects* the failure -- a fail-silent
 * crash with no cross-domain communication is invisible by
 * construction (DESIGN.md §9).
 *
 * The rate-0 cells run with the fault plane fully disarmed, so the
 * degradation column isolates the cost of the faults *and* of arming
 * the recovery protocols.
 */

#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "soc/power.h"
#include "obs/metrics.h"
#include "workloads/benchmarks.h"
#include "workloads/episode.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace {

using namespace k2;

constexpr int kMeasuredEpisodes = 4;
/** Which measured episode runs on the main domain (see file header). */
constexpr int kMainEpisode = 1;

const double kRates[] = {0.0, 1e-3, 1e-2, 1e-1};
const char *kRateLabels[] = {"0", "1e-3", "1e-2", "1e-1"};

enum WorkloadKind { kDma, kExt2, kUdp };
const WorkloadKind kWorkloads[] = {kDma, kExt2, kUdp};
const char *kWorkloadNames[] = {"dma", "ext2", "udp"};

struct Cell
{
    double mbj = 0;
    std::uint64_t bytes = 0;
    std::uint64_t injected = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dupsDropped = 0;
    std::uint64_t dsmRetries = 0;
    double ackP50 = std::nan("");
    double ackP99 = std::nan("");
    // Crash sweep only.
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t pagesReclaimed = 0;
    std::uint64_t servicesReplayed = 0;
    std::uint64_t degradedSpawns = 0;
    double detectMs = std::nan("");
    double downMs = std::nan("");
};

wl::Workload
makeWorkload(wl::Testbed &tb, WorkloadKind wk)
{
    switch (wk) {
    case kDma:
        return wl::dmaCopy(tb.dma(), 65536, 1 << 20);
    case kExt2:
        return wl::ext2Sync(tb.fs(), 65536, 4);
    case kUdp:
        return wl::udpLoopback(tb.udp(), 262144, 512 * 1024);
    }
    K2_PANIC("bad workload kind");
}

/** Probabilistic fault mix at base rate @p r (empty plan when r == 0).
 *  Lost device IRQs are excluded on purpose: only the DMA driver has a
 *  poll-recovery path, so the mix sticks to faults every layer under
 *  test can absorb. */
fault::FaultPlan
mixAtRate(double r)
{
    fault::FaultPlan plan;
    if (r <= 0)
        return plan;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::MailDrop;
    s.p = r;
    plan.add(s);
    s.kind = fault::FaultKind::MailDuplicate;
    s.p = r / 2;
    plan.add(s);
    s.kind = fault::FaultKind::MailBitFlip;
    s.p = r / 2;
    plan.add(s);
    s.kind = fault::FaultKind::DmaTransferError;
    s.p = r;
    plan.add(s);
    s.kind = fault::FaultKind::DmaIrqLoss;
    s.p = r / 2;
    plan.add(s);
    return plan;
}

/**
 * One shadow-domain crash mid-run, plus background mail drops so the
 * recovery runs under the acceptance scenario's fault load. t=12s sits
 * in the idle tail after the first measured episode; the main-domain
 * episode that follows trips over the dead shadow and triggers the
 * replica group's heartbeat probe (detect latency therefore reads as
 * time-to-first-evidence).
 */
fault::FaultPlan
crashPlan()
{
    fault::FaultPlan plan;
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::MailDrop;
    drop.p = 1e-3;
    plan.add(drop);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::sec(12);
    plan.add(crash);
    return plan;
}

/** Replication-degree sweep: probe cadence bracketing the t=12s crash. */
constexpr std::size_t kReplicaDegrees[] = {1, 2, 3};
constexpr int kNumProbes = 200;
const sim::Duration kProbePeriod = sim::msec(2);
const sim::Time kProbeWindowStart = sim::sec(12) - sim::msec(50);

std::uint64_t
counterOf(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    return v ? v->count : 0;
}

double
histMean(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    if (!v || v->count == 0)
        return std::nan("");
    return v->mean();
}

void
runCase(wl::SweepMode sweep, const std::string &key, WorkloadKind wk,
        const std::function<fault::FaultPlan()> &plan, Cell &out)
{
    // Cells sharing a fault plan share the pooled fixture; restore
    // rewinds the injector's RNG streams and one-shot trigger state,
    // so each cell sees the same fault sequence a cold boot would.
    auto &tb = wl::warmK2(sweep, key, [&plan] {
        os::K2Config cfg;
        cfg.faults = plan();
        return cfg;
    });
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    const wl::Workload work = makeWorkload(tb, wk);
    double uj = 0;
    for (int ep = -1; ep < kMeasuredEpisodes; ++ep) {
        const wl::EpisodeResult r =
            ep == kMainEpisode
                ? wl::runEpisodeNormal(tb.sys(), tb.proc(), "ablation",
                                       work)
                : wl::runEpisode(tb.sys(), tb.proc(), "ablation", work);
        if (ep >= 0) { // Episode -1 warms the DSM working set.
            uj += r.energyUj;
            out.bytes += r.bytes;
        }
    }
    out.mbj = uj > 0 ? (out.bytes / 1e6) / (uj / 1e6) : 0;

    // The whole run used one fresh system, so absolute counter values
    // are per-run totals (and, for histograms, include percentiles the
    // episode diff cannot provide).
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto &[name, v] : snap.values()) {
        if (name.rfind("fault.injected.", 0) == 0)
            out.injected += v.count;
    }
    out.retransmits = counterOf(snap, "os.recovery.mail.retransmits");
    out.dupsDropped =
        counterOf(snap, "os.recovery.mail.duplicates_dropped");
    out.dsmRetries = counterOf(snap, "os.dsm.retries");
    if (const obs::MetricValue *rtt =
            snap.find("os.recovery.mail.ack_rtt_us")) {
        out.ackP50 = rtt->p50;
        out.ackP99 = rtt->p99;
    }
    out.crashes = counterOf(snap, "os.recovery.crashes_detected");
    out.restarts = counterOf(snap, "os.recovery.restarts");
    out.pagesReclaimed = counterOf(snap, "os.recovery.pages_reclaimed");
    out.servicesReplayed =
        counterOf(snap, "os.recovery.services_replayed");
    out.degradedSpawns = counterOf(snap, "os.recovery.degraded_spawns");
    const double detect_us = histMean(snap, "os.recovery.detect_us");
    const double down_us = histMean(snap, "os.recovery.down_us");
    out.detectMs = std::isnan(detect_us) ? detect_us : detect_us / 1e3;
    out.downMs = std::isnan(down_us) ? down_us : down_us / 1e3;
}

struct ReplicaCell
{
    std::uint64_t probes = 0;
    std::uint64_t degraded = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t elections = 0;
    std::uint64_t quorumLosses = 0;
    double electionUs = std::nan("");
    double downMs = std::nan("");
    double windowUj = 0;
};

void
runReplicaCase(wl::SweepMode sweep, std::size_t n, bool crash,
               ReplicaCell &out)
{
    const std::string key = "k2-replicas-" + std::to_string(n) +
                            (crash ? "-crash" : "");
    auto &tb = wl::warmK2(sweep, key, [n, crash] {
        os::K2Config cfg;
        cfg.replicas = n;
        if (crash)
            cfg.faults = crashPlan();
        return cfg;
    });
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    // Probes go into their own process: NightWatch gating suspends the
    // owning process's Normal threads against the shadow kernel, and
    // the pump must keep pumping while that kernel is dead.
    auto &sink = tb.sys().createProcess("probe-sink");
    const std::vector<std::uint8_t> blk(1024, 0x5A);
    // Strong-domain monitor: every 20ms it writes a small record
    // through the shared fs (a watcher summarizing what the light
    // tasks produced). This is the cross-domain traffic that exposes
    // a fail-silent shadow crash when there is no replica fan-out
    // (n == 1), and it runs in its own thread so a wedged fs op --
    // e.g. queued behind a dead replica holding the fs spinlock --
    // never stalls the probe arrival process below.
    tb.sys().spawnNormal(
        tb.proc(), "monitor", [&](kern::Thread &t) -> sim::Task<void> {
            if (t.kernel().engine().now() < kProbeWindowStart)
                co_await t.sleep(kProbeWindowStart -
                                 t.kernel().engine().now());
            for (int i = 0; i < kNumProbes / 10; ++i) {
                const std::string path = "/mon-" + std::to_string(i);
                const auto fd = co_await tb.fs().create(t, path);
                if (fd >= 0) {
                    co_await tb.fs().write(
                        t, static_cast<int>(fd),
                        std::span<const std::uint8_t>(blk.data(), 256));
                    co_await tb.fs().close(t, static_cast<int>(fd));
                }
                co_await t.sleep(kProbePeriod * 10);
            }
        });
    tb.sys().spawnNormal(
        tb.proc(), "pump", [&](kern::Thread &t) -> sim::Task<void> {
            if (t.kernel().engine().now() < kProbeWindowStart) {
                co_await t.sleep(kProbeWindowStart -
                                 t.kernel().engine().now());
            }
            const soc::EnergyMeter::Snapshot e0 =
                tb.sys().soc().meter().snapshot();
            for (int i = 0; i < kNumProbes; ++i) {
                tb.sys().spawnNightWatch(
                    sink, "probe",
                    [&, i](kern::Thread &p) -> sim::Task<void> {
                        ++out.probes;
                        if (p.kernel().name() == "main")
                            ++out.degraded;
                        // Real service work: the ext2 write pulls
                        // shared pages through the DSM, which is also
                        // the cross-domain traffic that exposes a
                        // fail-silent crash.
                        const std::string path =
                            "/probe-" + std::to_string(i);
                        const auto fd =
                            co_await tb.fs().create(p, path);
                        if (fd < 0)
                            co_return;
                        co_await tb.fs().write(
                            p, static_cast<int>(fd),
                            std::span<const std::uint8_t>(blk));
                        co_await tb.fs().close(p,
                                               static_cast<int>(fd));
                    });
                co_await t.sleep(kProbePeriod);
            }
            // Let straggler probes (those parked across the restart
            // window) finish inside the measured window.
            co_await t.sleep(sim::msec(50));
            out.windowUj = e0.totalUj(tb.sys().soc().meter());
        });
    tb.engine().run();

    const obs::MetricsSnapshot snap = reg.snapshot();
    out.crashes = counterOf(snap, "os.recovery.crashes_detected");
    out.restarts = counterOf(snap, "os.recovery.restarts");
    // Read from the group itself: a group of one registers no
    // os.replica keys, yet it loses quorum when its replica crashes.
    const os::ReplicaGroup &group = *tb.k2()->replicaGroup();
    out.elections = group.elections();
    out.quorumLosses = group.quorumLosses();
    out.electionUs = histMean(snap, "os.replica.election_us");
    const double down_us = histMean(snap, "os.recovery.down_us");
    out.downMs = std::isnan(down_us) ? down_us : down_us / 1e3;
}

std::string
degradation(double base_mbj, double mbj)
{
    if (base_mbj <= 0)
        return "-";
    const double delta = (mbj - base_mbj) / base_mbj * 100.0;
    return (delta >= 0 ? "+" : "") + wl::fmt(delta, 1) + "%";
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    const wl::SweepMode sweep = wl::parseSweepFlag(argc, argv);

    wl::banner("Fault-tolerance ablation: fault rate x workload");
    std::printf("%d measured episodes per cell (1 warmup discarded, "
                "episode %d on the main domain); faults: mailbox "
                "drop@rate, dup/flip@rate/2, DMA err@rate, "
                "IRQ-loss@rate/2\n\n",
                kMeasuredEpisodes, kMainEpisode);

    constexpr std::size_t kNumRates = std::size(kRates);
    constexpr std::size_t kNumWl = std::size(kWorkloads);

    wl::SweepRunner runner(jobs);
    std::vector<Cell> cells(kNumWl * kNumRates);
    std::vector<Cell> crashCells(kNumWl);
    for (std::size_t w = 0; w < kNumWl; ++w) {
        const WorkloadKind wk = kWorkloads[w];
        for (std::size_t r = 0; r < kNumRates; ++r) {
            Cell *cell = &cells[w * kNumRates + r];
            const double rate = kRates[r];
            const std::string key =
                std::string("k2-rate-") + kRateLabels[r];
            runner.submit([wk, rate, cell, key, sweep]() {
                runCase(sweep, key, wk,
                        [rate] { return mixAtRate(rate); }, *cell);
            });
        }
        Cell *cell = &crashCells[w];
        runner.submit([wk, cell, sweep]() {
            runCase(sweep, "k2-crash", wk,
                    [] { return crashPlan(); }, *cell);
        });
    }
    constexpr std::size_t kNumDegrees = std::size(kReplicaDegrees);
    std::vector<ReplicaCell> replicaCells(kNumDegrees * 2);
    for (std::size_t d = 0; d < kNumDegrees; ++d) {
        for (int crash = 0; crash < 2; ++crash) {
            ReplicaCell *cell = &replicaCells[d * 2 + crash];
            const std::size_t n = kReplicaDegrees[d];
            runner.submit([n, crash, cell, sweep]() {
                runReplicaCase(sweep, n, crash != 0, *cell);
            });
        }
    }
    runner.run();

    wl::Table table({"workload", "fault rate", "MB/J", "vs rate 0",
                     "injected", "retransmits", "dups dropped",
                     "dsm retries", "ack p50 us", "ack p99 us"});
    for (std::size_t w = 0; w < kNumWl; ++w) {
        const double base = cells[w * kNumRates].mbj;
        for (std::size_t r = 0; r < kNumRates; ++r) {
            const Cell &c = cells[w * kNumRates + r];
            table.addRow(
                {kWorkloadNames[w], kRateLabels[r], wl::fmt(c.mbj, 1),
                 r == 0 ? "-" : degradation(base, c.mbj),
                 std::to_string(c.injected),
                 std::to_string(c.retransmits),
                 std::to_string(c.dupsDropped),
                 std::to_string(c.dsmRetries), wl::fmt(c.ackP50, 1),
                 wl::fmt(c.ackP99, 1)});
        }
    }
    table.print();

    wl::banner("Shadow crash at t=12s (+ mailbox drops p=1e-3)");
    wl::Table crash({"workload", "MB/J", "vs rate 0", "crashes",
                     "restarts", "pages re-owned", "services replayed",
                     "degraded spawns", "detect ms", "down ms"});
    for (std::size_t w = 0; w < kNumWl; ++w) {
        const Cell &c = crashCells[w];
        crash.addRow({kWorkloadNames[w], wl::fmt(c.mbj, 1),
                      degradation(cells[w * kNumRates].mbj, c.mbj),
                      std::to_string(c.crashes),
                      std::to_string(c.restarts),
                      std::to_string(c.pagesReclaimed),
                      std::to_string(c.servicesReplayed),
                      std::to_string(c.degradedSpawns),
                      wl::fmt(c.detectMs, 2), wl::fmt(c.downMs, 2)});
    }
    crash.print();

    wl::banner("Replication degree x crash (200 probes @2ms around "
               "t=12s)");
    wl::Table rep({"replicas", "fault", "availability", "degraded",
                   "crashes", "elections", "election us",
                   "quorum losses", "window mJ", "crash cost mJ",
                   "down ms"});
    for (std::size_t d = 0; d < kNumDegrees; ++d) {
        for (int crash = 0; crash < 2; ++crash) {
            const ReplicaCell &c = replicaCells[d * 2 + crash];
            const ReplicaCell &base = replicaCells[d * 2];
            const double avail =
                c.probes ? 100.0 *
                               static_cast<double>(c.probes - c.degraded) /
                               static_cast<double>(c.probes)
                         : std::nan("");
            rep.addRow({std::to_string(kReplicaDegrees[d]),
                        crash ? "crash" : "none",
                        wl::fmt(avail, 1) + "%",
                        std::to_string(c.degraded) + "/" +
                            std::to_string(c.probes),
                        std::to_string(c.crashes),
                        std::to_string(c.elections),
                        wl::fmt(c.electionUs, 1),
                        std::to_string(c.quorumLosses),
                        wl::fmt(c.windowUj / 1e3, 2),
                        crash ? wl::fmt((c.windowUj - base.windowUj) /
                                            1e3,
                                        2)
                              : std::string("-"),
                        wl::fmt(c.downMs, 2)});
        }
    }
    rep.print();

    std::printf("\nexpected shape: degradation grows with the fault "
                "rate but stays small at 1e-3 (retransmits and DMA "
                "re-programs are microsecond-scale); the crash costs "
                "one restart latency plus page re-owns, and every "
                "workload still completes with correct data\n");
    return 0;
}
