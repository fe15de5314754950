/**
 * @file
 * Replicated shadow services: N-way replication, majority voting,
 * leader election and live handoff -- plus the reliable-mail backoff
 * schedule the protocols lean on.
 *
 * Covers the robustness acceptance scenarios: leader/follower crash
 * with and without quorum, crash during an in-flight retransmit
 * window, double-crash before the first recovery completes, a seeded
 * fuzz of crash times across replication degrees with ext2 + UDP data
 * verification, and byte-identical sweep cells across job counts and
 * warm/cold fixture modes at --replicas=3.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "obs/metrics.h"
#include "os/replica.h"
#include "workloads/report.h"
#include "sim/log.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace k2 {
namespace {

using kern::Thread;
using kern::ThreadKind;
using sim::Task;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

Task<void>
writeFile(wl::Testbed &tb, Thread &t, const std::string &path,
          const std::vector<std::uint8_t> &data)
{
    const auto fd = co_await tb.fs().create(t, path);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(co_await tb.fs().write(
                  t, static_cast<int>(fd),
                  std::span<const std::uint8_t>(data)),
              static_cast<std::int64_t>(data.size()));
    co_await tb.fs().close(t, static_cast<int>(fd));
}

Task<void>
verifyFile(wl::Testbed &tb, Thread &t, const std::string &path,
           const std::vector<std::uint8_t> &want)
{
    const auto fd = co_await tb.fs().open(t, path);
    EXPECT_GE(fd, 0);
    std::vector<std::uint8_t> got(want.size(), 0);
    EXPECT_EQ(co_await tb.fs().read(t, static_cast<int>(fd),
                                    std::span<std::uint8_t>(got)),
              static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(got, want);
    co_await tb.fs().close(t, static_cast<int>(fd));
}

Task<void>
udpRoundtrip(wl::Testbed &tb, Thread &t, int port,
             const std::vector<std::uint8_t> &msg)
{
    auto &udp = tb.udp();
    const auto tx = co_await udp.socket(t);
    const auto rx = co_await udp.socket(t);
    co_await udp.bind(t, static_cast<int>(rx), port);
    EXPECT_EQ(co_await udp.sendTo(t, static_cast<int>(tx), port,
                                  std::span<const std::uint8_t>(msg)),
              static_cast<std::int64_t>(msg.size()));
    std::vector<std::uint8_t> got(msg.size(), 0);
    EXPECT_EQ(co_await udp.recvFrom(t, static_cast<int>(rx), got),
              static_cast<std::int64_t>(msg.size()));
    EXPECT_EQ(got, msg);
    co_await udp.close(t, static_cast<int>(tx));
    co_await udp.close(t, static_cast<int>(rx));
}

std::uint64_t
counterOf(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    return v ? v->count : 0;
}

/**
 * Spawn a no-op shadowed request every @p period until @p until.
 * Keeps tracked fan-out mail flowing so silent replicas are suspected,
 * and exercises the degraded path under quorum loss. The NightWatch
 * threads go into their own sink process: NW gating suspends the
 * *owning* process's Normal threads against the shadow kernel, and a
 * ticker that gated itself would stall for a dead shadow's whole
 * restart window instead of driving traffic through it. @p onMain,
 * if set, counts the requests served on the main kernel.
 */
void
spawnTicker(wl::Testbed &tb, sim::Duration period, sim::Time until,
            int *onMain = nullptr)
{
    auto &sink = tb.sys().createProcess("nw-sink");
    tb.sys().spawnNormal(
        tb.proc(), "ticker", [&tb, &sink, period, until, onMain](
            Thread &t) -> Task<void> {
            while (t.kernel().engine().now() < until) {
                tb.sys().spawnNightWatch(
                    sink, "tick", [&tb, onMain](Thread &p) -> Task<void> {
                        if (onMain && &p.kernel() == &tb.k2()->mainKernel())
                            ++*onMain;
                        co_return;
                    });
                co_await t.sleep(period);
            }
        });
}

// ---------------------------------------------------------------------
// ReliableMail retransmit backoff: pin the deterministic schedule.
// ---------------------------------------------------------------------

/**
 * With the peer crashed, one tracked mail's retransmits must follow
 * the doubling schedule 300, 600, 1200, 2400, 2400 us: each gap
 * doubles from the base RTO up to the 8x cap, then holds.
 */
TEST(ReliableMailBackoff, PinsExponentialSchedule)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::msec(9);
    cfg.faults.add(crash);
    auto tb = wl::Testbed::makeK2(cfg);
    // Push the DSM's own fault-timeout resend far out so the ARQ's
    // retransmit stream is the only tracked traffic in the window.
    tb.k2()->dsm().setRetryPolicy({sim::msec(50), sim::msec(100)});

    const auto data = pattern(4096, 11);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            // Finishes well before the crash; leaves the file's pages
            // shadow-owned so the reader's first touch mails the dead
            // kernel.
            co_await writeFile(tb, t, "/backoff", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(10));
                             co_await verifyFile(tb, t, "/backoff",
                                                 data);
                         });

    // Sample retransmits() on a fine grid and record when it bumps;
    // the gaps between bumps are the backoff schedule.
    std::vector<sim::Time> bumps;
    tb.sys().spawnNormal(
        tb.proc(), "poll", [&](Thread &t) -> Task<void> {
            std::uint64_t last = tb.k2()->reliableMail()->retransmits();
            const sim::Time limit =
                t.kernel().engine().now() + sim::msec(19);
            while (bumps.size() < 5 &&
                   t.kernel().engine().now() < limit) {
                co_await t.sleep(sim::usec(20));
                const std::uint64_t now =
                    tb.k2()->reliableMail()->retransmits();
                if (now > last) {
                    bumps.push_back(t.kernel().engine().now());
                    last = now;
                }
            }
        });
    tb.engine().run();

    ASSERT_EQ(bumps.size(), 5u);
    const double gap1 = sim::toUsec(bumps[1] - bumps[0]);
    const double gap2 = sim::toUsec(bumps[2] - bumps[1]);
    const double gap3 = sim::toUsec(bumps[3] - bumps[2]);
    const double gap4 = sim::toUsec(bumps[4] - bumps[3]);
    // 20 us sampling grid plus the per-retransmit charge time.
    EXPECT_NEAR(gap1, 600.0, 50.0);
    EXPECT_NEAR(gap2, 1200.0, 50.0);
    EXPECT_NEAR(gap3, 2400.0, 50.0);
    EXPECT_NEAR(gap4, 2400.0, 50.0); // Capped at 8x the base RTO.
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

TEST(Replica, EpisodeReportListsEveryDsmKernel)
{
    // The DSM fault breakdown has one row per kernel the DSM spans.
    os::K2Config cfg;
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    const std::string report = wl::episodeReport(reg.snapshot());
    for (const char *row : {"| main ", "| shadow ", "| shadow2 ",
                            "| shadow3 "})
        EXPECT_NE(report.find(row), std::string::npos) << row;
}

// ---------------------------------------------------------------------
// Fan-out and voting under no faults.
// ---------------------------------------------------------------------

TEST(Replica, FanoutAndUnanimousVotes)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    ASSERT_NE(tb.k2()->replicaGroup(), nullptr);
    EXPECT_EQ(tb.k2()->dsm().numKernels(), 4u);
    EXPECT_EQ(tb.k2()->replicas(), 3u);
    EXPECT_EQ(tb.sys().kernels().size(), 4u);

    int served = 0;
    tb.sys().spawnNormal(
        tb.proc(), "burst", [&](Thread &t) -> Task<void> {
            for (int i = 0; i < 5; ++i) {
                tb.sys().spawnNightWatch(
                    tb.proc(), "svc", [&](Thread &) -> Task<void> {
                        ++served;
                        co_return;
                    });
                co_await t.sleep(sim::msec(1));
            }
        });
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(served, 5);
    EXPECT_EQ(g->requests(), 5u);
    EXPECT_EQ(g->votesReceived(), 15u); // 3 ballots per request.
    EXPECT_EQ(g->voteMismatches(), 0u);
    EXPECT_EQ(g->voteNoQuorum(), 0u);
    EXPECT_EQ(g->elections(), 0u);
    EXPECT_EQ(g->leaderReplica(), 0u);
    EXPECT_TRUE(g->quorumHeld());

    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(counterOf(snap, "os.replica.requests"), 5u);
    EXPECT_EQ(counterOf(snap, "os.replica.votes"), 15u);
    EXPECT_NE(snap.find("os.dsm.messages"), nullptr);
}

// ---------------------------------------------------------------------
// Leader crash: election, handoff, service stays available.
// ---------------------------------------------------------------------

TEST(Replica, LeaderCrashElectsNewLeaderWithoutDegrading)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain; // Replica 0, the initial leader.
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);

    const auto data = pattern(8192, 42);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/ha", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(25));
                             co_await verifyFile(tb, t, "/ha", data);
                         });

    // Once the leader is declared dead, a shadowed request must be
    // served on the elected successor -- not degraded to the strong
    // domain.
    std::string servedOn;
    tb.sys().spawnNormal(
        tb.proc(), "probe", [&](Thread &t) -> Task<void> {
            const sim::Time limit =
                t.kernel().engine().now() + sim::msec(200);
            while (!tb.k2()->replicaGroup()->replicaDown(0) &&
                   t.kernel().engine().now() < limit)
                co_await t.sleep(sim::usec(250));
            if (!tb.k2()->replicaGroup()->replicaDown(0))
                co_return;
            co_await t.sleep(sim::msec(1)); // Let the election settle.
            tb.sys().spawnNightWatch(
                tb.proc(), "handoff", [&](Thread &t2) -> Task<void> {
                    servedOn = t2.kernel().name();
                    co_return;
                });
        });
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
    EXPECT_EQ(tb.k2()->replicaGroup()->restarts(), 1u);
    EXPECT_EQ(g->elections(), 1u);
    EXPECT_EQ(g->term(), 1u);
    EXPECT_EQ(g->leaderReplica(), 1u);
    EXPECT_EQ(g->rejoins(), 1u);
    EXPECT_EQ(g->resyncs(), 1u);
    EXPECT_EQ(g->quorumLosses(), 0u);
    EXPECT_EQ(g->degradedSpawns(), 0u);
    EXPECT_EQ(servedOn, "shadow2"); // The elected replica's kernel.
    EXPECT_TRUE(g->quorumHeld());
    EXPECT_TRUE(g->replicaAlive(0));
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

/** The group counts the pages its recovery reclaims from a
 *  crashed replica at every replication degree. */
TEST(Replica, LeaderCrashCountsReclaimedPages)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain; // Replica 0 owns the file pages.
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    tb.engine().tracer().enableSpans(1 << 16);
    tb.engine().tracer().enable(sim::traceMask(sim::TraceCat::Nw));
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    const auto data = pattern(8192, 17);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/owned", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(25));
                             co_await verifyFile(tb, t, "/owned", data);
                         });
    tb.engine().run();
    ASSERT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);

    // Dsm::reclaimFrom's result, as the group traced it.
    const sim::Tracer &tr = tb.engine().tracer();
    EXPECT_EQ(tr.spansDropped(), 0u);
    std::size_t reclaimed = 0;
    int traced = 0;
    for (const auto &e : tr.spanEvents()) {
        if (e.detail == sim::Tracer::kNoDetail)
            continue;
        const std::string &d = tr.spanDetail(e.detail);
        if (std::sscanf(d.c_str(), "replica 0's %zu DSM pages reclaimed",
                        &reclaimed) == 1)
            ++traced;
    }
    ASSERT_EQ(traced, 1);
    EXPECT_GE(reclaimed, 1u);
    EXPECT_EQ(counterOf(reg.snapshot(), "os.recovery.pages_reclaimed"),
              reclaimed);
}

TEST(Replica, FollowerCrashNeedsNoElection)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = 2; // Replica 1's cloned weak domain.
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);

    // The fan-out traffic is what exposes the silent follower.
    spawnTicker(tb, sim::msec(2), sim::msec(60));
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
    EXPECT_EQ(g->elections(), 0u);
    EXPECT_EQ(g->leaderReplica(), 0u);
    EXPECT_EQ(g->rejoins(), 1u);
    EXPECT_EQ(g->quorumLosses(), 0u);
    EXPECT_EQ(g->degradedSpawns(), 0u);
    EXPECT_GE(g->votesAbsent(), 1u); // Rounds during the down window.
    EXPECT_TRUE(g->replicaAlive(1));
    EXPECT_TRUE(g->quorumHeld());
}

/** Suspicion of a live follower on a quiet system is a false alarm:
 *  its first heartbeat is answered, so nothing is declared, elected,
 *  reclaimed or degraded. */
TEST(Replica, SuspectedLiveFollowerIsFalseAlarm)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    tb.k2()->replicaGroup()->suspect(1);
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->falseAlarms(), 1u);
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 0u);
    EXPECT_EQ(tb.k2()->replicaGroup()->restarts(), 0u);
    EXPECT_FALSE(tb.k2()->replicaGroup()->replicaDown(1));
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(counterOf(snap, "os.recovery.suspicions"), 1u);
    EXPECT_EQ(counterOf(snap, "os.recovery.heartbeats"), 1u);
    EXPECT_EQ(counterOf(snap, "os.recovery.heartbeat_acks"), 1u);
    EXPECT_EQ(counterOf(snap, "os.recovery.pages_reclaimed"), 0u);
    EXPECT_EQ(g->elections(), 0u);
    EXPECT_EQ(g->rejoins(), 0u);
    EXPECT_EQ(g->liveReplicas(), 3u);
    EXPECT_TRUE(g->quorumHeld());
    EXPECT_EQ(g->quorumLosses(), 0u);
    EXPECT_EQ(g->degradedSpawns(), 0u);
}

TEST(Replica, TwoReplicaQuorumLossDegrades)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    cfg.replicas = 2; // Quorum = 2: one crash loses it.
    auto tb = wl::Testbed::makeK2(cfg);

    spawnTicker(tb, sim::msec(2), sim::msec(60));
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
    EXPECT_EQ(g->elections(), 1u);
    EXPECT_EQ(g->leaderReplica(), 1u);
    EXPECT_EQ(g->quorumLosses(), 1u);
    EXPECT_GE(g->degradedSpawns(), 1u); // Served on the strong domain.
    EXPECT_EQ(g->rejoins(), 1u);
    EXPECT_TRUE(g->quorumHeld()); // Restored after the restart.
}

// ---------------------------------------------------------------------
// Crash timing edge cases.
// ---------------------------------------------------------------------

/** The crash lands while a tracked mail is mid-retransmit: the ARQ
 *  window must ride through detection, election and page handoff. */
TEST(Replica, CrashDuringInFlightRetransmitWindow)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::MailDrop;
    drop.at = sim::msec(9); // One-shot: the reader's first mail.
    cfg.faults.add(drop);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::usec(10200); // Inside the first retransmit window.
    cfg.faults.add(crash);
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);

    const auto data = pattern(8192, 5);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/window", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(10));
                             co_await verifyFile(tb, t, "/window",
                                                 data);
                         });
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
    EXPECT_EQ(g->elections(), 1u);
    EXPECT_EQ(g->degradedSpawns(), 0u);
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

/** A second follower dies before the first finishes restarting: the
 *  group dips below quorum (degrading service to the strong domain),
 *  then recovers fully -- all without an election, since the leader
 *  stays up throughout. */
TEST(Replica, DoubleCrashBeforeRecoveryCompletes)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = 2; // Replica 1 (first cloned weak domain).
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    fault::FaultSpec crash2;
    crash2.kind = fault::FaultKind::DomainCrash;
    crash2.domain = 3; // Replica 2, before replica 1 is back.
    crash2.at = sim::msec(24);
    cfg.faults.add(crash2);
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    const auto data = pattern(8192, 99);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/double", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(60));
                             co_await verifyFile(tb, t, "/double",
                                                 data);
                         });
    int onMain = 0;
    spawnTicker(tb, sim::msec(1), sim::msec(80), &onMain);
    tb.engine().run();

    os::ReplicaGroup *g = tb.k2()->replicaGroup();
    EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 2u);
    EXPECT_EQ(tb.k2()->replicaGroup()->restarts(), 2u);
    EXPECT_EQ(g->elections(), 0u); // The leader never died.
    EXPECT_EQ(g->leaderReplica(), 0u);
    EXPECT_EQ(g->rejoins(), 2u);
    EXPECT_EQ(g->quorumLosses(), 1u); // Only at the second crash.
    // Each request served on the strong domain under quorum loss is
    // one degraded spawn, counted once across the registry.
    EXPECT_GE(onMain, 1);
    const obs::MetricsSnapshot snap = reg.snapshot();
    std::uint64_t degraded = 0;
    for (const auto &[name, v] : snap.values()) {
        if (name.ends_with("degraded_spawns"))
            degraded += v.count;
    }
    EXPECT_EQ(degraded, static_cast<std::uint64_t>(onMain));
    EXPECT_TRUE(g->quorumHeld());
    EXPECT_TRUE(g->replicaAlive(1));
    EXPECT_TRUE(g->replicaAlive(2));
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

// ---------------------------------------------------------------------
// Seeded fuzz: crash time x replication degree, data must verify.
// ---------------------------------------------------------------------

TEST(ReplicaFuzz, CrashAcrossReplicationDegrees)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (std::size_t replicas = 1; replicas <= 3; ++replicas) {
            std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull +
                                replicas);
            std::uniform_real_distribution<double> rate(1e-3, 2e-2);
            std::uniform_int_distribution<int> crash_ms(15, 60);

            os::K2Config cfg;
            cfg.soc.costs.inactiveTimeout = 0;
            cfg.replicas = replicas;
            cfg.faults.seed = seed;
            fault::FaultSpec s;
            s.kind = fault::FaultKind::MailDrop;
            s.p = rate(rng);
            cfg.faults.add(s);
            s.kind = fault::FaultKind::MailDuplicate;
            s.p = rate(rng);
            cfg.faults.add(s);
            fault::FaultSpec crash;
            crash.kind = fault::FaultKind::DomainCrash;
            crash.domain = soc::kWeakDomain;
            crash.at = sim::msec(crash_ms(rng));
            cfg.faults.add(crash);
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " replicas=" + std::to_string(replicas) +
                         " plan=" + cfg.faults.summary());
            auto tb = wl::Testbed::makeK2(cfg);

            const auto f0 = pattern(
                4096, static_cast<std::uint8_t>(seed * 7 + replicas));
            const auto f1 = pattern(
                8192, static_cast<std::uint8_t>(seed * 11 + replicas));
            const auto payload = pattern(
                6000, static_cast<std::uint8_t>(seed * 31));

            auto &proc2 = tb.sys().createProcess("fuzz-shadow");
            tb.k2()->shadowKernel().spawnThread(
                &proc2, "writer", ThreadKind::Normal,
                [&](Thread &t) -> Task<void> {
                    co_await writeFile(tb, t, "/r0", f0);
                    co_await writeFile(tb, t, "/r1", f1);
                    co_await udpRoundtrip(tb, t, 6100, payload);
                });
            tb.sys().spawnNormal(
                tb.proc(), "reader", [&](Thread &t) -> Task<void> {
                    co_await t.sleep(sim::msec(70));
                    co_await verifyFile(tb, t, "/r0", f0);
                    co_await verifyFile(tb, t, "/r1", f1);
                    co_await udpRoundtrip(tb, t, 6101, payload);
                });
            spawnTicker(tb, sim::msec(5), sim::msec(70));
            tb.engine().run();

            EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
            EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
            os::ReplicaGroup *g = tb.k2()->replicaGroup();
            ASSERT_NE(g, nullptr);
            if (replicas == 1) {
                // A group of one: nobody to elect, so losing the only
                // replica loses quorum until it rejoins.
                EXPECT_EQ(g->numReplicas(), 1u);
                EXPECT_EQ(g->elections(), 0u);
                EXPECT_EQ(g->quorumLosses(), 1u);
                EXPECT_EQ(g->rejoins(), 1u);
                EXPECT_TRUE(g->quorumHeld());
            } else {
                EXPECT_GE(g->elections(), 1u);
                EXPECT_TRUE(g->quorumHeld());
                if (replicas == 3) {
                    // A single crash never costs quorum at N=3: the
                    // service must not have degraded at all.
                    EXPECT_EQ(g->quorumLosses(), 0u);
                    EXPECT_EQ(g->degradedSpawns(), 0u);
                } else {
                    EXPECT_EQ(g->quorumLosses(), 1u);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sweep determinism at --replicas=3.
// ---------------------------------------------------------------------

std::vector<std::string>
replicaSweep(unsigned jobs)
{
    wl::SweepRunner runner(jobs);
    std::vector<std::string> out(4);
    for (std::size_t i = 0; i < out.size(); ++i) {
        runner.submit([i, &out]() {
            os::K2Config cfg;
            cfg.soc.costs.inactiveTimeout = 0;
            cfg.replicas = 3;
            fault::FaultSpec drop;
            drop.kind = fault::FaultKind::MailDrop;
            drop.p = 5e-3;
            cfg.faults.add(drop);
            fault::FaultSpec crash;
            crash.kind = fault::FaultKind::DomainCrash;
            crash.domain = soc::kWeakDomain;
            crash.at = sim::msec(20);
            cfg.faults.add(crash);
            cfg.faults.seed = 100 + i;
            auto tb = wl::Testbed::makeK2(cfg);
            obs::MetricsRegistry reg;
            tb.registerMetrics(reg);
            const auto data =
                pattern(8192, static_cast<std::uint8_t>(i));
            tb.sys().spawnNormal(
                tb.proc(), "t", [&](Thread &t) -> Task<void> {
                    co_await writeFile(tb, t, "/s", data);
                    co_await t.sleep(sim::msec(40));
                    co_await verifyFile(tb, t, "/s", data);
                });
            spawnTicker(tb, sim::msec(2), sim::msec(45));
            tb.engine().run();
            out[i] = reg.snapshot().toJson() + "@" +
                     std::to_string(tb.engine().now());
        });
    }
    runner.run();
    return out;
}

TEST(ReplicaSweep, ByteIdenticalAcrossJobCounts)
{
    const auto serial = replicaSweep(1);
    EXPECT_EQ(serial, replicaSweep(4));
    EXPECT_EQ(serial, replicaSweep(13));
    for (const auto &cell : serial) {
        EXPECT_NE(cell.find("os.replica.requests"), std::string::npos);
        EXPECT_NE(cell.find("os.dsm."), std::string::npos);
    }
}

/** One warm-forked cell must equal a cold-booted one byte for byte,
 *  including the replica-protocol counters. */
TEST(ReplicaSweep, WarmForkEqualsColdBoot)
{
    const auto makeCfg = []() {
        os::K2Config cfg;
        cfg.soc.costs.inactiveTimeout = 0;
        cfg.replicas = 3;
        fault::FaultSpec crash;
        crash.kind = fault::FaultKind::DomainCrash;
        crash.domain = soc::kWeakDomain;
        crash.at = sim::msec(5); // Fires during the boot quiesce.
        cfg.faults.add(crash);
        return cfg;
    };
    const auto runCell = [&](wl::SweepMode mode) {
        wl::Testbed &tb =
            wl::warmK2(mode, "os_replica_test:r3crash", makeCfg);
        obs::MetricsRegistry reg;
        tb.registerMetrics(reg);
        const auto data = pattern(8192, 17);
        tb.sys().spawnNormal(tb.proc(), "t",
                             [&](Thread &t) -> Task<void> {
                                 co_await writeFile(tb, t, "/w", data);
                                 co_await t.sleep(sim::msec(30));
                                 co_await verifyFile(tb, t, "/w", data);
                             });
        spawnTicker(tb, sim::msec(2), sim::msec(40));
        tb.engine().run();
        return reg.snapshot().toJson() + "@" +
               std::to_string(tb.engine().now());
    };

    const std::string cold = runCell(wl::SweepMode::Cold);
    const std::string warm1 = runCell(wl::SweepMode::Warm);
    const std::string warm2 = runCell(wl::SweepMode::Warm);
    EXPECT_EQ(cold, warm1);
    EXPECT_EQ(warm1, warm2);
    EXPECT_NE(cold.find("os.replica."), std::string::npos);
}

} // namespace
} // namespace k2
