/**
 * @file
 * Fault plane and recovery-protocol tests: plan parsing, injector
 * determinism, the zero-fault bit-identity guard, the ARQ and crash
 * detection units, crash recovery end to end, seeded fuzz runs
 * asserting data integrity under random fault plans, and sweep
 * determinism of faulted cells across job counts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "os/coherence/protocol.h"
#include "sim/log.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

namespace k2 {
namespace {

using kern::Thread;
using kern::ThreadKind;
using sim::Task;

// ---------------------------------------------------------------------
// FaultPlan parsing.
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesMixedSpec)
{
    const auto plan =
        fault::FaultPlan::parse("mailbox.drop:p=1e-3,dma.err:at=2s");
    ASSERT_EQ(plan.specs().size(), 2u);
    EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::MailDrop);
    EXPECT_DOUBLE_EQ(plan.specs()[0].p, 1e-3);
    EXPECT_EQ(plan.specs()[1].kind, fault::FaultKind::DmaTransferError);
    EXPECT_EQ(plan.specs()[1].at, sim::sec(2));
    EXPECT_FALSE(plan.empty());
    EXPECT_NE(plan.summary().find("mailbox.drop"), std::string::npos);
}

TEST(FaultPlan, ParsesTargetFiltersBurstAndSeed)
{
    const auto plan = fault::FaultPlan::parse(
        "irq.lost:line=7:dom=1:p=0.5:burst=3,seed=42");
    ASSERT_EQ(plan.specs().size(), 1u);
    const fault::FaultSpec &s = plan.specs()[0];
    EXPECT_EQ(s.kind, fault::FaultKind::IrqLost);
    EXPECT_EQ(s.line, 7u);
    EXPECT_EQ(s.domain, 1u);
    EXPECT_EQ(s.burst, 3u);
    EXPECT_EQ(plan.seed, 42u);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::FaultPlan::parse("bogus"), sim::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("p=0.1"), sim::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("mailbox.drop:p=2"),
                 sim::FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("mailbox.drop:burst=0"),
                 sim::FatalError);
    // Scheduled conditions are one-shot, not probabilistic.
    EXPECT_THROW(fault::FaultPlan::parse("domain.crash:p=0.5"),
                 sim::FatalError);
}

/** A rejected spec names the malformed field's character offset. */
TEST(FaultPlan, RejectionsCarryCharPositions)
{
    const auto rejectAt = [](const std::string &spec,
                             const char *fragment) {
        try {
            (void)fault::FaultPlan::parse(spec);
            ADD_FAILURE() << "spec '" << spec << "' parsed";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << "spec '" << spec << "' error: " << e.what();
        }
    };
    // "typo=1" starts at char 13 of "mailbox.drop:typo=1".
    rejectAt("mailbox.drop:typo=1", "at char 13");
    // Bare word at the head of the spec.
    rejectAt("bogus", "at char 0");
    // Parameter before any fault kind.
    rejectAt("p=0.5,mailbox.drop", "at char 0");
    // Malformed value: offset points at the value, not the key
    // ("zzz" starts at char 15).
    rejectAt("mailbox.drop:p=zzz", "at char 15");
    rejectAt("mailbox.drop:p=7", "at char 15");
    rejectAt("mailbox.drop:burst=nope", "at char 19");
    rejectAt("domain.crash:at=10lightyears", "at char 16");
    // Second spec's bad field: the offset disambiguates it from an
    // identical first token.
    rejectAt("mailbox.drop:p=1e-3,irq.lost:line=x", "at char 34");
}

/** The accept path is unchanged by the hardening. */
TEST(FaultPlan, AcceptsSpecsWithAllKeys)
{
    const auto plan = fault::FaultPlan::parse(
        "domain.crash:at=5ms:dom=1:len=2ms,"
        "mailbox.flip:p=0.25:burst=2,seed=9");
    ASSERT_EQ(plan.specs().size(), 2u);
    EXPECT_EQ(plan.specs()[0].at, sim::msec(5));
    EXPECT_EQ(plan.specs()[0].len, sim::msec(2));
    EXPECT_EQ(plan.specs()[1].burst, 2u);
    EXPECT_EQ(plan.seed, 9u);
}

TEST(FaultPlan, ParsesDurations)
{
    EXPECT_EQ(fault::parseDuration("2s"), sim::sec(2));
    EXPECT_EQ(fault::parseDuration("10ms"), sim::msec(10));
    EXPECT_EQ(fault::parseDuration("500us"), sim::usec(500));
    EXPECT_EQ(fault::parseDuration("250ns"), sim::nsec(250));
    EXPECT_THROW(fault::parseDuration("10lightyears"), sim::FatalError);
}

// ---------------------------------------------------------------------
// FaultInjector decision stream.
// ---------------------------------------------------------------------

std::vector<int>
mailFates(std::uint64_t seed, int n)
{
    sim::Engine eng;
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::FaultSpec s;
    s.kind = fault::FaultKind::MailDrop;
    s.p = 0.3;
    plan.add(s);
    fault::FaultInjector inj(eng, plan);
    std::vector<int> fates;
    for (int i = 0; i < n; ++i) {
        std::uint32_t word = 0xABCD;
        fates.push_back(
            static_cast<int>(inj.onMailDeliver(0, 1, word)));
    }
    return fates;
}

TEST(FaultInjector, SameSeedSameDecisions)
{
    EXPECT_EQ(mailFates(7, 500), mailFates(7, 500));
    EXPECT_NE(mailFates(7, 500), mailFates(8, 500));
}

TEST(FaultInjector, CrashSeversMailAndRevives)
{
    sim::Engine eng;
    fault::FaultPlan plan;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = 0; // Down from the start.
    plan.add(crash);
    fault::FaultInjector inj(eng, plan);

    EXPECT_TRUE(inj.domainDown(soc::kWeakDomain));
    EXPECT_FALSE(inj.domainDown(soc::kStrongDomain));
    EXPECT_EQ(inj.crashTime(soc::kWeakDomain), 0u);

    std::uint32_t word = 0x1234;
    EXPECT_EQ(inj.onMailDeliver(soc::kStrongDomain, soc::kWeakDomain,
                                word),
              fault::FaultInjector::MailFate::Drop);
    EXPECT_EQ(inj.onMailDeliver(soc::kWeakDomain, soc::kStrongDomain,
                                word),
              fault::FaultInjector::MailFate::Drop);
    EXPECT_EQ(inj.crashMailDrops(), 2u);

    inj.revive(soc::kWeakDomain);
    EXPECT_FALSE(inj.domainDown(soc::kWeakDomain));
    EXPECT_EQ(inj.onMailDeliver(soc::kStrongDomain, soc::kWeakDomain,
                                word),
              fault::FaultInjector::MailFate::Deliver);
}

// ---------------------------------------------------------------------
// Shared helpers for the recovery tests.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

/** Write @p data to @p path (create, write, close) from @p t. */
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

/** Read @p path from @p t and require its content to equal @p want. */
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

/** UDP loopback of @p msg within @p t's kernel; verifies the bytes. */
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

// ---------------------------------------------------------------------
// Zero-fault guard: an empty plan must be bit-identical to a build
// that never heard of the fault plane.
// ---------------------------------------------------------------------

/** One small deterministic run; returns (metrics JSON, end time). */
std::pair<std::string, sim::Time>
guardRun(os::K2Config cfg)
{
    cfg.soc.costs.inactiveTimeout = 0;
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    const auto data = pattern(8192, 21);
    tb.sys().spawnNormal(tb.proc(), "t", [&](Thread &t) -> Task<void> {
        co_await writeFile(tb, t, "/guard", data);
        co_await verifyFile(tb, t, "/guard", data);
        co_await udpRoundtrip(tb, t, 7000, data);
    });
    tb.engine().run();
    return {reg.snapshot().toJson(), tb.engine().now()};
}

TEST(ZeroFaultGuard, EmptyPlanIsBitIdentical)
{
    const auto dflt = guardRun(os::K2Config{});
    os::K2Config with_empty_plan;
    with_empty_plan.faults = fault::FaultPlan{};
    const auto empty = guardRun(std::move(with_empty_plan));
    EXPECT_EQ(dflt.first, empty.first);
    EXPECT_EQ(dflt.second, empty.second);
    // Disarmed: not a single fault/recovery metric may exist.
    EXPECT_EQ(dflt.first.find("fault."), std::string::npos);
    EXPECT_EQ(dflt.first.find("os.recovery"), std::string::npos);
    EXPECT_EQ(dflt.first.find("os.dsm.retries"), std::string::npos);
}

TEST(ZeroFaultGuard, ArmedSystemExposesRecoveryMetrics)
{
    // Armed by a plan whose one spec can never fire.
    os::K2Config cfg;
    fault::FaultSpec never;
    never.kind = fault::FaultKind::MailDrop;
    never.p = 0.0;
    cfg.faults.add(never);
    const auto armed = guardRun(std::move(cfg));
    EXPECT_NE(armed.first.find("os.recovery.mail.tracked_sent"),
              std::string::npos);
    EXPECT_NE(armed.first.find("fault.injected.mailbox.drop"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Recovery units.
// ---------------------------------------------------------------------

/**
 * The shared shape of the mail-recovery units: a shadow writer leaves
 * a file's pages shadow-owned, a main reader starts after a quiet
 * window at t=10ms, and a one-shot fault armed at t=9ms therefore hits
 * the reader's first (tracked) GetExclusive mail.
 */
wl::Testbed
crossKernelReadUnderFault(fault::FaultSpec spec,
                          const std::vector<std::uint8_t> &data)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    spec.at = sim::msec(9);
    cfg.faults.add(spec);
    auto tb = wl::Testbed::makeK2(cfg);

    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&tb, &data](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/unit", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&tb, &data](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(10));
                             co_await verifyFile(tb, t, "/unit", data);
                         });
    tb.engine().run();
    return tb;
}

TEST(Recovery, RetransmitRecoversDroppedMail)
{
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::MailDrop;
    const auto data = pattern(8192, 3);
    auto tb = crossKernelReadUnderFault(drop, data);

    os::ReliableMail *mail = tb.k2()->reliableMail();
    ASSERT_NE(mail, nullptr);
    EXPECT_GE(mail->retransmits(), 1u);
    EXPECT_EQ(mail->giveups(), 0u);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    EXPECT_EQ(counterOf(reg.snapshot(),
                        "fault.injected.mailbox.drop"),
              1u);
}

TEST(Recovery, DuplicateDeliverySuppressed)
{
    fault::FaultSpec dup;
    dup.kind = fault::FaultKind::MailDuplicate;
    const auto data = pattern(4096, 9);
    auto tb = crossKernelReadUnderFault(dup, data);

    EXPECT_GE(tb.k2()->reliableMail()->duplicatesDropped(), 1u);
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

TEST(Recovery, WatchdogDetectsCrashAndRestartsShadow)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::MailDrop;
    drop.p = 1e-3; // The acceptance scenario's background fault load.
    cfg.faults.add(drop);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    const auto data = pattern(16384, 77);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            // Finishes well before the crash; leaves the file's pages
            // shadow-owned.
            co_await writeFile(tb, t, "/crashed", data);
        });
    tb.sys().spawnNormal(
        tb.proc(), "reader", [&](Thread &t) -> Task<void> {
            co_await t.sleep(sim::msec(25));
            // First touch of shadow-owned pages after the crash: the
            // GetExclusive mail is dropped by the dead domain, the ARQ
            // goes silent, the replica group probes and recovers -- and
            // this read must still return the right bytes.
            co_await verifyFile(tb, t, "/crashed", data);
        });
    // A NightWatch spawn during the down window must be served
    // (degraded) on the main kernel.
    bool saw_down = false;
    bool degraded_ran = false;
    tb.sys().spawnNormal(
        tb.proc(), "poll", [&](Thread &t) -> Task<void> {
            const sim::Time limit =
                t.kernel().engine().now() + sim::msec(200);
            while (!tb.k2()->replicaGroup()->replicaDown(0) &&
                   t.kernel().engine().now() < limit)
                co_await t.sleep(sim::usec(250));
            if (!tb.k2()->replicaGroup()->replicaDown(0))
                co_return;
            saw_down = true;
            tb.sys().spawnNightWatch(tb.proc(), "degraded",
                                     [&](Thread &) -> Task<void> {
                                         degraded_ran = true;
                                         co_return;
                                     });
        });
    tb.engine().run();

    os::ReplicaGroup *wd = tb.k2()->replicaGroup();
    ASSERT_NE(wd, nullptr);
    EXPECT_EQ(wd->crashesDetected(), 1u);
    EXPECT_EQ(wd->restarts(), 1u);
    EXPECT_FALSE(wd->replicaDown(0));
    EXPECT_TRUE(saw_down);
    EXPECT_TRUE(degraded_ran);
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_GE(counterOf(snap, "os.recovery.pages_reclaimed"), 1u);
    EXPECT_GE(counterOf(snap, "os.recovery.services_replayed"), 1u);
    EXPECT_GE(counterOf(snap, "os.recovery.degraded_spawns"), 1u);
    const obs::MetricValue *down = snap.find("os.recovery.down_us");
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->count, 1u);
    EXPECT_GT(down->sum, 0.0);
}

/**
 * A late or duplicated HeartbeatAck whose nonce matches no open probe
 * proves nothing about the shadow: with the one shadow kernel crashed,
 * such acks arriving mid-probe must neither raise a false alarm nor
 * delay the crash declaration.
 */
TEST(Recovery, UnownedHeartbeatAckDoesNotMaskCrash)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kWeakDomain;
    crash.at = sim::msec(20);
    cfg.faults.add(crash);
    auto tb = wl::Testbed::makeK2(cfg);
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);

    const auto data = pattern(16384, 31);
    auto &proc2 = tb.sys().createProcess("shadow-writer");
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "writer", ThreadKind::Normal,
        [&](Thread &t) -> Task<void> {
            co_await writeFile(tb, t, "/stale-ack", data);
        });
    tb.sys().spawnNormal(tb.proc(), "reader",
                         [&](Thread &t) -> Task<void> {
                             co_await t.sleep(sim::msec(25));
                             co_await verifyFile(tb, t, "/stale-ack",
                                                 data);
                         });
    // Once the first heartbeat is out, feed the group an ack with a
    // nonce no probe owns, every 250 us until the crash is declared.
    int injected = 0;
    tb.sys().spawnNormal(
        tb.proc(), "stale-acker", [&](Thread &t) -> Task<void> {
            os::ReplicaGroup &wd = *tb.k2()->replicaGroup();
            const sim::Time limit =
                t.kernel().engine().now() + sim::msec(200);
            while (t.kernel().engine().now() < limit &&
                   !wd.replicaDown(0)) {
                if (counterOf(reg.snapshot(), "os.recovery.heartbeats") >
                    0) {
                    co_await wd.handleMail(
                        0,
                        soc::Mail{soc::kWeakDomain,
                                  os::encodeMessage(
                                      os::MsgType::Control,
                                      os::encodeCtl(
                                          os::CtlOp::HeartbeatAck,
                                          0xFFFF),
                                      0)},
                        t.kernel().domain().core(0));
                    ++injected;
                }
                co_await t.sleep(sim::usec(250));
            }
        });
    tb.engine().run();

    os::ReplicaGroup *wd = tb.k2()->replicaGroup();
    EXPECT_GE(injected, 1);
    EXPECT_EQ(wd->falseAlarms(), 0u);
    EXPECT_EQ(wd->crashesDetected(), 1u);
    EXPECT_EQ(wd->restarts(), 1u);
    EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
}

TEST(Recovery, StrongDomainCrashIsRejected)
{
    os::K2Config cfg;
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::DomainCrash;
    crash.domain = soc::kStrongDomain;
    crash.at = sim::msec(1);
    cfg.faults.add(crash);
    EXPECT_THROW(wl::Testbed::makeK2(cfg), sim::FatalError);
}

// ---------------------------------------------------------------------
// Seeded fuzz: random fault plans, data must come out intact.
// ---------------------------------------------------------------------

TEST(FaultFuzz, DataIntactUnderRandomPlans)
{
    for (const os::coherence::ProtocolKind proto :
         os::coherence::allProtocols())
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
        std::uniform_real_distribution<double> rate(1e-3, 3e-2);
        std::uniform_int_distribution<int> crash_ms(15, 60);

        os::K2Config cfg;
        cfg.soc.costs.inactiveTimeout = 0;
        cfg.dsmProtocol = proto;
        cfg.faults.seed = seed;
        fault::FaultSpec s;
        s.kind = fault::FaultKind::MailDrop;
        s.p = rate(rng);
        cfg.faults.add(s);
        s.kind = fault::FaultKind::MailDuplicate;
        s.p = rate(rng);
        cfg.faults.add(s);
        s.kind = fault::FaultKind::MailBitFlip;
        s.p = rate(rng);
        cfg.faults.add(s);
        if (seed % 2) { // Half the runs also crash the shadow mid-run.
            fault::FaultSpec crash;
            crash.kind = fault::FaultKind::DomainCrash;
            crash.domain = soc::kWeakDomain;
            crash.at = sim::msec(crash_ms(rng));
            cfg.faults.add(crash);
        }
        SCOPED_TRACE(std::string(os::coherence::protocolName(proto)) +
                     " seed=" + std::to_string(seed) +
                     " plan=" + cfg.faults.summary());
        auto tb = wl::Testbed::makeK2(cfg);

        constexpr int kFiles = 4;
        std::vector<std::vector<std::uint8_t>> files;
        for (int i = 0; i < kFiles; ++i)
            files.push_back(pattern(
                4096 * (i + 1), static_cast<std::uint8_t>(seed + i)));
        const auto payload =
            pattern(6000, static_cast<std::uint8_t>(seed * 31));

        auto &proc2 = tb.sys().createProcess("fuzz-shadow");
        tb.k2()->shadowKernel().spawnThread(
            &proc2, "writer", ThreadKind::Normal,
            [&](Thread &t) -> Task<void> {
                for (int i = 0; i < kFiles; ++i)
                    co_await writeFile(tb, t,
                                       "/f" + std::to_string(i),
                                       files[i]);
                co_await udpRoundtrip(tb, t, 6000, payload);
            });
        tb.sys().spawnNormal(
            tb.proc(), "reader", [&](Thread &t) -> Task<void> {
                co_await t.sleep(sim::msec(70));
                for (int i = 0; i < kFiles; ++i)
                    co_await verifyFile(tb, t,
                                        "/f" + std::to_string(i),
                                        files[i]);
                co_await udpRoundtrip(tb, t, 6001, payload);
            });
        tb.engine().run();

        EXPECT_EQ(tb.k2()->reliableMail()->giveups(), 0u);
        if (seed % 2) {
            EXPECT_EQ(tb.k2()->replicaGroup()->crashesDetected(), 1u);
        }
    }
}

// ---------------------------------------------------------------------
// Sweep determinism: faulted cells must shard byte-identically.
// ---------------------------------------------------------------------

std::vector<std::string>
faultSweep(unsigned jobs)
{
    wl::SweepRunner runner(jobs);
    std::vector<std::string> out(4);
    for (std::size_t i = 0; i < out.size(); ++i) {
        runner.submit([i, &out]() {
            os::K2Config cfg;
            cfg.soc.costs.inactiveTimeout = 0;
            fault::FaultSpec drop;
            drop.kind = fault::FaultKind::MailDrop;
            drop.p = 5e-3;
            cfg.faults.add(drop);
            cfg.faults.seed = 100 + i;
            auto tb = wl::Testbed::makeK2(cfg);
            obs::MetricsRegistry reg;
            tb.registerMetrics(reg);
            const auto data =
                pattern(8192, static_cast<std::uint8_t>(i));
            tb.sys().spawnNormal(tb.proc(), "t",
                                 [&](Thread &t) -> Task<void> {
                                     co_await writeFile(tb, t, "/s",
                                                        data);
                                     co_await verifyFile(tb, t, "/s",
                                                         data);
                                 });
            tb.engine().run();
            out[i] = reg.snapshot().toJson() + "@" +
                     std::to_string(tb.engine().now());
        });
    }
    runner.run();
    return out;
}

TEST(FaultSweep, ByteIdenticalAcrossJobCounts)
{
    const auto serial = faultSweep(1);
    EXPECT_EQ(serial, faultSweep(3));
    EXPECT_EQ(serial, faultSweep(13));
    // And the cells really did arm the fault plane.
    for (const auto &cell : serial)
        EXPECT_NE(cell.find("os.recovery.mail"), std::string::npos);
}

// ---------------------------------------------------------------------
// The --faults= flag.
// ---------------------------------------------------------------------

TEST(FaultsFlag, ParsedAndStripped)
{
    char prog[] = "prog";
    char flag[] = "--faults=mailbox.drop:p=1e-3";
    char rest[] = "--other";
    char *argv[] = {prog, flag, rest, nullptr};
    int argc = 3;
    EXPECT_EQ(wl::parseFaultsFlag(argc, argv),
              "mailbox.drop:p=1e-3");
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--other");

    char *argv2[] = {prog, rest, nullptr};
    int argc2 = 2;
    EXPECT_EQ(wl::parseFaultsFlag(argc2, argv2), "");
    EXPECT_EQ(argc2, 2);

    char bad[] = "--faults=";
    char *argv3[] = {prog, bad, nullptr};
    int argc3 = 2;
    EXPECT_THROW(wl::parseFaultsFlag(argc3, argv3), sim::FatalError);
}

} // namespace
} // namespace k2
