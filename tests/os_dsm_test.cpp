/**
 * @file
 * Tests for the K2 software DSM: two-state protocol, one-writer
 * invariant, Table 5 latency shape, asymmetric priorities, the
 * three-state (MSI) alternative, and the same engine across three
 * coherence domains (the §11 extension): ownership transfer among
 * three kernels, serialisation of concurrent faults, the grant-retry
 * backoff and lost-request recovery, crash reclaim mid-fault and of
 * untouched pages, and randomized property sweeps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/injector.h"
#include "os/k2_system.h"
#include "sim/random.h"

namespace k2::os {
namespace {

using kern::Thread;
using kern::ThreadKind;
using sim::Task;

class DsmTest : public ::testing::Test
{
  protected:
    DsmTest()
    {
        // Keep cores from power-gating between phases so the protocol
        // is measured warm (the energy benches exercise gating).
        K2Config cfg;
        cfg.soc.costs.inactiveTimeout = 0; // no power gating
        k2sys = std::make_unique<K2System>(cfg);
        proc = &k2sys->createProcess("app");
    }

    /** Run a body on the given kernel and wait for completion. */
    void
    runOn(kern::Kernel &kern, Thread::Body body)
    {
        kern.spawnThread(proc, "t", ThreadKind::Normal, std::move(body));
        k2sys->ownedEngine().run();
    }

    std::unique_ptr<K2System> k2sys;
    kern::Process *proc = nullptr;
};

TEST_F(DsmTest, MainStartsAsOwner)
{
    EXPECT_TRUE(k2sys->dsm().isLocallyValid(0, 0, Access::Write));
    EXPECT_FALSE(k2sys->dsm().isLocallyValid(1, 0, Access::Read));
}

TEST_F(DsmTest, LocalAccessIsCheapRemoteFaults)
{
    Dsm &dsm = k2sys->dsm();
    sim::Duration local_t = 0;
    sim::Duration remote_t = 0;

    runOn(k2sys->mainKernel(), [&](Thread &t) -> Task<void> {
        const auto t0 = t.kernel().engine().now();
        co_await dsm.access(t.kernel(), t.core(), 0, Access::Write);
        local_t = t.kernel().engine().now() - t0;
    });
    EXPECT_EQ(dsm.faultStats(0).faults.value(), 0u);
    EXPECT_LT(local_t, sim::usec(2));

    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        const auto t0 = t.kernel().engine().now();
        co_await dsm.access(t.kernel(), t.core(), 0, Access::Write);
        remote_t = t.kernel().engine().now() - t0;
    });
    EXPECT_EQ(dsm.faultStats(1).faults.value(), 1u);
    EXPECT_GT(remote_t, sim::usec(30));
    // Ownership moved.
    EXPECT_TRUE(dsm.isLocallyValid(1, 0, Access::Write));
    EXPECT_FALSE(dsm.isLocallyValid(0, 0, Access::Read));
}

TEST_F(DsmTest, OneWriterInvariantUnderPingPong)
{
    Dsm &dsm = k2sys->dsm();
    for (int round = 0; round < 6; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? k2sys->shadowKernel()
                                              : k2sys->mainKernel();
        runOn(kern, [&](Thread &t) -> Task<void> {
            co_await dsm.access(t.kernel(), t.core(), 7, Access::Write);
        });
        // Exactly one side valid after each round.
        const bool main_valid = dsm.isLocallyValid(0, 7, Access::Write);
        const bool shadow_valid = dsm.isLocallyValid(1, 7, Access::Write);
        EXPECT_NE(main_valid, shadow_valid) << "round " << round;
    }
    // 6 transfers: shadow faulted 3 times... first round moved it from
    // main; each subsequent round is one fault.
    EXPECT_EQ(dsm.faultStats(0).faults.value() +
                  dsm.faultStats(1).faults.value(),
              6u);
}

TEST_F(DsmTest, FaultLatencyMatchesTable5Shape)
{
    Dsm &dsm = k2sys->dsm();
    // Warm up one transfer each way, then measure ping-pong.
    for (int round = 0; round < 20; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? k2sys->shadowKernel()
                                              : k2sys->mainKernel();
        runOn(kern, [&](Thread &t) -> Task<void> {
            co_await dsm.access(t.kernel(), t.core(), 3, Access::Write);
        });
    }
    const auto &main_st = dsm.faultStats(0);
    const auto &shadow_st = dsm.faultStats(1);
    ASSERT_GT(main_st.faults.value(), 5u);
    ASSERT_GT(shadow_st.faults.value(), 5u);

    // Paper Table 5: total ~52 us (main sender) / ~48 us (shadow
    // sender); allow a generous band, the *shape* matters.
    EXPECT_GT(main_st.totalUs.mean(), 30.0);
    EXPECT_LT(main_st.totalUs.mean(), 80.0);
    EXPECT_GT(shadow_st.totalUs.mean(), 30.0);
    EXPECT_LT(shadow_st.totalUs.mean(), 80.0);

    // Component asymmetries from the paper:
    // local fault handling: main 3 vs shadow 17 (weak core slower).
    EXPECT_LT(main_st.localFaultUs.mean(), shadow_st.localFaultUs.mean());
    // protocol execution: main 2 vs shadow 13.
    EXPECT_LT(main_st.protocolUs.mean(), shadow_st.protocolUs.mean());
    // servicing: the main *sender* waits on the weak servicer (24) --
    // larger than the shadow sender waiting on the strong one (7).
    EXPECT_GT(main_st.serviceUs.mean(), shadow_st.serviceUs.mean());
    // exit+cache miss: main 18 vs shadow 2.
    EXPECT_GT(main_st.exitUs.mean(), shadow_st.exitUs.mean());
}

TEST_F(DsmTest, ReadAlsoFaultsInTwoState)
{
    // The two-state protocol has no read sharing: a read of a
    // remotely-owned page takes the full fault.
    Dsm &dsm = k2sys->dsm();
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 11, Access::Read);
    });
    EXPECT_EQ(dsm.faultStats(1).faults.value(), 1u);
    // And ownership is exclusive: the main kernel lost the page.
    EXPECT_FALSE(dsm.isLocallyValid(0, 11, Access::Read));
}

TEST_F(DsmTest, ConcurrentFaultsOnSamePageCoalesce)
{
    Dsm &dsm = k2sys->dsm();
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        k2sys->shadowKernel().spawnThread(
            proc, "f", ThreadKind::Normal,
            [&](Thread &t) -> Task<void> {
                co_await dsm.access(t.kernel(), t.core(), 21,
                                    Access::Write);
                ++done;
            });
    }
    k2sys->ownedEngine().run();
    EXPECT_EQ(done, 3);
    // Only one actual coherence fault; the others waited locally.
    EXPECT_EQ(dsm.faultStats(1).faults.value(), 1u);
}

TEST_F(DsmTest, MessagesUseMailbox)
{
    Dsm &dsm = k2sys->dsm();
    const auto before = k2sys->soc().mailbox().messagesDelivered();
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 30, Access::Write);
    });
    // One GetExclusive + one PutExclusive.
    EXPECT_EQ(dsm.messagesSent(), 2u);
    EXPECT_GE(k2sys->soc().mailbox().messagesDelivered(), before + 2);
}

TEST_F(DsmTest, FirstCrossAccessDemotesMappingGrain)
{
    Dsm &dsm = k2sys->dsm();
    EXPECT_EQ(dsm.pagesDemoted(), 0u);
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 40, Access::Write);
        co_await dsm.access(t.kernel(), t.core(), 40, Access::Write);
    });
    EXPECT_EQ(dsm.pagesDemoted(), 1u);
}

TEST_F(DsmTest, RegionAllocationIsDisjoint)
{
    auto r1 = k2sys->dsm().allocRegion(16);
    auto r2 = k2sys->dsm().allocRegion(16);
    EXPECT_EQ(r1.count, 16u);
    EXPECT_EQ(r2.first, r1.end());
}

class MsiDsmTest : public ::testing::Test
{
  protected:
    MsiDsmTest()
    {
        K2Config cfg;
        cfg.dsmProtocol = Dsm::Protocol::ThreeState;
        cfg.soc.costs.inactiveTimeout = 0; // no power gating
        k2sys = std::make_unique<K2System>(cfg);
        proc = &k2sys->createProcess("app");
    }

    void
    runOn(kern::Kernel &kern, Thread::Body body)
    {
        kern.spawnThread(proc, "t", ThreadKind::Normal, std::move(body));
        k2sys->ownedEngine().run();
    }

    std::unique_ptr<K2System> k2sys;
    kern::Process *proc = nullptr;
};

TEST_F(MsiDsmTest, ReadSharingAllowsBothReaders)
{
    Dsm &dsm = k2sys->dsm();
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 5, Access::Read);
    });
    // Both kernels can now read without faulting.
    EXPECT_TRUE(dsm.isLocallyValid(0, 5, Access::Read));
    EXPECT_TRUE(dsm.isLocallyValid(1, 5, Access::Read));
    // But neither holds write permission... the downgraded owner lost
    // exclusivity.
    EXPECT_FALSE(dsm.isLocallyValid(1, 5, Access::Write));
    EXPECT_FALSE(dsm.isLocallyValid(0, 5, Access::Write));

    const auto faults_before = dsm.faultStats(1).faults.value();
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 5, Access::Read);
    });
    EXPECT_EQ(dsm.faultStats(1).faults.value(), faults_before);
}

TEST_F(MsiDsmTest, WriteInvalidatesSharers)
{
    Dsm &dsm = k2sys->dsm();
    runOn(k2sys->shadowKernel(), [&](Thread &t) -> Task<void> {
        co_await dsm.access(t.kernel(), t.core(), 5, Access::Read);
        co_await dsm.access(t.kernel(), t.core(), 5, Access::Write);
    });
    EXPECT_TRUE(dsm.isLocallyValid(1, 5, Access::Write));
    EXPECT_FALSE(dsm.isLocallyValid(0, 5, Access::Read));
}

TEST_F(MsiDsmTest, WeakKernelPaysReadTrackPenalty)
{
    // The same ping-pong is slower under MSI on this platform because
    // the M3's cascaded MMU makes read tracking expensive (§6.3).
    Dsm &dsm = k2sys->dsm();
    for (int round = 0; round < 10; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? k2sys->shadowKernel()
                                              : k2sys->mainKernel();
        runOn(kern, [&](Thread &t) -> Task<void> {
            co_await dsm.access(t.kernel(), t.core(), 9, Access::Write);
        });
    }
    // Shadow-sender faults cost more than the two-state baseline 48us.
    EXPECT_GT(dsm.faultStats(1).totalUs.mean(), 60.0);
}

/** @p n kernels on their own SoC (strong first, then weak domains)
 *  sharing one DSM. */
struct Domains
{
    sim::Engine eng;
    std::unique_ptr<soc::Soc> soc;
    std::vector<std::unique_ptr<kern::Kernel>> kernels;
    std::unique_ptr<Dsm> dsm;
    std::unique_ptr<kern::Process> proc;

    explicit Domains(std::size_t n, std::uint64_t pages = 4096,
                     Dsm::Protocol proto = Dsm::Protocol::TwoState)
    {
        auto cfg = n == 3 ? soc::threeDomainConfig() : soc::omap4Config();
        cfg.costs.inactiveTimeout = 0;
        soc = std::make_unique<soc::Soc>(eng, cfg);
        std::vector<kern::Kernel *> raw;
        for (soc::DomainId d = 0; d < n; ++d) {
            kernels.push_back(std::make_unique<kern::Kernel>(
                *soc, d, "k" + std::to_string(d)));
            kernels.back()->boot();
            raw.push_back(kernels.back().get());
        }
        dsm = std::make_unique<Dsm>(*soc, raw, pages, proto);
        // Route DSM mail on every kernel.
        for (std::size_t i = 0; i < n; ++i) {
            kernels[i]->setMailHandler(
                [this, i](soc::Mail m, soc::Core &c) {
                    return dsm->handleMail(i, m, c);
                });
        }
        proc = std::make_unique<kern::Process>(1, "app");
    }

    /** Start a write of @p page from kernel @p k. */
    void
    spawnWrite(std::size_t k, std::uint64_t page)
    {
        kernels[k]->spawnThread(
            proc.get(), "t", ThreadKind::Normal,
            [this, page](Thread &t) -> Task<void> {
                co_await dsm->access(t.kernel(), t.core(), page,
                                     Access::Write);
            });
    }

    /** Run a write of @p page from kernel @p k to completion. */
    void
    touch(std::size_t k, std::uint64_t page)
    {
        spawnWrite(k, page);
        eng.run();
    }

    std::uint64_t faults(std::size_t k) const
    {
        return dsm->faultStats(k).faults.value();
    }
};

class NDsmTest : public ::testing::Test, public Domains
{
  protected:
    NDsmTest() : Domains(3) {}
};

TEST_F(NDsmTest, ThreeDomainConfigIsValid)
{
    EXPECT_EQ(soc->numDomains(), 3u);
    EXPECT_EQ(soc->domain(soc::kHubDomain).spec().core.name,
              "Cortex-M0");
    // The hub is even weaker and lower power than the M3.
    EXPECT_LT(soc->domain(soc::kHubDomain).spec().core.points[0].activeMw,
              soc->domain(soc::kWeakDomain).spec().core.points.back()
                  .activeMw);
}

TEST_F(NDsmTest, OwnershipMovesAmongThreeKernels)
{
    EXPECT_EQ(dsm->ownerOf(5), 0u);
    touch(1, 5);
    EXPECT_EQ(dsm->ownerOf(5), 1u);
    touch(2, 5);
    EXPECT_EQ(dsm->ownerOf(5), 2u);
    touch(0, 5);
    EXPECT_EQ(dsm->ownerOf(5), 0u);
    // Each move was one fault of the requester.
    EXPECT_EQ(faults(1), 1u);
    EXPECT_EQ(faults(2), 1u);
    EXPECT_EQ(faults(0), 1u);
    // 2 messages (Get + Put) per transfer.
    EXPECT_EQ(dsm->messagesSent(), 6u);
}

TEST_F(NDsmTest, OwnerAccessIsFree)
{
    touch(2, 9);
    const auto before = faults(2);
    touch(2, 9);
    touch(2, 9);
    EXPECT_EQ(faults(2), before);
}

TEST_F(NDsmTest, RequestGoesDirectlyToOwnerNotBroadcast)
{
    touch(1, 3); // owner: kernel 1
    const auto msgs = dsm->messagesSent();
    touch(2, 3); // kernel 2 requests from kernel 1 directly
    EXPECT_EQ(dsm->messagesSent(), msgs + 2);
}

TEST_F(NDsmTest, ConcurrentFaultsFromTwoKernelsSerialise)
{
    int done = 0;
    for (const std::size_t k : {1u, 2u}) {
        kernels[k]->spawnThread(
            proc.get(), "f", ThreadKind::Normal,
            [this, &done](Thread &t) -> Task<void> {
                co_await dsm->access(t.kernel(), t.core(), 17,
                                     Access::Write);
                ++done;
            });
    }
    eng.run();
    // Both writes completed, one after the other.
    EXPECT_EQ(done, 2);
    EXPECT_EQ(faults(1), 1u);
    EXPECT_EQ(faults(2), 1u);
    // Final owner is one of the two requesters, the only writer.
    const std::size_t owner = dsm->ownerOf(17);
    EXPECT_NE(owner, 0u);
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_EQ(dsm->isLocallyValid(k, 17, Access::Write), k == owner);
}

TEST_F(NDsmTest, FaultLatencyComparableToTwoKernelDsm)
{
    // The structure is unchanged for N domains (§11): a weak kernel's
    // fault against the strong kernel costs the same, phase by phase,
    // with or without a third domain on the SoC.
    Domains pair(2);
    for (int round = 0; round < 12; ++round) {
        const std::size_t k = static_cast<std::size_t>(round % 2);
        pair.touch(k, 21);
        touch(k, 21);
    }
    for (std::size_t k = 0; k < 2; ++k) {
        const Dsm::FaultStats &two = pair.dsm->faultStats(k);
        const Dsm::FaultStats &three = dsm->faultStats(k);
        EXPECT_EQ(three.faults.value(), two.faults.value());
        EXPECT_DOUBLE_EQ(three.localFaultUs.mean(),
                         two.localFaultUs.mean());
        EXPECT_DOUBLE_EQ(three.protocolUs.mean(), two.protocolUs.mean());
        EXPECT_DOUBLE_EQ(three.commUs.mean(), two.commUs.mean());
        EXPECT_DOUBLE_EQ(three.serviceUs.mean(), two.serviceUs.mean());
        EXPECT_DOUBLE_EQ(three.exitUs.mean(), two.exitUs.mean());
        EXPECT_DOUBLE_EQ(three.totalUs.mean(), two.totalUs.mean());
    }
    EXPECT_GT(dsm->faultStats(1).totalUs.mean(), 25.0);
    EXPECT_LT(dsm->faultStats(1).totalUs.mean(), 120.0);

    // The hub (Cortex-M0) trading a page with the M3 faults in the
    // same ~50 us ballpark.
    for (int round = 0; round < 12; ++round)
        touch(1 + static_cast<std::size_t>(round % 2), 22);
    EXPECT_EQ(faults(2), 6u);
    EXPECT_GT(dsm->faultStats(2).totalUs.mean(), 25.0);
    EXPECT_LT(dsm->faultStats(2).totalUs.mean(), 120.0);
}

TEST_F(NDsmTest, RegionAllocationDisjoint)
{
    const auto a = dsm->allocRegion(10);
    const auto b = dsm->allocRegion(10);
    EXPECT_EQ(b.first, a.end());
}

TEST_F(NDsmTest, RetryBacksOffToTheCap)
{
    // Kernel 2 owns the page, then goes silent: it drops every DSM
    // request. Only the retry timeout is armed, so the resend gaps
    // double from it up to the policy's default 4 ms cap.
    touch(2, 8);
    kernels[2]->setMailHandler(
        [](soc::Mail, soc::Core &) -> Task<void> { co_return; });
    RetryPolicy policy;
    policy.timeout = sim::usec(100);
    dsm->setRetryPolicy(policy);
    ASSERT_EQ(policy.maxTimeout, sim::msec(4));

    spawnWrite(1, 8);
    std::vector<sim::Time> resends;
    const sim::Time horizon = eng.now() + sim::msec(20);
    while (eng.now() < horizon) {
        const std::uint64_t before = dsm->retries();
        eng.run(eng.now() + sim::usec(1));
        if (dsm->retries() != before)
            resends.push_back(eng.now());
    }
    ASSERT_GE(resends.size(), 8u);
    std::vector<sim::Duration> gaps;
    for (std::size_t i = 1; i < resends.size(); ++i)
        gaps.push_back(resends[i] - resends[i - 1]);
    EXPECT_EQ(gaps[0], sim::usec(200));
    EXPECT_EQ(gaps[1], sim::usec(400));
    EXPECT_EQ(gaps[2], sim::usec(800));
    EXPECT_EQ(gaps[3], sim::usec(1600));
    EXPECT_EQ(gaps[4], sim::usec(3200));
    for (std::size_t i = 5; i < gaps.size(); ++i)
        EXPECT_EQ(gaps[i], sim::msec(4)) << "gap " << i;
    // The owner never answered: kernel 1 is still waiting.
    EXPECT_FALSE(dsm->isLocallyValid(1, 8, Access::Write));
}

TEST(NDsmRecovery, ReclaimUnblocksPagesTheDeadKernelWasFaultingOn)
{
    // Kernel 1 crashes while its write fault on a page owned by
    // another kernel is in flight; once its pages are reclaimed,
    // kernel 0's write to the page must not wait for kernel 1 to
    // revive. The reclaim abandons kernel 1's fault at every kernel
    // count: it resends nothing, and kernel 1 faults afresh once
    // revived.
    for (const std::size_t n : {2u, 3u})
    for (const Dsm::Protocol proto : coherence::allProtocols()) {
        SCOPED_TRACE(std::string(coherence::protocolName(proto)) + " N=" +
                     std::to_string(n));
        Domains d(n, 64, proto);
        d.touch(n > 2 ? 2 : 0, 8); // The main kernel with two.
        fault::FaultPlan plan;
        fault::FaultSpec crash;
        crash.kind = fault::FaultKind::DomainCrash;
        crash.domain = 1;
        crash.at = d.eng.now();
        plan.add(crash);
        fault::FaultInjector inj(d.eng, plan);
        d.soc->attachFaultInjector(&inj);
        RetryPolicy policy;
        policy.timeout = sim::usec(100);
        d.dsm->setRetryPolicy(policy);

        bool done[2] = {false, false};
        auto write = [&](std::size_t k) {
            d.kernels[k]->spawnThread(
                d.proc.get(), "w", ThreadKind::Normal,
                [&d, k, &done](Thread &t) -> Task<void> {
                    co_await d.dsm->access(t.kernel(), t.core(), 8,
                                           Access::Write);
                    done[k] = true;
                });
        };
        write(1);
        d.eng.run(d.eng.now() + sim::msec(1));
        ASSERT_FALSE(done[1]); // Its request was lost with its domain.

        d.dsm->reclaimFrom(1, 0);
        const std::uint64_t retries = d.dsm->retries();
        write(0);
        d.eng.run(d.eng.now() + sim::msec(5));
        EXPECT_TRUE(done[0]);
        EXPECT_FALSE(done[1]);
        EXPECT_EQ(d.dsm->retries(), retries);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(d.dsm->isLocallyValid(k, 8, Access::Write),
                      k == 0);
        }

        // Revived, kernel 1 faults the page afresh and becomes its
        // writer.
        inj.revive(1);
        d.eng.run(d.eng.now() + sim::msec(20));
        EXPECT_TRUE(done[1]);
        EXPECT_EQ(d.dsm->faultStats(1).faults.value(), 2u);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(d.dsm->isLocallyValid(k, 8, Access::Write),
                      k == 1);
        }
        d.soc->attachFaultInjector(nullptr);
    }
}

TEST(NDsmRecovery, ReclaimCompletedFaultRecordsNoService)
{
    // Kernel 0 services kernel 1's fault, then kernel 1 crashes and
    // kernel 0's own fault on the page is completed by the reclaim:
    // nobody serviced it, so its Table 5 breakdown is no service time
    // and the whole wait as communication -- not kernel 1's earlier,
    // unrelated service.
    for (const Dsm::Protocol proto : coherence::allProtocols()) {
        SCOPED_TRACE(coherence::protocolName(proto));
        Domains d(2, 64, proto);
        d.touch(1, 8);
        fault::FaultPlan plan;
        fault::FaultSpec crash;
        crash.kind = fault::FaultKind::DomainCrash;
        crash.domain = 1;
        crash.at = d.eng.now();
        plan.add(crash);
        fault::FaultInjector inj(d.eng, plan);
        d.soc->attachFaultInjector(&inj);

        d.spawnWrite(0, 8);
        d.eng.run(d.eng.now() + sim::msec(1));
        ASSERT_FALSE(d.dsm->isLocallyValid(0, 8, Access::Write));
        d.dsm->reclaimFrom(1, 0);
        d.eng.run(d.eng.now() + sim::msec(1));
        ASSERT_TRUE(d.dsm->isLocallyValid(0, 8, Access::Write));

        const Dsm::FaultStats &st = d.dsm->faultStats(0);
        ASSERT_EQ(st.faults.value(), 1u);
        EXPECT_EQ(st.serviceUs.sum(), 0.0);
        const double wait = st.totalUs.sum() - st.localFaultUs.sum() -
                            st.protocolUs.sum() - st.exitUs.sum();
        EXPECT_GT(wait, 500.0); // Most of the millisecond to the reclaim.
        EXPECT_NEAR(st.commUs.sum(), wait, 1e-6);
        d.soc->attachFaultInjector(nullptr);
    }
}

TEST(NDsmRecovery, ReclaimedReadFaultLeavesSurvivorWritable)
{
    // Kernel 1 writes a page and crashes; kernel 0's read fault on it
    // is stranded until the reclaim completes it. The reclaim makes
    // kernel 0 the page's sole holder, so the completed fault must
    // leave it write-valid: its next write must not ask the dead
    // kernel and stall on retries until the revive.
    for (const Dsm::Protocol proto : coherence::allProtocols()) {
        SCOPED_TRACE(coherence::protocolName(proto));
        Domains d(2, 64, proto);
        d.touch(1, 8);
        fault::FaultPlan plan;
        fault::FaultSpec crash;
        crash.kind = fault::FaultKind::DomainCrash;
        crash.domain = 1;
        crash.at = d.eng.now();
        plan.add(crash);
        fault::FaultInjector inj(d.eng, plan);
        d.soc->attachFaultInjector(&inj);
        d.dsm->setRetryPolicy({sim::usec(100), sim::msec(4)});

        bool done[2] = {false, false}; // The read, then the write.
        auto access = [&](Access rw, bool &flag) {
            d.kernels[0]->spawnThread(
                d.proc.get(), "a", ThreadKind::Normal,
                [&d, rw, &flag](Thread &t) -> Task<void> {
                    co_await d.dsm->access(t.kernel(), t.core(), 8, rw);
                    flag = true;
                });
        };
        access(Access::Read, done[0]);
        d.eng.run(d.eng.now() + sim::msec(1));
        ASSERT_FALSE(done[0]); // Its request was lost with kernel 1.

        d.dsm->reclaimFrom(1, 0);
        d.eng.run(d.eng.now() + sim::msec(1));
        ASSERT_TRUE(done[0]);
        EXPECT_TRUE(d.dsm->isLocallyValid(0, 8, Access::Write));

        access(Access::Write, done[1]);
        d.eng.run(d.eng.now() + sim::msec(20));
        EXPECT_TRUE(done[1]);
        d.soc->attachFaultInjector(nullptr);
    }
}

TEST(NDsmRecovery, ReclaimLeavesUntouchedPagesBorn)
{
    // Kernel 1's write to page 5 grows the page table over pages 0-4,
    // which nobody touched. Reclaiming kernel 1 changes page 5 only.
    for (const Dsm::Protocol proto : coherence::allProtocols()) {
        for (const std::size_t n : {std::size_t{2}, std::size_t{3}}) {
            SCOPED_TRACE(std::string(coherence::protocolName(proto)) +
                         " n=" + std::to_string(n));
            Domains d(n, 64, proto);
            d.touch(1, 5);
            const KernelIdx heir = n - 1 == 1 ? 0 : n - 1;
            EXPECT_EQ(d.dsm->reclaimFrom(1, heir),
                      std::vector<std::uint64_t>{5});
            for (std::uint64_t page = 0; page < 5; ++page)
                EXPECT_EQ(d.dsm->ownerOf(page), 0u);
            EXPECT_EQ(d.dsm->ownerOf(5), heir);
        }
    }
}

TEST(NDsmRecovery, MainKernelIsNeverReclaimed)
{
    // Untouched pages stay born through a reclaim only while kernel 0
    // lives, so reclaiming from it is a bug.
    Domains d(2);
    d.touch(1, 3);
    EXPECT_DEATH(d.dsm->reclaimFrom(0, 1), "dead != 0");
}

TEST(NDsmRecovery, RetriesLostGrant)
{
    // The first mail of a fault is lost and no ARQ runs underneath,
    // so the DSM's grant-timeout retry is the only recovery path: the
    // faulting kernel must re-ask and get the page.
    for (const Dsm::Protocol proto : coherence::allProtocols()) {
        SCOPED_TRACE(coherence::protocolName(proto));
        Domains d(2, 64, proto);
        d.touch(1, 8);
        fault::FaultPlan plan;
        fault::FaultSpec drop;
        drop.kind = fault::FaultKind::MailDrop;
        drop.at = d.eng.now();
        plan.add(drop);
        fault::FaultInjector inj(d.eng, plan);
        d.soc->attachFaultInjector(&inj);
        d.dsm->setRetryPolicy({sim::usec(500), sim::msec(4)});

        d.touch(0, 8);
        EXPECT_EQ(inj.injected(fault::FaultKind::MailDrop), 1u);
        EXPECT_GE(d.dsm->retries(), 1u);
        EXPECT_TRUE(d.dsm->isLocallyValid(0, 8, Access::Write));
        EXPECT_FALSE(d.dsm->isLocallyValid(1, 8, Access::Read));
        d.soc->attachFaultInjector(nullptr);
    }
}

/** Property: random access sequences keep exactly one owner per page
 *  and never lose a request. */
class NDsmPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(NDsmPropertyTest, RandomTrafficKeepsOneOwner)
{
    Domains d(3, 64);
    sim::Rng rng(GetParam());
    int completed = 0;
    int issued = 0;
    for (int step = 0; step < 120; ++step) {
        const auto k = static_cast<std::size_t>(rng.below(3));
        const auto page = rng.below(8);
        ++issued;
        d.kernels[k]->spawnThread(
            d.proc.get(), "t", ThreadKind::Normal,
            [&, k, page](Thread &t) -> Task<void> {
                co_await d.dsm->access(t.kernel(), t.core(), page,
                                       Access::Write);
                EXPECT_EQ(d.dsm->ownerOf(page), k);
                ++completed;
            });
        d.eng.run();
    }
    EXPECT_EQ(completed, issued);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NDsmPropertyTest,
                         ::testing::Values(11, 23, 47));

TEST(ReplicatedDsm, EveryKernelFaultsThroughOneDsm)
{
    // With three shadow replicas the one DSM spans all four kernels;
    // dsm() serves every one of them.
    K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    cfg.replicas = 3;
    K2System sys(cfg);
    kern::Process &proc = sys.createProcess("app");
    Dsm &dsm = sys.dsm();
    ASSERT_EQ(dsm.numKernels(), 4u);
    const kern::PageRange region = dsm.allocRegion(4);
    const std::vector<kern::Kernel *> all = sys.kernels();
    ASSERT_EQ(all[2]->name(), "shadow2");

    // main, shadow, shadow2 take turns writing every page.
    for (std::size_t k = 0; k < 3; ++k) {
        all[k]->spawnThread(
            &proc, "w", ThreadKind::Normal,
            [&dsm, region](Thread &t) -> Task<void> {
                for (std::uint64_t p = 0; p < region.count; ++p) {
                    co_await dsm.access(t.kernel(), t.core(),
                                        region.first + p,
                                        Access::Write);
                }
            });
        sys.ownedEngine().run();
        for (std::uint64_t p = 0; p < region.count; ++p) {
            for (std::size_t j = 0; j < all.size(); ++j) {
                EXPECT_EQ(dsm.isLocallyValid(j, region.first + p,
                                             Access::Write),
                          j == k)
                    << "page " << p << " kernel " << j;
            }
        }
    }
    EXPECT_EQ(dsm.faultStats(1).faults.value(), region.count);
    EXPECT_EQ(dsm.faultStats(2).faults.value(), region.count);
}

} // namespace
} // namespace k2::os
