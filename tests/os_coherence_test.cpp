/**
 * @file
 * Protocol-conformance suite for the DSM coherence zoo
 * (os/coherence/): every registered protocol must uphold the same
 * contracts at every kernel count -- one writer at a time,
 * read-your-writes, completion of every access under seeded fuzz with
 * shadow-data verification, serialised concurrent writers, crash
 * reclaim, faults in flight across page-table growth, and snapshot
 * roundtrip. Each contract runs twice: on the two-kernel K2System
 * (PairConformanceTest) and on a standalone three-domain DSM
 * (NdsmConformanceTest). RacClock checks the release-acquire clock
 * past 2^32 writes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "os/coherence/protocol.h"
#include "os/coherence/rac.h"
#include "os/k2_system.h"
#include "sim/random.h"
#include "snap/snapshot.h"

namespace k2::os {
namespace {

using kern::Thread;
using kern::ThreadKind;
using sim::Task;

/** The highest page the DSM mail encoding can name. */
constexpr std::uint64_t kTopPage = coherence::kOpMaxPages - 1;

/**
 * One DSM under one zoo protocol: with two kernels, the K2System's own
 * (main + shadow), which spans every page the mail encoding can name;
 * with more, a standalone engine on the three-domain SoC, spanning
 * @p pages pages (by default the same span).
 */
class Harness
{
  public:
    Harness(coherence::ProtocolKind proto, std::size_t n,
            std::uint64_t pages = coherence::kOpMaxPages)
    {
        if (n == 2) {
            K2Config cfg;
            cfg.soc.costs.inactiveTimeout = 0;
            cfg.dsmProtocol = proto;
            sys_ = std::make_unique<K2System>(cfg);
            proc_ = &sys_->createProcess("app");
            kernels_ = sys_->kernels();
            dsm_ = &sys_->dsm();
            eng_ = &sys_->ownedEngine();
            return;
        }
        auto cfg = soc::threeDomainConfig();
        cfg.costs.inactiveTimeout = 0;
        eng_ = &ownEng_;
        soc_ = std::make_unique<soc::Soc>(ownEng_, cfg);
        for (soc::DomainId d = 0; d < n; ++d) {
            owned_.push_back(std::make_unique<kern::Kernel>(
                *soc_, d, "k" + std::to_string(d)));
            owned_.back()->boot();
            kernels_.push_back(owned_.back().get());
        }
        ownDsm_ = std::make_unique<Dsm>(*soc_, kernels_, pages, proto);
        dsm_ = ownDsm_.get();
        for (std::size_t i = 0; i < n; ++i) {
            kernels_[i]->setMailHandler(
                [this, i](soc::Mail m, soc::Core &c) {
                    return dsm_->handleMail(i, m, c);
                });
        }
        ownProc_ = std::make_unique<kern::Process>(1, "app");
        proc_ = ownProc_.get();
    }

    std::size_t n() const { return kernels_.size(); }
    Dsm &dsm() { return *dsm_; }
    sim::Engine &engine() { return *eng_; }

    std::uint64_t faults(std::size_t k) const
    {
        return dsm_->faultStats(k).faults.value();
    }

    /** Start @p body on kernel @p k (does not run the engine). */
    void
    spawn(std::size_t k, Thread::Body body)
    {
        kernels_[k]->spawnThread(proc_, "t", ThreadKind::Normal,
                                 std::move(body));
    }

    /** Run one access from kernel @p k to completion. */
    void
    touch(std::size_t k, std::uint64_t page, Access rw)
    {
        spawn(k, [this, page, rw](Thread &t) -> Task<void> {
            co_await dsm_->access(t.kernel(), t.core(), page, rw);
        });
        eng_->run();
    }

    void
    snapState(snap::Io &io)
    {
        if (sys_) {
            sys_->snapState(io);
            return;
        }
        eng_->snapState(io);
        soc_->snapState(io);
        for (auto &k : owned_)
            k->snapState(io);
        dsm_->snapState(io);
        proc_->snapState(io);
    }

  private:
    std::unique_ptr<K2System> sys_;
    sim::Engine ownEng_;
    std::unique_ptr<soc::Soc> soc_;
    std::vector<std::unique_ptr<kern::Kernel>> owned_;
    std::unique_ptr<Dsm> ownDsm_;
    std::unique_ptr<kern::Process> ownProc_;
    std::vector<kern::Kernel *> kernels_;
    kern::Process *proc_ = nullptr;
    Dsm *dsm_ = nullptr;
    sim::Engine *eng_ = nullptr;
};

/** The contracts, run on @p N kernels under the parameter protocol. */
template <std::size_t N>
class Conformance
    : public ::testing::TestWithParam<coherence::ProtocolKind>
{
  protected:
    Conformance() : h(GetParam(), N) {}

    void
    oneWriterUnderPingPong()
    {
        for (const std::uint64_t page : {std::uint64_t{3}, kTopPage}) {
            for (int round = 0; round < 8; ++round) {
                const std::size_t w =
                    static_cast<std::size_t>(round) % N;
                h.touch(w, page, Access::Write);
                // Exactly the last writer holds write permission.
                for (std::size_t k = 0; k < N; ++k) {
                    EXPECT_EQ(
                        h.dsm().isLocallyValid(k, page, Access::Write),
                        k == w);
                }
            }
        }
    }

    void
    readYourWrites()
    {
        h.touch(1, 5, Access::Write);
        const std::uint64_t faults = h.faults(1);
        // A kernel always sees its own writes without another fault.
        h.touch(1, 5, Access::Read);
        h.touch(1, 5, Access::Read);
        EXPECT_EQ(h.faults(1), faults);
        EXPECT_TRUE(h.dsm().isLocallyValid(1, 5, Access::Read));
    }

    void
    writerRereadAfterPeerRead()
    {
        for (const std::uint64_t page : {std::uint64_t{7}, kTopPage}) {
            h.touch(0, page, Access::Write);
            const std::uint64_t peer = h.faults(1);
            h.touch(1, page, Access::Read); // peer pulls the page
            EXPECT_EQ(h.faults(1), peer + 1);
            EXPECT_TRUE(h.dsm().isLocallyValid(1, page, Access::Read));
            const std::uint64_t faults = h.faults(0);
            h.touch(0, page, Access::Read);
            if (GetParam() == coherence::ProtocolKind::TwoState) {
                // Migratory: the peer's read took exclusive ownership,
                // so the writer's re-read faults the page back.
                EXPECT_EQ(h.faults(0), faults + 1);
            } else {
                // Read-sharing (MSI/MESI/MOESI keep the writer a
                // sharer; RAC keeps it the log owner): the re-read
                // stays local.
                EXPECT_EQ(h.faults(0), faults);
            }
        }
    }

    void
    writeOwnershipRing()
    {
        for (int r = 0; r < 9; ++r) {
            const std::size_t k = static_cast<std::size_t>(r) % N;
            h.touch(k, 11, Access::Write);
            // One writer: the directory (or log) records the last one.
            EXPECT_EQ(h.dsm().ownerOf(11), k);
        }
        // Every kernel but the initial owner faulted at least once.
        for (std::size_t k = 1; k < N; ++k)
            EXPECT_GE(h.faults(k), 1u);
    }

    void
    seededFuzzKeepsOneWriter()
    {
        for (const std::uint64_t seed : {7ull, 101ull, 4242ull}) {
            Harness fx(GetParam(), N);
            sim::Rng rng(seed);
            // Shadow data model: each page's value is the step number
            // of its last write, and the page's most recent accessor
            // is recorded. Every completed write must make the writer
            // the page's owner/log writer, and a read by the most
            // recent accessor must be served from its own fresh copy
            // -- no fault, no protocol messages. (That is the
            // strongest freshness property every zoo member shares:
            // read-your-writes, plus read-your-reads for the migratory
            // protocol, where a peer's read would have stolen
            // exclusive ownership.)
            std::map<std::uint64_t, std::uint64_t> truth;
            std::map<std::uint64_t, std::size_t> last_accessor;
            int issued = 0;
            int completed = 0;
            for (int step = 0; step < 150; ++step) {
                const auto k = static_cast<std::size_t>(rng.below(N));
                const std::uint64_t page = rng.below(8);
                const Access rw =
                    rng.below(4) == 0 ? Access::Read : Access::Write;
                const bool own_read = rw == Access::Read &&
                                      last_accessor.count(page) &&
                                      last_accessor[page] == k;
                const std::uint64_t faults0 = fx.faults(k);
                const std::uint64_t msgs0 = fx.dsm().messagesSent();
                ++issued;
                fx.spawn(k, [&, k, page, rw, step](Thread &t)
                                -> Task<void> {
                    co_await fx.dsm().access(t.kernel(), t.core(), page,
                                             rw);
                    if (rw == Access::Write) {
                        truth[page] = static_cast<std::uint64_t>(step);
                        EXPECT_EQ(fx.dsm().ownerOf(page), k);
                    }
                    last_accessor[page] = k;
                    ++completed;
                });
                fx.engine().run();
                if (own_read) {
                    EXPECT_EQ(fx.faults(k), faults0)
                        << "seed " << seed << " step " << step;
                    EXPECT_EQ(fx.dsm().messagesSent(), msgs0);
                }
            }
            EXPECT_EQ(completed, issued) << "seed " << seed;
            // 2 protocol messages per simple transfer; fan-out to
            // several sharers adds more but stays bounded.
            std::uint64_t faults = 0;
            for (std::size_t k = 0; k < N; ++k)
                faults += fx.faults(k);
            EXPECT_LE(fx.dsm().messagesSent(), 6 * faults + 8);
        }
    }

    void
    concurrentWritersSerialise()
    {
        int done = 0;
        for (std::size_t k = 0; k < N; ++k) {
            h.spawn(k, [this, &done](Thread &t) -> Task<void> {
                co_await h.dsm().access(t.kernel(), t.core(), 23,
                                        Access::Write);
                ++done;
            });
        }
        h.engine().run();
        EXPECT_EQ(done, static_cast<int>(N));
        const std::size_t owner = h.dsm().ownerOf(23);
        ASSERT_LT(owner, N);
        for (std::size_t k = 0; k < N; ++k) {
            EXPECT_EQ(h.dsm().isLocallyValid(k, 23, Access::Write),
                      k == owner);
        }
    }

    void
    reclaimMovesOwnershipToSurvivor()
    {
        // Kernel 1 dies holding pages 4 and 9; a bystander's page 30
        // (the last kernel's, or the main kernel's with two) stays.
        const std::size_t bystander = N > 2 ? N - 1 : 0;
        h.touch(1, 4, Access::Write);
        h.touch(1, 9, Access::Write);
        h.touch(bystander, 30, Access::Write);
        const auto moved = h.dsm().reclaimFrom(1, 0);
        ASSERT_EQ(moved.size(), 2u);
        EXPECT_EQ(moved[0], 4u);
        EXPECT_EQ(moved[1], 9u);
        EXPECT_EQ(h.dsm().ownerOf(4), 0u);
        EXPECT_EQ(h.dsm().ownerOf(9), 0u);
        EXPECT_EQ(h.dsm().ownerOf(30), bystander);
        // The survivors keep making progress on the reclaimed pages.
        h.touch(N - 1, 4, Access::Write);
        EXPECT_EQ(h.dsm().ownerOf(4), N - 1);
    }

    void
    tableGrowthKeepsFaultsInFlight()
    {
        // Kernel 1's write fault on a low page suspends awaiting its
        // grant, holding references into the page's record; meanwhile
        // kernel 0 first-touches a page far past the table's end, so
        // the table grows. The suspended fault must complete on its
        // own record.
        constexpr std::uint64_t kLow = 1;
        constexpr std::uint64_t kFar = 4096;
        bool faulted = false;
        bool grown_mid_fault = false;
        h.spawn(1, [this, &faulted](Thread &t) -> Task<void> {
            co_await h.dsm().access(t.kernel(), t.core(), kLow,
                                    Access::Write);
            faulted = true;
        });
        // Step until the request is out: the faulter now waits.
        const std::uint64_t msgs = h.dsm().messagesSent();
        while (h.dsm().messagesSent() == msgs)
            ASSERT_TRUE(h.engine().runOne());
        h.spawn(0, [this, &faulted, &grown_mid_fault](Thread &t)
                       -> Task<void> {
            co_await h.dsm().access(t.kernel(), t.core(), kFar,
                                    Access::Write);
            grown_mid_fault = !faulted;
        });
        h.engine().run();
        EXPECT_TRUE(grown_mid_fault);
        ASSERT_TRUE(faulted);
        EXPECT_EQ(h.dsm().ownerOf(kLow), 1u);
        EXPECT_EQ(h.dsm().ownerOf(kFar), 0u);
        for (std::size_t k = 0; k < N; ++k) {
            EXPECT_EQ(h.dsm().isLocallyValid(k, kLow, Access::Write),
                      k == 1);
            EXPECT_EQ(h.dsm().isLocallyValid(k, kFar, Access::Write),
                      k == 0);
        }
    }

    void
    snapshotRoundtripReplaysIdentically()
    {
        // Warm up with a little traffic so protocol state (copy
        // states, logs, vector clocks) is non-trivial at capture.
        // The reader is never the writer (the main kernel with two).
        const std::size_t reader = N > 2 ? N - 1 : 0;
        h.touch(1, 2, Access::Write);
        h.touch(reader, 2, Access::Read);

        auto replay = [this] {
            for (int r = 0; r < 12; ++r) {
                h.touch(static_cast<std::size_t>(r) % N,
                        static_cast<std::uint64_t>(r % 4),
                        r % 3 == 0 ? Access::Read : Access::Write);
            }
        };

        const snap::Snapshot base = snap::Snapshot::of(h);
        replay();
        const snap::Snapshot first = snap::Snapshot::of(h);
        base.restore(h);
        EXPECT_EQ(base, snap::Snapshot::of(h));
        replay();
        // Restored state replays to bit-identical protocol state,
        // statistics, clocks, and RNG streams.
        EXPECT_EQ(first, snap::Snapshot::of(h));
    }

    Harness h;
};

using PairConformanceTest = Conformance<2>;
using NdsmConformanceTest = Conformance<3>;

TEST_P(PairConformanceTest, OneWriterInvariantUnderPingPong)
{
    oneWriterUnderPingPong();
}
TEST_P(NdsmConformanceTest, OneWriterInvariantUnderPingPong)
{
    oneWriterUnderPingPong();
}

TEST_P(PairConformanceTest, ReadYourWrites) { readYourWrites(); }
TEST_P(NdsmConformanceTest, ReadYourWrites) { readYourWrites(); }

TEST_P(PairConformanceTest, WriterRereadAfterPeerRead)
{
    writerRereadAfterPeerRead();
}
TEST_P(NdsmConformanceTest, WriterRereadAfterPeerRead)
{
    writerRereadAfterPeerRead();
}

TEST_P(PairConformanceTest, WriteOwnershipRing) { writeOwnershipRing(); }
TEST_P(NdsmConformanceTest, WriteOwnershipRingAcrossThreeDomains)
{
    writeOwnershipRing();
}

TEST_P(PairConformanceTest, SeededFuzzCompletesAndKeepsOneWriter)
{
    seededFuzzKeepsOneWriter();
}
TEST_P(NdsmConformanceTest, SeededFuzzCompletesAndKeepsOneWriter)
{
    seededFuzzKeepsOneWriter();
}

// One page more than the mail encoding can name is a configuration
// error under every protocol.
TEST_P(NdsmConformanceTest, MorePagesThanTheMailNamesIsFatal)
{
    EXPECT_THROW(Harness(GetParam(), 3, coherence::kOpMaxPages + 1),
                 sim::FatalError);
}

TEST_P(PairConformanceTest, ConcurrentWritersSerialise)
{
    concurrentWritersSerialise();
}
TEST_P(NdsmConformanceTest, ConcurrentWritersSerialise)
{
    concurrentWritersSerialise();
}

TEST_P(PairConformanceTest, ReclaimMovesOwnershipToSurvivor)
{
    reclaimMovesOwnershipToSurvivor();
}
TEST_P(NdsmConformanceTest, ReclaimMovesOwnershipToSurvivor)
{
    reclaimMovesOwnershipToSurvivor();
}

TEST_P(PairConformanceTest, TableGrowthKeepsFaultsInFlight)
{
    tableGrowthKeepsFaultsInFlight();
}
TEST_P(NdsmConformanceTest, TableGrowthKeepsFaultsInFlight)
{
    tableGrowthKeepsFaultsInFlight();
}

TEST_P(PairConformanceTest, SnapshotRoundtripReplaysIdentically)
{
    snapshotRoundtripReplaysIdentically();
}
TEST_P(NdsmConformanceTest, SnapshotRoundtripReplaysIdentically)
{
    snapshotRoundtripReplaysIdentically();
}

// RAC clocks and stamps are 64-bit: a writer clock past 2^32 still
// orders stamps, so another domain's copy stays stale until it drains.
// The clock gets there through a RacState image whose clock words the
// test sets, not through 2^32 appends.
TEST(RacClock, StaysOrderedPastTwoToThe32Writes)
{
    constexpr std::size_t n = 2;
    coherence::RacState rac(n);
    coherence::RacPage page;
    rac.append(1, page); // Domain 1 writes: its clock and stamp are 1.
    rac.drain(0, 1);     // Domain 0 catches up.
    ASSERT_TRUE(rac.permits(0, page, Access::Read));

    std::vector<std::uint8_t> image;
    snap::Io capture(image, 1);
    rac.snapState(capture);
    // The image holds n log heads and n*n drain cursors (32-bit), then
    // the n*n clock words vc[k][w]. Set vc[0][1] and vc[1][1].
    const std::size_t vc_at = n * 4 + n * n * 4;
    const std::uint64_t near_wrap = 0xffffffffull;
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}}) {
        std::memcpy(&image[vc_at + (k * n + 1) * 8], &near_wrap,
                    sizeof near_wrap);
    }
    snap::Io restore(std::as_const(image), 1);
    rac.snapState(restore);
    restore.finish();
    ASSERT_TRUE(rac.permits(0, page, Access::Read));

    // Clock 2^32: a 32-bit clock would wrap to 0 and read fresh here.
    rac.append(1, page);
    EXPECT_EQ(page.stamp, 1ull << 32);
    EXPECT_FALSE(rac.permits(0, page, Access::Read));
    EXPECT_GT(rac.pendingLines(0, 1), 0u);
    rac.drain(0, 1);
    EXPECT_TRUE(rac.permits(0, page, Access::Read));
}

const auto kProtocolName =
    [](const ::testing::TestParamInfo<coherence::ProtocolKind> &info) {
        return std::string(coherence::protocolName(info.param));
    };

INSTANTIATE_TEST_SUITE_P(Zoo, PairConformanceTest,
                         ::testing::ValuesIn(coherence::allProtocols()),
                         kProtocolName);
INSTANTIATE_TEST_SUITE_P(Zoo, NdsmConformanceTest,
                         ::testing::ValuesIn(coherence::allProtocols()),
                         kProtocolName);

} // namespace
} // namespace k2::os
