/**
 * @file
 * Exhaustive check of coherence::Directory's sequential rules. From a
 * page's born state, a breadth-first search takes every step the
 * invalidation protocols (two-state, MSI, MESI, MOESI) allow at two and
 * three kernels:
 *
 *  - an access that faults: Directory::targets, then Directory::serve
 *    at each asked kernel, then Directory::complete with the grant;
 *  - a local write (Directory::write: silent E->M);
 *  - a crash reclaim (Directory::reclaim, dead != 0, `elsewhere` as
 *    os::Dsm::reclaimFrom computes it), alone or completing a fault
 *    the inheritor had stranded on the dead kernel with the state the
 *    reclaim gave, as reclaimFrom does.
 *
 * Every reachable state must keep the protocol's invariants, and every
 * completed fault must leave its requester permitted. Steps are atomic:
 * no fault is in flight while another runs. The timed interleavings of
 * os::Dsm are what tests/os_coherence_test.cpp samples.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <string>
#include <unordered_set>

#include "os/coherence/directory.h"

namespace k2::os::coherence {
namespace {

/** "MSI"-style letters of the first @p n copy states. */
std::string
show(const Copies &e, std::size_t n)
{
    std::string s;
    for (std::size_t k = 0; k < n; ++k)
        s += "ISEOM"[static_cast<int>(e[k])];
    return s;
}

/** True if @p kind's subset of MOESI has @p s. */
bool
inSubset(ProtocolKind kind, Copy s)
{
    switch (kind) {
      case ProtocolKind::TwoState: return s == Copy::I || s == Copy::M;
      case ProtocolKind::ThreeState: return s != Copy::E && s != Copy::O;
      case ProtocolKind::Mesi: return s != Copy::O;
      default: return true;
    }
}

/** The invariant @p e breaks, or empty if it keeps them all. */
std::string
violation(ProtocolKind kind, const Copies &e, std::size_t n)
{
    bool valid = false;
    for (std::size_t k = 0; k < n; ++k) {
        if (!inSubset(kind, e[k]))
            return "a state outside the protocol's subset";
        valid |= e[k] != Copy::I;
        for (std::size_t j = 0; j < n; ++j) {
            if (j == k)
                continue;
            if ((e[k] == Copy::M || e[k] == Copy::E) && e[j] != Copy::I)
                return "M/E beside another valid copy";
            if (e[k] == Copy::O && e[j] != Copy::S && e[j] != Copy::I)
                return "O beside a copy that is not S";
        }
    }
    return valid ? "" : "no valid copy left";
}

struct Search
{
    ProtocolKind kind;
    std::size_t n;
    Directory dir;
    std::unordered_set<std::string> seen;
    std::deque<Copies> frontier;
    std::size_t steps = 0;

    Search(ProtocolKind k, std::size_t kernels)
        : kind(k), n(kernels), dir(k, kernels)
    {
    }

    bool exclusive(Access rw) const
    {
        return kind == ProtocolKind::TwoState || rw == Access::Write;
    }

    void reach(const Copies &from, const Copies &to, const char *step)
    {
        ++steps;
        const std::string v = violation(kind, to, n);
        EXPECT_EQ(v, "") << show(from, n) << " --" << step << "--> "
                         << show(to, n);
        if (seen.insert(show(to, n)).second)
            frontier.push_back(to);
    }

    /** Kernel @p k's fault for @p rw, run to completion. */
    Copies fault(Copies e, std::size_t k, Access rw) const
    {
        const std::uint32_t asked = dir.targets(e, k, exclusive(rw));
        EXPECT_NE(asked, 0u);
        EXPECT_EQ(asked & Directory::bit(k), 0u);
        if (!exclusive(rw)) {
            EXPECT_EQ(asked & (asked - 1), 0u); // A read asks one.
        }
        Copy grant = Copy::I;
        for (std::size_t t = 0; t < n; ++t) {
            if ((asked & Directory::bit(t)) != 0)
                grant = Directory::granted(
                    dir.serve(e, t, exclusive(rw)));
        }
        Directory::complete(e, k, exclusive(rw), grant);
        return e;
    }

    void expand(const Copies &e)
    {
        for (std::size_t k = 0; k < n; ++k) {
            for (const Access rw : {Access::Read, Access::Write}) {
                const char *what = rw == Access::Read ? "read" : "write";
                if (Directory::permits(e[k], rw)) {
                    Copies hit = e;
                    if (rw == Access::Write)
                        Directory::write(hit, k);
                    reach(e, hit, what);
                    continue;
                }
                const Copies done = fault(e, k, rw);
                EXPECT_TRUE(Directory::permits(done[k], rw))
                    << show(e, n) << ": kernel " << k << "'s " << what
                    << " fault ends " << show(done, n);
                reach(e, done, what);
            }
        }
        for (std::size_t dead = 1; dead < n; ++dead) {
            for (std::size_t to = 0; to < n; ++to) {
                if (to == dead)
                    continue;
                bool held = false;
                for (std::size_t j = 0; j < n; ++j)
                    held |= j != dead && j != to && e[j] != Copy::I;
                Copies r = e;
                dir.reclaim(r, dead, to, held);
                reach(e, r, "reclaim");
                if (held)
                    continue; // A stranded fault redirects by retry.
                for (const Access rw : {Access::Read, Access::Write}) {
                    const std::uint32_t asked =
                        dir.targets(e, to, exclusive(rw));
                    if (Directory::permits(e[to], rw) ||
                        (asked & Directory::bit(dead)) == 0)
                        continue;
                    Copies c = r;
                    Directory::complete(c, to, exclusive(rw), c[to]);
                    EXPECT_TRUE(Directory::permits(c[to], rw))
                        << show(e, n) << ": the reclaim completes kernel "
                        << to << "'s stranded fault as " << show(c, n);
                    reach(e, c, "reclaim completing a fault");
                }
            }
        }
    }

    void run()
    {
        const Copies born = dir.born();
        EXPECT_EQ(violation(kind, born, n), "");
        seen.insert(show(born, n));
        frontier.push_back(born);
        while (!frontier.empty()) {
            const Copies e = frontier.front();
            frontier.pop_front();
            expand(e);
        }
    }
};

class DirectoryRulesTest : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(DirectoryRulesTest, EveryReachableStateKeepsTheInvariants)
{
    for (const std::size_t n : {std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE("N=" + std::to_string(n));
        Search s(GetParam(), n);
        s.run();
        std::printf("%s N=%zu: %zu states, %zu steps\n",
                    protocolName(GetParam()), n, s.seen.size(), s.steps);
        EXPECT_GT(s.seen.size(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Invalidation, DirectoryRulesTest,
    ::testing::Values(ProtocolKind::TwoState, ProtocolKind::ThreeState,
                      ProtocolKind::Mesi, ProtocolKind::Moesi),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        return std::string(protocolName(info.param));
    });

} // namespace
} // namespace k2::os::coherence
