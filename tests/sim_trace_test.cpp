/**
 * @file
 * Tests for K2_TRACE text instants: the category mask, the spans-off
 * fast path, and the OS components' emit sites, all observed on the
 * span stream's `trace.<cat>` tracks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/trace.h"
#include "workloads/testbed.h"

namespace k2 {
namespace {

using kern::Thread;
using sim::SpanPhase;
using sim::Task;
using sim::TraceCat;
using sim::Tracer;

/** Detail texts of the instants on @p cat's trace track, in order. */
std::vector<std::string>
instantsOn(const Tracer &tr, TraceCat cat)
{
    const std::string track = std::string("trace.") + Tracer::catName(cat);
    std::vector<std::string> out;
    for (const auto &e : tr.spanEvents()) {
        if (e.phase != SpanPhase::Instant ||
            tr.trackNames().at(e.track) != track)
            continue;
        out.push_back(e.detail == Tracer::kNoDetail
                          ? std::string()
                          : tr.spanDetail(e.detail));
    }
    return out;
}

TEST(Tracer, DisabledByDefaultAndCheap)
{
    sim::Engine eng;
    Tracer &tr = eng.tracer();
    EXPECT_FALSE(tr.on(TraceCat::Sched));

    // Categories alone do not turn tracing on: with spans off, on() is
    // false and K2_TRACE never formats its arguments.
    tr.enable(sim::kTraceAll);
    EXPECT_FALSE(tr.on(TraceCat::Sched));
    int formatted = 0;
    K2_TRACE(eng, TraceCat::Sched, "%d", ++formatted);
    EXPECT_EQ(formatted, 0);
    EXPECT_TRUE(tr.spanEvents().empty());
}

TEST(Tracer, MaskControlsCategories)
{
    sim::Engine eng;
    Tracer &tr = eng.tracer();
    tr.enableSpans(64);
    tr.enable(traceMask(TraceCat::Dsm) | traceMask(TraceCat::Nw));
    EXPECT_TRUE(tr.on(TraceCat::Dsm));
    EXPECT_TRUE(tr.on(TraceCat::Nw));
    EXPECT_FALSE(tr.on(TraceCat::Irq));
    K2_TRACE(eng, TraceCat::Dsm, "a");
    K2_TRACE(eng, TraceCat::Irq, "b");
    EXPECT_EQ(instantsOn(tr, TraceCat::Dsm),
              std::vector<std::string>{"a"});
    EXPECT_TRUE(instantsOn(tr, TraceCat::Irq).empty());

    tr.disable(traceMask(TraceCat::Dsm));
    EXPECT_FALSE(tr.on(TraceCat::Dsm));
    K2_TRACE(eng, TraceCat::Dsm, "c");
    EXPECT_EQ(tr.spanEvents().size(), 1u);
}

TEST(Tracer, OsComponentsEmitOnTheirTransitions)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    auto tb = wl::Testbed::makeK2(cfg);
    tb.engine().tracer().enableSpans();
    tb.engine().tracer().enable(sim::kTraceAll);

    // One NightWatch + Normal interaction with a DSM-touching service
    // exercises sched, mail, dsm, and nw categories.
    tb.sys().spawnNightWatch(tb.proc(), "nw",
                             [&](Thread &t) -> Task<void> {
                                 co_await tb.dma().transfer(t, 4096);
                             });
    tb.sys().spawnNormal(tb.proc(), "fg",
                         [&](Thread &t) -> Task<void> {
                             co_await t.exec(35000);
                         });
    tb.engine().run();

    const auto &tr = tb.engine().tracer();
    ASSERT_EQ(tr.spansDropped(), 0u);
    EXPECT_FALSE(instantsOn(tr, TraceCat::Mail).empty());
    EXPECT_FALSE(instantsOn(tr, TraceCat::Dsm).empty());
    EXPECT_FALSE(instantsOn(tr, TraceCat::Nw).empty());

    // A specific, human-readable instant exists.
    bool saw_dispatch = false;
    for (const auto &text : instantsOn(tr, TraceCat::Sched)) {
        if (text.find("dispatch 'fg'") != std::string::npos)
            saw_dispatch = true;
    }
    EXPECT_TRUE(saw_dispatch);
}

TEST(Tracer, IrqRerouteEmits)
{
    auto tb = wl::Testbed::makeK2(); // default 5 s gating
    tb.engine().tracer().enableSpans();
    tb.engine().tracer().enable(traceMask(TraceCat::Irq));
    tb.sys().spawnNormal(tb.proc(), "t",
                         [&](Thread &t) -> Task<void> {
                             co_await t.exec(1000);
                         });
    tb.engine().run(); // strong domain eventually gates -> reroute
    const auto &tr = tb.engine().tracer();
    ASSERT_EQ(tr.spansDropped(), 0u);
    const auto irq = instantsOn(tr, TraceCat::Irq);
    ASSERT_FALSE(irq.empty());
    EXPECT_NE(irq.back().find("rerouted to weak"), std::string::npos);
}

} // namespace
} // namespace k2
