/**
 * @file
 * Unit tests for the observability layer: the metrics registry
 * (snapshot, diff, JSON rendering) and the Chrome trace exporter.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "sim/engine.h"
#include "sim/log.h"
#include "sim/sketch.h"
#include "sim/stats.h"

namespace k2::obs {
namespace {

TEST(MetricsRegistry, SnapshotCapturesLiveStats)
{
    sim::Counter c;
    sim::QuantileSketch h;
    double g = 1.5;

    MetricsRegistry reg;
    reg.addCounter("x.count", c);
    reg.addHistogram("x.lat_us", h);
    reg.addGauge("x.gauge", [&g]() { return g; });
    EXPECT_EQ(reg.size(), 3u);

    c.inc(3);
    h.sample(2.0);
    h.sample(6.0);
    g = 2.5;

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);

    const MetricValue *cv = snap.find("x.count");
    ASSERT_NE(cv, nullptr);
    EXPECT_EQ(cv->kind, MetricValue::Kind::Counter);
    EXPECT_EQ(cv->count, 3u);

    const MetricValue *av = snap.find("x.lat_us");
    ASSERT_NE(av, nullptr);
    EXPECT_EQ(av->kind, MetricValue::Kind::Histogram);
    EXPECT_EQ(av->count, 2u);
    EXPECT_DOUBLE_EQ(av->sum, 8.0);
    EXPECT_DOUBLE_EQ(av->min, 2.0);
    EXPECT_DOUBLE_EQ(av->max, 6.0);
    EXPECT_DOUBLE_EQ(av->mean(), 4.0);
    // Nearest rank: p50 of two samples is the lower one (exact min);
    // p99 is the upper sample's bucket boundary, clamped to max.
    EXPECT_DOUBLE_EQ(av->p50, 2.0);
    EXPECT_DOUBLE_EQ(av->p99, 6.0);

    const MetricValue *gv = snap.find("x.gauge");
    ASSERT_NE(gv, nullptr);
    EXPECT_DOUBLE_EQ(gv->value, 2.5);

    EXPECT_TRUE(snap.hasPrefix("x."));
    EXPECT_FALSE(snap.hasPrefix("y."));
    EXPECT_EQ(snap.find("missing"), nullptr);

    // Snapshots are immutable captures: mutating the live stat must
    // not change an existing snapshot.
    c.inc(100);
    EXPECT_EQ(snap.find("x.count")->count, 3u);
}

TEST(MetricsRegistry, DiffSubtractsAndInvalidatesExtrema)
{
    sim::Counter c;
    sim::QuantileSketch a;
    MetricsRegistry reg;
    reg.addCounter("c", c);
    reg.addHistogram("a", a);

    c.inc(10);
    a.sample(1.0);
    const MetricsSnapshot before = reg.snapshot();

    c.inc(5);
    a.sample(3.0);
    a.sample(5.0);
    const MetricsSnapshot after = reg.snapshot();

    const MetricsSnapshot d = MetricsRegistry::diff(before, after);
    EXPECT_EQ(d.find("c")->count, 5u);
    EXPECT_EQ(d.find("a")->count, 2u);
    EXPECT_DOUBLE_EQ(d.find("a")->sum, 8.0);
    // Interval min/max/percentiles are not derivable from endpoint
    // snapshots.
    EXPECT_TRUE(std::isnan(d.find("a")->min));
    EXPECT_TRUE(std::isnan(d.find("a")->max));
    EXPECT_TRUE(std::isnan(d.find("a")->p50));
    EXPECT_TRUE(std::isnan(d.find("a")->p99));
}

// Kept under its name from when sampled values had a count/sum/min/max
// kind of their own; every distribution is a sketch now.
TEST(MetricsRegistry, EmptyAccumulatorRendersNullNotZero)
{
    sim::QuantileSketch a;
    MetricsRegistry reg;
    reg.addHistogram("empty", a);
    const std::string json = reg.snapshot().toJson();
    // min/max of an empty distribution must not masquerade as 0.0.
    EXPECT_NE(json.find("\"min\": null"), std::string::npos);
    EXPECT_NE(json.find("\"max\": null"), std::string::npos);
}

TEST(MetricsRegistry, EmptySketchRendersNullPercentiles)
{
    sim::QuantileSketch h;
    MetricsRegistry reg;
    reg.addHistogram("empty", h);
    const std::string json = reg.snapshot().toJson();
    // An empty distribution has no p50/p99; 0 would read as a latency.
    EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
    EXPECT_NE(json.find("\"p99\": null"), std::string::npos);
}

TEST(MetricsRegistry, DuplicateAndInvalidNamesAreFatal)
{
    sim::Counter c;
    MetricsRegistry reg;
    reg.addCounter("ok.name-1", c);
    EXPECT_THROW(reg.addCounter("ok.name-1", c), sim::FatalError);
    EXPECT_THROW(reg.addCounter("Bad.Name", c), sim::FatalError);
    EXPECT_THROW(reg.addCounter("spac e", c), sim::FatalError);
    EXPECT_THROW(reg.addCounter("", c), sim::FatalError);
}

TEST(MetricsRegistry, JsonIsDeterministic)
{
    sim::Counter c;
    sim::QuantileSketch a;
    MetricsRegistry reg;
    reg.addCounter("z.c", c);
    reg.addHistogram("a.a", a);
    c.inc(7);
    a.sample(0.25);
    const MetricsSnapshot s1 = reg.snapshot();
    const MetricsSnapshot s2 = reg.snapshot();
    EXPECT_EQ(s1.toJson(), s2.toJson());
    // Ordered by name, so "a.a" precedes "z.c".
    const std::string json = s1.toJson();
    EXPECT_LT(json.find("\"a.a\""), json.find("\"z.c\""));
}

TEST(TraceExport, SpansSerialiseToCatapultJson)
{
    sim::Engine eng;
    sim::Tracer &tr = eng.tracer();
    const sim::TrackId t = tr.addTrack("test.track");
    tr.enableSpans(64);

    tr.spanComplete(sim::usec(1), sim::usec(2), t, "work");
    tr.spanInstant(sim::usec(5), t, "ping", 42.0);
    tr.spanCounter(sim::usec(6), t, "mW", 3.5);
    tr.spanCompleteStr(sim::usec(7), sim::usec(1), t, "run", "thread-9");

    const std::string json = chromeTraceJson(tr);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test.track\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\": \"thread-9\""), std::string::npos);
    // 1 us = 1.000000 in catapult microseconds, exactly.
    EXPECT_NE(json.find("\"ts\": 1.000000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 2.000000"), std::string::npos);
}

TEST(TraceExport, DropsCountedWhenBufferFull)
{
    sim::Engine eng;
    sim::Tracer &tr = eng.tracer();
    const sim::TrackId t = tr.addTrack("tiny");
    tr.enableSpans(2);
    tr.spanInstant(0, t, "a");
    tr.spanInstant(0, t, "b");
    tr.spanInstant(0, t, "c");
    EXPECT_EQ(tr.spanEvents().size(), 2u);
    EXPECT_EQ(tr.spansDropped(), 1u);
}

TEST(TraceExport, TextRecordsMirrorOntoCategoryTracks)
{
    sim::Engine eng;
    eng.tracer().enableSpans(64);
    eng.tracer().enable(sim::kTraceAll);
    K2_TRACE(eng, sim::TraceCat::Dsm, "fault on page %d", 7);

    bool found = false;
    for (const auto &e : eng.tracer().spanEvents()) {
        if (e.phase == sim::SpanPhase::Instant &&
            e.detail != sim::Tracer::kNoDetail &&
            eng.tracer().spanDetail(e.detail).find("fault on page 7") !=
                std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found);
    // The per-category track exists.
    bool track = false;
    for (const auto &name : eng.tracer().trackNames())
        track |= (name == "trace.dsm");
    EXPECT_TRUE(track);
}

TEST(TraceExport, DisabledSpansRecordNothing)
{
    sim::Engine eng;
    const sim::TrackId t = eng.tracer().addTrack("off");
    EXPECT_FALSE(eng.tracer().spansOn());
    eng.spanInstant(t, "ignored");
    eng.spanCounter(t, "ignored", 1.0);
    EXPECT_TRUE(eng.tracer().spanEvents().empty());
}

} // namespace
} // namespace k2::obs
