#include "sim/trace.h"

#include <bit>

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace sim {

const char *
Tracer::catName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sched:
        return "sched";
      case TraceCat::Dsm:
        return "dsm";
      case TraceCat::Irq:
        return "irq";
      case TraceCat::Mem:
        return "mem";
      case TraceCat::Nw:
        return "nw";
      case TraceCat::Mail:
        return "mail";
    }
    return "?";
}

void
Tracer::textInstant(Time when, TraceCat cat, std::string text)
{
    const auto idx =
        static_cast<std::size_t>(std::countr_zero(traceMask(cat)));
    K2_ASSERT(idx < kNumTraceCats);
    std::uint32_t detail = kNoDetail;
    if (spanDetails_.size() < spanCapacity_) {
        detail = static_cast<std::uint32_t>(spanDetails_.size());
        spanDetails_.push_back(std::move(text));
    }
    push(SpanEvent{when, 0, 0.0, catTracks_[idx], detail,
                   SpanPhase::Instant, catName(cat)});
}

TrackId
Tracer::addTrack(const std::string &name)
{
    auto it = trackByName_.find(name);
    if (it != trackByName_.end())
        return it->second;
    const auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(name);
    trackByName_.emplace(name, id);
    return id;
}

void
Tracer::enableSpans(std::size_t capacity)
{
    K2_ASSERT(capacity > 0);
    spanCapacity_ = capacity;
    spans_.reserve(capacity);
    spanDetails_.reserve(capacity / 8);
    for (std::size_t i = 0; i < kNumTraceCats; ++i) {
        catTracks_[i] = addTrack(
            std::string("trace.") +
            catName(static_cast<TraceCat>(1u << i)));
    }
    spansOn_ = true;
}

void
Tracer::snapState(snap::Io &io)
{
    io.pod(enabled_);
    io.pod(spansOn_);
    io.pod(spanCapacity_);
    io.pod(spansDropped_);

    // SpanEvents are serialised field by field: the struct has
    // padding, and the capture image must be byte-deterministic.
    // The name pointer is a process-lifetime literal, so storing it
    // verbatim is safe for the in-memory image.
    std::uint64_t n = io.count(spans_.size());
    if (io.restoring()) {
        spans_.clear();
        spans_.reserve(
            std::max(static_cast<std::size_t>(n), spanCapacity_));
        spans_.resize(static_cast<std::size_t>(n));
    }
    for (auto &e : spans_) {
        io.pod(e.ts);
        io.pod(e.dur);
        io.pod(e.value);
        io.pod(e.track);
        io.pod(e.detail);
        io.pod(e.phase);
        auto name = reinterpret_cast<std::uintptr_t>(e.name);
        io.pod(name);
        if (io.restoring())
            e.name = reinterpret_cast<const char *>(name);
    }

    n = io.count(spanDetails_.size());
    if (io.restoring()) {
        spanDetails_.clear();
        spanDetails_.resize(static_cast<std::size_t>(n));
    }
    for (auto &s : spanDetails_)
        io.str(s);

    // Tracks only ever grow and are deduplicated by name; restore
    // prunes back to the captured registry (post-capture tracks
    // re-register on replay and get the same ids, in the same order).
    n = io.count(tracks_.size());
    if (io.restoring()) {
        K2_ASSERT(n <= tracks_.size());
        tracks_.resize(static_cast<std::size_t>(n));
    }
    for (auto &name : tracks_)
        io.str(name);
    if (io.restoring()) {
        trackByName_.clear();
        for (std::size_t i = 0; i < tracks_.size(); ++i)
            trackByName_.emplace(tracks_[i], static_cast<TrackId>(i));
    }
    io.pod(catTracks_);
}

void
Tracer::spanCompleteStr(Time start, Duration dur, TrackId track,
                        const char *name, const std::string &detail)
{
    std::uint32_t idx = kNoDetail;
    if (spans_.size() < spanCapacity_ &&
        spanDetails_.size() < spanCapacity_) {
        idx = static_cast<std::uint32_t>(spanDetails_.size());
        spanDetails_.push_back(detail);
    }
    push(SpanEvent{start, dur, 0.0, track, idx, SpanPhase::Complete,
                   name});
}

} // namespace sim
} // namespace k2
