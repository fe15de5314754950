/**
 * @file
 * Structured event tracing.
 *
 * The K2 prototype "includes extensive debugging support" (Table 2);
 * this is our equivalent: a *structured span* stream of POD events
 * (begin/end, complete spans, instants, counter samples) on named
 * tracks, recorded into a buffer whose capacity is reserved when spans
 * are enabled, so the hot path never allocates -- when the buffer
 * fills, further events are counted as dropped rather than grown. The
 * obs layer serialises this stream into a Chrome trace_event
 * (catapult) JSON file off the hot path. Components register their
 * tracks at construction time (cheap, deduplicated by name); recording
 * is a single flag test when spans are disabled.
 *
 * OS components also narrate their interesting transitions
 * (dispatches, DSM faults, interrupt reroutes, NightWatch suspends,
 * balloon moves) through the K2_TRACE macro. Each such line is an
 * instant on its category's `trace.<cat>` track carrying the formatted
 * text as its detail string; categories are selected by a bitmask and
 * cost one branch when off.
 */

#ifndef K2_SIM_TRACE_H
#define K2_SIM_TRACE_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace k2 {
namespace snap {
class Io;
}
namespace sim {

/** Trace categories (bitmask). */
enum class TraceCat : std::uint32_t
{
    Sched = 1u << 0, //!< Thread dispatch/park.
    Dsm = 1u << 1,   //!< Coherence faults and services.
    Irq = 1u << 2,   //!< Interrupt routing changes.
    Mem = 1u << 3,   //!< Balloon/meta-manager block moves.
    Nw = 1u << 4,    //!< NightWatch suspend/resume.
    Mail = 1u << 5,  //!< Hardware mail traffic.
};

constexpr std::uint32_t
traceMask(TraceCat c)
{
    return static_cast<std::uint32_t>(c);
}

/** Every category. */
inline constexpr std::uint32_t kTraceAll = 0x3F;

/** Number of distinct trace categories. */
inline constexpr std::size_t kNumTraceCats = 6;

/** Phase of a structured span event (maps onto catapult's "ph"). */
enum class SpanPhase : std::uint8_t
{
    Begin,    //!< Open a span on a track ("B").
    End,      //!< Close the innermost open span ("E").
    Complete, //!< A finished span with a known duration ("X").
    Instant,  //!< A point event ("i").
    Counter,  //!< A sampled numeric series ("C").
};

/** Identifies a registered span track. */
using TrackId = std::uint32_t;

class Tracer
{
  public:
    /** One structured span event (POD; see SpanPhase). */
    struct SpanEvent
    {
        Time ts;
        Duration dur;       //!< Complete events only.
        double value;       //!< Counter value / instant argument.
        TrackId track;
        std::uint32_t detail; //!< Index into spanDetails(), or kNoDetail.
        SpanPhase phase;
        const char *name;   //!< Must point at storage outliving the
                            //!< tracer (string literals in practice).
    };

    static constexpr std::uint32_t kNoDetail = 0xffffffffu;

    /** @name Text instants (K2_TRACE). @{ */

    /** Enable the categories in @p mask (in addition to current). */
    void enable(std::uint32_t mask) { enabled_ |= mask; }

    /** Disable the categories in @p mask. */
    void disable(std::uint32_t mask) { enabled_ &= ~mask; }

    /** True if spans are on and @p cat is enabled (call before
     *  formatting). */
    bool
    on(TraceCat cat) const
    {
        return spansOn_ && (enabled_ & traceMask(cat)) != 0;
    }

    /** Record @p text as an instant on @p cat's `trace.<cat>` track.
     *  Callers test on(cat) first (K2_TRACE does). */
    void textInstant(Time when, TraceCat cat, std::string text);

    /** Printable category name. */
    static const char *catName(TraceCat cat);

    /** @} */

    /** @name Structured spans. @{ */

    /**
     * Register (or look up) a track by name; returns its id. Tracks
     * are deduplicated by name, so components may re-register at every
     * construction. Cold path.
     */
    TrackId addTrack(const std::string &name);

    /**
     * Turn structured-span recording on, reserving buffer space for
     * @p capacity events up front so recording itself never allocates.
     */
    void enableSpans(std::size_t capacity = 1 << 16);

    /** Turn recording back off (the buffered events remain). */
    void disableSpans() { spansOn_ = false; }

    /** True if span recording is enabled (test before composing). */
    bool spansOn() const { return spansOn_; }

    void
    spanBegin(Time ts, TrackId track, const char *name)
    {
        push(SpanEvent{ts, 0, 0.0, track, kNoDetail, SpanPhase::Begin,
                       name});
    }

    void
    spanEnd(Time ts, TrackId track)
    {
        push(SpanEvent{ts, 0, 0.0, track, kNoDetail, SpanPhase::End,
                       nullptr});
    }

    void
    spanComplete(Time start, Duration dur, TrackId track,
                 const char *name)
    {
        push(SpanEvent{start, dur, 0.0, track, kNoDetail,
                       SpanPhase::Complete, name});
    }

    /** Complete span carrying a dynamic detail string (copied). */
    void spanCompleteStr(Time start, Duration dur, TrackId track,
                         const char *name, const std::string &detail);

    void
    spanInstant(Time ts, TrackId track, const char *name,
                double value = 0.0)
    {
        push(SpanEvent{ts, 0, value, track, kNoDetail,
                       SpanPhase::Instant, name});
    }

    void
    spanCounter(Time ts, TrackId track, const char *name, double value)
    {
        push(SpanEvent{ts, 0, value, track, kNoDetail,
                       SpanPhase::Counter, name});
    }

    /** Recorded span events, in recording order (not sorted by ts). */
    const std::vector<SpanEvent> &spanEvents() const { return spans_; }

    /** Registered track names, indexed by TrackId. */
    const std::vector<std::string> &trackNames() const { return tracks_; }

    /** Detail string referenced by SpanEvent::detail. */
    const std::string &spanDetail(std::uint32_t idx) const
    {
        return spanDetails_.at(idx);
    }

    /** Span events lost because the reserved buffer was full. */
    std::uint64_t spansDropped() const { return spansDropped_; }

    /** @} */

    /**
     * Capture/restore all tracer state: enabled masks, span cursors
     * and events, and the track registry (tracks
     * added after capture are pruned; they re-register on replay with
     * the same ids). Span name pointers are process-lifetime literals,
     * so the image is valid in-memory only.
     */
    void snapState(snap::Io &io);

  private:
    void
    push(const SpanEvent &e)
    {
        if (spans_.size() >= spanCapacity_) {
            ++spansDropped_;
            return;
        }
        spans_.push_back(e);
    }

    std::uint32_t enabled_ = 0;

    bool spansOn_ = false;
    std::size_t spanCapacity_ = 0;
    std::uint64_t spansDropped_ = 0;
    std::vector<SpanEvent> spans_;
    std::vector<std::string> spanDetails_;
    std::vector<std::string> tracks_;
    std::map<std::string, TrackId> trackByName_;
    std::array<TrackId, kNumTraceCats> catTracks_{};
};

} // namespace sim
} // namespace k2

#endif // K2_SIM_TRACE_H
