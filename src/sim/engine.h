/**
 * @file
 * Discrete-event simulation engine.
 *
 * One Engine drives an entire simulated SoC. Events are callbacks
 * ordered by (time, insertion sequence); ties are broken FIFO so runs
 * are bit-for-bit deterministic. Coroutines interact with the engine
 * through awaitables (sleep) and by being spawned as detached top-level
 * activities.
 *
 * The event core is allocation-free on its common paths:
 *
 *  - Event records live in an engine-owned slab pool and are addressed
 *    by a {slot, generation} handle (EventId). Cancelling bumps the
 *    slot's generation, so stale handles (including handles to events
 *    that already fired) are detected and ignored even after the slot
 *    has been reused.
 *  - The payload is tagged, not type-erased through std::function: a
 *    raw coroutine handle (used by sleep()/resumeLater()/spawn()) or
 *    an inline small-buffer callable (up to kInlineCapture bytes of
 *    capture, no heap). A larger capture does not compile.
 *  - Pending events sit in an engine-owned 4-ary min-heap of small POD
 *    entries; pop-min moves entries in place (no copy-out of a
 *    type-erased callback) and cancelled entries are dropped as soon
 *    as they surface at the top.
 */

#ifndef K2_SIM_ENGINE_H
#define K2_SIM_ENGINE_H

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/log.h"
#include "sim/task.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace k2 {
namespace snap {
class Io;
}
namespace sim {

/**
 * Handle used to cancel a scheduled event.
 *
 * A cheap {slot, generation} pair into the Engine's event pool. Copies
 * alias the same event; once the event fires or is cancelled the slot's
 * generation moves on and every outstanding handle becomes a no-op.
 */
class EventId
{
  public:
    EventId() = default;

    /** True if this handle refers to an event (possibly already run). */
    bool valid() const { return slot_ != kInvalidSlot; }

  private:
    friend class Engine;

    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

    EventId(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {}

    std::uint32_t slot_ = kInvalidSlot;
    std::uint32_t gen_ = 0;
};

/**
 * The discrete-event engine.
 */
class Engine
{
  public:
    /** Callable captures up to this size are stored inline (no heap);
     *  a larger one is a compile error (see place()). */
    static constexpr std::size_t kInlineCapture = 4 * sizeof(void *);

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;
    ~Engine();

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule a callback at an absolute simulated time.
     *
     * The callable is stored inline in the event pool: its capture
     * must fit kInlineCapture bytes and be nothrow-movable.
     *
     * @param when Absolute time; must be >= now().
     * @param fn Callback to run.
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    at(Time when, F &&fn)
    {
        return place(allocSlot(when), std::forward<F>(fn));
    }

    /**
     * Take the insertion sequence number the next at()/after() would
     * use, without scheduling anything. A caller that defers queuing
     * an event (soc::Core's inactive timer) reserves its place in the
     * (time, sequence) order at the moment it decides, and queues it
     * later with atReserved().
     */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Schedule a callback at (@p when, @p seq) with a sequence number
     * from reserveSeq(). It then dispatches exactly where an at() call
     * made at reservation time would have, ties included. The caller
     * must queue it before the engine dispatches past that position,
     * and use each reserved number at most once.
     */
    template <typename F>
    EventId
    atReserved(Time when, std::uint64_t seq, F &&fn)
    {
        return place(allocSlot(when, seq), std::forward<F>(fn));
    }

    /** Schedule a callback after a relative delay. */
    template <typename F>
    EventId
    after(Duration delay, F &&fn)
    {
        return at(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Schedule a coroutine resume at an absolute time (fast path: no
     * callable wrapper, no allocation).
     */
    EventId atResume(Time when, std::coroutine_handle<> h);

    /** Cancel a pending event; no-op if it already ran. */
    void cancel(EventId &id);

    /**
     * Detach a Task<void> as a top-level simulated activity.
     *
     * The task starts at the current time (as a scheduled event, not
     * inline) and frees its own frame on completion.
     */
    void spawn(Task<void> task);

    /** Awaitable that suspends the caller for a simulated duration. */
    class SleepAwaiter
    {
      public:
        SleepAwaiter(Engine &eng, Duration d)
            : engine_(eng), delay_(d)
        {}

        bool await_ready() const { return delay_ == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            engine_.atResume(engine_.now() + delay_, h);
        }

        void await_resume() const {}

      private:
        Engine &engine_;
        Duration delay_;
    };

    /** Suspend the calling coroutine for @p d simulated time. */
    SleepAwaiter sleep(Duration d) { return SleepAwaiter(*this, d); }

    /** Resume a coroutine handle at the current time (as an event). */
    void resumeLater(std::coroutine_handle<> h) { atResume(now_, h); }

    /**
     * Run events until the queue is empty or simulated time would
     * exceed @p until.
     *
     * @param until Inclusive time horizon.
     * @return Number of events dispatched.
     */
    std::uint64_t run(Time until = kTimeNever);

    /** Run a single event. @return false if the queue was empty. */
    bool runOne();

    /** Number of events dispatched since construction. */
    std::uint64_t eventsDispatched() const { return dispatched_; }

    /** Number of live (not cancelled) pending events. */
    std::size_t pendingEvents() const { return live_; }

    /** Total event-record slots ever allocated (pool high-water). */
    std::size_t poolCapacity() const { return allocatedSlots_; }

    /** The engine's span tracer (disabled by default). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * Capture/restore the engine's state (snap::Snapshot).
     *
     * Precondition both ways: quiescent -- the event heap is empty and
     * no live records exist, so the slab is one free-list permutation.
     * Restore rewrites the clock, the dispatch/sequence counters, the
     * tracer, and the exact slot-generation + free-list chain, so a
     * rewound engine hands out byte-identical EventIds to a cold one.
     */
    void snapState(snap::Io &io);

    /**
     * @name Structured-span helpers.
     *
     * Thin wrappers over the tracer's span API stamped with now().
     * All are a single flag test when spans are disabled, keeping the
     * dispatch path allocation- and work-free. @{
     */
    TrackId addTrack(const std::string &name)
    {
        return tracer_.addTrack(name);
    }

    void
    spanBegin(TrackId track, const char *name)
    {
        if (tracer_.spansOn())
            tracer_.spanBegin(now_, track, name);
    }

    void
    spanEnd(TrackId track)
    {
        if (tracer_.spansOn())
            tracer_.spanEnd(now_, track);
    }

    /** Complete span from @p start to now(). */
    void
    spanComplete(Time start, TrackId track, const char *name)
    {
        if (tracer_.spansOn())
            tracer_.spanComplete(start, now_ - start, track, name);
    }

    void
    spanInstant(TrackId track, const char *name, double value = 0.0)
    {
        if (tracer_.spansOn())
            tracer_.spanInstant(now_, track, name, value);
    }

    void
    spanCounter(TrackId track, const char *name, double value)
    {
        if (tracer_.spansOn())
            tracer_.spanCounter(now_, track, name, value);
    }
    /** @} */

  private:
    /** Operations a payload manager implements for its callable. */
    enum class CbOp
    {
        Invoke,   //!< Call the callable.
        Destroy,  //!< Destroy it.
        Relocate, //!< Move-construct into @p dst, destroy the source.
    };

    using Manager = void (*)(CbOp op, void *obj, void *dst);

    /** One pooled event record. Slots are recycled through a free
     *  list; gen disambiguates incarnations of the same slot. */
    struct Record
    {
        enum class Kind : std::uint8_t
        {
            Free,   //!< On the free list.
            Coro,   //!< payload.coro: raw coroutine handle.
            Inline, //!< payload.buf: callable stored in place.
        };

        union Payload
        {
            std::coroutine_handle<> coro;
            alignas(std::max_align_t) unsigned char buf[kInlineCapture];

            Payload()
                : coro(nullptr)
            {}
        };

        Payload payload;
        Manager manager = nullptr;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = EventId::kInvalidSlot;
        Kind kind = Kind::Free;
    };

    /** Pending-event heap entry: POD, moved freely during sifts. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Slot
    {
        Record *rec;
        std::uint32_t slot;
    };

    /** Destroys a dispatched callable even if invoking it throws. */
    struct PayloadGuard
    {
        Manager mgr;
        void *obj;

        ~PayloadGuard() { mgr(CbOp::Destroy, obj, nullptr); }
    };

    template <typename Fn>
    static void
    inlineManager(CbOp op, void *obj, void *dst)
    {
        Fn *f = static_cast<Fn *>(obj);
        switch (op) {
          case CbOp::Invoke:
            (*f)();
            break;
          case CbOp::Destroy:
            f->~Fn();
            break;
          case CbOp::Relocate:
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
            break;
        }
    }

    /** Pop a record slot off the free list (growing the pool by one
     *  slab if needed) and push its heap entry at (@p when, @p seq). */
    Slot allocSlot(Time when, std::uint64_t seq);

    /** allocSlot() at the next sequence number. */
    Slot allocSlot(Time when);

    /** Store @p fn inline as the payload of the just-queued slot
     *  @p s. */
    template <typename F>
    EventId
    place(Slot s, F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineCapture &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "event capture must fit Engine::kInlineCapture");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event capture must be nothrow-movable (dispatch "
                      "relocates it out of the pool)");
        try {
            ::new (static_cast<void *>(s.rec->payload.buf))
                Fn(std::forward<F>(fn));
            s.rec->kind = Record::Kind::Inline;
            s.rec->manager = &inlineManager<Fn>;
        } catch (...) {
            // Copying the capture threw; unschedule the already-queued
            // record.
            ++staleEntries_;
            freeSlot(s.slot, *s.rec);
            throw;
        }
        return EventId(s.slot, s.rec->gen);
    }

    /** Return a slot to the free list, invalidating outstanding
     *  handles via the generation bump. */
    void freeSlot(std::uint32_t slot, Record &r);

    /** Destroy a pending record's payload without running it. */
    void destroyPayload(Record &r);

    /** Run the record in @p slot (frees the slot before invoking so
     *  the callback may freely reschedule). */
    void dispatch(std::uint32_t slot, Record &r);

    Record &
    rec(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void heapPush(const HeapEntry &e);
    void heapPopTop();
    void siftDown(std::size_t i);

    /** Rebuild the heap without its cancelled (stale) entries. Called
     *  when they outnumber the live ones, so a cancel-heavy workload
     *  cannot grow the queue unboundedly. */
    void compactHeap();

    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    Time now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t live_ = 0;
    std::size_t staleEntries_ = 0;
    Tracer tracer_;
    std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t freeHead_ = EventId::kInvalidSlot;
    std::uint32_t allocatedSlots_ = 0;
};

} // namespace sim
} // namespace k2

/**
 * Record a text instant on @p cat's trace track, formatting lazily:
 * the printf-style arguments are only evaluated when spans are on and
 * @p cat is enabled on @p eng's tracer.
 * @p eng and @p cat are evaluated more than once; keep them
 * side-effect free.
 */
#define K2_TRACE(eng, cat, ...)                                             \
    do {                                                                    \
        if ((eng).tracer().on(cat))                                         \
            (eng).tracer().textInstant((eng).now(), (cat),                  \
                                       ::k2::sim::strPrintf(__VA_ARGS__));  \
    } while (0)

#endif // K2_SIM_ENGINE_H
