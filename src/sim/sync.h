/**
 * @file
 * Coroutine synchronisation for simulated activities: the Event latch.
 *
 * All wakeups are routed through the Engine's event queue (at the
 * current simulated time) rather than resumed inline, so waker code
 * never runs re-entrantly inside the waiter and wake order is
 * deterministic FIFO.
 */

#ifndef K2_SIM_SYNC_H
#define K2_SIM_SYNC_H

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/engine.h"
#include "snap/io.h"

namespace k2 {
namespace sim {

/**
 * A level-triggered event (a "latch").
 *
 * wait() suspends until the event is set; if it is already set, wait()
 * completes immediately. set() wakes all waiters. reset() re-arms it.
 */
class Event
{
  public:
    explicit Event(Engine &eng)
        : engine_(eng)
    {}

    bool isSet() const { return set_; }

    /** Set the event and wake all current waiters. */
    void
    set()
    {
        set_ = true;
        wakeAll();
    }

    /** Clear the event so future wait()s block again. */
    void reset() { set_ = false; }

    /** Wake all current waiters without latching (edge trigger). */
    void
    pulse()
    {
        wakeAll();
    }

    class Awaiter
    {
      public:
        explicit Awaiter(Event &ev)
            : event_(ev)
        {}

        bool await_ready() const { return event_.set_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            event_.waiters_.push_back(h);
        }

        void await_resume() const {}

      private:
        Event &event_;
    };

    /** Suspend until the event is set (or was pulsed while waiting). */
    Awaiter wait() { return Awaiter(*this); }

    std::size_t waiterCount() const { return waiters_.size(); }

    /**
     * Capture/restore the latch flag. Parked waiters are persistent
     * coroutine frames (scheduler core loops, daemon watchers) that
     * stay structurally in place across a snapshot; their count is
     * recorded as a structural invariant, never rebuilt from bytes.
     */
    void
    snapState(snap::Io &io)
    {
        io.check(waiters_.size(), "Event::waiters");
        io.pod(set_);
    }

  private:
    void
    wakeAll()
    {
        std::vector<std::coroutine_handle<>> ws;
        ws.swap(waiters_);
        for (auto h : ws)
            engine_.resumeLater(h);
    }

    Engine &engine_;
    /** A vector, not a deque: an event nobody waits on owns no heap
     *  (each DSM page record holds two). */
    std::vector<std::coroutine_handle<>> waiters_;
    bool set_ = false;
};

} // namespace sim
} // namespace k2

#endif // K2_SIM_SYNC_H
