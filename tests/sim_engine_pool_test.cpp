/**
 * @file
 * Stress tests for the pooled event core: handle/generation safety
 * (cancel-after-fire, cancel-twice, stale handles across slot reuse),
 * pool boundedness under churn, payload lifetime for both payload
 * kinds, and FIFO tie-break order identical to the seed engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace k2::sim {
namespace {

TEST(EventPool, CancelAfterFireIsNoop)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    eng.run();
    EXPECT_EQ(ran, 1);
    eng.cancel(id); // must not disturb anything
    EXPECT_FALSE(id.valid());
    eng.run();
    EXPECT_EQ(ran, 1);
}

TEST(EventPool, CancelTwiceIsNoop)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    EventId copy = id;
    eng.cancel(id);
    eng.cancel(id);   // already invalidated handle
    eng.cancel(copy); // aliasing handle, generation already bumped
    eng.run();
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(EventPool, StaleHandleDoesNotCancelSlotReuse)
{
    Engine eng;
    int first = 0;
    int second = 0;
    EventId a = eng.at(usec(1), [&]() { ++first; });
    EventId stale = a;
    eng.cancel(a); // frees the slot
    // The very next schedule reuses the freed slot (LIFO free list).
    EventId b = eng.at(usec(1), [&]() { ++second; });
    eng.cancel(stale); // generation mismatch: must be a no-op
    eng.run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1) << "stale cancel must not kill the new event";
    (void)b;
}

TEST(EventPool, StaleHandleAfterFireDoesNotCancelReuse)
{
    Engine eng;
    int second = 0;
    EventId a = eng.at(usec(1), [&]() {});
    eng.run();
    // Slot of `a` was recycled when it fired; schedule into it.
    eng.at(usec(2), [&]() { ++second; });
    eng.cancel(a);
    eng.run();
    EXPECT_EQ(second, 1);
}

TEST(EventPool, ChurnKeepsPoolBounded)
{
    Engine eng;
    // 100k schedule/cancel pairs with at most 64 events in flight must
    // not grow the pool beyond one slab.
    std::vector<EventId> ids;
    int ran = 0;
    for (int round = 0; round < 100000 / 64; ++round) {
        for (int i = 0; i < 64; ++i)
            ids.push_back(eng.at(usec(1000), [&]() { ++ran; }));
        for (auto &id : ids)
            eng.cancel(id);
        ids.clear();
    }
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_LE(eng.poolCapacity(), 256u)
        << "pool must recycle slots, not grow per event";
    eng.run();
    EXPECT_EQ(ran, 0);
}

TEST(EventPool, ChurnWhileDispatchingKeepsPoolBounded)
{
    Engine eng;
    std::uint64_t ran = 0;
    // A self-rescheduling chain: each dispatch frees its slot before
    // running, so the whole 100k-event chain should reuse one slot row.
    std::uint64_t remaining = 100000;
    std::function<void()> step = [&]() {
        ++ran;
        if (--remaining > 0)
            eng.after(nsec(1), [&]() { step(); });
    };
    eng.after(nsec(1), [&]() { step(); });
    eng.run();
    EXPECT_EQ(ran, 100000u);
    EXPECT_LE(eng.poolCapacity(), 256u);
}

TEST(EventPool, FifoTieBreakMatchesSeedEngine)
{
    Engine eng;
    std::vector<int> order;
    // Interleave two times plus cancellations; dispatch order must be
    // (time, insertion sequence) with cancelled entries skipped --
    // exactly what the seed std::priority_queue engine produced.
    std::vector<EventId> cancelled;
    for (int i = 0; i < 100; ++i) {
        const Time t = (i % 2 == 0) ? usec(5) : usec(3);
        EventId id = eng.at(t, [&order, i]() { order.push_back(i); });
        if (i % 7 == 0)
            cancelled.push_back(id);
    }
    for (auto &id : cancelled)
        eng.cancel(id);
    eng.run();

    std::vector<int> expect;
    for (int i = 1; i < 100; i += 2) // usec(3) group, insertion order
        if (i % 7 != 0)
            expect.push_back(i);
    for (int i = 0; i < 100; i += 2) // usec(5) group, insertion order
        if (i % 7 != 0)
            expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(EventPool, CancelDestroysInlineCapture)
{
    Engine eng;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    EventId id = eng.at(usec(1), [t = std::move(token)]() { (void)t; });
    EXPECT_FALSE(watch.expired());
    eng.cancel(id);
    EXPECT_TRUE(watch.expired())
        << "cancel must destroy the captured state immediately";
}

TEST(EventPool, DestructorReleasesPendingPayloads)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        Engine eng;
        eng.at(usec(1), [t = std::move(token)]() { (void)t; });
        // Engine destroyed with the event still pending.
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventPool, RescheduleFromCallbackIntoOwnSlot)
{
    Engine eng;
    int phase = 0;
    eng.at(usec(1), [&]() {
        ++phase;
        // Dispatch freed our slot before invoking; this reuses it.
        eng.after(usec(1), [&]() { ++phase; });
    });
    eng.run();
    EXPECT_EQ(phase, 2);
    EXPECT_LE(eng.poolCapacity(), 256u);
}

TEST(EventPool, ManyPendingEventsAcrossSlabsFireInOrder)
{
    Engine eng;
    // Force multiple slabs (256 slots each) to be live at once.
    constexpr int kEvents = 3000;
    std::vector<int> order;
    order.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i)
        eng.at(usec(1) + static_cast<Time>(i % 17),
               [&order, i]() { order.push_back(i); });
    EXPECT_EQ(eng.pendingEvents(), static_cast<std::size_t>(kEvents));
    EXPECT_GE(eng.poolCapacity(), static_cast<std::size_t>(kEvents));
    eng.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
    // Within each time bucket, FIFO by insertion.
    for (int t = 0; t < 17; ++t) {
        int prev = -1;
        for (int v : order) {
            if (v % 17 != t)
                continue;
            EXPECT_LT(prev, v);
            prev = v;
        }
    }
}

TEST(EventPool, SleepResumeReusesSlots)
{
    Engine eng;
    std::uint64_t laps = 0;
    eng.spawn([](Engine &e, std::uint64_t *laps) -> Task<void> {
        for (int i = 0; i < 10000; ++i) {
            co_await e.sleep(nsec(1));
            ++*laps;
        }
    }(eng, &laps));
    eng.run();
    EXPECT_EQ(laps, 10000u);
    EXPECT_LE(eng.poolCapacity(), 256u)
        << "the coroutine fast path must recycle its slot";
}

} // namespace
} // namespace k2::sim
