/**
 * @file
 * Unit tests for the discrete-event engine and Task coroutines.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/task.h"
#include "sim/time.h"

namespace k2::sim {
namespace {

TEST(Time, DurationConstructors)
{
    EXPECT_EQ(nsec(1), 1000u);
    EXPECT_EQ(usec(1), 1000u * 1000u);
    EXPECT_EQ(msec(1), 1000ull * 1000 * 1000);
    EXPECT_EQ(sec(1), 1000ull * 1000 * 1000 * 1000);
    EXPECT_EQ(sec(2), msec(2000));
}

TEST(Time, CyclesToTime)
{
    // 1 GHz: one cycle is exactly 1 ns.
    EXPECT_EQ(cyclesToTime(1, 1000000000ull), nsec(1));
    EXPECT_EQ(cyclesToTime(1000, 1000000000ull), usec(1));
    // 200 MHz: one cycle is 5 ns.
    EXPECT_EQ(cyclesToTime(1, 200000000ull), nsec(5));
    // 1.2 GHz: one cycle is ~833.3 ps, rounded up.
    EXPECT_EQ(cyclesToTime(1, 1200000000ull), 834u);
    // Rounding must never produce zero for nonzero cycles.
    EXPECT_GT(cyclesToTime(1, 3000000000ull), 0u);
}

TEST(Time, TimeToCycles)
{
    EXPECT_EQ(timeToCycles(usec(1), 1000000000ull), 1000u);
    EXPECT_EQ(timeToCycles(nsec(5), 200000000ull), 1u);
}

TEST(Engine, EventsRunInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.at(usec(3), [&]() { order.push_back(3); });
    eng.at(usec(1), [&]() { order.push_back(1); });
    eng.at(usec(2), [&]() { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), usec(3));
}

TEST(Engine, TiesBreakFifo)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eng.at(usec(5), [&, i]() { order.push_back(i); });
    eng.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, ReservedSequenceKeepsItsPlaceInTies)
{
    // A reserved number orders the event as if it had been queued at
    // reservation time: after events queued earlier at the same time,
    // before those queued later.
    Engine eng;
    std::vector<int> order;
    eng.at(usec(5), [&order]() { order.push_back(1); });
    const std::uint64_t seq = eng.reserveSeq();
    eng.at(usec(5), [&order]() { order.push_back(3); });
    eng.atReserved(usec(5), seq, [&order]() { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilHorizonStopsAndAdvancesClock)
{
    Engine eng;
    int ran = 0;
    eng.at(usec(1), [&]() { ++ran; });
    eng.at(usec(10), [&]() { ++ran; });
    eng.run(usec(5));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eng.now(), usec(5));
    eng.run();
    EXPECT_EQ(ran, 2);
}

TEST(Engine, CancelPreventsDispatch)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    eng.cancel(id);
    eng.run();
    EXPECT_EQ(ran, 0);
}

TEST(Engine, CancelAfterFireIsNoop)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    eng.run();
    eng.cancel(id);
    EXPECT_EQ(ran, 1);
}

TEST(Engine, NestedSchedulingFromCallback)
{
    Engine eng;
    std::vector<Time> times;
    eng.at(usec(1), [&]() {
        times.push_back(eng.now());
        eng.after(usec(2), [&]() { times.push_back(eng.now()); });
    });
    eng.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], usec(1));
    EXPECT_EQ(times[1], usec(3));
}

Task<int>
fortyTwo()
{
    co_return 42;
}

Task<int>
addOne(Task<int> inner)
{
    const int v = co_await inner;
    co_return v + 1;
}

Task<void>
storeResult(Engine &eng, int *out)
{
    co_await eng.sleep(usec(7));
    *out = co_await addOne(fortyTwo());
}

TEST(Task, SpawnedCoroutineRunsAndComposes)
{
    Engine eng;
    int result = 0;
    eng.spawn(storeResult(eng, &result));
    EXPECT_EQ(result, 0) << "task must be lazy";
    eng.run();
    EXPECT_EQ(result, 43);
    EXPECT_EQ(eng.now(), usec(7));
}

TEST(Task, UnawaitedTaskNeverRuns)
{
    Engine eng;
    bool ran = false;
    {
        auto t = [&]() -> Task<void> {
            ran = true;
            co_return;
        }();
        // t destroyed without being awaited or spawned.
    }
    eng.run();
    EXPECT_FALSE(ran);
}

Task<void>
thrower()
{
    co_await std::suspend_never{};
    throw std::runtime_error("boom");
}

Task<void>
catcher(bool *caught)
{
    try {
        co_await thrower();
    } catch (const std::runtime_error &) {
        *caught = true;
    }
}

TEST(Task, ExceptionsPropagateToAwaiter)
{
    Engine eng;
    bool caught = false;
    eng.spawn(catcher(&caught));
    eng.run();
    EXPECT_TRUE(caught);
}

Task<void>
deepChain(Engine &eng, int depth, int *count)
{
    if (depth == 0) {
        co_await eng.sleep(nsec(1));
        ++*count;
        co_return;
    }
    co_await deepChain(eng, depth - 1, count);
    ++*count;
}

TEST(Task, DeepAwaitChainDoesNotOverflowStack)
{
#if defined(__SANITIZE_ADDRESS__)
    // ASan's larger frames put a 20k chain right at the default stack
    // limit; the symmetric-transfer property is tested the same way.
    constexpr int kDepth = 2000;
#else
    constexpr int kDepth = 20000;
#endif
    Engine eng;
    int count = 0;
    eng.spawn(deepChain(eng, kDepth, &count));
    eng.run();
    EXPECT_EQ(count, kDepth + 1);
}

TEST(Engine, SleepZeroCompletesImmediately)
{
    Engine eng;
    int steps = 0;
    eng.spawn([](Engine &e, int *s) -> Task<void> {
        co_await e.sleep(0);
        ++*s;
        co_await e.sleep(usec(1));
        ++*s;
    }(eng, &steps));
    eng.run();
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(eng.now(), usec(1));
}

TEST(Engine, ManySpawnsAllComplete)
{
    Engine eng;
    int done = 0;
    for (int i = 0; i < 1000; ++i) {
        eng.spawn([](Engine &e, int *d, int i) -> Task<void> {
            co_await e.sleep(nsec(static_cast<std::uint64_t>(i)));
            ++*d;
        }(eng, &done, i));
    }
    eng.run();
    EXPECT_EQ(done, 1000);
}

} // namespace
} // namespace k2::sim
