/**
 * @file
 * Unit tests for the coroutine Event latch.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/sync.h"

namespace k2::sim {
namespace {

TEST(Event, WaitBlocksUntilSet)
{
    Engine eng;
    Event ev(eng);
    std::vector<std::string> log;

    eng.spawn([](Event &ev, std::vector<std::string> &log) -> Task<void> {
        log.push_back("waiting");
        co_await ev.wait();
        log.push_back("woken");
    }(ev, log));

    eng.at(usec(5), [&]() {
        log.push_back("setting");
        ev.set();
    });

    eng.run();
    EXPECT_EQ(log, (std::vector<std::string>{"waiting", "setting", "woken"}));
}

TEST(Event, SetBeforeWaitCompletesImmediately)
{
    Engine eng;
    Event ev(eng);
    ev.set();
    bool done = false;
    eng.spawn([](Event &ev, bool *done) -> Task<void> {
        co_await ev.wait();
        *done = true;
    }(ev, &done));
    eng.run();
    EXPECT_TRUE(done);
}

TEST(Event, PulseWakesOnlyCurrentWaiters)
{
    Engine eng;
    Event ev(eng);
    int woken = 0;

    auto waiter = [](Event &ev, int *woken) -> Task<void> {
        co_await ev.wait();
        ++*woken;
    };
    eng.spawn(waiter(ev, &woken));
    eng.spawn(waiter(ev, &woken));
    eng.at(usec(1), [&]() { ev.pulse(); });
    eng.run();
    EXPECT_EQ(woken, 2);

    // A later waiter is not satisfied by the past pulse.
    eng.spawn(waiter(ev, &woken));
    eng.run();
    EXPECT_EQ(woken, 2);
}

} // namespace
} // namespace k2::sim
