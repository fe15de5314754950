/**
 * @file
 * Error-reporting tests: K2_FATAL throws a FatalError carrying the
 * formatted message.
 */

#include <gtest/gtest.h>

#include "sim/log.h"

namespace {

using namespace k2::sim;

TEST(Log, FatalThrowsWithMessage)
{
    try {
        K2_FATAL("bad knob %d", 7);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad knob 7");
    }
}

} // namespace
