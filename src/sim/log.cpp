#include "sim/log.h"

#include <cstdarg>
#include <cstdio>

#include "sim/time.h"

namespace k2 {
namespace sim {

namespace {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

} // namespace

std::string
formatTime(Time t)
{
    char buf[64];
    if (t < nsec(10))
        std::snprintf(buf, sizeof(buf), "%llu ps",
                      static_cast<unsigned long long>(t));
    else if (t < usec(10))
        std::snprintf(buf, sizeof(buf), "%.3f ns", toNsec(t));
    else if (t < msec(10))
        std::snprintf(buf, sizeof(buf), "%.3f us", toUsec(t));
    else if (t < sec(10))
        std::snprintf(buf, sizeof(buf), "%.3f ms", toMsec(t));
    else
        std::snprintf(buf, sizeof(buf), "%.3f s", toSec(t));
    return buf;
}

std::string
strPrintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    throw FatalError(msg);
}

} // namespace sim
} // namespace k2
