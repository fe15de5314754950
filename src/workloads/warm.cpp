#include "workloads/warm.h"

#include "sim/log.h"
#include "workloads/sweep.h"

namespace k2 {
namespace wl {

const char *
sweepModeName(SweepMode mode)
{
    return mode == SweepMode::Warm ? "warm" : "cold";
}

SweepMode
parseSweepFlag(int &argc, char **argv)
{
    std::string value;
    if (!consumeFlag(argc, argv, "--sweep=", value))
        return SweepMode::Warm;
    if (value == "cold")
        return SweepMode::Cold;
    if (value == "warm")
        return SweepMode::Warm;
    K2_FATAL("--sweep expects 'cold' or 'warm', got '%s'",
             value.c_str());
}

Testbed &
warmK2(SweepMode mode, const std::string &key,
       const std::function<os::K2Config()> &cfg)
{
    return warmFixture<Testbed>(mode, key, [&cfg] {
        return std::make_unique<Testbed>(
            cfg ? Testbed::makeK2(cfg()) : Testbed::makeK2());
    });
}

Testbed &
warmLinux(SweepMode mode, const std::string &key,
          const std::function<baseline::LinuxConfig()> &cfg)
{
    return warmFixture<Testbed>(mode, key, [&cfg] {
        return std::make_unique<Testbed>(
            cfg ? Testbed::makeLinux(cfg()) : Testbed::makeLinux());
    });
}

} // namespace wl
} // namespace k2
