#include "workloads/sweep.h"

#include "os/coherence/protocol.h"
#include "sim/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace k2 {
namespace wl {

struct SweepRunner::CellState
{
    LaneCell fn;               //!< Plain cells wrap to ignore the lane.
    std::exception_ptr error;  //!< Set if the cell threw.
};

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs
                 : std::max(1u, std::thread::hardware_concurrency()))
{
}

SweepRunner::~SweepRunner() = default;

std::size_t
SweepRunner::size() const
{
    return cells_.size();
}

std::size_t
SweepRunner::submit(Cell cell)
{
    return submitLane(
        [fn = std::move(cell)](std::size_t) { fn(); });
}

std::size_t
SweepRunner::submitLane(LaneCell cell)
{
    cells_.push_back(CellState{std::move(cell), nullptr});
    return cells_.size() - 1;
}

void
SweepRunner::runCell(CellState &cell, std::size_t lane)
{
    try {
        cell.fn(lane);
    } catch (...) {
        cell.error = std::current_exception();
    }
}

void
SweepRunner::run()
{
    if (cells_.empty())
        return;

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, cells_.size()));

    if (workers <= 1) {
        // Serial reference behaviour: the calling thread runs every
        // cell in submission order.
        for (CellState &cell : cells_)
            runCell(cell, 0);
    } else {
        // Work-stealing pool: cells are dealt round-robin into
        // per-worker deques; a worker pops from the front of its own
        // deque and, when empty, steals from the back of another's.
        // Stealing only changes *which thread* runs a cell -- never
        // what the cell computes or where its output lands -- so the
        // schedule is free to be nondeterministic while every
        // artifact stays byte-identical.
        struct WorkQueue
        {
            std::mutex mu;
            std::deque<std::size_t> q;
        };
        std::vector<WorkQueue> queues(workers);
        for (std::size_t i = 0; i < cells_.size(); ++i)
            queues[i % workers].q.push_back(i);

        auto workerBody = [this, &queues, workers](unsigned self) {
            for (;;) {
                std::size_t idx;
                bool found = false;
                {
                    WorkQueue &own = queues[self];
                    std::lock_guard<std::mutex> lock(own.mu);
                    if (!own.q.empty()) {
                        idx = own.q.front();
                        own.q.pop_front();
                        found = true;
                    }
                }
                for (unsigned v = 1; !found && v < workers; ++v) {
                    WorkQueue &victim = queues[(self + v) % workers];
                    std::lock_guard<std::mutex> lock(victim.mu);
                    if (!victim.q.empty()) {
                        idx = victim.q.back();
                        victim.q.pop_back();
                        found = true;
                    }
                }
                if (!found)
                    return; // all queues drained; no new work appears
                runCell(cells_[idx], self);
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(workerBody, w);
        for (std::thread &t : pool)
            t.join();
    }

    // Flush what the caller printed before the sweep: it keeps its
    // place relative to stderr, and survives a rethrow below that
    // ends the program uncaught.
    std::fflush(stdout);

    // Surface failures: identify the first failed cell by submission
    // index and rethrow wrapped with the cell index (and the count of
    // further failures it stands for), so the caller can tell *which*
    // configuration blew up and how many others did too.
    std::exception_ptr first;
    std::size_t firstIdx = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (!cells_[i].error)
            continue;
        ++failed;
        if (!first) {
            first = cells_[i].error;
            firstIdx = i;
        }
    }
    cells_.clear();
    if (!first)
        return;
    const std::string suppressed =
        failed > 1 ? sim::strPrintf(" [%zu cell(s) failed; suppressing "
                                    "%zu more]",
                                    failed, failed - 1)
                   : std::string();
    try {
        std::rethrow_exception(first);
    } catch (const sim::FatalError &e) {
        throw sim::FatalError(sim::strPrintf(
            "sweep cell %zu: %s%s", firstIdx, e.what(),
            suppressed.c_str()));
    } catch (const std::exception &e) {
        throw std::runtime_error(sim::strPrintf(
            "sweep cell %zu: %s%s", firstIdx, e.what(),
            suppressed.c_str()));
    }
    // Non-std exceptions propagate unwrapped from the rethrow above.
}

bool
consumeFlag(int &argc, char **argv, const char *flag,
            std::string &value)
{
    const std::size_t n = std::strlen(flag);
    bool found = false;
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, n) == 0) {
            value = argv[i] + n; // last occurrence wins
            found = true;
        } else {
            argv[keep++] = argv[i];
        }
    }
    argc = keep;
    return found;
}

unsigned
parseJobsFlag(int &argc, char **argv)
{
    std::string value;
    if (!consumeFlag(argc, argv, "--jobs=", value))
        return 0;
    char *end = nullptr;
    const unsigned long n = std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n == 0 || n > 4096)
        K2_FATAL("--jobs expects an integer in [1, 4096], got '%s'",
                 value.c_str());
    return static_cast<unsigned>(n);
}

std::string
parseFaultsFlag(int &argc, char **argv)
{
    std::string spec;
    if (consumeFlag(argc, argv, "--faults=", spec) && spec.empty())
        K2_FATAL("--faults expects a fault spec, e.g. "
                 "--faults=mailbox.drop:p=1e-3");
    return spec;
}

std::uint64_t
parseUintFlag(int &argc, char **argv, const char *flag,
              std::uint64_t fallback, std::uint64_t lo,
              std::uint64_t hi)
{
    std::string value;
    if (!consumeFlag(argc, argv, flag, value))
        return fallback;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < lo || n > hi)
        K2_FATAL("%s expects an integer in [%llu, %llu], got '%s'",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), value.c_str());
    return n;
}

double
parseFloatFlag(int &argc, char **argv, const char *flag,
               double fallback, double hi)
{
    std::string value;
    if (!consumeFlag(argc, argv, flag, value))
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(v > 0) || v > hi)
        K2_FATAL("%s expects a number in (0, %g], got '%s'", flag, hi,
                 value.c_str());
    return v;
}

std::string
parseStringFlag(int &argc, char **argv, const char *flag,
                const std::string &fallback)
{
    std::string value;
    if (!consumeFlag(argc, argv, flag, value))
        return fallback;
    if (value.empty())
        K2_FATAL("%s expects a non-empty value", flag);
    return value;
}

bool
parseDsmFlag(int &argc, char **argv, os::coherence::ProtocolKind &out)
{
    std::string value;
    if (!consumeFlag(argc, argv, "--dsm=", value))
        return false;
    // Char offset of the name inside the user's "--dsm=NAME" text,
    // carried into the parse error (the --faults= convention).
    out = os::coherence::parseProtocol(value,
                                       std::strlen("--dsm="));
    return true;
}

} // namespace wl
} // namespace k2
