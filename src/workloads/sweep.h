/**
 * @file
 * Parallel sweep harness: shard independent simulation cells across
 * host threads with byte-identical results.
 *
 * Every experiment in the evaluation is a sweep over independent
 * (system, workload config, seed) cells, each of which builds its own
 * sim::Engine + SystemImage, runs to quiescence, and produces a row
 * of a table / a metrics snapshot / an energy figure. Cells share no
 * mutable state (see DESIGN.md §8 for the isolation rules), so the
 * sweep is data-parallel over isolated simulator instances.
 *
 * SweepRunner executes submitted cells on a small work-stealing pool
 * of host threads and guarantees that every observable artifact is
 * byte-identical to serial execution, at any thread count:
 *
 *  - Results: a cell communicates results only by writing state the
 *    caller reads after run() (typically a slot in a pre-sized
 *    vector, indexed by submission order). The runner never reorders
 *    or merges results itself.
 *  - Errors: a FatalError (or any exception) thrown inside a cell is
 *    rethrown on the caller's thread, lowest submission index first,
 *    after the pool has drained; the message counts any further
 *    failures it suppresses.
 *
 * With jobs() == 1 the calling thread executes the cells in
 * submission order with no pool at all -- exactly the serial
 * behaviour the parallel runs are required to reproduce.
 */

#ifndef K2_WORKLOADS_SWEEP_H
#define K2_WORKLOADS_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace k2 {

namespace os {
namespace coherence {
enum class ProtocolKind : std::uint8_t;
}
} // namespace os

namespace wl {

class SweepRunner
{
  public:
    /** A sweep cell: owns everything it touches (engine, system,
     *  services), writes results only to caller-provided slots. */
    using Cell = std::function<void()>;

    /**
     * A streaming-reducer cell: like Cell, but handed the index of
     * the reduction lane it runs on (see lanes()). Cells on the same
     * lane never run concurrently, so a lane cell may accumulate into
     * a caller-owned per-lane partial (a QuantileSketch, a counter
     * set, ...) without synchronisation. After run(), the caller
     * folds the lane partials together -- O(lanes) reduction state
     * instead of O(cells) result slots. Byte-identical output at any
     * --jobs=N additionally requires the fold operation to be
     * associative and commutative (sim::QuantileSketch::merge is,
     * exactly); which lane a given cell lands on is scheduling-
     * dependent.
     */
    using LaneCell = std::function<void(std::size_t lane)>;

    /**
     * @param jobs Worker thread count; 0 selects the host's hardware
     *        concurrency. 1 runs cells inline on the calling thread.
     */
    explicit SweepRunner(unsigned jobs = 0);
    ~SweepRunner();

    /** Worker threads run() will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Number of reduction lanes (== jobs()): worker w executes its
     * cells with lane index w, the serial path uses lane 0. Stable
     * for the runner's lifetime, so per-lane partials can be sized
     * before submission.
     */
    std::size_t lanes() const { return jobs_; }

    /**
     * Queue a cell. Cells are independent; they may run on any worker
     * in any order, but error reporting follows submission order.
     *
     * @return The cell's submission index.
     */
    std::size_t submit(Cell cell);

    /** Queue a streaming-reducer cell (see LaneCell). */
    std::size_t submitLane(LaneCell cell);

    /**
     * Run all submitted cells to completion. After every cell has
     * finished, the first failed cell's exception (by submission
     * order) is rethrown wrapped with its cell index; when several
     * cells failed, the message also carries the failure count and
     * how many it suppresses. FatalError stays FatalError; other
     * exceptions rethrow as std::runtime_error carrying the original
     * message. Afterwards the runner is empty and may be reused.
     */
    void run();

    /** Number of cells currently queued. */
    std::size_t size() const;

  private:
    struct CellState;

    void runCell(CellState &cell, std::size_t lane);

    unsigned jobs_;
    std::vector<CellState> cells_;
};

/**
 * Strip every `--NAME=VALUE` occurrence of one flag from argv, with
 * conventional last-wins semantics.
 *
 * All sweep flag parsers (and any binary-specific ones) are built on
 * this helper so repeated flags behave uniformly: `--jobs=4 --jobs=8`
 * means 8, and no occurrence is left behind in argv for downstream
 * argument handling to trip on.
 *
 * @param argc In/out argument count; every occurrence is removed.
 * @param argv In/out argument vector (only pointers are shifted; the
 *        argument strings themselves are untouched).
 * @param flag The flag prefix including '=', e.g. "--jobs=".
 * @param value Out: the value of the last occurrence; untouched when
 *        the flag is absent.
 * @return True when at least one occurrence was found.
 */
bool consumeFlag(int &argc, char **argv, const char *flag,
                 std::string &value);

/**
 * Parse and strip a `--jobs=N` flag from argv (last occurrence wins).
 *
 * @param argc In/out argument count; the flag is removed when found.
 * @param argv In/out argument vector.
 * @return The requested job count, or 0 (hardware concurrency) when
 *         no flag is present.
 * @throws sim::FatalError on a malformed value.
 */
unsigned parseJobsFlag(int &argc, char **argv);

/**
 * Parse and strip a `--faults=SPEC` flag from argv (last occurrence
 * wins).
 *
 * SPEC is the fault::FaultPlan::parse() syntax, e.g.
 * "mailbox.drop:p=1e-3,dma.err:at=2s". The spec string itself is
 * returned (empty when the flag is absent) so each sweep cell can
 * build its own FaultPlan; validation happens at plan parse time.
 */
std::string parseFaultsFlag(int &argc, char **argv);

/**
 * Parse and strip an unsigned integer flag, e.g. "--devices=" (last
 * occurrence wins). The value must lie in [@p lo, @p hi].
 * @throws sim::FatalError on a malformed or out-of-range value.
 */
std::uint64_t parseUintFlag(int &argc, char **argv, const char *flag,
                            std::uint64_t fallback, std::uint64_t lo,
                            std::uint64_t hi);

/**
 * Parse and strip a positive floating-point flag, e.g. "--hours="
 * (last occurrence wins). The value must lie in (0, @p hi].
 * @throws sim::FatalError on a malformed or out-of-range value.
 */
double parseFloatFlag(int &argc, char **argv, const char *flag,
                      double fallback, double hi);

/**
 * Parse and strip a non-empty string flag, e.g. "--mix=" (last
 * occurrence wins).
 */
std::string parseStringFlag(int &argc, char **argv, const char *flag,
                            const std::string &fallback);

/**
 * Parse and strip a `--dsm=PROTO` flag (last occurrence wins),
 * selecting the DSM coherence protocol (see
 * os::coherence::ProtocolKind; names as printed by protocolNames()).
 *
 * @param out Set to the parsed protocol when the flag is present;
 *        untouched otherwise, so callers initialise it with their
 *        default.
 * @return True when the flag was present.
 * @throws sim::FatalError on an unknown name, pinpointing the typo's
 *         position within the flag text (the --faults= convention).
 */
bool parseDsmFlag(int &argc, char **argv,
                  os::coherence::ProtocolKind &out);

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_SWEEP_H
