/**
 * @file
 * Log-based release-acquire coherence (RACoherence-style).
 *
 * Platforms that bridge non-coherent domains through a small coherent
 * region can avoid page-grain invalidation traffic entirely: each
 * domain appends the addresses of the cache lines it modifies to a
 * per-domain log living in the coherent region, and other domains'
 * *cache agents* drain those logs -- invalidating the listed lines
 * locally -- when they acquire. Vector clocks order the drains: domain
 * k's copy of a page last written by w (at writer clock `stamp`) is
 * fresh iff vc[k][w] >= stamp.
 *
 * What this buys on the K2 platform model:
 *  - No read tracking: invalidation is push-based (the log), so the
 *    weak kernel's cascaded-MMU read-tracking penalty (§6.3) never
 *    applies, and pages are never demoted to 4 KB mappings.
 *  - Batching: one acquire drains *all* of a writer's pending log and
 *    advances the acquirer's clock past every page that writer
 *    released so far -- producer-consumer patterns pay one fault per
 *    batch, not one per page.
 *  - The price: every write by the owning domain is logged
 *    (write-through of the line address, one bus access), where the
 *    two-state protocol's owner writes are free.
 *
 * RacState is the pure state machine over the logs and clocks. A
 * page's {lastWriter, stamp} (RacPage) lives in its os::Dsm page
 * record, and RacState's rules take it by reference; timing, messages
 * and task structure stay with os::Dsm.
 *
 * Clocks and stamps are 64-bit: one domain would need 2^64 writes to
 * wrap its clock, so `vc >= stamp` never misjudges freshness.
 */

#ifndef K2_OS_COHERENCE_RAC_H
#define K2_OS_COHERENCE_RAC_H

#include <vector>

#include "os/coherence/protocol.h"
#include "os/system.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}
namespace snap {
class Io;
}

namespace os {
namespace coherence {

/** Host-side cost of invalidating one logged line at the acquirer. */
inline constexpr sim::Duration kRacLineInvalidate = sim::nsec(150);

/** Modelled cache lines appended to the log per page write. */
inline constexpr std::uint32_t kRacLinesPerWrite = 4;

/** One page's RAC state. Born (never written): writer 0, stamp 0. */
struct RacPage
{
    std::uint32_t lastWriter = 0; //!< The page's current (sole) writer.
    std::uint64_t stamp = 0;      //!< Writer clock at the last write.
};

/**
 * The release-acquire state machine for N domains: per-domain
 * modified-line logs (append heads + per-consumer drain cursors) and
 * the N x N vector clock.
 */
class RacState
{
  public:
    explicit RacState(std::size_t num_kernels);

    /** True if @p k may access page @p p without acquiring: a write
     *  needs @p k to be the writer, a read a fresh copy. */
    bool permits(std::size_t k, const RacPage &p, Access rw) const;

    /** The kernels an acquire of @p p by @p k asks (bitmap): the
     *  page's writer, or none if that is @p k itself. */
    static std::uint32_t targets(std::size_t k, const RacPage &p)
    {
        return p.lastWriter == k ? 0 : 1u << p.lastWriter;
    }

    /** Log a write to @p p by @p k, which becomes (or stays) its
     *  writer: bumps @p k's clock and log head, restamps the page. */
    void append(std::size_t k, RacPage &p);

    /** Lines of @p w's log that @p k has not drained yet. */
    std::uint32_t pendingLines(std::size_t k, std::size_t w) const;

    /** Drain @p w's log into @p k: catch the cursor up and merge the
     *  writer's clock. Returns the lines invalidated. */
    std::uint32_t drain(std::size_t k, std::size_t w);

    /**
     * Crash recovery: @p to absorbs @p dead's log (cursor to head,
     * clock merged). Set @p inherits when @p dead last wrote some
     * pages, which pass to @p to: one tick of @p to's clock covers
     * them all. Returns the state each inherited page takes: writer
     * @p to at its clock, so other domains re-acquire after the
     * re-sync.
     */
    RacPage reclaim(std::size_t dead, std::size_t to, bool inherits);

    /** Register rac counters under "<prefix>.rac.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /** Capture/restore logs, clocks and counters, in that order. */
    void snapState(snap::Io &io);

  private:
    std::size_t n_;
    std::vector<std::uint32_t> logHead_; //!< Per writer (lines, modular).
    std::vector<std::uint32_t> drained_; //!< [k][w], n*n.
    std::vector<std::uint64_t> vc_;      //!< [k][w], n*n.
    sim::Counter logAppends_;
    sim::Counter drainedLines_;
};

} // namespace coherence
} // namespace os
} // namespace k2

#endif // K2_OS_COHERENCE_RAC_H
