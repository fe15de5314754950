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
 * RacState is the pure state machine (logs, clocks, per-page writer
 * stamps); timing, messages and task structure stay with os::Dsm.
 */

#ifndef K2_OS_COHERENCE_RAC_H
#define K2_OS_COHERENCE_RAC_H

#include <unordered_map>
#include <vector>

#include "os/coherence/protocol.h"

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

/**
 * The release-acquire state machine for N domains: per-domain
 * modified-line logs (append heads + per-consumer drain cursors),
 * the N x N vector clock, and per-page {lastWriter, stamp}.
 */
class RacState
{
  public:
    RacState(std::size_t num_kernels, std::uint64_t num_pages);

    std::size_t numKernels() const { return n_; }

    /** Page's current (sole) writer; 0 for never-written pages. */
    std::size_t writerOf(std::uint64_t page) const;

    /** True if @p k may read @p page without acquiring. */
    bool readFresh(std::size_t k, std::uint64_t page) const;

    /** True if @p k may write @p page without acquiring. */
    bool isWriter(std::size_t k, std::uint64_t page) const
    {
        return writerOf(page) == k;
    }

    /** Log a write by the current writer @p k: bumps the writer's
     *  clock and log head, restamps the page. */
    void append(std::size_t k, std::uint64_t page);

    /** Lines of @p w's log that @p k has not drained yet. */
    std::uint32_t pendingLines(std::size_t k, std::size_t w) const;

    /** Drain @p w's log into @p k: catch the cursor up and merge the
     *  writer's clock. Returns the lines invalidated. */
    std::uint32_t drain(std::size_t k, std::size_t w);

    /** Complete a write-acquire: @p k becomes the page's writer (and
     *  logs the write that triggered the acquire). */
    void takeOwnership(std::size_t k, std::uint64_t page);

    /**
     * Crash recovery: @p to inherits every page last written by
     * @p dead (in ascending page order), absorbs the dead log
     * (cursor to head, clock merged), and restamps inherited pages at
     * its own clock so other domains re-acquire after the re-sync.
     * Returns the inherited page keys.
     */
    std::vector<std::uint64_t> reclaim(std::size_t dead,
                                       std::size_t to);

    std::uint64_t logAppends() const { return logAppends_.value(); }
    std::uint64_t drainedLines() const { return drainedLines_.value(); }

    /** Register rac counters under "<prefix>.rac.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /** Capture/restore logs, clocks and page stamps. */
    void snapState(snap::Io &io);

  private:
    struct PageState
    {
        std::uint32_t lastWriter = 0;
        std::uint32_t stamp = 0; //!< Writer clock at the last write.
    };

    PageState &page(std::uint64_t p);

    std::size_t n_;
    std::uint64_t numPages_;
    std::vector<std::uint32_t> logHead_;           //!< Per writer.
    std::vector<std::uint32_t> drained_;           //!< [k][w], n*n.
    std::vector<std::uint32_t> vc_;                //!< [k][w], n*n.
    std::unordered_map<std::uint64_t, PageState> pages_;
    sim::Counter logAppends_;
    sim::Counter drainedLines_;
};

} // namespace coherence
} // namespace os
} // namespace k2

#endif // K2_OS_COHERENCE_RAC_H
