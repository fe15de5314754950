/**
 * @file
 * MMU and TLB models.
 *
 * The DSM (§6.3) depends on two MMU properties the paper discusses at
 * length:
 *  - the strong domain's ARMv7-A MMU has a hardware table walker and
 *    per-page read/write permissions;
 *  - the weak domain's Cortex-M3 MMU on OMAP4 is two cascaded levels
 *    where the *first* level is a software-loaded, ten-entry TLB and is
 *    the only level with permission bits. Using it to distinguish reads
 *    from writes (needed for a three-state protocol's read-sharing)
 *    thrashes those ten entries.
 *
 * The Tlb here is a real FIFO TLB simulation; Mmu composes it with walk
 * costs to price address translations and protection changes.
 */

#ifndef K2_SOC_MMU_H
#define K2_SOC_MMU_H

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "sim/stats.h"
#include "sim/time.h"
#include "soc/config.h"

namespace k2 {
namespace snap {
class Io;
}
namespace soc {

/** A virtual page number. */
using Vpn = std::uint64_t;

/** Mapping granularity for a region (§6.3 memory-footprint opt.). */
enum class MapGrain
{
    Page4K,     //!< 4 KB pages: DSM-trappable, one TLB entry each.
    Section1M,  //!< 1 MB sections: 256 pages per TLB entry.
    Super16M,   //!< 16 MB supersections: 4096 pages per TLB entry.
};

/** Number of 4 KB pages covered by one entry of the given grain. */
std::uint64_t pagesPerEntry(MapGrain grain);

/**
 * A FIFO-replacement TLB.
 */
class Tlb
{
  public:
    explicit Tlb(std::size_t entries)
        : capacity_(entries)
    {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return fifo_.size(); }

    /**
     * Look up a tag; inserts it (evicting FIFO) on miss.
     *
     * @return true on hit.
     */
    bool access(std::uint64_t tag);

    /** Invalidate one tag if present. */
    void invalidate(std::uint64_t tag);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Capture/restore resident entries (FIFO order) and counters. */
    void snapState(snap::Io &io);

    double
    missRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(misses_.value()) / total : 0.0;
    }

  private:
    std::size_t capacity_;
    std::deque<std::uint64_t> fifo_;
    std::unordered_set<std::uint64_t> present_;
    sim::Counter hits_;
    sim::Counter misses_;
};

/**
 * Per-kernel MMU cost model.
 */
class Mmu
{
  public:
    /**
     * @param spec The core type whose MMU this is.
     */
    explicit Mmu(const CoreSpec &spec);

    MmuKind kind() const { return kind_; }
    Tlb &tlb() { return tlb_; }
    const Tlb &tlb() const { return tlb_; }

    /**
     * Charge a translation of @p vpn mapped at @p grain.
     *
     * @return Time the access costs (0 on a TLB hit).
     */
    sim::Duration translate(Vpn vpn, MapGrain grain);

    /** Cost of a page-table entry update + TLB shootdown of the page. */
    sim::Duration protectionUpdate(Vpn vpn);

    /**
     * Extra cost per DSM fault when the protocol needs the MMU to
     * distinguish reads from writes (three-state protocols).
     *
     * Zero on a SingleLevel MMU. On the cascaded M3 MMU every tracked
     * page must occupy a first-level TLB entry, so read tracking
     * thrashes the ten-entry TLB (§6.3 "An alternative design").
     */
    sim::Duration readTrackPenalty() const;

    /** Walk cost for one translation miss. */
    sim::Duration walkCost() const { return walkCost_; }

    void snapState(snap::Io &io);

  private:
    MmuKind kind_;
    Tlb tlb_;
    sim::Duration walkCost_;
    sim::Duration ptUpdateCost_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_MMU_H
