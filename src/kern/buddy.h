/**
 * @file
 * A buddy physical-page allocator (the kernel's core memory service).
 *
 * Follows the Linux design the paper builds on: power-of-two blocks up
 * to kMaxOrder, per-order free lists, buddy coalescing on free, and a
 * movable/unmovable placement policy. Two K2-specific capabilities are
 * first-class here (§6.2):
 *
 *  - The allocator can start *empty* and be grown/shrunk at runtime by
 *    a balloon driver: addFreeRange() donates a physically contiguous
 *    range (deflate); reclaimRange() takes a specific range back
 *    (inflate), migrating movable pages out of it.
 *
 *  - Placement keeps movable pages near the balloon frontier: movable
 *    allocations are served from the highest-address free block,
 *    unmovable from the lowest, so reclaiming from the top mostly hits
 *    movable pages ("the efforts are likely to succeed", §6.2).
 *
 * Operations return a work-unit count (list manipulations, splits,
 * merges, per-page initialisation) that callers convert to simulated
 * instructions, which is how the Table 4 latencies arise.
 */

#ifndef K2_KERN_BUDDY_H
#define K2_KERN_BUDDY_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/log.h"
#include "sim/stats.h"
#include "kern/types.h"

namespace k2 {
namespace snap {
class Io;
}
namespace kern {

/** Page mobility class, mirroring Linux migrate types. The narrow
 *  underlying type keeps PageMeta padding-free, so the per-page
 *  metadata vector can be snapshotted as raw bytes (snapState)
 *  without capturing indeterminate padding. */
enum class Migrate : std::uint8_t { Unmovable, Movable };

/**
 * Ordered set of free-block indices for one buddy order, as a
 * two-level bitmap.
 *
 * The allocator's free lists only ever need keyed insert/erase, the
 * extremal members (placement policy allocates movable blocks from
 * the top of memory, unmovable from the bottom), and sorted iteration
 * (snapshots, invariant checks). A bitmap serves all of those with no
 * per-node heap traffic, which is what made the former std::set free
 * lists the dominant cost of alloc()/free() (every split and coalesce
 * paid a red-black-tree node allocation).
 *
 * Level 0 has one bit per block index; the summary level has one bit
 * per level-0 word, so min()/max() scan the (tiny) summary word list
 * and finish with two bit scans. All operations are O(words in the
 * summary level), which is at most capacity / 4096.
 */
class BlockSet
{
  public:
    BlockSet() = default;

    explicit BlockSet(std::uint64_t capacity)
        : words_((capacity + 63) / 64, 0),
          summary_((words_.size() + 63) / 64, 0)
    {}

    bool empty() const { return count_ == 0; }
    std::uint64_t size() const { return count_; }

    /** Insert @p idx; it must not already be a member. */
    void
    insert(std::uint64_t idx)
    {
        const std::uint64_t w = idx / 64;
        const std::uint64_t bit = 1ull << (idx % 64);
        K2_ASSERT(!(words_[w] & bit));
        if (words_[w] == 0)
            summary_[w / 64] |= 1ull << (w % 64);
        words_[w] |= bit;
        ++count_;
    }

    /** Erase @p idx; it must be a member. */
    void
    erase(std::uint64_t idx)
    {
        const std::uint64_t w = idx / 64;
        const std::uint64_t bit = 1ull << (idx % 64);
        K2_ASSERT(words_[w] & bit);
        words_[w] &= ~bit;
        if (words_[w] == 0)
            summary_[w / 64] &= ~(1ull << (w % 64));
        --count_;
    }

    /** Smallest member; the set must be non-empty. */
    std::uint64_t
    min() const
    {
        for (std::uint64_t s = 0; s < summary_.size(); ++s) {
            if (summary_[s] == 0)
                continue;
            const std::uint64_t w =
                s * 64 +
                static_cast<std::uint64_t>(std::countr_zero(summary_[s]));
            return w * 64 +
                   static_cast<std::uint64_t>(std::countr_zero(words_[w]));
        }
        K2_PANIC("BlockSet::min on empty set");
    }

    /** Largest member; the set must be non-empty. */
    std::uint64_t
    max() const
    {
        for (std::uint64_t s = summary_.size(); s-- > 0;) {
            if (summary_[s] == 0)
                continue;
            const std::uint64_t w =
                s * 64 + 63 -
                static_cast<std::uint64_t>(std::countl_zero(summary_[s]));
            return w * 64 + 63 -
                   static_cast<std::uint64_t>(std::countl_zero(words_[w]));
        }
        K2_PANIC("BlockSet::max on empty set");
    }

    /** Empty the set, zeroing only the words the summary marks
     *  non-empty. */
    void
    clear()
    {
        for (std::uint64_t s = 0; s < summary_.size(); ++s) {
            for (std::uint64_t sw = summary_[s]; sw != 0; sw &= sw - 1)
                words_[s * 64 + static_cast<std::uint64_t>(
                                    std::countr_zero(sw))] = 0;
            summary_[s] = 0;
        }
        count_ = 0;
    }

    /** Call @p fn on every member in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sw = summary_[s];
            while (sw != 0) {
                const std::uint64_t w =
                    s * 64 +
                    static_cast<std::uint64_t>(std::countr_zero(sw));
                sw &= sw - 1;
                std::uint64_t word = words_[w];
                while (word != 0) {
                    fn(w * 64 + static_cast<std::uint64_t>(
                                    std::countr_zero(word)));
                    word &= word - 1;
                }
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> summary_;
    std::uint64_t count_ = 0;
};

class BuddyAllocator
{
  public:
    /** Largest block: 2^12 pages = 16 MB of 4 KB pages (one K2 page
     *  block). */
    static constexpr unsigned kMaxOrder = 12;

    /** Work-unit cost model (converted to instructions by callers). */
    struct WorkModel
    {
        std::uint64_t base = 220;     //!< Fast-path list operation.
        std::uint64_t perSplit = 40;  //!< Splitting one block level.
        std::uint64_t perMerge = 45;  //!< Coalescing one level.
        std::uint64_t perPage = 17;   //!< Per-page init/zeroing.
        std::uint64_t perMigrate = 600; //!< Copy+remap one page.
    };

    /**
     * @param name For diagnostics.
     * @param base First pfn this allocator may ever manage. Must be
     *        aligned to 2^kMaxOrder pages.
     * @param npages Size of the managed window in pages.
     */
    BuddyAllocator(std::string name, Pfn base, std::uint64_t npages);

    const std::string &name() const { return name_; }
    Pfn base() const { return base_; }
    std::uint64_t windowPages() const { return npages_; }

    /** Pages currently free. */
    std::uint64_t freePages() const { return freePages_; }

    /** Pages currently allocated to clients. */
    std::uint64_t allocatedPages() const { return allocatedPages_; }

    /** Pages currently owned (free + allocated). */
    std::uint64_t ownedPages() const { return freePages_ + allocatedPages_; }

    /** Outcome of an allocation. */
    struct AllocResult
    {
        PageRange range;
        std::uint64_t work = 0; //!< Work units spent.
    };

    /**
     * Allocate a 2^order page block.
     *
     * @param order Block order (0 => one page).
     * @param migrate Mobility of the allocation; movable blocks are
     *        placed at the high end of free memory.
     * @return The block and its work cost, or nullopt if no free block
     *         of sufficient order exists.
     */
    std::optional<AllocResult> alloc(unsigned order, Migrate migrate);

    /**
     * Free a block previously returned by alloc().
     *
     * @param first First pfn of the block (must be an allocation head).
     * @return Work units spent (including coalescing).
     */
    std::uint64_t free(Pfn first);

    /** True if @p pfn is the head of a live allocation. */
    bool isAllocated(Pfn pfn) const;

    /**
     * Donate a page range to the allocator (balloon deflate / boot).
     *
     * The range must lie in the window and not overlap owned pages.
     * @return Work units spent.
     */
    std::uint64_t addFreeRange(PageRange range);

    /** Outcome of reclaimRange(). */
    struct ReclaimResult
    {
        bool ok = false;            //!< False: range had unmovable pages
                                    //!< or migration targets ran out.
        std::uint64_t migrated = 0; //!< Movable pages evacuated.
        std::uint64_t work = 0;
    };

    /**
     * Take a specific range away from the allocator (balloon inflate).
     *
     * Free pages in the range are removed from the free lists; movable
     * allocated pages are migrated to free pages outside the range
     * (their owners keep logical ownership -- this models Linux page
     * migration). Fails without side effects if the range contains
     * unmovable allocations or there is not enough free space outside
     * it.
     */
    ReclaimResult reclaimRange(PageRange range);

    /**
     * Largest physically contiguous free block order available.
     */
    std::optional<unsigned> largestFreeOrder() const;

    /**
     * Count of movable pages among allocated pages in @p range.
     */
    std::uint64_t movablePagesIn(PageRange range) const;

    /** Internal consistency check (for tests); panics on corruption. */
    void checkInvariants() const;

    /**
     * Capture/restore page metadata, free lists, and counters. Restoring
     * the image this allocator last synced with (captured into or
     * restored from) copies back only the metadata chunks written since;
     * any other image rewrites all of it.
     */
    void snapState(snap::Io &io);

  private:
    enum class PageState : std::uint8_t
    {
        NotOwned,  //!< Outside the allocator (owned by K2 / balloon).
        FreeHead,  //!< First page of a free block.
        FreeBody,  //!< Interior page of a free block.
        AllocHead, //!< First page of an allocation.
        AllocBody, //!< Interior page of an allocation.
    };

    struct PageMeta
    {
        PageState state = PageState::NotOwned;
        std::uint8_t order = 0;
        Migrate migrate = Migrate::Movable;
    };

    /** Pages per metadata chunk, the unit of delta restore. */
    static constexpr std::uint64_t kChunkPages = 64;

    std::uint64_t rel(Pfn pfn) const { return pfn - base_; }

    /** Writable metadata of @p pfn; marks its chunk touched. */
    PageMeta &meta(Pfn pfn);

    /** Read-only metadata of @p pfn; marks nothing. */
    const PageMeta &page(Pfn pfn) const;

    /** Mark the chunks covering meta_[rel, rel + n) as written; n >= 1.
     *  Every write to meta_ goes through here (via meta() for single
     *  pages), which is what makes delta restore exact. */
    void
    touch(std::uint64_t rel, std::uint64_t n)
    {
        const std::uint64_t last = (rel + n - 1) / kChunkPages;
        for (std::uint64_t c = rel / kChunkPages; c <= last; ++c)
            touched_[c] = 1;
    }

    void insertFree(Pfn pfn, unsigned order);

    /**
     * insertFree without the interior-page rewrite. Precondition:
     * every page of the block except possibly the head is already
     * FreeBody (true when splitting or coalescing free blocks, where
     * only head positions change). Keeps meta_ byte-identical to the
     * full rewrite while skipping the 2^order - 1 redundant stores
     * that used to dominate alloc()/free().
     */
    void insertFreeHead(Pfn pfn, unsigned order);

    void removeFree(Pfn pfn, unsigned order);

    /** Find the head of the free block containing @p pfn. */
    Pfn freeBlockHead(Pfn pfn) const;

    /**
     * Insert the span [first, first+count) into the free lists as
     * maximal aligned blocks (the unique buddy decomposition of the
     * span). Page states are rewritten; the span's pages must not be
     * on any free list.
     *
     * @return Number of blocks inserted.
     */
    std::uint64_t insertFreeSpan(Pfn first, std::uint64_t count);

    /**
     * Split count the recursive buddy dissection performs to carve
     * [lo, hi) out of the block at @p blockFirst of @p order: nodes
     * fully inside the carve region dissect completely (2^k - 1
     * splits), partially covered nodes split once and recurse. Keeps
     * reclaimRange()'s work units identical to carving page by page.
     */
    static std::uint64_t carveSplits(Pfn blockFirst, unsigned order,
                                     Pfn lo, Pfn hi);

    std::string name_;
    Pfn base_;
    std::uint64_t npages_;
    std::vector<PageMeta> meta_;
    /** One flag byte per kChunkPages-page chunk of meta_: written
     *  since the allocator last synced with image synced_ (0: none).
     *  Bytes, not bits: a plain store keeps touch() off the hot paths'
     *  dependency chains, where a bit OR would read-modify-write one
     *  word over and over. */
    std::vector<std::uint8_t> touched_;
    std::uint64_t synced_ = 0;
    /** Free block heads per order, keyed by rel(pfn) >> order. */
    std::array<BlockSet, kMaxOrder + 1> freeLists_;
    std::uint64_t freePages_ = 0;
    std::uint64_t allocatedPages_ = 0;
    WorkModel workModel_;

  public:
    /** @name Statistics. @{ */
    sim::Counter allocCalls;
    sim::Counter freeCalls;
    sim::Counter failedAllocs;
    /** @} */

    const WorkModel &workModel() const { return workModel_; }
};

} // namespace kern
} // namespace k2

#endif // K2_KERN_BUDDY_H
