#include "kern/buddy.h"

#include <algorithm>
#include <cstring>

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace kern {

BuddyAllocator::BuddyAllocator(std::string name, Pfn base,
                               std::uint64_t npages)
    : name_(std::move(name)), base_(base), npages_(npages), meta_(npages),
      touched_((npages + kChunkPages - 1) / kChunkPages, 0)
{
    const std::uint64_t align = 1ull << kMaxOrder;
    if (base_ % align != 0)
        K2_FATAL("allocator '%s' base pfn %llu not 16MB aligned",
                 name_.c_str(), static_cast<unsigned long long>(base_));
    for (unsigned order = 0; order <= kMaxOrder; ++order)
        freeLists_[order] = BlockSet((npages_ >> order) + 1);
}

BuddyAllocator::PageMeta &
BuddyAllocator::meta(Pfn pfn)
{
    K2_ASSERT(pfn >= base_ && rel(pfn) < npages_);
    PageMeta &m = meta_[rel(pfn)];
    touch(rel(pfn), 1);
    return m;
}

const BuddyAllocator::PageMeta &
BuddyAllocator::page(Pfn pfn) const
{
    K2_ASSERT(pfn >= base_ && rel(pfn) < npages_);
    return meta_[rel(pfn)];
}

void
BuddyAllocator::insertFree(Pfn pfn, unsigned order)
{
    insertFreeHead(pfn, order);
    const std::uint64_t n = 1ull << order;
    touch(rel(pfn), n);
    for (std::uint64_t i = 1; i < n; ++i)
        meta_[rel(pfn) + i].state = PageState::FreeBody;
}

void
BuddyAllocator::insertFreeHead(Pfn pfn, unsigned order)
{
    freeLists_[order].insert(rel(pfn) >> order);
    PageMeta &m = meta(pfn);
    m.state = PageState::FreeHead;
    m.order = static_cast<std::uint8_t>(order);
}

void
BuddyAllocator::removeFree(Pfn pfn, unsigned order)
{
    freeLists_[order].erase(rel(pfn) >> order);
}

std::optional<BuddyAllocator::AllocResult>
BuddyAllocator::alloc(unsigned order, Migrate migrate)
{
    allocCalls.inc();
    if (order > kMaxOrder) {
        failedAllocs.inc();
        return std::nullopt;
    }

    // Placement policy: movable from the top of memory, unmovable from
    // the bottom (keeps movable pages near the balloon frontier, §6.2).
    // Scan all sufficient orders for the extremal block so placement is
    // strictly address-ordered.
    bool have = false;
    unsigned found = 0;
    Pfn block = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o) {
        if (freeLists_[o].empty())
            continue;
        if (migrate == Migrate::Movable) {
            const Pfn cand = base_ + (freeLists_[o].max() << o);
            const Pfn cand_end = cand + (1ull << o);
            if (!have || cand_end > block + (1ull << found)) {
                have = true;
                found = o;
                block = cand;
            }
        } else {
            const Pfn cand = base_ + (freeLists_[o].min() << o);
            if (!have || cand < block) {
                have = true;
                found = o;
                block = cand;
            }
        }
    }
    if (!have) {
        failedAllocs.inc();
        return std::nullopt;
    }

    std::uint64_t work = workModel_.base;
    removeFree(block, found);

    // Split down to the requested order. For movable requests keep the
    // *upper* buddy and return the lower one to the free lists, and
    // vice versa, to preserve the placement policy. Splitting a free
    // block only moves heads around -- every interior page is already
    // FreeBody -- so the halves are re-inserted head-only.
    while (found > order) {
        --found;
        const Pfn lower = block;
        const Pfn upper = block + (1ull << found);
        if (migrate == Migrate::Movable) {
            insertFreeHead(lower, found);
            block = upper;
        } else {
            insertFreeHead(upper, found);
            block = lower;
        }
        work += workModel_.perSplit;
    }

    const std::uint64_t n = 1ull << order;
    PageMeta &head = meta(block);
    head.state = PageState::AllocHead;
    head.order = static_cast<std::uint8_t>(order);
    head.migrate = migrate;
    touch(rel(block), n);
    for (std::uint64_t i = 1; i < n; ++i)
        meta_[rel(block) + i].state = PageState::AllocBody;

    freePages_ -= n;
    allocatedPages_ += n;
    work += workModel_.perPage * n;
    return AllocResult{PageRange{block, n}, work};
}

std::uint64_t
BuddyAllocator::free(Pfn first)
{
    freeCalls.inc();
    const PageMeta &m = page(first);
    if (m.state != PageState::AllocHead)
        K2_PANIC("allocator '%s': free of pfn %llu which is not an "
                 "allocation head", name_.c_str(),
                 static_cast<unsigned long long>(first));

    unsigned order = m.order;
    std::uint64_t n = 1ull << order;
    allocatedPages_ -= n;
    freePages_ += n;
    std::uint64_t work = workModel_.base;

    // Only the freed allocation's own pages change body state; the
    // interiors of any buddies absorbed below are already FreeBody.
    touch(rel(first), n);
    for (std::uint64_t i = 0; i < n; ++i)
        meta_[rel(first) + i].state = PageState::FreeBody;

    // Coalesce with free buddies. Each absorbed buddy's head becomes
    // an interior page of the merged block.
    Pfn block = first;
    while (order < kMaxOrder) {
        const std::uint64_t buddy_rel = rel(block) ^ (1ull << order);
        if (buddy_rel >= npages_)
            break;
        const Pfn buddy = base_ + buddy_rel;
        if (page(buddy).state != PageState::FreeHead ||
            page(buddy).order != order) {
            break;
        }
        removeFree(buddy, order);
        meta(buddy).state = PageState::FreeBody;
        block = std::min(block, buddy);
        ++order;
        work += workModel_.perMerge;
    }
    insertFreeHead(block, order);
    return work;
}

bool
BuddyAllocator::isAllocated(Pfn pfn) const
{
    return page(pfn).state == PageState::AllocHead;
}

std::uint64_t
BuddyAllocator::addFreeRange(PageRange range)
{
    K2_ASSERT(range.first >= base_ && range.end() <= base_ + npages_);
    std::uint64_t work = workModel_.base;
    for (Pfn p = range.first; p < range.end(); ++p) {
        if (page(p).state != PageState::NotOwned)
            K2_PANIC("allocator '%s': addFreeRange over owned pfn %llu",
                     name_.c_str(), static_cast<unsigned long long>(p));
    }

    work += workModel_.perMerge * insertFreeSpan(range.first, range.count);
    freePages_ += range.count;
    return work;
}

std::uint64_t
BuddyAllocator::insertFreeSpan(Pfn first, std::uint64_t count)
{
    // Greedily insert maximal aligned blocks.
    std::uint64_t blocks = 0;
    Pfn p = first;
    std::uint64_t remaining = count;
    while (remaining > 0) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               ((rel(p) & ((1ull << order) - 1)) != 0 ||
                (1ull << order) > remaining)) {
            --order;
        }
        insertFree(p, order);
        ++blocks;
        p += 1ull << order;
        remaining -= 1ull << order;
    }
    return blocks;
}

Pfn
BuddyAllocator::freeBlockHead(Pfn pfn) const
{
    // Walk back to the FreeHead covering pfn. Heads are aligned, so
    // try successively larger alignments.
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        const Pfn cand = base_ + (rel(pfn) & ~((1ull << order) - 1));
        const PageMeta &m = page(cand);
        if (m.state == PageState::FreeHead && m.order >= order &&
            rel(pfn) < rel(cand) + (1ull << m.order)) {
            return cand;
        }
    }
    K2_PANIC("allocator '%s': pfn %llu is not inside a free block",
             name_.c_str(), static_cast<unsigned long long>(pfn));
}

std::uint64_t
BuddyAllocator::carveSplits(Pfn blockFirst, unsigned order, Pfn lo,
                            Pfn hi)
{
    const Pfn block_end = blockFirst + (1ull << order);
    if (hi <= blockFirst || lo >= block_end)
        return 0;
    if (lo <= blockFirst && block_end <= hi)
        return (1ull << order) - 1;
    // Partially covered: one split, then recurse into both halves.
    const unsigned half = order - 1;
    const Pfn mid = blockFirst + (1ull << half);
    return 1 + carveSplits(blockFirst, half, lo, hi) +
           carveSplits(mid, half, lo, hi);
}

std::uint64_t
BuddyAllocator::movablePagesIn(PageRange range) const
{
    std::uint64_t count = 0;
    for (Pfn p = range.first; p < range.end(); ++p) {
        const PageMeta &m = page(p);
        if (m.state == PageState::AllocHead ||
            m.state == PageState::AllocBody) {
            // Mobility is stored on the head; bodies inherit it. Find
            // the head by walking back (bodies follow heads within
            // kMaxOrder alignment).
            Pfn head = p;
            while (page(head).state == PageState::AllocBody)
                --head;
            if (page(head).migrate == Migrate::Movable)
                ++count;
        }
    }
    return count;
}

BuddyAllocator::ReclaimResult
BuddyAllocator::reclaimRange(PageRange range)
{
    K2_ASSERT(range.first >= base_ && range.end() <= base_ + npages_);
    ReclaimResult res;

    // Pass 1: the range must contain only free pages and movable
    // allocations, all fully inside the range. Walk block to block
    // (the per-order metadata makes every block's extent known at its
    // head), counting the free pages inside the range as we go.
    std::uint64_t movable = 0;
    std::uint64_t free_inside = 0;
    for (Pfn p = range.first; p < range.end();) {
        const PageMeta &m = page(p);
        switch (m.state) {
          case PageState::NotOwned:
            K2_PANIC("allocator '%s': reclaim of unowned pfn %llu",
                     name_.c_str(), static_cast<unsigned long long>(p));
          case PageState::AllocHead: {
            if (m.migrate == Migrate::Unmovable)
                return res; // fail, no side effects
            const std::uint64_t n = 1ull << m.order;
            if (p + n > range.end())
                return res; // allocation straddles the range end
            movable += n;
            p += n;
            break;
          }
          case PageState::AllocBody:
            // A body with no head inside the range: allocation
            // straddles the range start.
            return res;
          case PageState::FreeHead: {
            const Pfn block_end = p + (1ull << m.order);
            free_inside += std::min(block_end, range.end()) - p;
            p = block_end;
            break;
          }
          case PageState::FreeBody: {
            // Only possible when a free block straddles range.first.
            const Pfn head = freeBlockHead(p);
            const Pfn block_end = head + (1ull << page(head).order);
            free_inside += std::min(block_end, range.end()) - p;
            p = block_end;
            break;
          }
        }
    }

    // Migration feasibility: enough free pages strictly outside the
    // range. (Free pages inside it are being reclaimed.)
    if (freePages_ - free_inside < movable)
        return res;

    // Pass 2: evacuate movable allocations. Each evacuated block is
    // re-allocated outside the range (placement policy naturally picks
    // blocks away from the frontier) and the old block becomes
    // NotOwned. Clients address pages through their own mappings,
    // which Linux page migration updates; we model the cost only.
    for (Pfn p = range.first; p < range.end();) {
        const PageMeta &m = page(p);
        if (m.state == PageState::AllocHead) {
            const std::uint64_t n = 1ull << m.order;
            // Mark old pages as leaving the allocator.
            touch(rel(p), n);
            for (std::uint64_t i = 0; i < n; ++i)
                meta_[rel(p) + i].state = PageState::NotOwned;
            allocatedPages_ -= n;
            res.migrated += n;
            res.work += workModel_.perMigrate * n;
            p += n;
        } else if (m.state == PageState::FreeHead) {
            p += 1ull << m.order;
        } else if (m.state == PageState::FreeBody) {
            const Pfn head = freeBlockHead(p);
            p = head + (1ull << page(head).order);
        } else {
            ++p;
        }
    }

    // Pass 3: carve the range out of the free blocks that intersect
    // it, a whole block at a time: unlink the block, mark the
    // intersection NotOwned, and reinsert the parts outside the range
    // as maximal aligned blocks. Work units charge the splits the
    // recursive dissection would perform (carveSplits), so the cost
    // model is unchanged from carving page by page -- only the host
    // time is.
    for (Pfn p = range.first; p < range.end();) {
        const PageState s = page(p).state;
        if (s != PageState::FreeHead && s != PageState::FreeBody) {
            ++p;
            continue;
        }
        const Pfn head = (s == PageState::FreeHead) ? p
                                                    : freeBlockHead(p);
        const unsigned order = page(head).order;
        const Pfn block_end = head + (1ull << order);
        const Pfn lo = std::max(head, range.first);
        const Pfn hi = std::min(block_end, range.end());

        removeFree(head, order);
        res.work += workModel_.perSplit * carveSplits(head, order, lo, hi);
        touch(rel(lo), hi - lo);
        for (Pfn q = lo; q < hi; ++q)
            meta_[rel(q)].state = PageState::NotOwned;
        freePages_ -= hi - lo;
        if (head < lo)
            insertFreeSpan(head, lo - head);
        if (hi < block_end)
            insertFreeSpan(hi, block_end - hi);
        p = block_end;
    }

    // Pass 4: now re-home the evacuated pages outside the range.
    std::uint64_t to_place = res.migrated;
    while (to_place > 0) {
        auto r = alloc(0, Migrate::Movable);
        K2_ASSERT(r.has_value()); // guaranteed by feasibility check
        res.work += r->work;
        --to_place;
    }

    res.ok = true;
    res.work += workModel_.base;
    return res;
}

std::optional<unsigned>
BuddyAllocator::largestFreeOrder() const
{
    for (int order = kMaxOrder; order >= 0; --order) {
        if (!freeLists_[static_cast<unsigned>(order)].empty())
            return static_cast<unsigned>(order);
    }
    return std::nullopt;
}

void
BuddyAllocator::snapState(snap::Io &io)
{
    io.check(base_, "BuddyAllocator::base");
    io.check(npages_, "BuddyAllocator::npages");
    // meta_ goes into the image as raw bytes; any padding in PageMeta
    // would capture indeterminate garbage and break the fork-vs-cold
    // byte-identity contract.
    static_assert(sizeof(PageMeta) ==
                      sizeof(PageState) + sizeof(std::uint8_t) +
                          sizeof(Migrate),
                  "PageMeta must be padding-free for raw bytes");
    // Same bytes as io.podVec(meta_). A restore of the image this
    // allocator last synced with copies back only the chunks written
    // since: every other chunk already equals the image. Syncing with
    // any other image counts every chunk as written.
    K2_ASSERT(io.count(meta_.size()) == meta_.size());
    if (io.capturing()) {
        io.bytes(meta_.data(), meta_.size() * sizeof(PageMeta));
    } else {
        const std::uint8_t *img = io.take(meta_.size() * sizeof(PageMeta));
        if (synced_ != io.image())
            std::fill(touched_.begin(), touched_.end(), 1);
        synced_ = 0; // Until the copy below completes.
        auto *dst = reinterpret_cast<std::uint8_t *>(meta_.data());
        const std::uint8_t *const flags = touched_.data();
        const std::uint8_t *const end = flags + touched_.size();
        // memchr skips runs of untouched chunks many at a time.
        for (const std::uint8_t *c = flags;
             (c = static_cast<const std::uint8_t *>(std::memchr(
                  c, 1, static_cast<std::size_t>(end - c))));
             ++c) {
            const std::uint64_t first =
                static_cast<std::uint64_t>(c - flags) * kChunkPages;
            const std::size_t off = first * sizeof(PageMeta);
            std::memcpy(dst + off, img + off,
                        std::min(kChunkPages, npages_ - first) *
                            sizeof(PageMeta));
        }
    }
    std::fill(touched_.begin(), touched_.end(), 0);
    synced_ = io.image();
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        // The bitmap iterates ascending, so the image is deterministic
        // (absolute head pfns, the same bytes the std::set free lists
        // produced).
        BlockSet &list = freeLists_[order];
        std::uint64_t n = io.count(list.size());
        if (io.restoring()) {
            list.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                Pfn pfn = 0;
                io.pod(pfn);
                list.insert(rel(pfn) >> order);
            }
        } else {
            list.forEach([&](std::uint64_t idx) {
                Pfn v = base_ + (idx << order);
                io.pod(v);
            });
        }
    }
    io.pod(freePages_);
    io.pod(allocatedPages_);
    io.pod(allocCalls);
    io.pod(freeCalls);
    io.pod(failedAllocs);
}

void
BuddyAllocator::checkInvariants() const
{
    std::uint64_t free_count = 0;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        freeLists_[order].forEach([&](std::uint64_t idx) {
            const Pfn head = base_ + (idx << order);
            const PageMeta &m = page(head);
            K2_ASSERT(m.state == PageState::FreeHead);
            K2_ASSERT(m.order == order);
            K2_ASSERT((rel(head) & ((1ull << order) - 1)) == 0);
            free_count += 1ull << order;
            for (std::uint64_t i = 1; i < (1ull << order); ++i) {
                K2_ASSERT(meta_[rel(head) + i].state ==
                          PageState::FreeBody);
            }
        });
    }
    K2_ASSERT(free_count == freePages_);

    std::uint64_t alloc_count = 0;
    for (std::uint64_t i = 0; i < npages_; ++i) {
        if (meta_[i].state == PageState::AllocHead ||
            meta_[i].state == PageState::AllocBody) {
            ++alloc_count;
        }
    }
    K2_ASSERT(alloc_count == allocatedPages_);
}

} // namespace kern
} // namespace k2
