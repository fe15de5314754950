#include "svc/sdcard.h"

#include <cstring>

#include "sim/log.h"
#include "snap/io.h"
#include "soc/core.h"

namespace k2 {
namespace svc {

SdCard::SdCard(std::size_t block_bytes, std::uint64_t num_blocks)
    : SdCard(block_bytes, num_blocks, Timing{})
{}

SdCard::SdCard(std::size_t block_bytes, std::uint64_t num_blocks,
               Timing timing)
    : timing_(timing), data_(block_bytes, num_blocks)
{}

sim::Task<void>
SdCard::read(kern::Thread &t, std::uint64_t block,
             std::span<std::uint8_t> out)
{
    // Issue the command (CPU), then block while the card transfers.
    co_await t.exec(200);
    const auto xfer = static_cast<sim::Duration>(
        static_cast<double>(blockBytes()) / timing_.readBytesPerSec *
        1e12);
    co_await t.sleep(timing_.commandLatency + xfer);
    data_.read(block, out);
    reads.inc();
}

sim::Task<void>
SdCard::write(kern::Thread &t, std::uint64_t block,
              std::span<const std::uint8_t> in)
{
    co_await t.exec(200);
    sim::Duration xfer = timing_.commandLatency +
                         static_cast<sim::Duration>(
                             static_cast<double>(blockBytes()) /
                             timing_.writeBytesPerSec * 1e12);
    if (++writesSinceGc_ >= timing_.gcEvery) {
        writesSinceGc_ = 0;
        gcPauses.inc();
        xfer += timing_.gcPause;
    }
    co_await t.sleep(xfer);
    data_.write(block, in);
    writes.inc();
}

void
SdCard::snapState(snap::Io &io)
{
    io.check(blockBytes(), "SdCard::blockBytes");
    io.check(numBlocks(), "SdCard::numBlocks");
    io.pod(reads);
    io.pod(writes);
    io.pod(gcPauses);
    io.pod(writesSinceGc_);
    data_.snapState(io);
}

CachedBlockDevice::CachedBlockDevice(BlockDevice &backing,
                                     std::size_t capacity_blocks)
    : backing_(backing), capacity_(capacity_blocks)
{
    K2_ASSERT(capacity_ > 0);
}

std::size_t
CachedBlockDevice::dirtyBlocks() const
{
    std::size_t n = 0;
    for (const auto &[blk, e] : entries_)
        n += e.dirty;
    return n;
}

sim::Duration
CachedBlockDevice::copyTime(kern::Thread &t) const
{
    return static_cast<sim::Duration>(
        static_cast<double>(backing_.blockBytes()) /
        t.core().spec().memBytesPerSec * 1e12);
}

void
CachedBlockDevice::touchLru(Entry &e)
{
    // Relink the existing node instead of erase + push_front: splice
    // moves it without touching the allocator, and the entry's stored
    // iterator stays valid.
    lru_.splice(lru_.begin(), lru_, e.lruPos);
    e.lruPos = lru_.begin();
}

sim::Task<CachedBlockDevice::Entry *>
CachedBlockDevice::ensureResident(kern::Thread &t, std::uint64_t block,
                                  bool load_from_backing)
{
    auto it = entries_.find(block);
    if (it != entries_.end()) {
        hits.inc();
        touchLru(it->second);
        co_return &it->second;
    }

    misses.inc();
    // Evict the LRU block if full.
    if (entries_.size() >= capacity_) {
        const std::uint64_t victim = lru_.back();
        Entry &v = entries_.at(victim);
        if (v.dirty) {
            writebacks.inc();
            co_await backing_.write(t, victim, v.data);
        }
        lru_.pop_back();
        entries_.erase(victim);
    }

    Entry e;
    e.data.resize(backing_.blockBytes());
    if (load_from_backing)
        co_await backing_.read(t, block, e.data);
    lru_.push_front(block);
    e.lruPos = lru_.begin();
    auto [pos, inserted] = entries_.emplace(block, std::move(e));
    K2_ASSERT(inserted);
    co_return &pos->second;
}

sim::Task<void>
CachedBlockDevice::read(kern::Thread &t, std::uint64_t block,
                        std::span<std::uint8_t> out)
{
    K2_ASSERT(out.size() == blockBytes());
    Entry *e = co_await ensureResident(t, block, true);
    co_await t.execTime(copyTime(t));
    std::memcpy(out.data(), e->data.data(), blockBytes());
}

sim::Task<void>
CachedBlockDevice::write(kern::Thread &t, std::uint64_t block,
                         std::span<const std::uint8_t> in)
{
    K2_ASSERT(in.size() == blockBytes());
    // A full-block overwrite needs no read-modify-write fetch.
    Entry *e = co_await ensureResident(t, block, false);
    co_await t.execTime(copyTime(t));
    std::memcpy(e->data.data(), in.data(), blockBytes());
    e->dirty = true;
}

sim::Task<void>
CachedBlockDevice::flush(kern::Thread &t)
{
    // Walk from LRU to MRU so flush order is deterministic.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        Entry &e = entries_.at(*it);
        if (e.dirty) {
            writebacks.inc();
            co_await backing_.write(t, *it, e.data);
            e.dirty = false;
        }
    }
}

void
CachedBlockDevice::snapState(snap::Io &io)
{
    io.check(capacity_, "CachedBlockDevice::capacity");
    io.pod(hits);
    io.pod(misses);
    io.pod(writebacks);

    // Entries in LRU order, front (MRU) first. Restore rebuilds both
    // containers from scratch -- unlike the structural tables, a block
    // cache holds no host resources beyond its payload bytes.
    std::uint64_t n = io.count(lru_.size());
    if (io.restoring()) {
        entries_.clear();
        lru_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t block = 0;
            io.pod(block);
            Entry e;
            e.data.resize(backing_.blockBytes());
            io.bytes(e.data.data(), e.data.size());
            io.pod(e.dirty);
            lru_.push_back(block);
            e.lruPos = std::prev(lru_.end());
            entries_.emplace(block, std::move(e));
        }
    } else {
        for (std::uint64_t block : lru_) {
            Entry &e = entries_.at(block);
            io.pod(block);
            io.bytes(e.data.data(), e.data.size());
            io.pod(e.dirty);
        }
    }
}

} // namespace svc
} // namespace k2
