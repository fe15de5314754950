/**
 * @file
 * An SD-card block device and a write-back buffer cache.
 *
 * The paper ran its ext2 benchmark on a ramdisk because "the SD card
 * driver of K2 is not yet fully functional", noting this *favours
 * Linux*: a real flash device has long per-request latencies whose
 * idle periods are expensive for strong cores. SdCard models such a
 * device (per-command latency + limited bandwidth, with the CPU idle
 * while the controller works); CachedBlockDevice is the page-cache
 * layer a real kernel would put in front of it -- an LRU write-back
 * cache over any BlockDevice.
 */

#ifndef K2_SVC_SDCARD_H
#define K2_SVC_SDCARD_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/stats.h"
#include "svc/block.h"

namespace k2 {
namespace svc {

/**
 * A flash (SD) card: every command pays a fixed controller latency,
 * transfers are bandwidth-limited, and writes are slower than reads.
 * The calling thread *blocks* (core idles) while the card works.
 */
class SdCard : public BlockDevice
{
  public:
    struct Timing
    {
        sim::Duration commandLatency = sim::usec(300);
        double readBytesPerSec = 20.0e6;
        double writeBytesPerSec = 8.0e6;
        /** Extra latency on a fraction of writes (flash GC pauses). */
        sim::Duration gcPause = sim::msec(4);
        std::uint32_t gcEvery = 64; //!< One pause per this many writes.
    };

    SdCard(std::size_t block_bytes, std::uint64_t num_blocks);
    SdCard(std::size_t block_bytes, std::uint64_t num_blocks,
           Timing timing);

    std::size_t blockBytes() const override { return data_.blockBytes(); }
    std::uint64_t numBlocks() const override { return data_.numBlocks(); }

    sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                         std::span<std::uint8_t> out) override;
    sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                          std::span<const std::uint8_t> in) override;

    /** @name Statistics. @{ */
    sim::Counter reads;
    sim::Counter writes;
    sim::Counter gcPauses;
    /** @} */

    /** Blocks written at least once (the copy-on-write working set). */
    std::uint64_t dirtyBlocks() const { return data_.dirtyBlocks(); }

    /** Capture/restore: the statistics and GC phase, then the
     *  ever-written blocks, as for RamDisk. */
    void snapState(snap::Io &io);

  private:
    Timing timing_;
    BlockStore data_;
    std::uint32_t writesSinceGc_ = 0;
};

/**
 * An LRU write-back cache over any BlockDevice.
 *
 * Hits are served at CPU memcpy speed; misses fetch from the backing
 * device; dirty blocks are written back on eviction or flush(). As a
 * shadowed-service building block its *metadata* belongs in the
 * service's SharedRegion; the fs already touches its state pages per
 * operation, so the cache itself only models time.
 */
class CachedBlockDevice : public BlockDevice
{
  public:
    /**
     * @param backing The device to cache (not owned).
     * @param capacity_blocks Cache size in blocks.
     */
    CachedBlockDevice(BlockDevice &backing,
                      std::size_t capacity_blocks);

    std::size_t blockBytes() const override
    {
        return backing_.blockBytes();
    }

    std::uint64_t numBlocks() const override
    {
        return backing_.numBlocks();
    }

    sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                         std::span<std::uint8_t> out) override;
    sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                          std::span<const std::uint8_t> in) override;

    /** Write back all dirty blocks. */
    sim::Task<void> flush(kern::Thread &t);

    std::size_t cachedBlocks() const { return lru_.size(); }
    std::size_t dirtyBlocks() const;

    /** @name Statistics. @{ */
    sim::Counter hits;
    sim::Counter misses;
    sim::Counter writebacks;
    /** @} */

    /**
     * Capture/restore. Cache contents are plain data (no parked
     * coroutines), so restore rebuilds the entry map and LRU order
     * wholesale from the image.
     */
    void snapState(snap::Io &io);

  private:
    struct Entry
    {
        std::vector<std::uint8_t> data;
        bool dirty = false;
        std::list<std::uint64_t>::iterator lruPos;
    };

    /** Move an entry's node to the MRU position. */
    void touchLru(Entry &e);

    /** Ensure @p block is resident; may evict (writing back). */
    sim::Task<Entry *> ensureResident(kern::Thread &t,
                                      std::uint64_t block,
                                      bool load_from_backing);

    sim::Duration copyTime(kern::Thread &t) const;

    BlockDevice &backing_;
    std::size_t capacity_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::list<std::uint64_t> lru_; //!< Front = MRU.
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_SDCARD_H
