/**
 * @file
 * Block-device interface, the dirty-block store behind every
 * simulated disk, and the RAM-backed disk used by the paper's ext2
 * benchmark (§9.2: "we use ramdisk as the underlying block device, as
 * the SD card driver of K2 is not yet fully functional").
 */

#ifndef K2_SVC_BLOCK_H
#define K2_SVC_BLOCK_H

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "sim/stats.h"
#include "sim/task.h"
#include "kern/thread.h"
#include "snap/io.h"

namespace k2 {
namespace svc {

/**
 * Zero-filled backing store for simulated disks.
 *
 * A value-initialised std::vector would memset (and fault in) the
 * whole device at construction -- tens of milliseconds for a 64 MB
 * disk, which dominated testbed boot. calloc hands back the kernel's
 * copy-on-write zero pages instead: untouched blocks cost nothing
 * until first written and still read as zeroes.
 */
class ZeroedStore
{
  public:
    explicit ZeroedStore(std::size_t bytes)
        : p_(static_cast<std::uint8_t *>(std::calloc(bytes ? bytes : 1, 1)))
    {
        if (!p_)
            throw std::bad_alloc();
    }

    ~ZeroedStore() { std::free(p_); }
    ZeroedStore(const ZeroedStore &) = delete;
    ZeroedStore &operator=(const ZeroedStore &) = delete;

    std::uint8_t &operator[](std::size_t i) { return p_[i]; }
    const std::uint8_t &operator[](std::size_t i) const { return p_[i]; }

  private:
    std::uint8_t *p_;
};

/**
 * The blocks of a simulated disk, with the bookkeeping that keeps its
 * snapshots proportional to what was written.
 *
 * The store starts zero-filled and only write() changes it, so it
 * tracks two sets: the ever-dirty blocks (written since construction),
 * which is what an image holds, and the blocks written since the store
 * last synced with an image (captured into or restored from it).
 * Invariant: a synced store differs from its image only in the
 * written-since blocks. Restoring that same image therefore rewrites
 * just those; restoring any other image counts every ever-dirty block
 * as written. RamDisk and SdCard both keep their data here.
 */
class BlockStore : private ZeroedStore
{
  public:
    BlockStore(std::size_t block_bytes, std::uint64_t num_blocks);

    std::size_t blockBytes() const { return blockBytes_; }
    std::uint64_t numBlocks() const { return numBlocks_; }

    /** Copy block @p b into @p out (blockBytes() long). */
    void read(std::uint64_t b, std::span<std::uint8_t> out) const;

    /** Overwrite block @p b from @p in (blockBytes() long). */
    void write(std::uint64_t b, std::span<const std::uint8_t> in);

    /** Blocks written at least once (the copy-on-write working set). */
    std::uint64_t dirtyBlocks() const { return dirtyCount_; }

    /**
     * Capture/restore the ever-dirty blocks as a count followed by
     * fixed-stride (index, block) records in ascending index order.
     * Restore visits only the written-since blocks, finding each in
     * the image by binary search: blocks the image holds are copied
     * back, the rest are re-zeroed and become clean again.
     */
    void snapState(snap::Io &io);

  private:
    static constexpr std::uint8_t kDirty = 1;   //!< Ever written.
    static constexpr std::uint8_t kWritten = 2; //!< Written since sync.

    std::uint8_t *at(std::uint64_t b) { return &(*this)[b * blockBytes_]; }

    /** Add @p b to the written-since list (once). */
    void markWritten(std::uint64_t b);

    /** Empty the written-since list. */
    void clearWritten();

    std::size_t blockBytes_;
    std::uint64_t numBlocks_;
    std::vector<std::uint8_t> flags_;    //!< kDirty | kWritten per block.
    std::uint64_t dirtyCount_ = 0;
    std::vector<std::uint64_t> written_; //!< Blocks with kWritten set.
    std::uint64_t synced_ = 0;           //!< Image id; 0: none.
};

/** A synchronous block device accessed from thread context. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    virtual std::size_t blockBytes() const = 0;
    virtual std::uint64_t numBlocks() const = 0;

    /** Read one block into @p out (must be blockBytes() long). */
    virtual sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                                 std::span<std::uint8_t> out) = 0;

    /** Write one block from @p in (must be blockBytes() long). */
    virtual sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                                  std::span<const std::uint8_t> in) = 0;
};

/**
 * A RAM-backed block device.
 *
 * Transfers cost CPU time at the accessing core's memory-copy
 * bandwidth plus a small fixed request overhead -- a ramdisk is "a
 * much faster block device than real flash storage", which (as the
 * paper notes) favours the baseline by shortening the idle periods
 * that are expensive for strong cores.
 */
class RamDisk : public BlockDevice
{
  public:
    RamDisk(std::size_t block_bytes, std::uint64_t num_blocks,
            std::uint64_t request_instr = 150);

    std::size_t blockBytes() const override { return data_.blockBytes(); }
    std::uint64_t numBlocks() const override { return data_.numBlocks(); }

    sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                         std::span<std::uint8_t> out) override;
    sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                          std::span<const std::uint8_t> in) override;

    /** @name Statistics. @{ */
    sim::Counter reads;
    sim::Counter writes;
    /** @} */

    /** Blocks written at least once (the copy-on-write working set). */
    std::uint64_t dirtyBlocks() const { return data_.dirtyBlocks(); }

    /**
     * Capture/restore: the statistics, then the ever-written blocks
     * (BlockStore). This keeps snapshots proportional to the disk's
     * working set, and a fork proportional to what the cell wrote,
     * not to the disk's capacity.
     */
    void snapState(snap::Io &io);

  private:
    sim::Duration copyTime(const kern::Thread &t) const;

    std::uint64_t requestInstr_;
    BlockStore data_;
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_BLOCK_H
