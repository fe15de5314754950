/**
 * @file
 * A real (simplified) ext2-style filesystem over a BlockDevice.
 *
 * On-disk layout (4 KB blocks):
 *   block 0              superblock
 *   block 1              inode bitmap
 *   block 2              data-block bitmap
 *   blocks 3..3+T-1      inode table (128-byte inodes, 32 per block)
 *   blocks 3+T..         data blocks
 *
 * Inodes address 12 direct blocks plus one single-indirect block
 * (1024 entries), i.e. files up to ~4.2 MB. Directories store fixed
 * 64-byte entries (inode number + name) in their data blocks; paths
 * are resolved component by component from the root directory.
 *
 * As a *shadowed* OS service (paper §5.3 step 4), the filesystem's
 * mutable kernel state -- superblock, bitmaps, inode cache, and the
 * open-file table -- lives in a SharedRegion. Under K2 both kernels
 * call the same Ext2Fs object and the DSM keeps that state coherent;
 * its lock is augmented with a hardware spinlock for inter-domain
 * mutual exclusion.
 */

#ifndef K2_SVC_EXT2_H
#define K2_SVC_EXT2_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sim/task.h"
#include "os/system.h"
#include "svc/block.h"

namespace k2 {
namespace svc {

/** Result codes for filesystem operations. */
enum class FsStatus
{
    Ok = 0,
    NotFound,
    Exists,
    NoSpace,
    NotADirectory,
    IsADirectory,
    BadFd,
    TooLarge,
    NameTooLong,
    NotEmpty,
};

class Ext2Fs
{
  public:
    static constexpr std::size_t kBlockBytes = 4096;
    static constexpr std::size_t kInodeBytes = 128;
    static constexpr std::size_t kInodesPerBlock =
        kBlockBytes / kInodeBytes;
    static constexpr std::size_t kDirect = 12;
    static constexpr std::size_t kIndirectEntries =
        kBlockBytes / sizeof(std::uint32_t);
    static constexpr std::size_t kNameMax = 59;
    static constexpr std::size_t kDirEntryBytes = 64;
    /** Hardware spinlock index guarding the fs shared state. */
    static constexpr std::size_t kSpinlockIdx = 2;

    /**
     * @param sys The system image (provides the shared region and the
     *        cross-ISA dispatch accounting).
     * @param dev Backing block device; blockBytes() must equal
     *        kBlockBytes.
     * @param num_inodes Number of inodes to provision at mkfs.
     */
    Ext2Fs(os::SystemImage &sys, BlockDevice &dev,
           std::uint32_t num_inodes = 1024);

    /** Format the device. Must be called (from a thread) before use. */
    sim::Task<FsStatus> mkfs(kern::Thread &t);

    /** @name File operations. @{ */

    /** Create (exclusively) and open a file; returns an fd. */
    sim::Task<std::int64_t> create(kern::Thread &t,
                                   const std::string &path);

    /** Open an existing file; returns an fd. */
    sim::Task<std::int64_t> open(kern::Thread &t,
                                 const std::string &path);

    /** Append/overwrite at the fd's offset. Returns bytes written or
     *  -(FsStatus). */
    sim::Task<std::int64_t> write(kern::Thread &t, int fd,
                                  std::span<const std::uint8_t> data);

    /** Read from the fd's offset. Returns bytes read (0 at EOF). */
    sim::Task<std::int64_t> read(kern::Thread &t, int fd,
                                 std::span<std::uint8_t> out);

    /** Reposition an fd. */
    sim::Task<FsStatus> seek(kern::Thread &t, int fd,
                             std::uint64_t offset);

    sim::Task<FsStatus> close(kern::Thread &t, int fd);

    /** @} */

    /** @name Namespace operations. @{ */
    sim::Task<FsStatus> mkdir(kern::Thread &t, const std::string &path);
    sim::Task<FsStatus> unlink(kern::Thread &t, const std::string &path);

    struct Stat
    {
        std::uint32_t inode;
        bool isDir;
        std::uint64_t size;
    };

    sim::Task<std::optional<Stat>> stat(kern::Thread &t,
                                        const std::string &path);
    /** @} */

    /** Free data blocks remaining. */
    std::uint32_t freeBlocks() const { return sb_.freeBlocks; }
    std::uint32_t freeInodes() const { return sb_.freeInodes; }

    /** @name Statistics. @{ */
    sim::Counter opsCreate;
    sim::Counter opsWrite;
    sim::Counter opsRead;
    sim::Counter opsUnlink;

    /** Register filesystem statistics under "<prefix>.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;
    /** @} */

    /** Capture/restore: superblock cache, open-file table, stats.
     *  (On-disk state is captured by the backing device.) */
    void snapState(snap::Io &io);

  private:
    struct Superblock
    {
        std::uint32_t magic = 0xE2F5B10C;
        std::uint32_t totalBlocks = 0;
        std::uint32_t numInodes = 0;
        std::uint32_t inodeTableStart = 3;
        std::uint32_t inodeTableBlocks = 0;
        std::uint32_t dataStart = 0;
        std::uint32_t freeBlocks = 0;
        std::uint32_t freeInodes = 0;
        std::uint32_t rootInode = 1;
    };

    enum class InodeMode : std::uint32_t
    {
        Free = 0,
        File = 1,
        Dir = 2,
    };

    struct Inode
    {
        std::uint32_t mode = 0;
        std::uint32_t size = 0;
        std::uint32_t links = 0;
        std::uint32_t direct[kDirect] = {};
        std::uint32_t indirect = 0;
        std::uint8_t pad[kInodeBytes - 16 * sizeof(std::uint32_t)] = {};
    };
    static_assert(sizeof(Inode) == kInodeBytes);

    struct DirEntry
    {
        std::uint32_t ino = 0;
        char name[kDirEntryBytes - sizeof(std::uint32_t)] = {};
    };
    static_assert(sizeof(DirEntry) == kDirEntryBytes);

    struct OpenFile
    {
        std::uint32_t ino = 0;
        std::uint64_t offset = 0;
        bool used = false;
    };

    /**
     * A borrowed block-sized buffer, recycled through scratchPool_.
     *
     * Every helper used to construct a fresh std::vector per call,
     * value-initialising 4 KB each time; with one device op per
     * simulated block that memset + allocator round trip dominated
     * host time in block-heavy sweeps. Buffers come back with stale
     * contents -- callers that rely on zeroes must say so; everyone
     * else fully overwrites the buffer (device read or block-sized
     * memcpy) before reading it.
     */
    class Scratch
    {
      public:
        explicit Scratch(Ext2Fs &fs, bool zeroed = false);
        ~Scratch();
        Scratch(const Scratch &) = delete;
        Scratch &operator=(const Scratch &) = delete;

        std::uint8_t *data() { return buf_.data(); }
        std::uint8_t &operator[](std::size_t i) { return buf_[i]; }
        operator std::span<std::uint8_t>() { return buf_; }
        operator std::span<const std::uint8_t>() const { return buf_; }

      private:
        Ext2Fs &fs_;
        std::vector<std::uint8_t> buf_;
    };

    /** Charge a state touch + kernel work for a metadata operation. */
    sim::Task<void> touchMeta(kern::Thread &t, std::uint64_t page,
                              os::Access rw);
    sim::Task<void> lock(kern::Thread &t);
    void unlock(kern::Thread &t);

    /** @name Bitmap and table helpers (IO via the device). @{ */
    sim::Task<std::optional<std::uint32_t>> allocFromBitmap(
        kern::Thread &t, std::uint32_t bitmap_block, std::uint32_t limit);
    sim::Task<void> freeInBitmap(kern::Thread &t,
                                 std::uint32_t bitmap_block,
                                 std::uint32_t idx);
    sim::Task<Inode> readInode(kern::Thread &t, std::uint32_t ino);
    sim::Task<void> writeInode(kern::Thread &t, std::uint32_t ino,
                               const Inode &inode);
    sim::Task<void> writeSuperblock(kern::Thread &t);
    /** @} */

    /** Map a file byte offset to its data block, allocating if asked. */
    sim::Task<std::optional<std::uint32_t>> blockFor(kern::Thread &t,
                                                     Inode &inode,
                                                     std::uint64_t offset,
                                                     bool allocate);

    /** Release all blocks of an inode. */
    sim::Task<void> truncate(kern::Thread &t, Inode &inode);

    /** Resolve a path to (parent inode, leaf name). */
    struct PathLoc
    {
        std::uint32_t parent;
        std::string leaf;
    };
    sim::Task<std::optional<PathLoc>> resolveParent(
        kern::Thread &t, const std::string &path);

    /** Look up a name in a directory; returns the inode number. */
    sim::Task<std::optional<std::uint32_t>> dirLookup(
        kern::Thread &t, std::uint32_t dir_ino, const std::string &name);

    /** Insert/remove a directory entry. */
    sim::Task<FsStatus> dirInsert(kern::Thread &t, std::uint32_t dir_ino,
                                  const std::string &name,
                                  std::uint32_t ino);
    sim::Task<FsStatus> dirRemove(kern::Thread &t, std::uint32_t dir_ino,
                                  const std::string &name);
    sim::Task<bool> dirEmpty(kern::Thread &t, std::uint32_t dir_ino);

    os::SystemImage &sys_;
    BlockDevice &dev_;
    std::uint32_t numInodes_;
    Superblock sb_;
    bool formatted_ = false;
    std::unique_ptr<os::SharedRegion> state_;
    std::vector<OpenFile> fds_;
    /** Scratch buffer pool (host-side only; never snapshotted). */
    std::vector<std::vector<std::uint8_t>> scratchPool_;
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_EXT2_H
