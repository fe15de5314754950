#include "svc/ext2.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace svc {

namespace {

/** Kernel work units charged per metadata operation. */
constexpr std::uint64_t kOpWork = 260;
/** Per path component. */
constexpr std::uint64_t kLookupWork = 120;
/** Function pointers dereferenced per VFS operation (§5.4). */
constexpr std::uint64_t kVfsPointers = 3;

/** Shared-state page indices within the fs region. */
constexpr std::uint64_t kSbPage = 0;     // superblock + bitmaps
constexpr std::uint64_t kFdPage = 1;     // open-file table
constexpr std::uint64_t kInodePage0 = 2; // inode cache pages
constexpr std::uint64_t kInodePages = 4;

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (const char c : path) {
        if (c == '/') {
            if (!cur.empty()) {
                parts.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

} // namespace

Ext2Fs::Scratch::Scratch(Ext2Fs &fs, bool zeroed) : fs_(fs)
{
    if (fs.scratchPool_.empty()) {
        buf_.assign(kBlockBytes, 0); // Fresh buffers start zeroed.
        return;
    }
    buf_ = std::move(fs.scratchPool_.back());
    fs.scratchPool_.pop_back();
    if (zeroed)
        std::fill(buf_.begin(), buf_.end(), 0);
}

Ext2Fs::Scratch::~Scratch()
{
    fs_.scratchPool_.push_back(std::move(buf_));
}

Ext2Fs::Ext2Fs(os::SystemImage &sys, BlockDevice &dev,
               std::uint32_t num_inodes)
    : sys_(sys), dev_(dev), numInodes_(num_inodes), fds_(64)
{
    if (dev_.blockBytes() != kBlockBytes)
        K2_FATAL("ext2 requires %zu-byte blocks, device has %zu",
                 kBlockBytes, dev_.blockBytes());
    state_ = sys_.createSharedRegion("ext2-state",
                                     kInodePage0 + kInodePages);
}

sim::Task<void>
Ext2Fs::touchMeta(kern::Thread &t, std::uint64_t page, os::Access rw)
{
    co_await state_->touch(t.kernel(), t.core(), page, rw);
}

sim::Task<void>
Ext2Fs::lock(kern::Thread &t)
{
    // The fs kernel lock is a mutex augmented with a hardware spinlock
    // bit (§5.3): the bit arbitrates across domains, but a contended
    // waiter *sleeps* between probes of it instead of busy-spinning.
    // A true spin would deadlock a single-core domain whenever the
    // holder parks inside the critical section (e.g. on a DSM fault
    // during a peer-domain outage): the spinner owns the only core and
    // the holder can never run to release. Each probe still charges
    // one bus access; the probe interval matches the hardware spin
    // poll, so the contended-acquire latency is unchanged.
    auto &soc = t.kernel().soc();
    co_await t.core().execTime(soc.costs().busAccess);
    while (!soc.spinlocks().tryAcquire(kSpinlockIdx)) {
        co_await t.sleep(soc.costs().spinPoll);
        co_await t.core().execTime(soc.costs().busAccess);
    }
    t.enterCritical();
}

void
Ext2Fs::unlock(kern::Thread &t)
{
    // Release is cheap; the acquire charged the bus accesses.
    t.kernel().soc().spinlocks().release(kSpinlockIdx);
    t.exitCritical();
}

sim::Task<FsStatus>
Ext2Fs::mkfs(kern::Thread &t)
{
    co_await lock(t);
    sb_ = Superblock{};
    sb_.totalBlocks = static_cast<std::uint32_t>(dev_.numBlocks());
    sb_.numInodes = numInodes_;
    sb_.inodeTableBlocks = static_cast<std::uint32_t>(
        (numInodes_ + kInodesPerBlock - 1) / kInodesPerBlock);
    sb_.dataStart = sb_.inodeTableStart + sb_.inodeTableBlocks;
    if (sb_.dataStart >= sb_.totalBlocks) {
        unlock(t);
        co_return FsStatus::NoSpace;
    }
    sb_.freeBlocks = sb_.totalBlocks - sb_.dataStart;
    sb_.freeInodes = numInodes_ - 2; // inode 0 reserved, 1 = root.

    // Zero the bitmaps and inode table.
    Scratch zero(*this, true);
    co_await dev_.write(t, 1, zero);
    co_await dev_.write(t, 2, zero);
    for (std::uint32_t b = 0; b < sb_.inodeTableBlocks; ++b)
        co_await dev_.write(t, sb_.inodeTableStart + b, zero);

    // Mark inodes 0 and 1 used in the inode bitmap.
    Scratch bm(*this, true);
    bm[0] = 0x3;
    co_await dev_.write(t, 1, bm);

    // Root directory inode.
    Inode root;
    root.mode = static_cast<std::uint32_t>(InodeMode::Dir);
    root.links = 1;
    co_await writeInode(t, sb_.rootInode, root);
    co_await writeSuperblock(t);

    for (auto &f : fds_)
        f = OpenFile{};
    formatted_ = true;
    co_await touchMeta(t, kSbPage, os::Access::Write);
    unlock(t);
    co_return FsStatus::Ok;
}

sim::Task<void>
Ext2Fs::writeSuperblock(kern::Thread &t)
{
    Scratch buf(*this, true);
    std::memcpy(buf.data(), &sb_, sizeof(sb_));
    co_await dev_.write(t, 0, buf);
}

sim::Task<std::optional<std::uint32_t>>
Ext2Fs::allocFromBitmap(kern::Thread &t, std::uint32_t bitmap_block,
                        std::uint32_t limit)
{
    Scratch bm(*this);
    co_await dev_.read(t, bitmap_block, bm);
    // First-fit scan from bit 0; skipping full (0xFF) bytes matters
    // because on a busy device most of the prefix is allocated.
    const std::uint32_t nbytes = (limit + 7) / 8;
    for (std::uint32_t byte = 0; byte < nbytes; ++byte) {
        if (bm[byte] == 0xFF)
            continue;
        const std::uint32_t i =
            byte * 8 + static_cast<std::uint32_t>(
                           std::countr_one(bm[byte]));
        if (i >= limit)
            break;
        bm[i / 8] |= (1u << (i % 8));
        co_await dev_.write(t, bitmap_block, bm);
        co_return i;
    }
    co_return std::nullopt;
}

sim::Task<void>
Ext2Fs::freeInBitmap(kern::Thread &t, std::uint32_t bitmap_block,
                     std::uint32_t idx)
{
    Scratch bm(*this);
    co_await dev_.read(t, bitmap_block, bm);
    K2_ASSERT(bm[idx / 8] & (1u << (idx % 8)));
    bm[idx / 8] &= static_cast<std::uint8_t>(~(1u << (idx % 8)));
    co_await dev_.write(t, bitmap_block, bm);
}

sim::Task<Ext2Fs::Inode>
Ext2Fs::readInode(kern::Thread &t, std::uint32_t ino)
{
    K2_ASSERT(ino < sb_.numInodes);
    co_await touchMeta(t, kInodePage0 + ino % kInodePages,
                       os::Access::Read);
    const std::uint32_t block =
        sb_.inodeTableStart +
        ino / static_cast<std::uint32_t>(kInodesPerBlock);
    Scratch buf(*this);
    co_await dev_.read(t, block, buf);
    Inode inode;
    std::memcpy(&inode, &buf[(ino % kInodesPerBlock) * kInodeBytes],
                sizeof(inode));
    co_return inode;
}

sim::Task<void>
Ext2Fs::writeInode(kern::Thread &t, std::uint32_t ino, const Inode &inode)
{
    K2_ASSERT(ino < sb_.numInodes);
    co_await touchMeta(t, kInodePage0 + ino % kInodePages,
                       os::Access::Write);
    const std::uint32_t block =
        sb_.inodeTableStart +
        ino / static_cast<std::uint32_t>(kInodesPerBlock);
    Scratch buf(*this);
    co_await dev_.read(t, block, buf);
    std::memcpy(&buf[(ino % kInodesPerBlock) * kInodeBytes], &inode,
                sizeof(inode));
    co_await dev_.write(t, block, buf);
}

sim::Task<std::optional<std::uint32_t>>
Ext2Fs::blockFor(kern::Thread &t, Inode &inode, std::uint64_t offset,
                 bool allocate)
{
    const std::uint64_t idx = offset / kBlockBytes;
    auto alloc_data_block =
        [&]() -> sim::Task<std::optional<std::uint32_t>> {
        if (sb_.freeBlocks == 0)
            co_return std::nullopt;
        auto rel = co_await allocFromBitmap(
            t, 2, sb_.totalBlocks - sb_.dataStart);
        if (!rel)
            co_return std::nullopt;
        --sb_.freeBlocks;
        co_await writeSuperblock(t);
        co_return sb_.dataStart + *rel;
    };

    if (idx < kDirect) {
        if (inode.direct[idx] == 0) {
            if (!allocate)
                co_return std::nullopt;
            auto blk = co_await alloc_data_block();
            if (!blk)
                co_return std::nullopt;
            inode.direct[idx] = *blk;
        }
        co_return inode.direct[idx];
    }

    const std::uint64_t ind_idx = idx - kDirect;
    if (ind_idx >= kIndirectEntries)
        co_return std::nullopt; // beyond max file size

    if (inode.indirect == 0) {
        if (!allocate)
            co_return std::nullopt;
        auto blk = co_await alloc_data_block();
        if (!blk)
            co_return std::nullopt;
        inode.indirect = *blk;
        Scratch zero(*this, true);
        co_await dev_.write(t, inode.indirect, zero);
    }

    Scratch ind(*this);
    co_await dev_.read(t, inode.indirect, ind);
    std::uint32_t entry = 0;
    std::memcpy(&entry, &ind[ind_idx * 4], 4);
    if (entry == 0) {
        if (!allocate)
            co_return std::nullopt;
        auto blk = co_await alloc_data_block();
        if (!blk)
            co_return std::nullopt;
        entry = *blk;
        std::memcpy(&ind[ind_idx * 4], &entry, 4);
        co_await dev_.write(t, inode.indirect, ind);
    }
    co_return entry;
}

sim::Task<void>
Ext2Fs::truncate(kern::Thread &t, Inode &inode)
{
    auto release = [&](std::uint32_t blk) -> sim::Task<void> {
        co_await freeInBitmap(t, 2, blk - sb_.dataStart);
        ++sb_.freeBlocks;
    };
    for (std::size_t i = 0; i < kDirect; ++i) {
        if (inode.direct[i]) {
            co_await release(inode.direct[i]);
            inode.direct[i] = 0;
        }
    }
    if (inode.indirect) {
        Scratch ind(*this);
        co_await dev_.read(t, inode.indirect, ind);
        for (std::size_t i = 0; i < kIndirectEntries; ++i) {
            std::uint32_t entry = 0;
            std::memcpy(&entry, &ind[i * 4], 4);
            if (entry)
                co_await release(entry);
        }
        co_await release(inode.indirect);
        inode.indirect = 0;
    }
    inode.size = 0;
    co_await writeSuperblock(t);
}

sim::Task<std::optional<std::uint32_t>>
Ext2Fs::dirLookup(kern::Thread &t, std::uint32_t dir_ino,
                  const std::string &name)
{
    Inode dir = co_await readInode(t, dir_ino);
    if (dir.mode != static_cast<std::uint32_t>(InodeMode::Dir))
        co_return std::nullopt;
    Scratch buf(*this);
    for (std::uint64_t off = 0; off < dir.size; off += kBlockBytes) {
        auto blk = co_await blockFor(t, dir, off, false);
        if (!blk)
            break;
        co_await dev_.read(t, *blk, buf);
        const std::uint64_t entries =
            std::min<std::uint64_t>(kBlockBytes,
                                    dir.size - off) / kDirEntryBytes;
        for (std::uint64_t e = 0; e < entries; ++e) {
            DirEntry ent;
            std::memcpy(&ent, &buf[e * kDirEntryBytes], sizeof(ent));
            if (ent.ino != 0 && name == ent.name)
                co_return ent.ino;
        }
    }
    co_return std::nullopt;
}

sim::Task<FsStatus>
Ext2Fs::dirInsert(kern::Thread &t, std::uint32_t dir_ino,
                  const std::string &name, std::uint32_t ino)
{
    if (name.size() > kNameMax)
        co_return FsStatus::NameTooLong;
    Inode dir = co_await readInode(t, dir_ino);
    Scratch buf(*this);

    // Reuse a hole if one exists.
    for (std::uint64_t off = 0; off < dir.size; off += kBlockBytes) {
        auto blk = co_await blockFor(t, dir, off, false);
        if (!blk)
            continue;
        co_await dev_.read(t, *blk, buf);
        const std::uint64_t entries =
            std::min<std::uint64_t>(kBlockBytes,
                                    dir.size - off) / kDirEntryBytes;
        for (std::uint64_t e = 0; e < entries; ++e) {
            DirEntry ent;
            std::memcpy(&ent, &buf[e * kDirEntryBytes], sizeof(ent));
            if (ent.ino == 0) {
                ent.ino = ino;
                std::memset(ent.name, 0, sizeof(ent.name));
                std::memcpy(ent.name, name.data(), name.size());
                std::memcpy(&buf[e * kDirEntryBytes], &ent, sizeof(ent));
                co_await dev_.write(t, *blk, buf);
                co_return FsStatus::Ok;
            }
        }
    }

    // Append a new entry.
    auto blk = co_await blockFor(t, dir, dir.size, true);
    if (!blk)
        co_return FsStatus::NoSpace;
    co_await dev_.read(t, *blk, buf);
    DirEntry ent;
    ent.ino = ino;
    std::memcpy(ent.name, name.data(), name.size());
    std::memcpy(&buf[dir.size % kBlockBytes], &ent, sizeof(ent));
    co_await dev_.write(t, *blk, buf);
    dir.size += kDirEntryBytes;
    co_await writeInode(t, dir_ino, dir);
    co_return FsStatus::Ok;
}

sim::Task<FsStatus>
Ext2Fs::dirRemove(kern::Thread &t, std::uint32_t dir_ino,
                  const std::string &name)
{
    Inode dir = co_await readInode(t, dir_ino);
    Scratch buf(*this);
    for (std::uint64_t off = 0; off < dir.size; off += kBlockBytes) {
        auto blk = co_await blockFor(t, dir, off, false);
        if (!blk)
            continue;
        co_await dev_.read(t, *blk, buf);
        const std::uint64_t entries =
            std::min<std::uint64_t>(kBlockBytes,
                                    dir.size - off) / kDirEntryBytes;
        for (std::uint64_t e = 0; e < entries; ++e) {
            DirEntry ent;
            std::memcpy(&ent, &buf[e * kDirEntryBytes], sizeof(ent));
            if (ent.ino != 0 && name == ent.name) {
                ent = DirEntry{};
                std::memcpy(&buf[e * kDirEntryBytes], &ent, sizeof(ent));
                co_await dev_.write(t, *blk, buf);
                co_return FsStatus::Ok;
            }
        }
    }
    co_return FsStatus::NotFound;
}

sim::Task<bool>
Ext2Fs::dirEmpty(kern::Thread &t, std::uint32_t dir_ino)
{
    Inode dir = co_await readInode(t, dir_ino);
    Scratch buf(*this);
    for (std::uint64_t off = 0; off < dir.size; off += kBlockBytes) {
        auto blk = co_await blockFor(t, dir, off, false);
        if (!blk)
            continue;
        co_await dev_.read(t, *blk, buf);
        const std::uint64_t entries =
            std::min<std::uint64_t>(kBlockBytes,
                                    dir.size - off) / kDirEntryBytes;
        for (std::uint64_t e = 0; e < entries; ++e) {
            DirEntry ent;
            std::memcpy(&ent, &buf[e * kDirEntryBytes], sizeof(ent));
            if (ent.ino != 0)
                co_return false;
        }
    }
    co_return true;
}

sim::Task<std::optional<Ext2Fs::PathLoc>>
Ext2Fs::resolveParent(kern::Thread &t, const std::string &path)
{
    const auto parts = splitPath(path);
    if (parts.empty())
        co_return std::nullopt;
    std::uint32_t cur = sb_.rootInode;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        co_await t.exec(kLookupWork);
        auto next = co_await dirLookup(t, cur, parts[i]);
        if (!next)
            co_return std::nullopt;
        cur = *next;
    }
    co_return PathLoc{cur, parts.back()};
}

sim::Task<std::int64_t>
Ext2Fs::create(kern::Thread &t, const std::string &path)
{
    K2_ASSERT(formatted_);
    opsCreate.inc();
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    co_await lock(t);
    co_await touchMeta(t, kSbPage, os::Access::Write);

    auto loc = co_await resolveParent(t, path);
    std::int64_t result;
    if (!loc) {
        result = -static_cast<std::int64_t>(FsStatus::NotFound);
    } else if (co_await dirLookup(t, loc->parent, loc->leaf)) {
        result = -static_cast<std::int64_t>(FsStatus::Exists);
    } else {
        auto ino = co_await allocFromBitmap(t, 1, sb_.numInodes);
        if (!ino) {
            result = -static_cast<std::int64_t>(FsStatus::NoSpace);
        } else {
            --sb_.freeInodes;
            Inode inode;
            inode.mode = static_cast<std::uint32_t>(InodeMode::File);
            inode.links = 1;
            co_await writeInode(t, *ino, inode);
            const FsStatus ins =
                co_await dirInsert(t, loc->parent, loc->leaf, *ino);
            if (ins != FsStatus::Ok) {
                result = -static_cast<std::int64_t>(ins);
            } else {
                co_await writeSuperblock(t);
                // Allocate an fd.
                co_await touchMeta(t, kFdPage, os::Access::Write);
                result = -static_cast<std::int64_t>(FsStatus::NoSpace);
                for (std::size_t fd = 0; fd < fds_.size(); ++fd) {
                    if (!fds_[fd].used) {
                        fds_[fd] = OpenFile{*ino, 0, true};
                        result = static_cast<std::int64_t>(fd);
                        break;
                    }
                }
            }
        }
    }
    unlock(t);
    co_return result;
}

sim::Task<std::int64_t>
Ext2Fs::open(kern::Thread &t, const std::string &path)
{
    K2_ASSERT(formatted_);
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    co_await lock(t);
    co_await touchMeta(t, kSbPage, os::Access::Read);

    std::int64_t result = -static_cast<std::int64_t>(FsStatus::NotFound);
    auto loc = co_await resolveParent(t, path);
    if (loc) {
        auto ino = co_await dirLookup(t, loc->parent, loc->leaf);
        if (ino) {
            co_await touchMeta(t, kFdPage, os::Access::Write);
            result = -static_cast<std::int64_t>(FsStatus::NoSpace);
            for (std::size_t fd = 0; fd < fds_.size(); ++fd) {
                if (!fds_[fd].used) {
                    fds_[fd] = OpenFile{*ino, 0, true};
                    result = static_cast<std::int64_t>(fd);
                    break;
                }
            }
        }
    }
    unlock(t);
    co_return result;
}

sim::Task<std::int64_t>
Ext2Fs::write(kern::Thread &t, int fd, std::span<const std::uint8_t> data)
{
    opsWrite.inc();
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
        !fds_[static_cast<std::size_t>(fd)].used) {
        co_return -static_cast<std::int64_t>(FsStatus::BadFd);
    }
    co_await lock(t);
    OpenFile &of = fds_[static_cast<std::size_t>(fd)];
    co_await touchMeta(t, kFdPage, os::Access::Read);

    Inode inode = co_await readInode(t, of.ino);
    std::int64_t written = 0;
    Scratch buf(*this);
    std::int64_t result = 0;

    while (written < static_cast<std::int64_t>(data.size())) {
        const std::uint64_t off = of.offset;
        auto blk = co_await blockFor(t, inode, off, true);
        if (!blk) {
            result = written ? written
                             : -static_cast<std::int64_t>(
                                   FsStatus::NoSpace);
            break;
        }
        const std::size_t in_block = off % kBlockBytes;
        const std::size_t n = std::min<std::size_t>(
            kBlockBytes - in_block, data.size() - written);
        if (n < kBlockBytes) {
            // Read-modify-write for partial blocks.
            co_await dev_.read(t, *blk, buf);
        }
        std::memcpy(&buf[in_block], data.data() + written, n);
        co_await dev_.write(t, *blk, buf);
        of.offset += n;
        written += static_cast<std::int64_t>(n);
        inode.size = std::max<std::uint32_t>(
            inode.size, static_cast<std::uint32_t>(of.offset));
    }
    if (result == 0)
        result = written;
    co_await writeInode(t, of.ino, inode);
    unlock(t);
    co_return result;
}

sim::Task<std::int64_t>
Ext2Fs::read(kern::Thread &t, int fd, std::span<std::uint8_t> out)
{
    opsRead.inc();
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
        !fds_[static_cast<std::size_t>(fd)].used) {
        co_return -static_cast<std::int64_t>(FsStatus::BadFd);
    }
    co_await lock(t);
    OpenFile &of = fds_[static_cast<std::size_t>(fd)];
    co_await touchMeta(t, kFdPage, os::Access::Read);

    Inode inode = co_await readInode(t, of.ino);
    std::int64_t got = 0;
    Scratch buf(*this);
    while (got < static_cast<std::int64_t>(out.size()) &&
           of.offset < inode.size) {
        auto blk = co_await blockFor(t, inode, of.offset, false);
        const std::size_t in_block = of.offset % kBlockBytes;
        const std::size_t n = std::min<std::size_t>(
            {kBlockBytes - in_block,
             out.size() - static_cast<std::size_t>(got),
             inode.size - of.offset});
        if (blk) {
            co_await dev_.read(t, *blk, buf);
            std::memcpy(out.data() + got, &buf[in_block], n);
        } else {
            std::memset(out.data() + got, 0, n); // hole
        }
        of.offset += n;
        got += static_cast<std::int64_t>(n);
    }
    unlock(t);
    co_return got;
}

sim::Task<FsStatus>
Ext2Fs::seek(kern::Thread &t, int fd, std::uint64_t offset)
{
    co_await t.exec(kOpWork / 4);
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
        !fds_[static_cast<std::size_t>(fd)].used) {
        co_return FsStatus::BadFd;
    }
    fds_[static_cast<std::size_t>(fd)].offset = offset;
    co_return FsStatus::Ok;
}

sim::Task<FsStatus>
Ext2Fs::close(kern::Thread &t, int fd)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), 1);
    co_await t.exec(kOpWork / 2);
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
        !fds_[static_cast<std::size_t>(fd)].used) {
        co_return FsStatus::BadFd;
    }
    co_await touchMeta(t, kFdPage, os::Access::Write);
    fds_[static_cast<std::size_t>(fd)] = OpenFile{};
    co_return FsStatus::Ok;
}

sim::Task<FsStatus>
Ext2Fs::mkdir(kern::Thread &t, const std::string &path)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    co_await lock(t);
    co_await touchMeta(t, kSbPage, os::Access::Write);

    FsStatus result = FsStatus::Ok;
    auto loc = co_await resolveParent(t, path);
    if (!loc) {
        result = FsStatus::NotFound;
    } else if (co_await dirLookup(t, loc->parent, loc->leaf)) {
        result = FsStatus::Exists;
    } else {
        auto ino = co_await allocFromBitmap(t, 1, sb_.numInodes);
        if (!ino) {
            result = FsStatus::NoSpace;
        } else {
            --sb_.freeInodes;
            Inode inode;
            inode.mode = static_cast<std::uint32_t>(InodeMode::Dir);
            inode.links = 1;
            co_await writeInode(t, *ino, inode);
            result = co_await dirInsert(t, loc->parent, loc->leaf, *ino);
            co_await writeSuperblock(t);
        }
    }
    unlock(t);
    co_return result;
}

sim::Task<FsStatus>
Ext2Fs::unlink(kern::Thread &t, const std::string &path)
{
    opsUnlink.inc();
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), kVfsPointers);
    co_await t.exec(kOpWork);
    co_await lock(t);
    co_await touchMeta(t, kSbPage, os::Access::Write);

    FsStatus result = FsStatus::Ok;
    auto loc = co_await resolveParent(t, path);
    std::optional<std::uint32_t> ino;
    if (!loc || !(ino = co_await dirLookup(t, loc->parent, loc->leaf))) {
        result = FsStatus::NotFound;
    } else {
        Inode inode = co_await readInode(t, *ino);
        if (inode.mode == static_cast<std::uint32_t>(InodeMode::Dir) &&
            !(co_await dirEmpty(t, *ino))) {
            result = FsStatus::NotEmpty;
        } else {
            co_await truncate(t, inode);
            inode = Inode{};
            co_await writeInode(t, *ino, inode);
            co_await freeInBitmap(t, 1, *ino);
            ++sb_.freeInodes;
            co_await writeSuperblock(t);
            result = co_await dirRemove(t, loc->parent, loc->leaf);
        }
    }
    unlock(t);
    co_return result;
}

sim::Task<std::optional<Ext2Fs::Stat>>
Ext2Fs::stat(kern::Thread &t, const std::string &path)
{
    co_await sys_.chargeCrossIsa(t.kernel(), t.core(), 1);
    co_await t.exec(kOpWork / 2);
    co_await lock(t);
    co_await touchMeta(t, kSbPage, os::Access::Read);

    std::optional<Stat> result;
    if (path == "/") {
        Inode inode = co_await readInode(t, sb_.rootInode);
        result = Stat{sb_.rootInode, true, inode.size};
    } else {
        auto loc = co_await resolveParent(t, path);
        std::optional<std::uint32_t> ino;
        if (loc && (ino = co_await dirLookup(t, loc->parent, loc->leaf))) {
            Inode inode = co_await readInode(t, *ino);
            result = Stat{
                *ino,
                inode.mode ==
                    static_cast<std::uint32_t>(InodeMode::Dir),
                inode.size};
        }
    }
    unlock(t);
    co_return result;
}

void
Ext2Fs::registerMetrics(obs::MetricsRegistry &reg,
                        const std::string &prefix) const
{
    reg.addCounter(prefix + ".ops_create", opsCreate);
    reg.addCounter(prefix + ".ops_write", opsWrite);
    reg.addCounter(prefix + ".ops_read", opsRead);
    reg.addCounter(prefix + ".ops_unlink", opsUnlink);
    reg.addGauge(prefix + ".free_blocks", [this]() {
        return static_cast<double>(freeBlocks());
    });
    reg.addGauge(prefix + ".free_inodes", [this]() {
        return static_cast<double>(freeInodes());
    });
}

void
Ext2Fs::snapState(snap::Io &io)
{
    io.check(numInodes_, "Ext2Fs::numInodes");
    io.pod(sb_);
    io.pod(formatted_);
    io.pod(opsCreate);
    io.pod(opsWrite);
    io.pod(opsRead);
    io.pod(opsUnlink);

    // Open-file table. Field-wise: OpenFile has interior padding.
    io.check(fds_.size(), "Ext2Fs::fds");
    for (OpenFile &f : fds_) {
        io.pod(f.ino);
        io.pod(f.offset);
        io.pod(f.used);
    }
}

} // namespace svc
} // namespace k2
