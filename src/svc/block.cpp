#include "svc/block.h"

#include <cstring>

#include "sim/log.h"
#include "soc/core.h"

namespace k2 {
namespace svc {

BlockStore::BlockStore(std::size_t block_bytes, std::uint64_t num_blocks)
    : ZeroedStore(block_bytes * num_blocks), blockBytes_(block_bytes),
      numBlocks_(num_blocks), flags_(num_blocks, 0)
{}

void
BlockStore::read(std::uint64_t b, std::span<std::uint8_t> out) const
{
    K2_ASSERT(b < numBlocks_);
    K2_ASSERT(out.size() == blockBytes_);
    std::memcpy(out.data(), &(*this)[b * blockBytes_], blockBytes_);
}

void
BlockStore::write(std::uint64_t b, std::span<const std::uint8_t> in)
{
    K2_ASSERT(b < numBlocks_);
    K2_ASSERT(in.size() == blockBytes_);
    std::memcpy(at(b), in.data(), blockBytes_);
    if (!(flags_[b] & kDirty)) {
        flags_[b] |= kDirty;
        ++dirtyCount_;
    }
    markWritten(b);
}

void
BlockStore::markWritten(std::uint64_t b)
{
    if (flags_[b] & kWritten)
        return;
    flags_[b] |= kWritten;
    written_.push_back(b);
}

void
BlockStore::snapState(snap::Io &io)
{
    const std::size_t stride = sizeof(std::uint64_t) + blockBytes_;
    if (io.capturing()) {
        io.count(dirtyCount_);
        // The flag scan yields ascending indices: deterministic bytes
        // for identical disk contents, and sorted records for restore.
        for (std::uint64_t b = 0; b < numBlocks_; ++b) {
            if (!(flags_[b] & kDirty))
                continue;
            io.pod(b);
            io.bytes(at(b), blockBytes_);
        }
    } else {
        const std::uint64_t n = io.count(0);
        const std::uint8_t *recs = io.take(n * stride);
        const bool full = synced_ != io.image();
        synced_ = 0; // Until the loop below completes.
        if (full) {
            clearWritten();
            for (std::uint64_t b = 0; b < numBlocks_; ++b) {
                if (flags_[b] & kDirty)
                    markWritten(b);
            }
        }
        // Outside the written-since list the store already matches
        // the image (the sync invariant). The records are sorted by
        // index, so each listed block is one binary search away.
        const auto indexAt = [&](std::uint64_t i) {
            std::uint64_t idx;
            std::memcpy(&idx, recs + i * stride, sizeof idx);
            return idx;
        };
        std::uint64_t found = 0;
        for (const std::uint64_t b : written_) {
            std::uint64_t lo = 0;
            std::uint64_t hi = n;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (indexAt(mid) < b)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < n && indexAt(lo) == b) {
                std::memcpy(at(b), recs + lo * stride + sizeof(b),
                            blockBytes_);
                ++found;
            } else {
                std::memset(at(b), 0, blockBytes_);
                flags_[b] &= ~kDirty;
                --dirtyCount_;
            }
        }
        // Write-only dirtying means a target that extends the image
        // has every image block dirty; a full sync checks that.
        if (full && found != n)
            K2_FATAL("snapshot restore: disk image holds %llu blocks "
                     "not dirty in the target",
                     static_cast<unsigned long long>(n - found));
        K2_ASSERT(dirtyCount_ == n);
    }
    clearWritten();
    synced_ = io.image();
}

void
BlockStore::clearWritten()
{
    for (const std::uint64_t b : written_)
        flags_[b] &= ~kWritten;
    written_.clear();
}

RamDisk::RamDisk(std::size_t block_bytes, std::uint64_t num_blocks,
                 std::uint64_t request_instr)
    : requestInstr_(request_instr), data_(block_bytes, num_blocks)
{}

sim::Duration
RamDisk::copyTime(const kern::Thread &t) const
{
    const double bw =
        const_cast<kern::Thread &>(t).core().spec().memBytesPerSec;
    return static_cast<sim::Duration>(
        static_cast<double>(blockBytes()) / bw * 1e12);
}

sim::Task<void>
RamDisk::read(kern::Thread &t, std::uint64_t block,
              std::span<std::uint8_t> out)
{
    co_await t.exec(requestInstr_);
    co_await t.execTime(copyTime(t));
    data_.read(block, out);
    reads.inc();
}

sim::Task<void>
RamDisk::write(kern::Thread &t, std::uint64_t block,
               std::span<const std::uint8_t> in)
{
    co_await t.exec(requestInstr_);
    co_await t.execTime(copyTime(t));
    data_.write(block, in);
    writes.inc();
}

void
RamDisk::snapState(snap::Io &io)
{
    io.check(blockBytes(), "RamDisk::blockBytes");
    io.check(numBlocks(), "RamDisk::numBlocks");
    io.pod(reads);
    io.pod(writes);
    data_.snapState(io);
}

} // namespace svc
} // namespace k2
