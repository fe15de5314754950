#include "soc/mmu.h"

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace soc {

std::uint64_t
pagesPerEntry(MapGrain grain)
{
    switch (grain) {
      case MapGrain::Page4K:
        return 1;
      case MapGrain::Section1M:
        return 256;
      case MapGrain::Super16M:
        return 4096;
    }
    return 1;
}

bool
Tlb::access(std::uint64_t tag)
{
    if (present_.count(tag)) {
        hits_.inc();
        return true;
    }
    misses_.inc();
    if (fifo_.size() >= capacity_) {
        present_.erase(fifo_.front());
        fifo_.pop_front();
    }
    fifo_.push_back(tag);
    present_.insert(tag);
    return false;
}

void
Tlb::invalidate(std::uint64_t tag)
{
    if (!present_.count(tag))
        return;
    present_.erase(tag);
    for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
        if (*it == tag) {
            fifo_.erase(it);
            break;
        }
    }
}

void
Tlb::snapState(snap::Io &io)
{
    io.check(capacity_, "Tlb::capacity");
    io.podDeque(fifo_);
    if (io.restoring()) {
        present_.clear();
        for (std::uint64_t tag : fifo_)
            present_.insert(tag);
    }
    io.pod(hits_);
    io.pod(misses_);
}

void
Mmu::snapState(snap::Io &io)
{
    tlb_.snapState(io);
}

Mmu::Mmu(const CoreSpec &spec)
    : kind_(spec.mmu), tlb_(spec.l1TlbEntries)
{
    // A hardware walker resolves a miss in roughly a cache-miss pair;
    // the M3's cascaded arrangement takes a software reload of the
    // first level plus the second level's hardware walk.
    switch (kind_) {
      case MmuKind::SingleLevel:
        walkCost_ = sim::nsec(80);
        ptUpdateCost_ = sim::nsec(150);
        break;
      case MmuKind::CascadedTwoLevel:
        walkCost_ = sim::nsec(400);
        ptUpdateCost_ = sim::nsec(600);
        break;
    }
}

sim::Duration
Mmu::translate(Vpn vpn, MapGrain grain)
{
    const std::uint64_t tag = vpn / pagesPerEntry(grain);
    if (tlb_.access(tag))
        return 0;
    return walkCost_;
}

sim::Duration
Mmu::protectionUpdate(Vpn vpn)
{
    tlb_.invalidate(vpn);
    return ptUpdateCost_;
}

sim::Duration
Mmu::readTrackPenalty() const
{
    if (kind_ == MmuKind::SingleLevel)
        return 0;
    // Every read-tracked page competes for the ten software-loaded
    // first-level entries; the paper reports "severe thrashing". Model
    // the steady-state cost as reloading most of the first level.
    return sim::usec(25);
}

} // namespace soc
} // namespace k2
