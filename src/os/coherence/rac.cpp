#include "os/coherence/rac.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {
namespace coherence {

RacState::RacState(std::size_t num_kernels, std::uint64_t num_pages)
    : n_(num_kernels), numPages_(num_pages), logHead_(n_, 0),
      drained_(n_ * n_, 0), vc_(n_ * n_, 0)
{
    K2_ASSERT(n_ >= 2);
}

RacState::PageState &
RacState::page(std::uint64_t p)
{
    K2_ASSERT(p < numPages_);
    return pages_[p];
}

std::size_t
RacState::writerOf(std::uint64_t page) const
{
    auto it = pages_.find(page);
    return it == pages_.end() ? 0 : it->second.lastWriter;
}

bool
RacState::readFresh(std::size_t k, std::uint64_t page) const
{
    auto it = pages_.find(page);
    if (it == pages_.end())
        return true; // Never written: every copy is (trivially) fresh.
    const PageState &ps = it->second;
    if (ps.lastWriter == k)
        return true;
    return vc_[k * n_ + ps.lastWriter] >= ps.stamp;
}

void
RacState::append(std::size_t k, std::uint64_t page)
{
    PageState &ps = this->page(page);
    std::uint32_t &clock = vc_[k * n_ + k];
    ++clock;
    logHead_[k] += kRacLinesPerWrite;
    ps.lastWriter = static_cast<std::uint32_t>(k);
    ps.stamp = clock;
    logAppends_.inc();
}

std::uint32_t
RacState::pendingLines(std::size_t k, std::size_t w) const
{
    return logHead_[w] - drained_[k * n_ + w];
}

std::uint32_t
RacState::drain(std::size_t k, std::size_t w)
{
    const std::uint32_t pend = pendingLines(k, w);
    drained_[k * n_ + w] = logHead_[w];
    vc_[k * n_ + w] = std::max(vc_[k * n_ + w], vc_[w * n_ + w]);
    drainedLines_.inc(pend);
    return pend;
}

void
RacState::takeOwnership(std::size_t k, std::uint64_t page)
{
    append(k, page);
}

std::vector<std::uint64_t>
RacState::reclaim(std::size_t dead, std::size_t to)
{
    std::vector<std::uint64_t> moved;
    for (std::uint64_t p : snap::sortedKeys(pages_)) {
        if (pages_.at(p).lastWriter == dead)
            moved.push_back(p);
    }
    // Absorb the dead domain's log: the inheritor has (by definition of
    // recovery) re-synced the data, so it has effectively observed
    // every release the dead domain ever published.
    drained_[to * n_ + dead] = logHead_[dead];
    vc_[to * n_ + dead] =
        std::max(vc_[to * n_ + dead], vc_[dead * n_ + dead]);
    if (!moved.empty()) {
        // One clock tick covers the whole inheritance: other domains
        // must re-acquire the moved pages from the new writer.
        ++vc_[to * n_ + to];
        for (std::uint64_t p : moved) {
            PageState &ps = pages_.at(p);
            ps.lastWriter = static_cast<std::uint32_t>(to);
            ps.stamp = vc_[to * n_ + to];
        }
    }
    return moved;
}

void
RacState::registerMetrics(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(prefix + ".rac.log_appends", logAppends_);
    reg.addCounter(prefix + ".rac.drained_lines", drainedLines_);
}

void
RacState::snapState(snap::Io &io)
{
    for (std::uint32_t &v : logHead_)
        io.pod(v);
    for (std::uint32_t &v : drained_)
        io.pod(v);
    for (std::uint32_t &v : vc_)
        io.pod(v);
    io.pod(logAppends_);
    io.pod(drainedLines_);
    // Per-page writer stamps; entries instantiated after the capture
    // point are dropped on restore.
    for (std::uint64_t k : io.keys(pages_)) {
        auto it = pages_.find(k);
        if (it == pages_.end())
            K2_FATAL("snapshot restore: RAC page %llu missing",
                     static_cast<unsigned long long>(k));
        io.pod(it->second.lastWriter);
        io.pod(it->second.stamp);
    }
}

} // namespace coherence
} // namespace os
} // namespace k2
