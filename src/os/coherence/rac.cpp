#include "os/coherence/rac.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {
namespace coherence {

RacState::RacState(std::size_t num_kernels)
    : n_(num_kernels), logHead_(n_, 0), drained_(n_ * n_, 0),
      vc_(n_ * n_, 0)
{
    K2_ASSERT(n_ >= 2);
}

bool
RacState::permits(std::size_t k, const RacPage &p, Access rw) const
{
    if (p.lastWriter == k)
        return true;
    // A never-written page is writer 0's at stamp 0: fresh everywhere.
    return rw == Access::Read && vc_[k * n_ + p.lastWriter] >= p.stamp;
}

void
RacState::append(std::size_t k, RacPage &p)
{
    std::uint64_t &clock = vc_[k * n_ + k];
    ++clock;
    logHead_[k] += kRacLinesPerWrite;
    p.lastWriter = static_cast<std::uint32_t>(k);
    p.stamp = clock;
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

RacPage
RacState::reclaim(std::size_t dead, std::size_t to, bool inherits)
{
    // Absorb the dead domain's log: the inheritor has (by definition of
    // recovery) re-synced the data, so it has effectively observed
    // every release the dead domain ever published.
    drained_[to * n_ + dead] = logHead_[dead];
    vc_[to * n_ + dead] =
        std::max(vc_[to * n_ + dead], vc_[dead * n_ + dead]);
    // One clock tick covers the whole inheritance: other domains must
    // re-acquire the moved pages from the new writer.
    if (inherits)
        ++vc_[to * n_ + to];
    return RacPage{static_cast<std::uint32_t>(to), vc_[to * n_ + to]};
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
    for (std::uint64_t &v : vc_)
        io.pod(v);
    io.pod(logAppends_);
    io.pod(drainedLines_);
}

} // namespace coherence
} // namespace os
} // namespace k2
