#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include <sched.h>

#include "obs/trace_export.h"
#include "sim/trace.h"

namespace k2perf {

std::int64_t
referenceNs()
{
    const std::int64_t t0 = hostNs();
    std::map<std::uint64_t, std::uint64_t> window;
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        // splitmix64 of i: a fixed key stream over 100k keys.
        x = i + 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        window[(x ^ (x >> 31)) % 100000] += i;
        if (window.size() > 50000)
            window.erase(window.begin());
    }
    // Keep the work observable.
    static volatile std::size_t sink;
    sink = window.size();
    return hostNs() - t0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

Tail
tailPercentile(std::vector<double> v, double target, std::size_t minBeyond)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Nearest rank (1-based) of the target percentile.
    std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(target * static_cast<double>(n) - 1e-9)),
        1, n);
    t.percentile = target;
    if (n - rank < minBeyond) {
        // Too few samples beyond the target: step down to the highest
        // rank that still has minBeyond above it, or the median.
        rank = n > minBeyond ? n - minBeyond : (n + 1) / 2;
        t.percentile = static_cast<double>(rank) / static_cast<double>(n);
    }
    t.value = v[rank - 1];
    t.beyond = n - rank;
    return t;
}

void
Drift::addChain(const std::vector<double> &us)
{
    const std::size_t w = us.size() / 10;
    if (w == 0)
        return;
    firstUs_ += std::accumulate(us.begin(), us.begin() + w, 0.0);
    lastUs_ += std::accumulate(us.end() - w, us.end(), 0.0);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

namespace {

using k2::obs::MetricValue;

double
valueOf(const MetricValue &m)
{
    switch (m.kind) {
      case MetricValue::Kind::Counter:
        return static_cast<double>(m.count);
      case MetricValue::Kind::Gauge:
        return m.value;
      default:
        return m.sum;
    }
}

} // namespace

void
Counts::add(const k2::obs::MetricsSnapshot &before,
            const k2::obs::MetricsSnapshot &after)
{
    const k2::obs::MetricsSnapshot d =
        k2::obs::MetricsRegistry::diff(before, after);
    for (const auto &[name, m] : d.values())
        v_[name] += valueOf(m);
}

void
Counts::add(const Counts &other)
{
    for (const auto &[name, x] : other.v_)
        v_[name] += x;
}

double
Counts::at(const std::string &name) const
{
    const auto it = v_.find(name);
    return it == v_.end() ? 0 : it->second;
}

double
Counts::sum(const std::string &prefix, const std::string &suffix) const
{
    double s = 0;
    for (auto it = v_.lower_bound(prefix);
         it != v_.end() && it->first.rfind(prefix, 0) == 0; ++it) {
        const std::string &n = it->first;
        if (n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0)
            s += it->second;
    }
    return s;
}

double
scalar(const k2::obs::MetricsSnapshot &s, const std::string &name)
{
    const MetricValue *m = s.find(name);
    return m ? valueOf(*m) : 0;
}

std::size_t
SpanLog::open(const char *name, std::uint64_t op)
{
    const bool inOp = std::string_view(name) == kOp ||
                      (!stack_.empty() && stack_.back().inOp);
    stack_.push_back(Open{name, op, hostNs(), 0, inOp});
    return stack_.size() - 1;
}

void
SpanLog::close(std::size_t token)
{
    const std::int64_t end = hostNs();
    // Spans come from RAII scopes on one thread, so they close in LIFO
    // order.
    if (token + 1 != stack_.size())
        throw std::logic_error("k2perf: spans closed out of order");
    const Open s = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - s.start;

    auto &[ns, n] = byName_[s.name];
    ns += static_cast<double>(dur);
    ++n;
    if (s.inOp) {
        const std::string_view name(s.name);
        self_[std::string(name.substr(0, name.find('.')))] +=
            static_cast<double>(dur - s.childNs);
    }
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (kept_.size() < kMaxKept)
        kept_.push_back(Kept{s.name, s.op, s.start, dur});
    else
        ++dropped_;
}

double
SpanLog::totalNs(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? 0 : it->second.first;
}

std::uint64_t
SpanLog::calls(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? 0 : it->second.second;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    // The simulator's tracer and exporter carry the spans; timestamps
    // are host time since the log was created (ns -> the tracer's ps).
    k2::sim::Tracer tr;
    tr.enableSpans(kept_.size() + 1);
    for (const Kept &k : kept_) {
        const std::string_view name(k.name);
        const k2::sim::TrackId track =
            tr.addTrack(std::string(name.substr(0, name.find('.'))));
        tr.spanCompleteStr(
            static_cast<k2::sim::Time>(k.start - epoch_) * 1000,
            static_cast<k2::sim::Duration>(k.dur) * 1000, track, k.name,
            "op " + std::to_string(k.op));
    }
    if (dropped_)
        tr.spanInstant(0, tr.addTrack("bench"), "spans.dropped",
                       static_cast<double>(dropped_));
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    k2::obs::writeChromeTrace(tr, out);
    return out.good();
}

} // namespace k2perf
