#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "sim/log.h"

namespace k2 {
namespace obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const char *
kindName(MetricValue::Kind k)
{
    switch (k) {
      case MetricValue::Kind::Counter:
        return "counter";
      case MetricValue::Kind::Gauge:
        return "gauge";
      case MetricValue::Kind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

const MetricValue *
MetricsSnapshot::find(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

bool
MetricsSnapshot::hasPrefix(const std::string &prefix) const
{
    auto it = values_.lower_bound(prefix);
    return it != values_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n";
    bool first = true;
    for (const auto &[name, v] : values_) {
        if (!first)
            os << ",\n";
        first = false;
        // Metric names are validated at registration ([a-z0-9._-]),
        // so they need no escaping.
        os << "  \"" << name << "\": {\"kind\": \"" << kindName(v.kind)
           << "\"";
        switch (v.kind) {
          case MetricValue::Kind::Counter:
            os << ", \"value\": " << v.count;
            break;
          case MetricValue::Kind::Gauge:
            os << ", \"value\": ";
            jsonNumber(os, v.value);
            break;
          case MetricValue::Kind::Histogram:
            os << ", \"count\": " << v.count << ", \"sum\": ";
            jsonNumber(os, v.sum);
            os << ", \"mean\": ";
            jsonNumber(os, v.mean());
            os << ", \"min\": ";
            jsonNumber(os, v.min);
            os << ", \"max\": ";
            jsonNumber(os, v.max);
            os << ", \"p50\": ";
            jsonNumber(os, v.p50);
            os << ", \"p99\": ";
            jsonNumber(os, v.p99);
            break;
        }
        os << "}";
    }
    os << "\n}\n";
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
MetricsRegistry::insert(const std::string &name, Entry e)
{
    if (name.empty())
        K2_FATAL("metric name must not be empty");
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            K2_FATAL("invalid character '%c' in metric name '%s'", c,
                     name.c_str());
    }
    if (!entries_.emplace(name, std::move(e)).second)
        K2_FATAL("duplicate metric name '%s'", name.c_str());
}

void
MetricsRegistry::addCounter(const std::string &name, const sim::Counter &c)
{
    Entry e;
    e.kind = MetricValue::Kind::Counter;
    e.counter = &c;
    insert(name, std::move(e));
}

void
MetricsRegistry::addHistogram(const std::string &name,
                              const sim::QuantileSketch &h)
{
    Entry e;
    e.kind = MetricValue::Kind::Histogram;
    e.hist = &h;
    insert(name, std::move(e));
}

void
MetricsRegistry::addGauge(const std::string &name, Gauge fn)
{
    K2_ASSERT(fn != nullptr);
    Entry e;
    e.kind = MetricValue::Kind::Gauge;
    e.gauge = std::move(fn);
    insert(name, std::move(e));
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &[name, e] : entries_) {
        MetricValue v;
        v.kind = e.kind;
        switch (e.kind) {
          case MetricValue::Kind::Counter:
            v.count = e.counter->value();
            break;
          case MetricValue::Kind::Gauge:
            v.value = e.gauge();
            break;
          case MetricValue::Kind::Histogram:
            v.count = e.hist->count();
            v.sum = e.hist->sum();
            v.min = e.hist->min();
            v.max = e.hist->max();
            v.p50 = e.hist->percentile(0.50);
            v.p99 = e.hist->percentile(0.99);
            break;
        }
        snap.values_.emplace_hint(snap.values_.end(), name, v);
    }
    return snap;
}

MetricsSnapshot
MetricsRegistry::diff(const MetricsSnapshot &before,
                      const MetricsSnapshot &after)
{
    MetricsSnapshot out;
    for (const auto &[name, a] : after.values()) {
        const MetricValue *b = before.find(name);
        MetricValue v = a;
        if (b) {
            switch (a.kind) {
              case MetricValue::Kind::Counter:
                v.count = a.count - b->count;
                break;
              case MetricValue::Kind::Gauge:
                v.value = a.value - b->value;
                break;
              case MetricValue::Kind::Histogram:
                v.count = a.count - b->count;
                v.sum = a.sum - b->sum;
                // Interval extrema/percentiles are unknowable from
                // endpoint snapshots.
                v.min = kNaN;
                v.max = kNaN;
                v.p50 = kNaN;
                v.p99 = kNaN;
                break;
            }
        }
        out.values_.emplace_hint(out.values_.end(), name, v);
    }
    return out;
}

} // namespace obs
} // namespace k2
