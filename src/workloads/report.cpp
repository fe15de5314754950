#include "workloads/report.h"

#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace wl {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
Table::addRow(std::vector<std::string> cells)
{
    K2_ASSERT(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string out = "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += " " + row[c];
            out += std::string(widths[c] - row[c].size() + 1, ' ');
            out += "|";
        }
        return out + "\n";
    };

    std::string out = render_row(headers_);
    std::string sep = "|";
    for (const auto w : widths)
        sep += std::string(w + 2, '-') + "|";
    out += sep + "\n";
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
fmt(double v, int decimals)
{
    if (std::isnan(v))
        return "-";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmtBytes(std::uint64_t bytes)
{
    char buf[64];
    if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluM",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluK",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

void
banner(const std::string &title)
{
    std::printf("\n==== %s ====\n\n", title.c_str());
}

namespace {

/** Mean of a histogram metric, or NaN when it has no samples. */
double
metricMean(const obs::MetricsSnapshot &d, const std::string &name)
{
    const obs::MetricValue *v = d.find(name);
    if (!v || v->count == 0)
        return std::nan("");
    return v->mean();
}

} // namespace

std::string
episodeReport(const obs::MetricsSnapshot &delta)
{
    std::string out;

    // Table 5-style per-fault breakdown, one row per kernel the DSM
    // registered ("os.dsm.<kernel>.faults"), in name order.
    if (delta.hasPrefix("os.dsm.")) {
        Table t({"kernel", "faults", "entry us", "protocol us", "comm us",
                 "service us", "exit us", "total us"});
        const std::string kPrefix = "os.dsm.";
        const std::string kFaults = ".faults";
        for (const auto &[name, v] : delta.values()) {
            if (name.size() <= kPrefix.size() + kFaults.size() ||
                name.rfind(kPrefix, 0) != 0 ||
                name.compare(name.size() - kFaults.size(),
                             kFaults.size(), kFaults) != 0)
                continue;
            const std::string k = name.substr(
                kPrefix.size(),
                name.size() - kPrefix.size() - kFaults.size());
            if (k.find('.') != std::string::npos)
                continue;
            const std::string p = kPrefix + k;
            t.addRow({k, std::to_string(v.count),
                      fmt(metricMean(delta, p + ".fault_entry_us")),
                      fmt(metricMean(delta, p + ".protocol_us")),
                      fmt(metricMean(delta, p + ".comm_us")),
                      fmt(metricMean(delta, p + ".service_us")),
                      fmt(metricMean(delta, p + ".exit_us")),
                      fmt(metricMean(delta, p + ".total_us"))});
        }
        out += "DSM fault breakdown (per-fault means):\n" + t.render();
    }

    // Per-rail energy split.
    double total_uj = 0.0;
    constexpr const char *kRailPrefix = "soc.power.";
    constexpr const char *kEnergySuffix = ".energy_uj";
    auto is_energy = [&](const std::string &name) {
        return name.rfind(kRailPrefix, 0) == 0 &&
               name.size() > std::string(kEnergySuffix).size() &&
               name.compare(name.size() -
                                std::string(kEnergySuffix).size(),
                            std::string::npos, kEnergySuffix) == 0;
    };
    for (const auto &[name, v] : delta.values()) {
        if (is_energy(name))
            total_uj += v.value;
    }
    if (total_uj > 0.0) {
        Table t({"rail", "energy uJ", "share %"});
        for (const auto &[name, v] : delta.values()) {
            if (!is_energy(name))
                continue;
            const std::string rail = name.substr(
                std::string(kRailPrefix).size(),
                name.size() - std::string(kRailPrefix).size() -
                    std::string(kEnergySuffix).size());
            t.addRow({rail, fmt(v.value),
                      fmt(100.0 * v.value / total_uj)});
        }
        if (!out.empty())
            out += "\n";
        out += "Energy by rail:\n" + t.render();
    }

    // Service activity, one row per driver that did anything.
    {
        Table t({"service", "metric", "delta"});
        std::size_t rows = 0;
        for (const auto &[name, v] : delta.values()) {
            if (name.rfind("svc.", 0) != 0)
                continue;
            if (v.kind == obs::MetricValue::Kind::Counter && v.count) {
                t.addRow({name.substr(4, name.find('.', 4) - 4), name,
                          std::to_string(v.count)});
                ++rows;
            }
        }
        if (rows) {
            if (!out.empty())
                out += "\n";
            out += "Service activity:\n" + t.render();
        }
    }

    // Fault-injection and recovery activity: only counters that moved,
    // so a zero-fault run's report is unchanged (the metrics don't
    // even exist unless the fault plane is armed).
    {
        Table t({"counter", "delta"});
        std::size_t rows = 0;
        for (const auto &[name, v] : delta.values()) {
            if (name.rfind("fault.injected.", 0) != 0 &&
                name.rfind("os.recovery.", 0) != 0 &&
                name.rfind("os.replica.", 0) != 0)
                continue;
            if (v.kind == obs::MetricValue::Kind::Counter && v.count) {
                t.addRow({name, std::to_string(v.count)});
                ++rows;
            }
        }
        if (rows) {
            if (!out.empty())
                out += "\n";
            out += "Recovery activity:\n" + t.render();
        }
    }

    return out;
}

} // namespace wl
} // namespace k2
