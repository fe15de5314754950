/**
 * @file
 * Plain-text table rendering for the benchmark harnesses, so each
 * bench binary prints rows shaped like the paper's tables and figures.
 */

#ifndef K2_WORKLOADS_REPORT_H
#define K2_WORKLOADS_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace k2 {

namespace obs {
class MetricsSnapshot;
}

namespace wl {

/** A fixed-column text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. NaN (an empty histogram's min/max, or a diffed
 *  interval's percentiles) renders as "-". @{ */
std::string fmt(double v, int decimals = 1);
std::string fmtBytes(std::uint64_t bytes);
/** @} */

/** Print a section banner for a bench. */
void banner(const std::string &title);

/**
 * Render a per-episode report from a metrics delta (the diff of two
 * registry snapshots bracketing the episode): the Table 5-style DSM
 * fault breakdown (one row per kernel the DSM registered), the
 * per-rail energy split, and a service-activity
 * summary. Sections whose metrics are absent (e.g. "os.dsm.*" on the
 * baseline) are omitted.
 */
std::string episodeReport(const obs::MetricsSnapshot &delta);

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_REPORT_H
