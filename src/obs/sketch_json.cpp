#include "obs/sketch_json.h"

#include <sstream>

#include "obs/metrics.h"

namespace k2 {
namespace obs {

void
writeSketchJson(std::ostream &os, const NamedSketches &sketches)
{
    os << "{\n";
    bool first = true;
    for (const auto &[name, sk] : sketches) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  \"" << name << "\": {\"count\": " << sk->count()
           << ", \"sum\": ";
        jsonNumber(os, sk->sum());
        os << ", \"mean\": ";
        jsonNumber(os, sk->mean());
        os << ", \"min\": ";
        jsonNumber(os, sk->min());
        os << ", \"max\": ";
        jsonNumber(os, sk->max());
        static constexpr std::pair<const char *, double> kTails[] = {
            {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99},
            {"p999", 0.999}};
        for (const auto &[key, p] : kTails) {
            os << ", \"" << key << "\": ";
            jsonNumber(os, sk->percentile(p));
        }
        // Sparse buckets: only nonzero entries, lowest index first.
        os << ", \"buckets\": {";
        bool firstBucket = true;
        for (std::size_t i = 0; i < sim::QuantileSketch::kBuckets;
             ++i) {
            if (sk->bucket(i) == 0)
                continue;
            if (!firstBucket)
                os << ", ";
            firstBucket = false;
            os << "\"" << i << "\": " << sk->bucket(i);
        }
        os << "}}";
    }
    os << "\n}\n";
}

std::string
sketchJson(const NamedSketches &sketches)
{
    std::ostringstream os;
    writeSketchJson(os, sketches);
    return os.str();
}

} // namespace obs
} // namespace k2
