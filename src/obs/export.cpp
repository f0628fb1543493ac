#include "obs/export.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace edgepc {
namespace obs {

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value(kChromeTraceSchema);
    w.key("displayTimeUnit").value("ms");
    w.key("dropped").value(tracer.dropped());
    w.key("traceEvents").beginArray();
    // A metadata ("ph":"M") event first pins the process lane to the
    // top of the chrome://tracing view.
    w.beginObject();
    w.key("name").value("process_sort_index");
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("args").beginObject();
    w.key("sort_index").value(0);
    w.endObject();
    w.endObject();
    for (const SpanEvent &e : tracer.snapshot()) {
        w.beginObject();
        w.key("name").value(e.name);
        w.key("cat").value(e.category);
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(static_cast<std::uint64_t>(e.tid));
        w.key("ts").value(static_cast<double>(e.startNs) * 1e-3);
        w.key("dur").value(static_cast<double>(e.durNs) * 1e-3);
        w.key("args").beginObject();
        w.key("depth").value(static_cast<std::uint64_t>(e.depth));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

void
writeStatsJson(std::ostream &os, const MetricsRegistry &registry)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value(kStatsSchema);

    w.key("counters").beginObject();
    for (const auto &[name, value] : registry.counters()) {
        w.key(name).value(value);
    }
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, value] : registry.gauges()) {
        w.key(name).value(value);
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, hist] : registry.histograms()) {
        w.key(name).beginObject();
        w.key("count").value(hist->count());
        w.key("sum").value(hist->sum());
        w.key("buckets").beginArray();
        const auto counts = hist->bucketCounts();
        const auto &bounds = hist->bounds();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            w.beginObject();
            if (i < bounds.size()) {
                w.key("le").value(bounds[i]);
            } else {
                w.key("le").value("+inf");
            }
            w.key("count").value(counts[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    os << '\n';
}

Result<void>
writeChromeTraceFile(const std::string &path, const Tracer &tracer)
{
    std::ofstream os(path);
    if (!os) {
        return makeError(ErrorCode::IoError,
                         "writeChromeTraceFile: cannot open '%s'",
                         path.c_str());
    }
    writeChromeTrace(os, tracer);
    if (!os) {
        return makeError(ErrorCode::IoError,
                         "writeChromeTraceFile: write to '%s' failed",
                         path.c_str());
    }
    return {};
}

Result<void>
writeStatsJsonFile(const std::string &path,
                   const MetricsRegistry &registry)
{
    std::ofstream os(path);
    if (!os) {
        return makeError(ErrorCode::IoError,
                         "writeStatsJsonFile: cannot open '%s'",
                         path.c_str());
    }
    writeStatsJson(os, registry);
    if (!os) {
        return makeError(ErrorCode::IoError,
                         "writeStatsJsonFile: write to '%s' failed",
                         path.c_str());
    }
    return {};
}

} // namespace obs
} // namespace edgepc
