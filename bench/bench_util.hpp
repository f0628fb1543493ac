/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Every bench prints (1) the Table-1 row(s) it exercises, (2) the
 * series the paper's figure reports, and (3) the paper's reference
 * numbers next to the measured ones, so the "shape" comparison in
 * EXPERIMENTS.md can be made directly from the output.
 *
 * Benches additionally emit a machine-readable `BENCH_<name>.json`
 * (schema "edgepc-bench-v1") via BenchReport so CI can track the perf
 * trajectory; BenchOptions parses the shared CLI flags:
 *
 *   --seed N        RNG seed routed into every cloud/model generator
 *   --json PATH     explicit output path for the report
 *   --json-dir DIR  directory for BENCH_<name>.json (default ".")
 *   --no-json       suppress the JSON report
 *   --git-sha SHA   echoed into the report (CI passes rev-parse HEAD)
 *   --trace PATH    enable the tracer, write Chrome trace JSON on exit
 */

#ifndef EDGEPC_BENCH_BENCH_UTIL_HPP
#define EDGEPC_BENCH_BENCH_UTIL_HPP

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "nn/gemm.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace bench {

/** Schema marker for the BENCH_<name>.json reports. */
inline constexpr const char *kBenchSchema = "edgepc-bench-v1";

/**
 * Point-count divisor for the paper-scale workloads. The full 8192-pt
 * configurations run on the CPU substrate too, but the default scale
 * keeps the whole harness under a few minutes; override with
 * EDGEPC_BENCH_SCALE=1 for full size.
 */
inline std::size_t
benchScale(std::size_t fallback = 4)
{
    if (const char *env = std::getenv("EDGEPC_BENCH_SCALE")) {
        const long v = std::atol(env);
        if (v >= 1) {
            return static_cast<std::size_t>(v);
        }
    }
    return fallback;
}

/** Repetitions for latency measurements (median-ish via best-of). */
inline int
benchRepeats(int fallback = 3)
{
    if (const char *env = std::getenv("EDGEPC_BENCH_REPEATS")) {
        const int v = std::atoi(env);
        if (v >= 1) {
            return v;
        }
    }
    return fallback;
}

/**
 * Shared benchmark CLI options. parse() consumes the flags it
 * recognises and compacts argv so wrappers (google-benchmark's
 * Initialize in bench_kernels) only see what is left.
 */
struct BenchOptions
{
    /** Seed for every Rng a bench constructs (--seed). */
    std::uint64_t seed = 42;

    /** Explicit report path (--json); overrides jsonDir. */
    std::string jsonPath;

    /** Directory for BENCH_<name>.json (--json-dir). */
    std::string jsonDir = ".";

    /** Suppress the JSON report entirely (--no-json). */
    bool emitJson = true;

    /** Git revision echoed into the report (--git-sha). */
    std::string gitSha = "unknown";

    /** When non-empty, tracing is enabled and a Chrome trace JSON is
     *  written here on finishTrace() (--trace). */
    std::string tracePath;

    static BenchOptions
    parse(int &argc, char **argv)
    {
        BenchOptions opts;
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto take = [&](const char *flag) -> const char * {
                if (arg != flag) {
                    return nullptr;
                }
                if (i + 1 >= argc) {
                    fatal("%s requires an argument", flag);
                }
                return argv[++i];
            };
            if (const char *v = take("--seed")) {
                opts.seed = std::strtoull(v, nullptr, 10);
            } else if (const char *v2 = take("--json")) {
                opts.jsonPath = v2;
            } else if (const char *v3 = take("--json-dir")) {
                opts.jsonDir = v3;
            } else if (const char *v4 = take("--git-sha")) {
                opts.gitSha = v4;
            } else if (const char *v5 = take("--trace")) {
                opts.tracePath = v5;
            } else if (arg == "--no-json") {
                opts.emitJson = false;
            } else {
                argv[out++] = argv[i]; // not ours; leave for the bench
            }
        }
        argc = out;
        if (!opts.tracePath.empty()) {
            obs::Tracer::global().setEnabled(true);
        }
        return opts;
    }
};

/** One measured configuration inside a BenchReport. */
struct BenchRow
{
    std::string label;
    double wallMs = 0.0;
    std::map<std::string, double> stages;
    std::map<std::string, double> metrics;
};

/**
 * Accumulates rows and writes the schema-stable BENCH_<name>.json.
 * Keys inside stages/metrics/config are sorted and numbers use the
 * repo-wide %.12g formatting, so identical runs emit identical bytes.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench_name, const BenchOptions &options,
                std::size_t point_scale, int repeat_count)
        : name(std::move(bench_name)), opts(options), scale(point_scale),
          repeats(repeat_count)
    {
        // Every report records which kernel builds it measured
        // ("avx2-fma" or "scalar") and the routes a default config
        // takes, so perf diffs across machines or EDGEPC_* settings
        // compare like with like.
        for (auto &[key, value] : dispatchSummary(EdgePcConfig{})) {
            configStr[key] = value;
        }
    }

    /** Echo a config knob into the report. */
    void config(const std::string &key, const std::string &v)
    {
        configStr[key] = v;
    }
    void config(const std::string &key, double v) { configNum[key] = v; }

    /** Append a row; fill in wallMs/stages/metrics on the reference. */
    BenchRow &row(std::string label)
    {
        rows.push_back(BenchRow{std::move(label), 0.0, {}, {}});
        return rows.back();
    }

    /** Resolved output path (jsonPath wins over jsonDir). */
    std::string path() const
    {
        if (!opts.jsonPath.empty()) {
            return opts.jsonPath;
        }
        return opts.jsonDir + "/BENCH_" + name + ".json";
    }

    /**
     * Write the report (unless --no-json) and, when --trace was given,
     * the Chrome trace file. Returns false when a write failed.
     */
    bool write() const
    {
        bool all_ok = true;
        if (opts.emitJson) {
            const std::string out = path();
            std::ofstream os(out, std::ios::binary);
            if (!os) {
                std::cerr << "bench: cannot open " << out << "\n";
                all_ok = false;
            } else {
                writeTo(os);
                std::cout << "\nwrote " << out << "\n";
            }
        }
        if (!opts.tracePath.empty()) {
            const Result<void> r = obs::writeChromeTraceFile(
                opts.tracePath, obs::Tracer::global());
            if (!r.ok()) {
                std::cerr << "bench: " << r.error().message << "\n";
                all_ok = false;
            } else {
                std::cout << "wrote " << opts.tracePath
                          << " (load into chrome://tracing)\n";
            }
        }
        return all_ok;
    }

    /** Serialize the report to @p os (exposed for tests). */
    void writeTo(std::ostream &os) const
    {
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value(kBenchSchema);
        w.key("name").value(name);
        w.key("git_sha").value(opts.gitSha);
        w.key("seed").value(static_cast<std::uint64_t>(opts.seed));
        w.key("scale").value(static_cast<std::uint64_t>(scale));
        w.key("repeats").value(repeats);
        w.key("config").beginObject();
        // Merge the numeric and string config maps in key order.
        auto ni = configNum.begin();
        auto si = configStr.begin();
        while (ni != configNum.end() || si != configStr.end()) {
            const bool pick_num =
                si == configStr.end() ||
                (ni != configNum.end() && ni->first < si->first);
            if (pick_num) {
                w.key(ni->first).value(ni->second);
                ++ni;
            } else {
                w.key(si->first).value(si->second);
                ++si;
            }
        }
        w.endObject();
        w.key("rows").beginArray();
        for (const BenchRow &r : rows) {
            w.beginObject();
            w.key("label").value(r.label);
            w.key("wall_ms").value(r.wallMs);
            w.key("stages").beginObject();
            for (const auto &[stage, ms] : r.stages) {
                w.key(stage).value(ms);
            }
            w.endObject();
            w.key("metrics").beginObject();
            for (const auto &[metric, v] : r.metrics) {
                w.key(metric).value(v);
            }
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }

  private:
    std::string name;
    BenchOptions opts;
    std::size_t scale;
    int repeats;
    std::map<std::string, double> configNum;
    std::map<std::string, std::string> configStr;
    std::vector<BenchRow> rows;
};

/**
 * Run a pipeline config on one frame, best-of-n repeats, after
 * @p warmup unmeasured runs. GemmEngine stats and the span ring are
 * reset between warmup and the measured iterations, so FLOP counters
 * and span-derived breakdowns cover exactly the measured work.
 */
inline PipelineResult
measure(PointCloudModel &model, const EdgePcConfig &cfg,
        const PointCloud &frame, int repeats, int warmup = 1)
{
    InferencePipeline pipeline(model, cfg);
    for (int i = 0; i < warmup; ++i) {
        const PipelineResult ignored = pipeline.run(frame);
        static_cast<void>(ignored);
    }
    cfg.gemmRoute().engine.resetStats();
    obs::Tracer::global().clear();
    PipelineResult best;
    for (int i = 0; i < repeats; ++i) {
        PipelineResult r = pipeline.run(frame);
        if (i == 0 || r.endToEndMs < best.endToEndMs) {
            best = std::move(r);
        }
    }
    return best;
}

/** Print a standard bench banner. */
inline void
banner(const std::string &figure, const std::string &claim)
{
    std::cout << "=== EdgePC reproduction: " << figure << " ===\n";
    std::cout << "Paper claim: " << claim << "\n\n";
}

} // namespace bench
} // namespace edgepc

#endif // EDGEPC_BENCH_BENCH_UTIL_HPP
