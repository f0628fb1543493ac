/**
 * @file
 * End-to-end benchmark driver: runs one workload in one process and
 * prints its metrics as one JSON line (the last line of stdout).
 *
 * The driver reaches the library only through its public entry points
 * (workload factories, InferencePipeline, ServingEngine, the neighbor
 * quality metrics and the obs tracer/registry), so refactors behind
 * them leave it untouched. It never selects a dispatch route itself:
 * the runner (run_benchmark.py) fixes the process environment.
 *
 * Modes:
 *   default            warm up, then time frames for --seconds
 *   --traced           same inputs; alternate traced and untraced
 *                      frames and add the per-layer breakdown
 *   --setup-only       build, run one frame, print "first-logits"
 *   --write-reference  write the held-out frames' logits and exit
 *   --smoke            tiny frame counts (the ctest cases)
 *
 * Exit codes: 0 ok, 1 a correctness gate failed or an error was
 * raised, 2 bad command line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "models/pointnetpp.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/metrics.hpp"
#include "neighbor/morton_window.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/morton_sampler.hpp"
#include "serve/serving_engine.hpp"

using namespace edgepc;

namespace {

constexpr std::uint64_t kWeightSeed = 42;
/** Distinct timed frames per run; the timed loop cycles through them. */
constexpr std::size_t kDistinctFrames = 32;
constexpr std::size_t kHeldOutFrames = 3;
constexpr double kLogitRelErrCeiling = 1e-3;
/** Traced frames (or rounds) kept for the Chrome trace. */
constexpr std::size_t kTraceTailFrames = 5;

constexpr std::size_t kServeStreams = 4;
/** Four 20 Hz sensors: an absolute rate, never derived from a capacity
    measured in the same run, so the offered load repeats. */
constexpr double kServeRateFps = 80.0;
/** One 20 Hz sensor period. */
constexpr double kServeSloMs = 50.0;
constexpr double kOverloadRateFps = 160.0;
constexpr std::size_t kOverloadFrames = 600;

struct WorkloadDef
{
    const char *name;
    /** Table-1 row the model and frames come from. */
    const char *spec;
    /** Point-count divisor passed to the workload factories. */
    std::size_t pointScale;
    EdgePcConfig (*config)();
    bool serve;
};

const WorkloadDef kWorkloads[] = {
    {"pnpp-seg-8k", "W1", 1, &EdgePcConfig::snf, false},
    {"dgcnn-part-2k", "W4", 1, &EdgePcConfig::snf, false},
    {"pnpp-seg-8k-exact", "W1", 1, &EdgePcConfig::baseline, false},
    {"serve-4x20hz", "W1", 4, &EdgePcConfig::snf, true},
};

struct Options
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    double warmupSeconds = 3.0;
    std::size_t warmupFrames = 5;
    bool traced = false;
    bool setupOnly = false;
    bool smoke = false;
    std::string writeReference;
    std::string reference;
    /** Test hook: multiply every reference logit by this factor. */
    double referenceScale = 1.0;
    std::string outDir;
};

const char *kUsage =
    "usage: bench_e2e --workload NAME [--seed N] [--seconds S]\n"
    "                 [--traced] [--smoke]\n"
    "                 [--setup-only] [--write-reference FILE]\n"
    "                 [--reference FILE [--scale-reference X]]\n"
    "                 [--out-dir DIR]\n"
    "workloads: pnpp-seg-8k dgcnn-part-2k pnpp-seg-8k-exact "
    "serve-4x20hz\n";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "error: " << msg << "\n" << kUsage;
    std::exit(2);
}

double
parseNumber(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
        usageError(flag + " wants a non-negative number");
    }
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usageError(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = value();
            for (const WorkloadDef &w : kWorkloads) {
                if (name == w.name) {
                    o.workload = &w;
                }
            }
            if (o.workload == nullptr) {
                usageError("unknown workload '" + name + "'");
            }
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(parseNumber(arg, value()));
        } else if (arg == "--seconds") {
            o.seconds = parseNumber(arg, value());
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (arg == "--setup-only") {
            o.setupOnly = true;
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--write-reference") {
            o.writeReference = value();
        } else if (arg == "--reference") {
            o.reference = value();
        } else if (arg == "--scale-reference") {
            o.referenceScale = parseNumber(arg, value());
        } else if (arg == "--out-dir") {
            o.outDir = value();
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    if (o.workload == nullptr) {
        usageError("--workload is required");
    }
    if (o.smoke) {
        o.warmupSeconds = 0.0;
        o.warmupFrames = 1;
    }
    return o;
}

// ---------------------------------------------------------------------
// Inputs

/** Frames [first, first + count) of the run seeded @p seed; indexes at
    or past kDistinctFrames are the held-out frames. */
std::vector<PointCloud>
makeFrames(const WorkloadDef &w, std::uint64_t seed, std::size_t first,
           std::size_t count)
{
    std::vector<PointCloud> frames;
    for (std::size_t i = first; i < first + count; ++i) {
        frames.push_back(makeWorkloadCloud(workload(w.spec), w.pointScale,
                                           seed * 1000 + i));
    }
    return frames;
}

std::vector<PointCloud>
makeHeldOut(const Options &o)
{
    return makeFrames(*o.workload, o.seed, kDistinctFrames,
                      o.smoke ? 1 : kHeldOutFrames);
}

std::unique_ptr<PointCloudModel>
makeModel(const WorkloadDef &w)
{
    const WorkloadSpec &spec = workload(w.spec);
    if (w.serve) {
        // Small frames, so that queueing, batching and dispatch are a
        // visible share of the serving time.
        return std::make_unique<PointNetPP>(
            PointNetPPConfig::liteSegmentation(
                workloadPoints(spec, w.pointScale), spec.numClasses),
            kWeightSeed);
    }
    return makeWorkloadModel(spec, w.pointScale, kWeightSeed);
}

// ---------------------------------------------------------------------
// Results

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;

    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    void fail(const std::string &why)
    {
        correct = false;
        std::cerr << "bench_e2e: FAIL: " << why << "\n";
    }

    void write(std::ostream &os, const Options &o) const
    {
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("workload").value(o.workload->name);
        w.key("seed").value(static_cast<std::uint64_t>(o.seed));
        w.key("traced").value(o.traced);
        w.key("correct").value(correct);
        w.key("attempted").value(static_cast<std::uint64_t>(attempted));
        w.key("failed").value(static_cast<std::uint64_t>(failed));
        w.key("metrics").beginObject();
        for (const Metric &m : metrics) {
            w.key(m.name).beginObject();
            w.key("value").value(m.value);
            w.key("unit").value(m.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        os << std::endl;
    }
};

/** Nearest-rank percentile, q in (0, 1]; 0 for an empty sample. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Frame latency percentiles. Interference from other tenants of a
    shared host only adds time, so p10 repeats across runs far better
    than p50 or p90; p10 is the gated metric. */
void
addLatencyMetrics(Report &report, const std::vector<double> &ms)
{
    report.add("frame_p10_ms", percentile(ms, 0.10), "ms");
    report.add("frame_p50_ms", percentile(ms, 0.50), "ms");
    report.add("frame_p90_ms", percentile(ms, 0.90), "ms");
}

/** Finite logits, @p rows rows and one column per class. */
bool
validLogits(const nn::Matrix &m, std::size_t rows, std::size_t classes)
{
    if (m.rows() != rows || m.cols() != classes) {
        return false;
    }
    const float *p = m.data();
    return std::all_of(p, p + m.numel(),
                       [](float v) { return std::isfinite(v); });
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Reference logits: a magic line, then (rows, cols, floats) per frame.

constexpr char kRefMagic[8] = {'E', '2', 'E', 'R', 'E', 'F', '1', '\n'};

bool
writeReferenceFile(const std::string &path,
                   const std::vector<nn::Matrix> &logits)
{
    std::ofstream os(path, std::ios::binary);
    os.write(kRefMagic, sizeof kRefMagic);
    for (const nn::Matrix &m : logits) {
        const std::uint64_t dims[2] = {m.rows(), m.cols()};
        os.write(reinterpret_cast<const char *>(dims), sizeof dims);
        os.write(reinterpret_cast<const char *>(m.data()),
                 static_cast<std::streamsize>(m.numel() * sizeof(float)));
    }
    return static_cast<bool>(os);
}

/** Empty when the file is unreadable or malformed. */
std::vector<nn::Matrix>
readReferenceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    char magic[sizeof kRefMagic] = {};
    if (!is.read(magic, sizeof magic) ||
        std::memcmp(magic, kRefMagic, sizeof magic) != 0) {
        return {};
    }
    std::vector<nn::Matrix> out;
    std::uint64_t dims[2] = {};
    while (is.read(reinterpret_cast<char *>(dims), sizeof dims)) {
        // One frame's logits: at most 2^20 points by 4096 classes.
        if (dims[0] == 0 || dims[1] == 0 || dims[0] > (1u << 20) ||
            dims[1] > 4096) {
            return {};
        }
        nn::Matrix m(dims[0], dims[1]);
        if (!is.read(reinterpret_cast<char *>(m.data()),
                     static_cast<std::streamsize>(m.numel() *
                                                  sizeof(float)))) {
            return {};
        }
        out.push_back(std::move(m));
    }
    return out;
}

/**
 * Error of logits @p a against the reference @p s * @p b: the 90th
 * percentile over points of ||a_i - s b_i|| / rms_j ||s b_j||. A
 * near-tie in DGCNN's exact feature-space k-NN can pick a different
 * neighbor under another summation order and change a few points'
 * logits outright; a percentile ignores those while any drift that
 * moves most points (a wider int8 route, a wrong kernel) still shows.
 * Infinity on a shape mismatch.
 */
double
relativeError(const nn::Matrix &a, const nn::Matrix &b, double s)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() || a.rows() == 0) {
        return INFINITY;
    }
    std::vector<double> diff(a.rows(), 0.0);
    double norm = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            const double ref = s * static_cast<double>(b.at(i, j));
            const double d = static_cast<double>(a.at(i, j)) - ref;
            diff[i] += d * d;
            norm += ref * ref;
        }
        diff[i] = std::sqrt(diff[i]);
    }
    const double rms = std::sqrt(norm / static_cast<double>(a.rows()));
    return percentile(diff, 0.90) / (rms > 0.0 ? rms : 1.0);
}

/** Logits of @p clouds through a plain InferencePipeline. */
std::vector<nn::Matrix>
pipelineLogits(PointCloudModel &model, const EdgePcConfig &cfg,
               const std::vector<PointCloud> &clouds)
{
    InferencePipeline pipeline(model, cfg);
    std::vector<nn::Matrix> out;
    for (const PointCloud &cloud : clouds) {
        out.push_back(pipeline.run(cloud).logits);
    }
    return out;
}

/** The correctness gate on the held-out frames: shape, finiteness and,
    given a reference, relative error against it. */
void
checkHeldOut(Report &report, const Options &o, PointCloudModel &model,
             const EdgePcConfig &cfg)
{
    const std::vector<PointCloud> held_out = makeHeldOut(o);
    const std::vector<nn::Matrix> logits =
        pipelineLogits(model, cfg, held_out);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        if (!validLogits(logits[i], held_out[i].size(),
                         model.numClasses())) {
            report.fail("held-out frame " + std::to_string(i) +
                        " gave non-finite or wrong-shape logits");
        }
    }
    if (o.reference.empty()) {
        return;
    }
    const std::vector<nn::Matrix> ref = readReferenceFile(o.reference);
    if (ref.size() != logits.size()) {
        report.fail("reference " + o.reference +
                    " is missing, malformed or has the wrong frame count");
        return;
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        worst = std::max(worst,
                         relativeError(logits[i], ref[i], o.referenceScale));
    }
    report.add("quality.logit_rel_err", worst, "ratio");
    if (!(worst <= kLogitRelErrCeiling)) {
        report.fail("logit_rel_err " + obs::jsonNumber(worst) +
                    " exceeds the ceiling " +
                    obs::jsonNumber(kLogitRelErrCeiling));
    }
}

// ---------------------------------------------------------------------
// Per-layer breakdown

/**
 * Per-span totals over the traced frames, keyed "category/name". Self
 * time is a span's duration minus the spans it directly contains on
 * the same thread.
 */
struct SpanTotals
{
    std::map<std::string, double> selfMs;
    std::map<std::string, double> totalMs;
    std::map<std::string, double> count;

    void add(const std::vector<obs::SpanEvent> &spans)
    {
        // snapshot() orders spans by (tid, start, depth), so a stack of
        // the open spans of one thread recovers the nesting.
        std::vector<std::uint64_t> child_ns(spans.size(), 0);
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const obs::SpanEvent &s = spans[i];
            if (i > 0 && s.tid != spans[i - 1].tid) {
                open.clear();
            }
            while (!open.empty() &&
                   spans[open.back()].startNs + spans[open.back()].durNs <=
                       s.startNs) {
                open.pop_back();
            }
            if (!open.empty()) {
                child_ns[open.back()] += s.durNs;
            }
            open.push_back(i);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const obs::SpanEvent &s = spans[i];
            const std::string key = s.category + "/" + s.name;
            selfMs[key] += static_cast<double>(
                               s.durNs - std::min(s.durNs, child_ns[i])) /
                           1e6;
            totalMs[key] += static_cast<double>(s.durNs) / 1e6;
            count[key] += 1.0;
        }
    }

    static double get(const std::map<std::string, double> &m,
                      const std::string &key)
    {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    }

    double self(const std::string &key) const { return get(selfMs, key); }
    double total(const std::string &key) const { return get(totalMs, key); }
    double calls(const std::string &key) const { return get(count, key); }

    double categorySelf(const std::string &category) const
    {
        double acc = 0.0;
        for (const auto &[key, ms] : selfMs) {
            if (key.rfind(category + "/", 0) == 0) {
                acc += ms;
            }
        }
        return acc;
    }
};

/** Spans of the traced frames: totals plus the last few frames' raw
    spans for the Chrome trace. */
struct TraceCollector
{
    SpanTotals totals;
    std::deque<std::vector<obs::SpanEvent>> tail;
    std::size_t frames = 0;
    double wallMs = 0.0;

    /** Take and clear the tracer's spans once @p frames_covered frames
        have finished; run outside every timed window. Clearing after
        each frame keeps the per-thread rings from wrapping. */
    void drain(std::size_t frames_covered, double wall_ms)
    {
        obs::Tracer &tracer = obs::Tracer::global();
        std::vector<obs::SpanEvent> spans = tracer.snapshot();
        tracer.clear();
        totals.add(spans);
        frames += frames_covered;
        wallMs += wall_ms;
        tail.push_back(std::move(spans));
        if (tail.size() > kTraceTailFrames) {
            tail.pop_front();
        }
    }

    void writeChromeTrace(const std::string &path) const
    {
        obs::Tracer out(1 << 20);
        for (const auto &spans : tail) {
            for (const obs::SpanEvent &s : spans) {
                out.recordManual(s.name, s.category, s.startNs, s.durNs,
                                 s.tid, s.depth);
            }
        }
        if (!obs::writeChromeTraceFile(path, out)) {
            std::cerr << "bench_e2e: cannot write " << path << "\n";
        }
    }
};

/** Library counters over a window of frames (delta = end - start). */
struct CounterWindow
{
    std::map<std::string, std::uint64_t> start;

    static std::uint64_t read(const std::string &name)
    {
        return obs::MetricsRegistry::global().counter(name).value();
    }

    CounterWindow()
    {
        for (const char *name :
             {"sampler.fps.calls", "simd.fast_calls",
              "simd.scalar_calls", "simd.fixed_calls", "gemm.flops",
              "gemm.fast_path_calls", "gemm.scalar_path_calls",
              "gemm.int8_path_calls", "threadpool.tasks",
              "scratch.grow_count", "serve.served", "serve.batches",
              "serve.batched_frames", "serve.pipelined_frames"}) {
            start[name] = read(name);
        }
        obs::MetricsRegistry::global().histogram("threadpool.task_ms").reset();
    }

    double delta(const std::string &name) const
    {
        return static_cast<double>(read(name) - start.at(name));
    }
};

/** Stage, kernel and common-layer metrics of one run. */
void
addLayerMetrics(Report &report, const TraceCollector &trace,
                const CounterWindow &counters, double counted_frames)
{
    const SpanTotals &t = trace.totals;
    const double traced = static_cast<double>(trace.frames);
    const auto per = [&](double v) { return ratio(v, traced); };
    const auto per_counted = [&](const char *name) {
        return ratio(counters.delta(name), counted_frames);
    };

    const double sample = per(t.total("stage/sample"));
    const double neighbor = per(t.total("stage/neighbor"));
    const double group = per(t.total("stage/group"));
    const double feature = per(t.total("stage/feature"));
    report.add("stage.sample_ms", sample, "ms");
    report.add("stage.neighbor_ms", neighbor, "ms");
    report.add("stage.group_ms", group, "ms");
    report.add("stage.feature_ms", feature, "ms");
    report.add("pipeline.overhead_ms",
               per(trace.wallMs) - (sample + neighbor + group + feature),
               "ms");

    report.add("sampling.fps_ms", per(t.self("sampling/fps")), "ms");
    report.add("sampling.morton_ms",
               per(t.self("sampling/structurize") +
                   t.self("sampling/morton")),
               "ms");
    // Sample-stage time that no sampler span covers: the FP layers'
    // up-sampling search (exact 3-NN on the baseline route).
    report.add("sampling.unspanned_ms", per(t.self("stage/sample")), "ms");
    report.add("sampling.fps_calls", per_counted("sampler.fps.calls"),
               "count");
    // The models structurize directly, which the sampler.morton.calls
    // counter does not see; count the spans instead.
    report.add("sampling.morton_calls", per(t.calls("sampling/structurize")),
               "count");

    report.add("neighbor.ball_ms", per(t.self("neighbor/ball-query")),
               "ms");
    report.add("neighbor.window_ms",
               per(t.self("neighbor/morton-window") +
                   t.self("neighbor/morton-window-knn")),
               "ms");
    // Neighbor-stage time that no kernel span covers: on DGCNN, the
    // feature-space k-NN of the later EdgeConv modules.
    report.add("neighbor.unspanned_ms", per(t.self("stage/neighbor")),
               "ms");

    const double simd_fast = counters.delta("simd.fast_calls");
    report.add("simd.fast_share",
               ratio(simd_fast, simd_fast +
                                    counters.delta("simd.scalar_calls") +
                                    counters.delta("simd.fixed_calls")),
               "ratio");

    const double gemm_ms = per(t.self("nn/gemm") + t.self("nn/gemm-int8"));
    const double gemm_mflop = per_counted("gemm.flops") / 1e6;
    const double int8_calls = counters.delta("gemm.int8_path_calls");
    const double gemm_calls = counters.delta("gemm.fast_path_calls") +
                              counters.delta("gemm.scalar_path_calls") +
                              int8_calls;
    report.add("gemm.ms", gemm_ms, "ms");
    report.add("gemm.gflops", ratio(gemm_mflop, gemm_ms), "GFLOP/s");
    report.add("gemm.mflop", gemm_mflop, "MFLOP");
    report.add("gemm.calls", ratio(gemm_calls, counted_frames), "count");
    report.add("gemm.int8_share", ratio(int8_calls, gemm_calls), "ratio");
    report.add("feature.other_ms", feature - gemm_ms, "ms");

    report.add("threadpool.tasks", per_counted("threadpool.tasks"),
               "count");
    const obs::Histogram &task_ms =
        obs::MetricsRegistry::global().histogram("threadpool.task_ms");
    report.add("threadpool.task_ms_mean",
               ratio(task_ms.sum(), static_cast<double>(task_ms.count())),
               "ms");
    report.add("scratch.grow_steady", counters.delta("scratch.grow_count"),
               "count");
    report.add("trace.dropped",
               static_cast<double>(obs::Tracer::global().dropped()),
               "count");
}

/** Fig 6 quality of the first neighbor-search layer on the held-out
    frames: the Morton window against brute-force k-NN over every
    point, at the model's first-layer k. */
void
addNeighborQuality(Report &report, const Options &o,
                   const PointCloudModel &model, const EdgePcConfig &cfg)
{
    std::size_t k = 20; // DGCNN's k
    if (const auto *pnpp = dynamic_cast<const PointNetPP *>(&model)) {
        k = pnpp->config().sa.front().k;
    }
    const std::vector<PointCloud> held_out = makeHeldOut(o);
    double recall = 0.0;
    double false_ratio = 0.0;
    for (const PointCloud &cloud : held_out) {
        const auto &pts = cloud.positions();
        const Structurization s =
            MortonSampler(cfg.codeBits).structurize(pts);
        const NeighborLists approx =
            MortonWindowSearch(cfg.searchWindow).searchAll(pts, s, k);
        const NeighborLists exact = BruteForceKnn().search(pts, pts, k);
        recall += neighborRecall(approx, exact);
        false_ratio += falseNeighborRatio(approx, exact);
    }
    const auto n = static_cast<double>(held_out.size());
    report.add("neighbor.recall", recall / n, "ratio");
    report.add("neighbor.false_ratio", false_ratio / n, "ratio");
}

void
writeLayerFiles(const Options &o, const Report &report,
                const TraceCollector &trace)
{
    if (o.outDir.empty()) {
        return;
    }
    std::filesystem::create_directories(o.outDir);
    std::ofstream layers(o.outDir + "/layers.json");
    report.write(layers, o);
    trace.writeChromeTrace(o.outDir + "/trace.json");
}

// ---------------------------------------------------------------------
// Single-stream workloads

int
runSingleStream(const Options &o, Report &report)
{
    const EdgePcConfig cfg = o.workload->config();
    const std::vector<PointCloud> frames =
        makeFrames(*o.workload, o.seed, 0, kDistinctFrames);
    const std::unique_ptr<PointCloudModel> model = makeModel(*o.workload);
    const std::size_t classes = model->numClasses();
    InferencePipeline pipeline(*model, cfg);

    Timer warm;
    for (std::size_t i = 0; warm.elapsedMs() < o.warmupSeconds * 1e3 ||
                            i < o.warmupFrames;
         ++i) {
        (void)pipeline.run(frames[i % frames.size()]);
    }

    obs::Tracer &tracer = obs::Tracer::global();
    const CounterWindow counters;
    TraceCollector trace;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    const std::size_t min_frames = o.smoke ? 2 : 20;
    const std::size_t max_frames = o.smoke ? 2 : SIZE_MAX;
    std::size_t ok = 0;
    std::size_t n = 0;
    double timed_ms = 0.0;
    for (; n < max_frames && (timed_ms < o.seconds * 1e3 || n < min_frames);
         ++n) {
        const PointCloud &frame = frames[n % frames.size()];
        const bool traced = o.traced && n % 2 == 0;
        tracer.setEnabled(traced);
        Timer clock;
        PipelineResult r;
        {
            EDGEPC_TRACE_SCOPE("bench.frame", "bench");
            r = pipeline.run(frame);
        }
        const double ms = clock.elapsedMs();
        tracer.setEnabled(false);
        timed_ms += ms;
        (traced ? traced_ms : untraced_ms).push_back(ms);
        ok += validLogits(r.logits, frame.size(), classes) ? 1 : 0;
        if (traced) {
            trace.drain(1, ms);
        }
    }

    report.attempted = n;
    report.failed = n - ok;
    if (report.failed > 0) {
        report.fail(std::to_string(report.failed) +
                    " timed frames gave non-finite or wrong-shape logits");
    }
    addLatencyMetrics(report, untraced_ms);
    report.add("frames_per_s",
               ratio(static_cast<double>(untraced_ms.size()),
                     sum(untraced_ms) / 1e3),
               "1/s");
    report.add("ok_frac",
               ratio(static_cast<double>(ok), static_cast<double>(n)),
               "fraction");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    if (o.traced) {
        // Before the held-out frames run and move the counters.
        addLayerMetrics(report, trace, counters, static_cast<double>(n));
    }
    checkHeldOut(report, o, *model, cfg);

    if (o.traced) {
        addNeighborQuality(report, o, *model, cfg);
        report.add("trace.overhead_frac",
                   ratio(percentile(traced_ms, 0.5),
                         percentile(untraced_ms, 0.5)) -
                       1.0,
                   "ratio");
        // The serving layer does not run on a single-stream workload.
        for (const char *name :
             {"serve.frame_p99_ms", "serve.queue_ms_p50",
              "serve.queue_ms_p99", "serve.service_ms_p50",
              "serve.self_ms", "serve.gen_lag_p99_ms"}) {
            report.add(name, 0.0, "ms");
        }
        report.add("serve.batch_size", 0.0, "count");
        report.add("serve.overload.goodput_fps", 0.0, "1/s");
        report.add("serve.overload.shed_frac", 0.0, "ratio");
        report.add("serve.overload.degraded_frac", 0.0, "ratio");
        writeLayerFiles(o, report, trace);
    }
    return 0;
}

// ---------------------------------------------------------------------
// Serving workload

struct ServeTally
{
    std::size_t attempted = 0;
    /** Answered with finite logits of the expected shape. */
    std::size_t valid = 0;
    /** Valid and within the SLO. */
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t refused = 0;
    std::size_t degraded = 0;
    /** Served with non-finite or wrong-shape logits. */
    std::size_t invalid = 0;
    /** Per valid frame: from due time (open loop) or submit to
        response, queue wait and service time. */
    std::vector<double> latencyMs;
    std::vector<double> queueMs;
    std::vector<double> serviceMs;
    /** Per attempted frame: how late the generator submitted it. */
    std::vector<double> lagMs;
};

/** One ServingEngine with kServeStreams streams, fed from the driver's
    main thread. */
class ServeHarness
{
  public:
    ServeHarness(PointCloudModel &model_, const EdgePcConfig &cfg,
                 const std::vector<PointCloud> &frames_)
        : model(model_), frames(frames_), engine(model_, cfg, options())
    {
        for (std::size_t s = 0; s < kServeStreams; ++s) {
            ids.push_back(engine.openStream());
        }
    }

    /** Open loop: frame f is due f / rate seconds after the start,
        round-robin over the streams, whatever the engine's progress. */
    ServeTally openLoop(double rate_fps, std::size_t count)
    {
        using Clock = std::chrono::steady_clock;
        using Ms = std::chrono::duration<double, std::milli>;
        std::vector<serve::SubmitTicket> tickets;
        tickets.reserve(count);
        std::vector<double> lag(count, 0.0);
        ServeTally t;
        std::size_t collected = 0;
        const Clock::time_point start = Clock::now();
        for (std::size_t f = 0; f < count; ++f) {
            // Score answered frames as they arrive, so held responses
            // do not add to the process's peak memory.
            while (collected < f && ready(tickets[collected])) {
                collect(t, tickets[collected], lag[collected]);
                ++collected;
            }
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            Ms(1e3 * static_cast<double>(f) / rate_fps));
            // Sleep to just short of the due time, then spin: the lag
            // stays far below a millisecond without holding a core
            // between frames.
            if (due - Clock::now() > Ms(0.3)) {
                std::this_thread::sleep_until(
                    due - std::chrono::duration_cast<Clock::duration>(
                              Ms(0.2)));
            }
            while (Clock::now() < due) {
            }
            lag[f] = Ms(Clock::now() - due).count();
            tickets.push_back(
                engine.submit(ids[f % kServeStreams], nextFrame()));
        }
        for (; collected < count; ++collected) {
            collect(t, tickets[collected], lag[collected]);
        }
        return t;
    }

    /** One closed-loop round: every stream submits one frame, then all
        wait for their answers. Returns the round's wall time in ms. */
    double round(ServeTally &t)
    {
        Timer clock;
        std::vector<serve::SubmitTicket> tickets;
        for (const serve::StreamId id : ids) {
            tickets.push_back(engine.submit(id, nextFrame()));
        }
        for (serve::SubmitTicket &ticket : tickets) {
            collect(t, ticket, 0.0);
        }
        return clock.elapsedMs();
    }

  private:
    static serve::ServingOptions options()
    {
        serve::ServingOptions opts;
        opts.maxBatch = kServeStreams;
        opts.streamDefaults.queueCapacity = 8;
        opts.streamDefaults.backpressure =
            serve::BackpressurePolicy::DropOldest;
        opts.streamDefaults.sloMs = kServeSloMs;
        return opts;
    }

    const PointCloud &nextFrame() { return frames[next++ % frames.size()]; }

    static bool ready(const serve::SubmitTicket &ticket)
    {
        return !ticket.accepted() ||
               ticket.response.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
    }

    void collect(ServeTally &t, serve::SubmitTicket &ticket, double lag_ms)
    {
        ++t.attempted;
        t.lagMs.push_back(lag_ms);
        if (!ticket.accepted()) {
            ++t.refused;
            return;
        }
        const serve::FrameResponse r = ticket.response.get();
        if (r.shed) {
            ++t.shed;
            return;
        }
        // The deepest ladder level serves a stride subsample.
        const std::size_t points = frames.front().size();
        const std::size_t rows =
            r.ladderLevel >= 2
                ? std::min(points,
                           RobustPipelineOptions{}.degradedPointBudget)
                : points;
        if (!validLogits(r.logits, rows, model.numClasses())) {
            ++t.invalid;
            return;
        }
        ++t.valid;
        t.degraded += r.ladderLevel > 0 ? 1 : 0;
        t.ok += r.sloMissed ? 0 : 1;
        t.latencyMs.push_back(lag_ms + r.totalMs);
        t.queueMs.push_back(r.queueMs);
        t.serviceMs.push_back(r.totalMs - r.queueMs);
    }

    PointCloudModel &model;
    const std::vector<PointCloud> &frames;
    serve::ServingEngine engine;
    std::vector<serve::StreamId> ids;
    std::size_t next = 0;
};

int
runServe(const Options &o, Report &report)
{
    const EdgePcConfig cfg = o.workload->config();
    const std::vector<PointCloud> frames =
        makeFrames(*o.workload, o.seed, 0, kDistinctFrames);
    const std::unique_ptr<PointCloudModel> model = makeModel(*o.workload);
    obs::Tracer &tracer = obs::Tracer::global();
    TraceCollector trace;
    ServeTally phase_a;
    ServeTally phase_b;
    double phase_b_ms = 0.0;
    std::vector<double> traced_round_ms;
    std::vector<double> untraced_round_ms;
    {
        ServeHarness harness(*model, cfg, frames);
        // Warm up through the same engine, so the dispatcher thread's
        // scratch arena and the model's caches are hot when timing
        // starts.
        (void)harness.openLoop(
            kServeRateFps,
            std::max(o.warmupFrames, static_cast<std::size_t>(
                                         o.warmupSeconds * kServeRateFps)));

        // Phase A, open loop at the sensor rate: the latency metrics.
        // Two thirds of a 20 s run leave ten samples beyond p99.
        const double a_seconds = o.smoke ? 0.2 : o.seconds * 2.0 / 3.0;
        phase_a = harness.openLoop(
            kServeRateFps,
            static_cast<std::size_t>(a_seconds * kServeRateFps));

        // Phase B, closed loop: the throughput metric and, when traced,
        // the spans. Rounds alternate traced and untraced; the engine
        // is idle between rounds, so the tracer drains exactly.
        const CounterWindow counters;
        const double b_seconds = o.smoke ? 0.0 : o.seconds / 3.0;
        const std::size_t min_rounds = o.smoke ? 2 : 10;
        for (std::size_t r = 0;
             phase_b_ms < b_seconds * 1e3 || r < min_rounds; ++r) {
            const bool traced = o.traced && r % 2 == 0;
            tracer.setEnabled(traced);
            const double ms = harness.round(phase_b);
            tracer.setEnabled(false);
            phase_b_ms += ms;
            if (traced) {
                traced_round_ms.push_back(ms);
                trace.drain(kServeStreams, ms);
            } else {
                untraced_round_ms.push_back(ms);
            }
        }

        if (o.traced) {
            addLayerMetrics(report, trace, counters,
                            static_cast<double>(phase_b.attempted));
            const double served = counters.delta("serve.served");
            const double dispatches =
                counters.delta("serve.batches") + served -
                counters.delta("serve.batched_frames") -
                counters.delta("serve.pipelined_frames");
            report.add("serve.batch_size", ratio(served, dispatches),
                       "count");
            report.add("serve.self_ms",
                       ratio(trace.totals.categorySelf("serve"),
                             static_cast<double>(trace.frames)),
                       "ms");

            // Overload at twice the sensor rate: graceful degradation,
            // reported but not gated.
            const ServeTally over = harness.openLoop(
                kOverloadRateFps, o.smoke ? 16 : kOverloadFrames);
            const double attempted = static_cast<double>(over.attempted);
            report.add("serve.overload.goodput_fps",
                       ratio(static_cast<double>(over.ok),
                             attempted / kOverloadRateFps),
                       "1/s");
            report.add("serve.overload.shed_frac",
                       ratio(static_cast<double>(over.shed + over.refused),
                             attempted),
                       "ratio");
            report.add("serve.overload.degraded_frac",
                       ratio(static_cast<double>(over.degraded),
                             static_cast<double>(over.valid)),
                       "ratio");
        }
    }

    report.attempted = phase_a.attempted + phase_b.attempted;
    report.failed = report.attempted - phase_a.valid - phase_b.valid;
    // Shed and refused frames are the engine's designed answer to load;
    // only served frames with bad logits are wrong output.
    if (phase_a.invalid + phase_b.invalid > 0) {
        report.fail(std::to_string(phase_a.invalid + phase_b.invalid) +
                    " served frames had non-finite or wrong-shape logits");
    }
    addLatencyMetrics(report, phase_a.latencyMs);
    report.add("frames_per_s",
               ratio(static_cast<double>(kServeStreams *
                                         untraced_round_ms.size()),
                     sum(untraced_round_ms) / 1e3),
               "1/s");
    report.add("ok_frac",
               ratio(static_cast<double>(phase_a.ok + phase_b.ok),
                     static_cast<double>(report.attempted)),
               "fraction");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    checkHeldOut(report, o, *model, cfg);

    if (o.traced) {
        addNeighborQuality(report, o, *model, cfg);
        report.add("serve.frame_p99_ms", percentile(phase_a.latencyMs, 0.99),
                   "ms");
        report.add("serve.queue_ms_p50", percentile(phase_a.queueMs, 0.50),
                   "ms");
        report.add("serve.queue_ms_p99", percentile(phase_a.queueMs, 0.99),
                   "ms");
        report.add("serve.service_ms_p50",
                   percentile(phase_a.serviceMs, 0.50), "ms");
        report.add("serve.gen_lag_p99_ms", percentile(phase_a.lagMs, 0.99),
                   "ms");
        report.add("trace.overhead_frac",
                   ratio(percentile(traced_round_ms, 0.5),
                         percentile(untraced_round_ms, 0.5)) -
                       1.0,
                   "ratio");
        writeLayerFiles(o, report, trace);
    }
    return 0;
}

// ---------------------------------------------------------------------
// Set-up and reference modes

/** Build everything and answer one frame; the runner times this process
    from its start to the "first-logits" line. */
int
runSetupOnly(const Options &o)
{
    const WorkloadDef &w = *o.workload;
    const std::vector<PointCloud> frames = makeFrames(w, o.seed, 0, 1);
    const std::unique_ptr<PointCloudModel> model = makeModel(w);
    bool valid = false;
    if (w.serve) {
        ServeHarness harness(*model, w.config(), frames);
        ServeTally t;
        (void)harness.round(t);
        valid = t.valid == kServeStreams;
    } else {
        InferencePipeline pipeline(*model, w.config());
        valid = validLogits(pipeline.run(frames.front()).logits,
                            frames.front().size(), model->numClasses());
    }
    if (!valid) {
        std::cerr << "bench_e2e: the set-up frame gave no valid logits\n";
        return 1;
    }
    std::cout << "first-logits" << std::endl;
    return 0;
}

int
runWriteReference(const Options &o)
{
    const std::unique_ptr<PointCloudModel> model = makeModel(*o.workload);
    if (!writeReferenceFile(o.writeReference,
                            pipelineLogits(*model, o.workload->config(),
                                           makeHeldOut(o)))) {
        std::cerr << "bench_e2e: cannot write " << o.writeReference << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    try {
        if (o.setupOnly) {
            return runSetupOnly(o);
        }
        if (!o.writeReference.empty()) {
            return runWriteReference(o);
        }
        Report report;
        const int rc = o.workload->serve ? runServe(o, report)
                                         : runSingleStream(o, report);
        report.write(std::cout, o);
        return rc != 0 || !report.correct ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "bench_e2e: error: " << e.what() << "\n";
        return 1;
    }
}
