/**
 * @file
 * google-benchmark microbenchmarks of the individual EdgePC kernels:
 * Morton encoding, radix sorting, samplers, neighbor searchers and
 * the two GEMM paths. Complements the figure benches with per-kernel
 * numbers.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "geometry/morton.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "nn/gemm.hpp"
#include "sampling/fps.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {
namespace {

/** Base seed for every kernel input; set from --seed in main(). */
std::uint64_t benchSeed = 42;

/** Deterministic per-call-site stream derived from the CLI seed. */
Rng
benchRng(std::uint64_t salt)
{
    std::uint64_t state = benchSeed + salt;
    return Rng(splitmix64(state));
}

std::vector<Vec3>
randomCloud(std::size_t n, std::uint64_t salt = 1)
{
    Rng rng = benchRng(salt);
    std::vector<Vec3> pts(n);
    for (auto &p : pts) {
        p = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat()};
    }
    return pts;
}

void
BM_MortonEncode(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    const MortonEncoder enc(Aabb::of(pts), 32);
    std::vector<std::uint64_t> codes;
    for (auto _ : state) {
        enc.encodeAll(pts, codes);
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MortonEncode)->Arg(1024)->Arg(8192)->Arg(65536);

void
BM_RadixSort(benchmark::State &state)
{
    Rng rng = benchRng(2);
    std::vector<std::uint64_t> codes(state.range(0));
    for (auto &c : codes) {
        c = rng.nextU64() & 0xffffffffull;
    }
    for (auto _ : state) {
        auto order = radixSortIndices(codes);
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSort)->Arg(1024)->Arg(8192)->Arg(65536);

void
BM_FpsSampler(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    for (auto _ : state) {
        FarthestPointSampler fps;
        auto sel = fps.sample(pts, state.range(0) / 8);
        benchmark::DoNotOptimize(sel.data());
    }
}
BENCHMARK(BM_FpsSampler)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_MortonSampler(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    MortonSampler sampler(32);
    for (auto _ : state) {
        auto sel = sampler.sample(pts, state.range(0) / 8);
        benchmark::DoNotOptimize(sel.data());
    }
}
BENCHMARK(BM_MortonSampler)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_BallQuery(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    BallQuery bq(0.2f);
    for (auto _ : state) {
        auto lists = bq.search(pts, pts, 16);
        benchmark::DoNotOptimize(lists.indices.data());
    }
}
BENCHMARK(BM_BallQuery)->Arg(1024)->Arg(4096);

void
BM_BruteForceKnn(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    BruteForceKnn knn;
    for (auto _ : state) {
        auto lists = knn.search(pts, pts, 16);
        benchmark::DoNotOptimize(lists.indices.data());
    }
}
BENCHMARK(BM_BruteForceKnn)->Arg(1024)->Arg(4096);

void
BM_MortonWindowSearch(benchmark::State &state)
{
    const auto pts = randomCloud(state.range(0));
    MortonSampler sampler(32);
    const Structurization s = sampler.structurize(pts);
    const MortonWindowSearch window(64);
    for (auto _ : state) {
        auto lists = window.searchAll(pts, s, 16);
        benchmark::DoNotOptimize(lists.indices.data());
    }
}
BENCHMARK(BM_MortonWindowSearch)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_GemmScalar(benchmark::State &state)
{
    Rng rng = benchRng(3);
    nn::Matrix a(state.range(0), 64), b(64, 64);
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);
    nn::GemmEngine engine(nn::GemmMode::Scalar);
    for (auto _ : state) {
        auto c = engine.multiply(a, b);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_GemmScalar)->Arg(1024)->Arg(8192);

void
BM_GemmFast(benchmark::State &state)
{
    Rng rng = benchRng(4);
    nn::Matrix a(state.range(0), 64), b(64, 64);
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);
    nn::GemmEngine engine(nn::GemmMode::Fast);
    for (auto _ : state) {
        auto c = engine.multiply(a, b);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_GemmFast)->Arg(1024)->Arg(8192);

/**
 * Console reporter that additionally records one (label, wall_ms) pair
 * per benchmark run, so the BENCH_kernels.json report carries the
 * per-kernel latencies (and compare_bench_json.py can diff them
 * against bench/baselines/).
 */
class RowCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &reports) override
    {
        benchmark::ConsoleReporter::ReportRuns(reports);
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred ||
                run.iterations == 0) {
                continue;
            }
            const double ms = run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e3;
            rows.emplace_back(run.benchmark_name(), ms);
        }
    }

    /** (benchmark name, per-iteration wall ms) in run order. */
    std::vector<std::pair<std::string, double>> rows;
};

} // namespace
} // namespace edgepc

/**
 * Custom main: BenchOptions::parse() consumes the shared edgepc flags
 * (--seed and friends) and compacts argv before google-benchmark sees
 * it. After the run every benchmark's per-iteration latency becomes a
 * report row, and the accumulated kernel counters (GEMM FLOPs/path
 * mix, per-searcher query counts) are emitted as BENCH_kernels.json.
 */
int
main(int argc, char **argv)
{
    edgepc::bench::BenchOptions opts =
        edgepc::bench::BenchOptions::parse(argc, argv);
    edgepc::benchSeed = opts.seed;
    edgepc::obs::MetricsRegistry::global().reset();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    edgepc::RowCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    edgepc::bench::BenchReport report("kernels", opts, 1, 1);
    report.config("suite", "google-benchmark");
    for (const auto &[label, ms] : reporter.rows) {
        report.row(label).wallMs = ms;
    }
    edgepc::bench::BenchRow &row = report.row("counters");
    for (const auto &[name, value] :
         edgepc::obs::MetricsRegistry::global().counters()) {
        row.metrics[name] = static_cast<double>(value);
    }
    return report.write() ? 0 : 1;
}
