/**
 * @file
 * GEMM micro-benchmark over the actual PointNet++/DGCNN layer shapes.
 *
 * The feature-compute stage of every model in this repo is a chain of
 * row-wise Linear layers, so its cost is set by a handful of GEMM
 * shapes: thin-K grouped inputs (K = 3..6 relative-coordinate rows),
 * wide-K mid-network layers (K = 64..256), the huge-M edge-feature
 * stacks of DGCNN and the M = 1 classifier head. This bench times
 * exactly those shapes on both engine paths, plus the backward-pass
 * variants (A*B^T and A^T*B) and the bias-fused exactLinear entry
 * point, plus the eager/delayed A/B of the aggregation-block first
 * layer and of the split head / FP first Linear (DESIGN.md §13,
 * flop_ratio reported per row), plus the int8
 * quantized route (DESIGN.md §15) against the fp32 fast path on every
 * forward shape, and emits BENCH_gemm.json for the perf-diff CI step
 * against bench/baselines/BENCH_gemm.json.
 *
 * Throughput accounting: every row reports gflops = 2*M*K*N /
 * wall_ms * 1e-6 (effective GOPS on the int8 rows — the op count is
 * the same, the ops just are not float) and gbps = bytes moved per
 * wall-clock, so speedups can be read as compute or as bandwidth.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/feature_merge.hpp"
#include "nn/gemm.hpp"
#include "nn/grouping.hpp"
#include "nn/quant.hpp"

namespace edgepc {
namespace {

/** One GEMM configuration: C(m x n) = A(m x k) * B(k x n). */
struct Shape
{
    const char *tag; ///< Which model layer this shape comes from.
    std::size_t m;
    std::size_t k;
    std::size_t n;
};

/**
 * The forward feature-compute shapes. M counts point-neighbor rows
 * (n_samples * k_neighbors), K the input channels, N the output
 * channels. Thin-K rows (K < 16) are the grouped coordinate inputs
 * the paper's tensor cores leave idle; wide-K rows are where the
 * packed fast path must win.
 */
const Shape kForwardShapes[] = {
    // PointNet++ SA1 first layer: 512 samples x 32 neighbors, grouped
    // [rel_xyz | feat] input. Thin K.
    {"pnpp_sa1_thin", 16384, 6, 64},
    // PointNet per-point MLP entry: raw coordinates. Thin K.
    {"pnet_mlp_thin", 4096, 3, 64},
    // PointNet++ SA1 mid layer. Wide K.
    {"pnpp_sa1_wide", 16384, 64, 64},
    // PointNet++ SA2: 128 samples x 64 neighbors, 128 channels.
    {"pnpp_sa2_wide", 8192, 128, 128},
    // PointNet++ SA3 / deepest stage: fewer rows, widest channels.
    {"pnpp_sa3_wide", 4096, 256, 256},
    // DGCNN EdgeConv: 1024 points x 20 neighbors, [f_i | f_j - f_i].
    {"dgcnn_ec_wide", 20480, 128, 64},
    // Classifier head after global pooling: a single row.
    {"head_m1", 1, 1024, 512},
};

/**
 * Grouping-layer shapes for the delayed-aggregation A/B (DESIGN.md
 * §13): the first Linear of an aggregation block either runs eagerly
 * on the (samples*k)-row gathered matrix or, delayed, on the N unique
 * rows plus a cheap per-center correction. The eager/delayed GEMM
 * FLOP ratio is reported per row as flop_ratio.
 */
struct AggShape
{
    const char *tag;
    std::size_t points;  ///< N unique points at the level.
    std::size_t samples; ///< n sampled centers (== points for EC).
    std::size_t k;       ///< Neighbors per center.
    std::size_t feat;    ///< Input feature channels C (0 = coords only).
    std::size_t out;     ///< First-layer output channels.
};

const AggShape kSaAggShapes[] = {
    // PointNet++ SA1: coordinates-only grouping, 512 of 4096 points.
    // With K = 3 the eager GEMM is already memory-bound, so the ~3.6x
    // FLOP reduction does not translate into wall-clock — this row
    // documents the regime where delayed aggregation buys nothing.
    {"pnpp_sa1_agg", 4096, 512, 32, 0, 64},
    // PointNet++ SA2: feature-carrying grouping, 128 of 512 points.
    // Wide-K first layer: here the ~16x FLOP reduction is real time.
    {"pnpp_sa2_agg", 512, 128, 64, 64, 128},
};

const AggShape kEdgeAggShapes[] = {
    // DGCNN EdgeConv: every point is a center, k = 20 edges each.
    {"dgcnn_ec_agg", 1024, 1024, 20, 64, 64},
};

// The split first Linears (DESIGN.md §13) read the same fields as a
// gather: `points` source rows, `samples` target rows, `k` sources per
// target; `feat` is the concatenated input width.

// DGCNN(p) head on W4: 2048 points read [C | 1 p] with |C| = 192 and
// |p| = 1024 — a broadcast, one source row for every target.
const AggShape kHeadSplitShape = {"dgcnn_head_bcast", 1, 2048, 1, 1216,
                                  256};
constexpr std::size_t kHeadLocalCols = 192;

// PointNet++(s) last FP module on W1: 8192 targets interpolated from
// 1024 sources, 128 up channels, no skip columns.
const AggShape kFpSplitShape = {"pnpp_fp_interp", 1024, 8192, 3, 128, 128};

/** Backward-pass shapes (the Linear::backward operand sizes). */
const Shape kBackwardShapes[] = {
    // dX = dY * W^T on the SA2 mid layer: A = dY (M x out),
    // B = W (in x out), contraction over out.
    {"bwd_dx_sa2", 8192, 128, 128},
    // dW = X^T * dY on the same layer: contraction over the rows.
    {"bwd_dw_sa2", 128, 8192, 128},
};

double
bestOfMs(int repeats, const std::function<void()> &fn)
{
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
        Timer t;
        fn();
        const double ms = t.elapsedMs();
        if (r == 0 || ms < best) {
            best = ms;
        }
    }
    return best;
}

nn::Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    nn::Matrix m(rows, cols);
    m.fillNormal(rng, 1.0f);
    return m;
}

std::vector<Vec3>
randomPositions(Rng &rng, std::size_t n)
{
    std::vector<Vec3> p(n);
    for (auto &v : p) {
        v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
             rng.uniform(-1.0f, 1.0f)};
    }
    return p;
}

NeighborLists
randomNeighbors(Rng &rng, std::size_t queries, std::size_t k,
                std::size_t n_source)
{
    NeighborLists lists;
    lists.k = k;
    lists.indices.resize(queries * k);
    for (auto &idx : lists.indices) {
        idx = static_cast<std::uint32_t>(rng.nextBelow(n_source));
    }
    return lists;
}

std::vector<std::uint32_t>
randomSamples(Rng &rng, std::size_t n, std::size_t n_source)
{
    std::vector<std::uint32_t> s(n);
    for (auto &idx : s) {
        idx = static_cast<std::uint32_t>(rng.nextBelow(n_source));
    }
    return s;
}

/**
 * Bytes a path touches once per call: fp32 reads A and B and writes C
 * at 4 B/element; the int8 route reads fp32 A, writes/rereads its u8
 * quantized copy, streams the s8 weight panels and writes fp32 C.
 * The per-layer panel build is one-time (QuantPanelCache) and not in
 * the timed region, so it is not counted here either.
 */
double
shapeBytes(const Shape &s, bool int8_path)
{
    const double m = static_cast<double>(s.m);
    const double k = static_cast<double>(s.k);
    const double n = static_cast<double>(s.n);
    if (int8_path) {
        return 4.0 * m * k + 2.0 * m * k + 1.0 * k * n + 4.0 * m * n;
    }
    return 4.0 * (m * k + k * n + m * n);
}

void
recordRow(bench::BenchReport &report, const std::string &label, double ms,
          const Shape &s)
{
    bench::BenchRow &row = report.row(label);
    row.wallMs = ms;
    const bool int8_path = label.find("/int8") != std::string::npos;
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) *
                         static_cast<double>(s.n);
    const double bytes = shapeBytes(s, int8_path);
    row.metrics["gflops"] = ms > 0.0 ? flops / ms * 1e-6 : 0.0;
    row.metrics["gbps"] = ms > 0.0 ? bytes / ms * 1e-6 : 0.0;
    if (int8_path) {
        // Same number, explicit name: the int8 ops are not FLOPs.
        row.metrics["gops_eff"] = row.metrics["gflops"];
    }
    row.metrics["m"] = static_cast<double>(s.m);
    row.metrics["k"] = static_cast<double>(s.k);
    row.metrics["n"] = static_cast<double>(s.n);
}

/**
 * Record one delayed-aggregation A/B row. @p flops is the GEMM work
 * of the measured route; @p flop_ratio the eager/delayed first-layer
 * GEMM FLOP ratio of the shape (identical on both rows of a pair, so
 * the JSON self-documents the reduction the route buys).
 */
void
recordAggRow(bench::BenchReport &report, const std::string &label,
             double ms, const AggShape &s, double flops,
             double flop_ratio)
{
    bench::BenchRow &row = report.row(label);
    row.wallMs = ms;
    row.metrics["gflops"] = ms > 0.0 ? flops / ms * 1e-6 : 0.0;
    row.metrics["flop_ratio"] = flop_ratio;
    row.metrics["points"] = static_cast<double>(s.points);
    row.metrics["samples"] = static_cast<double>(s.samples);
    row.metrics["k"] = static_cast<double>(s.k);
    std::printf("%-22s %6zu %6zu %6zu  %12.4f  %10.2f\n", label.c_str(),
                s.samples * s.k, s.feat, s.out, ms,
                ms > 0.0 ? flops / ms * 1e-6 : 0.0);
}

} // namespace
} // namespace edgepc

int
main(int argc, char **argv)
{
    using namespace edgepc;

    bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
    const int repeats = bench::benchRepeats(3);
    bench::banner("Sec 5.4.1 GEMM substrate",
                  "feature compute dominates once S+N are structurized; "
                  "the GEMM engine must keep pace with the fast kernels");

    bench::BenchReport report("gemm", opts, 1, repeats);
    Rng rng(opts.seed);

    std::printf("%-22s %6s %6s %6s  %12s  %10s\n", "shape", "M", "K", "N",
                "best ms", "GFLOP/s");

    const auto run_shape = [&](const Shape &s, nn::GemmEngine &engine,
                               const char *path,
                               const std::function<nn::Matrix()> &fn) {
        // One warmup call sizes the scratch and warms the caches.
        const nn::Matrix warm = fn();
        static_cast<void>(warm);
        const double ms = bestOfMs(repeats, [&] {
            const nn::Matrix out = fn();
            static_cast<void>(out);
        });
        static_cast<void>(engine);
        const std::string label = std::string(s.tag) + "/" + path;
        recordRow(report, label, ms, s);
        const double flops = 2.0 * static_cast<double>(s.m) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.n);
        std::printf("%-22s %6zu %6zu %6zu  %12.4f  %10.2f\n",
                    label.c_str(), s.m, s.k, s.n, ms,
                    ms > 0.0 ? flops / ms * 1e-6 : 0.0);
    };

    for (const Shape &s : kForwardShapes) {
        const nn::Matrix a = randomMatrix(s.m, s.k, rng);
        const nn::Matrix b = randomMatrix(s.k, s.n, rng);
        const nn::Matrix bias = randomMatrix(1, s.n, rng);

        nn::GemmEngine scalar(nn::GemmMode::Scalar);
        nn::GemmEngine fast(nn::GemmMode::Fast);
        run_shape(s, scalar, "scalar",
                  [&] { return scalar.multiply(a, b); });
        run_shape(s, fast, "fast", [&] { return fast.multiply(a, b); });
        // Linear layer entry point: GEMM plus the bias epilogue.
        run_shape(s, fast, "fast+bias", [&] {
            return nn::exactLinear(a, b, bias, fast);
        });
        // Int8 A/B (DESIGN.md §15): panels built once outside the
        // timed region (QuantPanelCache amortizes the build across
        // calls in real inference); each call pays the dynamic
        // activation quant and the fused dequant(+bias) epilogue, so
        // int8-vs-fast rows compare end-to-end call cost.
        const std::shared_ptr<const nn::QuantizedWeights> wq =
            nn::buildQuantizedWeights(b);
        run_shape(s, fast, "int8", [&] {
            return fast.multiplyQuantized(a, *wq, nn::GemmEpilogue::None,
                                          nn::Matrix());
        });
        run_shape(s, fast, "int8+bias", [&] {
            return fast.multiplyQuantized(a, *wq, nn::GemmEpilogue::Bias,
                                          bias);
        });
    }

    // Delayed-aggregation A/B (DESIGN.md §13): eager = gather the
    // (samples*k)-row grouped matrix and push it through the first
    // Linear; delayed = per-point GEMMs + gather/combine. Both routes
    // produce the same pre-activation rows, so wall-clock and the
    // flop_ratio metric together show what the reordering buys.
    {
        nn::GemmEngine fast(nn::GemmMode::Fast);
        for (const AggShape &s : kSaAggShapes) {
            const std::vector<Vec3> positions =
                randomPositions(rng, s.points);
            const nn::Matrix features =
                s.feat == 0 ? nn::Matrix()
                            : randomMatrix(s.points, s.feat, rng);
            const std::vector<std::uint32_t> samples =
                randomSamples(rng, s.samples, s.points);
            const NeighborLists neighbors =
                randomNeighbors(rng, s.samples, s.k, s.points);
            const nn::Matrix weight =
                randomMatrix(3 + s.feat, s.out, rng);
            const nn::Matrix bias = randomMatrix(1, s.out, rng);

            const double eager_flops = 2.0 *
                static_cast<double>(s.samples * s.k) *
                static_cast<double>(3 + s.feat) *
                static_cast<double>(s.out);
            const double delayed_flops = 2.0 *
                (static_cast<double>(s.points) *
                     static_cast<double>(3 + s.feat) +
                 static_cast<double>(s.samples) * 3.0) *
                static_cast<double>(s.out);
            const double ratio = nn::saDelayedFlopRatio(
                s.points, s.samples, s.k, s.feat);

            const auto eager = [&] {
                const nn::Matrix grouped = nn::groupWithRelativeCoords(
                    positions, features, samples, neighbors);
                return nn::exactLinear(grouped, weight, bias, fast);
            };
            const auto delayed = [&] {
                return nn::delayedSaFirstLinear(positions, features,
                                                samples, neighbors,
                                                weight, bias, fast,
                                                nullptr);
            };
            static_cast<void>(eager());
            static_cast<void>(delayed());
            recordAggRow(report, std::string(s.tag) + "/eager",
                         bestOfMs(repeats,
                                  [&] { static_cast<void>(eager()); }),
                         s, eager_flops, ratio);
            recordAggRow(report, std::string(s.tag) + "/delayed",
                         bestOfMs(repeats,
                                  [&] { static_cast<void>(delayed()); }),
                         s, delayed_flops, ratio);
        }
        for (const AggShape &s : kEdgeAggShapes) {
            const nn::Matrix features =
                randomMatrix(s.points, s.feat, rng);
            const NeighborLists neighbors =
                randomNeighbors(rng, s.points, s.k, s.points);
            const nn::Matrix weight =
                randomMatrix(2 * s.feat, s.out, rng);
            const nn::Matrix bias = randomMatrix(1, s.out, rng);

            const double eager_flops = 2.0 *
                static_cast<double>(s.points * s.k) *
                static_cast<double>(2 * s.feat) *
                static_cast<double>(s.out);
            const double delayed_flops = 2.0 *
                static_cast<double>(2 * s.points) *
                static_cast<double>(s.feat) *
                static_cast<double>(s.out);
            const double ratio = nn::edgeDelayedFlopRatio(s.k);

            const auto eager = [&] {
                const nn::Matrix edges =
                    nn::edgeFeatures(features, neighbors);
                return nn::exactLinear(edges, weight, bias, fast);
            };
            const auto delayed = [&] {
                return nn::delayedEdgeFirstLinear(features, neighbors,
                                                  weight, bias, fast,
                                                  nullptr);
            };
            static_cast<void>(eager());
            static_cast<void>(delayed());
            recordAggRow(report, std::string(s.tag) + "/eager",
                         bestOfMs(repeats,
                                  [&] { static_cast<void>(eager()); }),
                         s, eager_flops, ratio);
            recordAggRow(report, std::string(s.tag) + "/delayed",
                         bestOfMs(repeats,
                                  [&] { static_cast<void>(delayed()); }),
                         s, delayed_flops, ratio);
        }
    }

    // Split first-Linear A/B (DESIGN.md §13): concat = build the
    // concatenated head / FP input and run the Linear on it; split =
    // the entry point the models call. flop_ratio is concat / split.
    {
        nn::GemmEngine fast(nn::GemmMode::Fast);
        const AggShape &h = kHeadSplitShape;
        const std::size_t global_cols = h.feat - kHeadLocalCols;
        const nn::Matrix local =
            randomMatrix(h.samples, kHeadLocalCols, rng);
        const nn::Matrix global = randomMatrix(1, global_cols, rng);
        const nn::Matrix weight = randomMatrix(h.feat, h.out, rng);
        const nn::Matrix bias = randomMatrix(1, h.out, rng);
        const double concat_flops = 2.0 * static_cast<double>(h.samples) *
                                    static_cast<double>(h.feat) *
                                    static_cast<double>(h.out);
        const double split_flops =
            2.0 *
            (static_cast<double>(h.samples) *
                 static_cast<double>(kHeadLocalCols) +
             static_cast<double>(global_cols)) *
            static_cast<double>(h.out);
        const auto concat = [&] {
            nn::Matrix input = nn::Matrix::forOverwrite(h.samples, h.feat);
            for (std::size_t r = 0; r < h.samples; ++r) {
                float *dst = input.data() + r * h.feat;
                std::copy(local.data() + r * kHeadLocalCols,
                          local.data() + (r + 1) * kHeadLocalCols, dst);
                std::copy(global.data(), global.data() + global_cols,
                          dst + kHeadLocalCols);
            }
            return nn::exactLinear(input, weight, bias, fast);
        };
        const auto split = [&] {
            return nn::broadcastFirstLinear(local, global, weight, bias,
                                            fast, nullptr);
        };
        static_cast<void>(concat());
        static_cast<void>(split());
        const double ratio = concat_flops / split_flops;
        recordAggRow(report, std::string(h.tag) + "/concat",
                     bestOfMs(repeats, [&] { static_cast<void>(concat()); }),
                     h, concat_flops, ratio);
        recordAggRow(report, std::string(h.tag) + "/split",
                     bestOfMs(repeats, [&] { static_cast<void>(split()); }),
                     h, split_flops, ratio);
    }
    {
        nn::GemmEngine fast(nn::GemmMode::Fast);
        const AggShape &f = kFpSplitShape;
        const nn::Matrix coarse = randomMatrix(f.points, f.feat, rng);
        const nn::Matrix skip(f.samples, 0);
        InterpolationPlan plan;
        plan.k = f.k;
        plan.indices = randomSamples(rng, f.samples * f.k, f.points);
        plan.weights.assign(f.samples * f.k, 1.0f / static_cast<float>(f.k));
        const nn::Matrix weight = randomMatrix(f.feat, f.out, rng);
        const nn::Matrix bias = randomMatrix(1, f.out, rng);
        const double concat_flops = 2.0 * static_cast<double>(f.samples) *
                                    static_cast<double>(f.feat) *
                                    static_cast<double>(f.out);
        const double split_flops = 2.0 * static_cast<double>(f.points) *
                                   static_cast<double>(f.feat) *
                                   static_cast<double>(f.out);
        const std::size_t coarse_rows[] = {f.points};
        const InterpolationPlan *const plans[] = {&plan};
        const auto concat = [&] {
            return nn::exactLinear(nn::applyInterpolation(plan, coarse),
                                   weight, bias, fast);
        };
        const auto split = [&] {
            return nn::interpolatedFirstLinear(coarse, coarse_rows, plans,
                                               skip, weight, bias, fast,
                                               nullptr);
        };
        static_cast<void>(concat());
        static_cast<void>(split());
        const double ratio = concat_flops / split_flops;
        recordAggRow(report, std::string(f.tag) + "/concat",
                     bestOfMs(repeats, [&] { static_cast<void>(concat()); }),
                     f, concat_flops, ratio);
        recordAggRow(report, std::string(f.tag) + "/split",
                     bestOfMs(repeats, [&] { static_cast<void>(split()); }),
                     f, split_flops, ratio);
    }

    for (const Shape &s : kBackwardShapes) {
        nn::GemmEngine fast(nn::GemmMode::Fast);
        if (std::string(s.tag).find("_dx_") != std::string::npos) {
            // dX = dY * W^T: A is m x k, B is n x k.
            const nn::Matrix dy = randomMatrix(s.m, s.k, rng);
            const nn::Matrix w = randomMatrix(s.n, s.k, rng);
            run_shape(s, fast, "fast", [&] {
                return fast.multiplyTransposed(dy, w);
            });
        } else {
            // dW = X^T * dY: A is k x m, B is k x n.
            const nn::Matrix x = randomMatrix(s.k, s.m, rng);
            const nn::Matrix dy = randomMatrix(s.k, s.n, rng);
            run_shape(s, fast, "fast", [&] {
                return fast.multiplyLeftTransposed(x, dy);
            });
        }
    }

    return report.write() ? 0 : 1;
}
