/**
 * @file
 * Differential parity harness for delayed aggregation (DESIGN.md §13):
 * the delayed route must agree with the eager gather-then-MLP
 * composition on identical weights, across the full dispatch matrix
 * (EDGEPC_GEMM scalar/fast x EDGEPC_SIMD scalar/simd).
 *
 * On exactness: the gatherMaxPool primitive is bit-exact with
 * gatherRows + MaxPoolNeighbors (same first-row copy, same
 * strictly-greater compare), and the suite asserts EXPECT_FLOAT_EQ on
 * it. The delayed *blocks* cannot be bit-exact with the eager ones on
 * any path, scalar included: eager sums (p_j - p_i) * w over the input
 * dimension in one pass, delayed computes p_j * w and p_i * w as two
 * separately-rounded partial sums and subtracts them — a float
 * reassociation, not an approximation. The block tests therefore pin
 * a tight absolute tolerance: 2e-5 under the scalar GEMM (pure
 * reassociation noise at these magnitudes) and 1e-4 under the FMA
 * kernel, per the issue's FMA bound.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "geometry/simd_distance.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/grouping.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace {

/**
 * The parity bounds here are fp32 reassociation budgets: every product
 * runs on the scalar-policy engine with the int8 route off, whatever
 * the environment says, and each dispatch case forces the builds.
 */
nn::GemmEngine &
fp32Engine()
{
    return nn::GemmEngine::shared(nn::GemmMode::Scalar);
}

const nn::GemmRoute kFp32{fp32Engine()};

struct DispatchCase
{
    KernelBuild gemm;
    KernelBuild simd;
    float tol;
    std::string tag;
};

/** Every reachable cell of the dispatch matrix on this host. */
std::vector<DispatchCase>
dispatchMatrix()
{
    std::vector<DispatchCase> cases;
    std::vector<KernelBuild> builds = {KernelBuild::Scalar};
    if (cpuHasAvx2Fma()) {
        builds.push_back(KernelBuild::Avx2);
    }
    const std::vector<KernelBuild> &gemms = builds;
    const std::vector<KernelBuild> &simds = builds;
    for (const auto g : gemms) {
        for (const auto s : simds) {
            DispatchCase c;
            c.gemm = g;
            c.simd = s;
            c.tol = g == KernelBuild::Scalar ? 2e-5f : 1e-4f;
            c.tag = std::string(g == KernelBuild::Scalar ? "gemm=scalar"
                                                         : "gemm=fast") +
                    (s == KernelBuild::Scalar ? " simd=scalar"
                                              : " simd=simd");
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/** Random neighbor lists with entries in [0, n_source). */
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

nn::Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    nn::Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.numel(); ++i) {
        m.data()[i] = rng.normal();
    }
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

std::vector<std::uint32_t>
randomSamples(Rng &rng, std::size_t n, std::size_t n_source)
{
    std::vector<std::uint32_t> s(n);
    for (auto &idx : s) {
        idx = static_cast<std::uint32_t>(rng.nextBelow(n_source));
    }
    return s;
}

void
expectNear(const nn::Matrix &a, const nn::Matrix &b, float tol,
           const std::string &tag)
{
    ASSERT_EQ(a.rows(), b.rows()) << tag;
    ASSERT_EQ(a.cols(), b.cols()) << tag;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        ASSERT_NEAR(a.data()[i], b.data()[i], tol)
            << tag << " at flat index " << i;
    }
}

// ---------------------------------------------------------------------
// gatherMaxPool primitive: bit-exact with gatherRows + MaxPoolNeighbors.
// ---------------------------------------------------------------------

void
expectGatherMaxPoolBitExact(const nn::Matrix &features,
                            const NeighborLists &lists)
{
    const nn::Matrix fused = nn::gatherMaxPool(features, lists);
    const nn::Matrix gathered = nn::gatherRows(features, lists.indices);
    nn::MaxPoolNeighbors pool(lists.k);
    const nn::Matrix reference = pool.forward(gathered, kFp32, false);
    ASSERT_EQ(fused.rows(), reference.rows());
    ASSERT_EQ(fused.cols(), reference.cols());
    for (std::size_t i = 0; i < fused.numel(); ++i) {
        // Bit-exact: both take neighbor 0's row and upgrade on a
        // strictly-greater compare — no arithmetic to reassociate.
        EXPECT_FLOAT_EQ(fused.data()[i], reference.data()[i])
            << "flat index " << i;
    }
}

TEST(GatherMaxPool, BitExactWithGatherThenPool)
{
    Rng rng(101);
    const nn::Matrix features = randomMatrix(rng, 61, 9);
    const NeighborLists lists = randomNeighbors(rng, 37, 5, 61);
    expectGatherMaxPoolBitExact(features, lists);
}

TEST(GatherMaxPool, SingleNeighborReducesToRowGather)
{
    Rng rng(102);
    const nn::Matrix features = randomMatrix(rng, 19, 7);
    const NeighborLists lists = randomNeighbors(rng, 11, 1, 19);
    expectGatherMaxPoolBitExact(features, lists);
    // k=1 pooling IS the gather.
    const nn::Matrix fused = nn::gatherMaxPool(features, lists);
    const nn::Matrix gathered = nn::gatherRows(features, lists.indices);
    for (std::size_t i = 0; i < fused.numel(); ++i) {
        EXPECT_FLOAT_EQ(fused.data()[i], gathered.data()[i]);
    }
}

TEST(GatherMaxPool, DuplicateNeighborsMatchEager)
{
    // The searchers pad short candidate lists by repeating the closest
    // index; the pool must be invariant to the duplicates.
    Rng rng(103);
    const nn::Matrix features = randomMatrix(rng, 13, 6);
    NeighborLists lists;
    lists.k = 4;
    lists.indices.resize(9 * 4);
    for (std::size_t q = 0; q < 9; ++q) {
        const auto base =
            static_cast<std::uint32_t>(rng.nextBelow(13));
        lists.indices[q * 4 + 0] = base;
        lists.indices[q * 4 + 1] = base; // duplicate
        lists.indices[q * 4 + 2] =
            static_cast<std::uint32_t>(rng.nextBelow(13));
        lists.indices[q * 4 + 3] = base; // duplicate again
    }
    expectGatherMaxPoolBitExact(features, lists);
}

TEST(GatherMaxPool, EmptyNeighborhoodZeroFills)
{
    Rng rng(104);
    const nn::Matrix features = randomMatrix(rng, 8, 5);
    NeighborLists lists; // k == 0: no neighborhoods at all.
    std::vector<float> out(6 * 5, 7.5f);
    nn::gatherMaxPoolInto(features, lists, out);
    for (const float v : out) {
        EXPECT_EQ(v, 0.0f);
    }
}

// ---------------------------------------------------------------------
// Delayed SA first Linear vs eager group + Linear.
// ---------------------------------------------------------------------

struct SaProblem
{
    std::vector<Vec3> positions;
    nn::Matrix features;
    std::vector<std::uint32_t> samples;
    NeighborLists neighbors;
    nn::Matrix weight;
    nn::Matrix bias;
};

SaProblem
makeSaProblem(std::uint64_t seed, std::size_t n_points, std::size_t n,
              std::size_t k, std::size_t feat_dim, std::size_t c_out)
{
    Rng rng(seed);
    SaProblem p;
    p.positions = randomPositions(rng, n_points);
    p.features = feat_dim > 0 ? randomMatrix(rng, n_points, feat_dim)
                              : nn::Matrix(n_points, 0);
    p.samples = randomSamples(rng, n, n_points);
    p.neighbors = randomNeighbors(rng, n, k, n_points);
    p.weight = randomMatrix(rng, 3 + feat_dim, c_out);
    p.weight.scale(0.5f);
    p.bias = randomMatrix(rng, 1, c_out);
    return p;
}

/** The eager route on the same weights: group, then the real Linear
    layer (so the bias epilogue under test is the layer's own). */
nn::Matrix
eagerSaFirstLinear(const SaProblem &p)
{
    Rng rng(1);
    nn::Linear lin(p.weight.rows(), p.weight.cols(), rng);
    lin.weights().value = p.weight;
    lin.biases().value = p.bias;
    const nn::Matrix grouped = nn::groupWithRelativeCoords(
        p.positions, p.features, p.samples, p.neighbors);
    return lin.forward(grouped, kFp32, false);
}

void
expectSaParity(const SaProblem &p, const DispatchCase &c)
{
    const nn::Matrix eager = eagerSaFirstLinear(p);
    const nn::Matrix delayed = nn::delayedSaFirstLinear(
        p.positions, p.features, p.samples, p.neighbors, p.weight,
        p.bias, fp32Engine(), nullptr);
    expectNear(eager, delayed, c.tol, c.tag);
}

TEST(DelayedAggregation, SaFirstLinearMatchesEagerAcrossDispatchMatrix)
{
    const SaProblem with_features =
        makeSaProblem(201, 64, 24, 8, 13, 17);
    const SaProblem coords_only = makeSaProblem(202, 48, 16, 6, 0, 10);
    const SaProblem k_one = makeSaProblem(203, 32, 12, 1, 5, 8);
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        expectSaParity(with_features, c);
        expectSaParity(coords_only, c);
        expectSaParity(k_one, c);
    }
}

TEST(DelayedAggregation, SaFirstLinearDuplicateNeighborParity)
{
    SaProblem p = makeSaProblem(204, 40, 14, 4, 7, 9);
    // Pad-style rows: every neighbor the same point.
    for (std::size_t q = 0; q < 14; ++q) {
        const std::uint32_t base = p.neighbors.indices[q * 4];
        for (std::size_t j = 1; j < 4; ++j) {
            p.neighbors.indices[q * 4 + j] = base;
        }
    }
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        expectSaParity(p, c);
    }
}

// ---------------------------------------------------------------------
// Delayed EdgeConv first Linear vs eager edgeFeatures + Linear.
// ---------------------------------------------------------------------

struct EdgeProblem
{
    nn::Matrix features;
    NeighborLists neighbors;
    nn::Matrix weight;
    nn::Matrix bias;
};

EdgeProblem
makeEdgeProblem(std::uint64_t seed, std::size_t n, std::size_t k,
                std::size_t feat_dim, std::size_t c_out)
{
    Rng rng(seed);
    EdgeProblem p;
    p.features = randomMatrix(rng, n, feat_dim);
    p.neighbors = randomNeighbors(rng, n, k, n);
    p.weight = randomMatrix(rng, 2 * feat_dim, c_out);
    p.weight.scale(0.5f);
    p.bias = randomMatrix(rng, 1, c_out);
    return p;
}

void
expectEdgeParity(const EdgeProblem &p, const DispatchCase &c)
{
    Rng rng(1);
    nn::Linear lin(p.weight.rows(), p.weight.cols(), rng);
    lin.weights().value = p.weight;
    lin.biases().value = p.bias;
    const nn::Matrix edges = nn::edgeFeatures(p.features, p.neighbors);
    const nn::Matrix eager = lin.forward(edges, kFp32, false);

    const nn::Matrix delayed = nn::delayedEdgeFirstLinear(
        p.features, p.neighbors, p.weight, p.bias,
        fp32Engine(), nullptr);
    expectNear(eager, delayed, c.tol, c.tag);
}

TEST(DelayedAggregation, EdgeFirstLinearMatchesEagerAcrossDispatchMatrix)
{
    const EdgeProblem wide = makeEdgeProblem(301, 40, 9, 11, 15);
    const EdgeProblem k_one = makeEdgeProblem(302, 24, 1, 6, 8);
    EdgeProblem duplicates = makeEdgeProblem(303, 20, 5, 7, 9);
    for (std::size_t q = 0; q < 20; ++q) {
        const std::uint32_t base = duplicates.neighbors.indices[q * 5];
        for (std::size_t j = 1; j < 5; ++j) {
            duplicates.neighbors.indices[q * 5 + j] = base;
        }
    }
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        expectEdgeParity(wide, c);
        expectEdgeParity(k_one, c);
        expectEdgeParity(duplicates, c);
    }
}

// ---------------------------------------------------------------------
// Fully delayed single-stage SA inference (Tier A: gatherMaxPoolInto).
// ---------------------------------------------------------------------

TEST(DelayedAggregation, SingleStageInferMatchesEagerAcrossDispatchMatrix)
{
    const SaProblem p = makeSaProblem(401, 56, 20, 7, 9, 12);
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        // Eager: LinearRelu over the grouped rows, then the neighbor
        // max-pool.
        Rng rng(1);
        nn::LinearRelu lr(p.weight.rows(), p.weight.cols(), rng);
        lr.weights().value = p.weight;
        lr.biases().value = p.bias;
        const nn::Matrix grouped = nn::groupWithRelativeCoords(
            p.positions, p.features, p.samples, p.neighbors);
        const nn::Matrix act = lr.forward(grouped, kFp32, false);
        nn::MaxPoolNeighbors pool(p.neighbors.k);
        const nn::Matrix eager = pool.forward(act, kFp32, false);

        const nn::Matrix delayed = nn::delayedSaSingleStageInfer(
            p.positions, p.features, p.samples, p.neighbors, p.weight,
            p.bias, fp32Engine());
        expectNear(eager, delayed, c.tol, c.tag);
    }
}

// ---------------------------------------------------------------------
// Split first Linears over a broadcast row and an interpolation: the
// reference builds the concatenated input explicitly and runs the real
// Linear layer on it.
// ---------------------------------------------------------------------

/** The real Linear layer on @p weight / @p bias, inference forward. */
nn::Matrix
referenceLinear(const nn::Matrix &input, const nn::Matrix &weight,
                const nn::Matrix &bias)
{
    Rng rng(1);
    nn::Linear lin(weight.rows(), weight.cols(), rng);
    lin.weights().value = weight;
    lin.biases().value = bias;
    return lin.forward(input, kFp32, false);
}

struct BroadcastProblem
{
    nn::Matrix local;
    nn::Matrix global;
    nn::Matrix weight;
    nn::Matrix bias;
};

BroadcastProblem
makeBroadcastProblem(std::uint64_t seed, std::size_t n, std::size_t c,
                     std::size_t p, std::size_t c_out)
{
    Rng rng(seed);
    BroadcastProblem b;
    b.local = randomMatrix(rng, n, c);
    b.global = randomMatrix(rng, 1, p);
    b.weight = randomMatrix(rng, c + p, c_out);
    b.weight.scale(0.5f);
    b.bias = randomMatrix(rng, 1, c_out);
    return b;
}

void
expectBroadcastParity(const BroadcastProblem &b, const DispatchCase &c)
{
    // [C | 1 p], built row by row.
    const std::size_t width = b.local.cols() + b.global.cols();
    nn::Matrix concat(b.local.rows(), width);
    for (std::size_t r = 0; r < b.local.rows(); ++r) {
        for (std::size_t j = 0; j < b.local.cols(); ++j) {
            concat.at(r, j) = b.local.at(r, j);
        }
        for (std::size_t j = 0; j < b.global.cols(); ++j) {
            concat.at(r, b.local.cols() + j) = b.global.at(0, j);
        }
    }
    const nn::Matrix split = nn::broadcastFirstLinear(
        b.local, b.global, b.weight, b.bias, fp32Engine(),
        nullptr);
    expectNear(referenceLinear(concat, b.weight, b.bias), split, c.tol,
               c.tag);
}

TEST(SplitFirstLinear, BroadcastMatchesConcatAcrossDispatchMatrix)
{
    const BroadcastProblem wide = makeBroadcastProblem(501, 37, 11, 9, 13);
    const BroadcastProblem one_row = makeBroadcastProblem(502, 1, 6, 10, 7);
    const BroadcastProblem thin = makeBroadcastProblem(503, 20, 1, 3, 5);
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        expectBroadcastParity(wide, c);
        expectBroadcastParity(one_row, c);
        expectBroadcastParity(thin, c);
    }
}

struct InterpProblem
{
    nn::Matrix coarse;
    nn::Matrix skip;
    InterpolationPlan plan;
    nn::Matrix weight;
    nn::Matrix bias;
};

InterpProblem
makeInterpProblem(std::uint64_t seed, std::size_t sources,
                  std::size_t targets, std::size_t k, std::size_t up,
                  std::size_t skip_cols, std::size_t c_out)
{
    Rng rng(seed);
    InterpProblem p;
    p.coarse = randomMatrix(rng, sources, up);
    p.skip = skip_cols > 0 ? randomMatrix(rng, targets, skip_cols)
                           : nn::Matrix(targets, 0);
    p.plan.k = k;
    for (std::size_t t = 0; t < targets; ++t) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < k; ++j) {
            p.plan.indices.push_back(
                static_cast<std::uint32_t>(rng.nextBelow(sources)));
            p.plan.weights.push_back(rng.uniform(0.1f, 1.0f));
            sum += p.plan.weights.back();
        }
        for (std::size_t j = 0; j < k; ++j) {
            p.plan.weights[t * k + j] /= sum;
        }
    }
    p.weight = randomMatrix(rng, up + skip_cols, c_out);
    p.weight.scale(0.5f);
    p.bias = randomMatrix(rng, 1, c_out);
    return p;
}

nn::Matrix
splitInterp(const InterpProblem &p)
{
    const std::size_t coarse_rows[] = {p.coarse.rows()};
    const InterpolationPlan *const plans[] = {&p.plan};
    return nn::interpolatedFirstLinear(p.coarse, coarse_rows, plans, p.skip,
                                       p.weight, p.bias,
                                       fp32Engine(),
                                       nullptr);
}

void
expectInterpParity(const InterpProblem &p, const DispatchCase &c)
{
    // [interp(F) | S], the interpolation summed by a plain loop.
    const std::size_t up = p.coarse.cols();
    const std::size_t targets = p.plan.targets();
    const std::size_t k = p.plan.k;
    nn::Matrix concat(targets, up + p.skip.cols());
    for (std::size_t t = 0; t < targets; ++t) {
        for (std::size_t j = 0; j < k; ++j) {
            const float w = p.plan.weights[t * k + j];
            const std::uint32_t src = p.plan.indices[t * k + j];
            for (std::size_t d = 0; d < up; ++d) {
                concat.at(t, d) += w * p.coarse.at(src, d);
            }
        }
        for (std::size_t d = 0; d < p.skip.cols(); ++d) {
            concat.at(t, up + d) = p.skip.at(t, d);
        }
    }
    expectNear(referenceLinear(concat, p.weight, p.bias), splitInterp(p),
               c.tol, c.tag);
}

TEST(SplitFirstLinear, InterpolationMatchesConcatAcrossDispatchMatrix)
{
    const InterpProblem with_skip = makeInterpProblem(601, 9, 33, 3, 10, 7,
                                                      12);
    const InterpProblem no_skip = makeInterpProblem(602, 8, 29, 3, 13, 0, 9);
    const InterpProblem k_one = makeInterpProblem(603, 6, 17, 1, 5, 4, 8);
    const InterpProblem one_target = makeInterpProblem(604, 5, 1, 3, 6, 3,
                                                       7);
    InterpProblem duplicates = makeInterpProblem(605, 7, 21, 3, 8, 5, 6);
    for (std::size_t t = 0; t < 21; ++t) {
        // Pad-style rows: one source repeated (weights keep summing
        // to one).
        duplicates.plan.indices[t * 3 + 1] = duplicates.plan.indices[t * 3];
        duplicates.plan.indices[t * 3 + 2] = duplicates.plan.indices[t * 3];
    }
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        expectInterpParity(with_skip, c);
        expectInterpParity(no_skip, c);
        expectInterpParity(k_one, c);
        expectInterpParity(one_target, c);
        expectInterpParity(duplicates, c);
    }
}

TEST(SplitFirstLinear, StackedInterpolationRowsEqualPerCloud)
{
    // Two clouds with different coarse and fine row counts, stacked:
    // each cloud's rows must equal its own call bit for bit.
    InterpProblem a = makeInterpProblem(701, 6, 19, 3, 9, 5, 11);
    InterpProblem b = makeInterpProblem(702, 11, 40, 3, 9, 5, 11);
    b.weight = a.weight;
    b.bias = a.bias;
    for (const DispatchCase &c : dispatchMatrix()) {
        const test::BuildGuard gemm(KernelFamily::Gemm, c.gemm);
        const test::BuildGuard simd(KernelFamily::Distance, c.simd);
        const nn::Matrix coarse_parts[] = {a.coarse, b.coarse};
        const nn::Matrix skip_parts[] = {a.skip, b.skip};
        const std::size_t coarse_rows[] = {a.coarse.rows(), b.coarse.rows()};
        const InterpolationPlan *const plans[] = {&a.plan, &b.plan};
        const nn::Matrix stacked = nn::interpolatedFirstLinear(
            nn::concatRows(coarse_parts), coarse_rows, plans,
            nn::concatRows(skip_parts), a.weight, a.bias,
            fp32Engine(), nullptr);
        const nn::Matrix parts[] = {splitInterp(a), splitInterp(b)};
        EXPECT_EQ(stacked.storage(), nn::concatRows(parts).storage())
            << c.tag;
    }
}

// ---------------------------------------------------------------------
// Route resolution and FLOP-ratio heuristics.
// ---------------------------------------------------------------------

TEST(DelayedAggregation, ResolveRouteThenRatio)
{
    // On and Off decide whatever the ratio.
    EXPECT_TRUE(nn::resolveDelayedAgg(Route::On, 0.1));
    EXPECT_FALSE(nn::resolveDelayedAgg(Route::Off, 100.0));

    // Auto defers to the ratio threshold.
    EXPECT_FALSE(nn::resolveDelayedAgg(Route::Auto,
                                       nn::kDelayedAggFlopRatio - 0.01));
    EXPECT_TRUE(
        nn::resolveDelayedAgg(Route::Auto, nn::kDelayedAggFlopRatio));
}

TEST(DelayedAggregation, FlopRatioFormulas)
{
    // EdgeConv: two C-wide GEMMs replace one (2C)-wide GEMM over k
    // times the rows — the ratio is exactly k.
    EXPECT_DOUBLE_EQ(nn::edgeDelayedFlopRatio(20), 20.0);
    EXPECT_DOUBLE_EQ(nn::edgeDelayedFlopRatio(1), 1.0);

    // SA: n*k grouped rows vs N unique rows plus n 3-wide centers.
    const double ratio = nn::saDelayedFlopRatio(1000, 250, 16, 13);
    const double eager = 250.0 * 16.0 * 16.0;
    const double delayed = 1000.0 * 16.0 + 250.0 * 3.0;
    EXPECT_DOUBLE_EQ(ratio, eager / delayed);
    EXPECT_GT(ratio, nn::kDelayedAggFlopRatio);
}

} // namespace
} // namespace edgepc
