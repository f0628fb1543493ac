/**
 * @file
 * Int8 quantized inference path (DESIGN.md §15): activation / weight
 * quantization properties, panel-cache invalidation, kernel
 * bit-exactness against the scalar-integer reference, route
 * resolution, fixed-point SoA distance kernels, and the Fig-9-style
 * accuracy budget (quantized inference within 1.0 pp of fp32 on the
 * synthetic tasks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datasets/parts.hpp"
#include "datasets/scenes.hpp"
#include "datasets/shapes.hpp"
#include "geometry/simd_distance.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnetpp.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/quant.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/points_soa.hpp"
#include "train/trainer.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace {

/** The scalar-policy engine; the int8 route ignores the policy. */
nn::GemmEngine &
scalarEngine()
{
    return nn::GemmEngine::shared(nn::GemmMode::Scalar);
}

nn::Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols, float lo,
             float hi)
{
    nn::Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.numel(); ++i) {
        m.data()[i] = rng.uniform(lo, hi);
    }
    return m;
}

/** Decode one quantized weight back out of the maddubs panel layout. */
std::int8_t
panelWeight(const nn::QuantizedWeights &wq, std::size_t kk,
            std::size_t j)
{
    const std::size_t p = j / nn::kQuantNR;
    const std::size_t c = j % nn::kQuantNR;
    const std::size_t quad =
        wq.panelOffset(p) +
        (kk / nn::kQuantKQ) * nn::kQuantNR * nn::kQuantKQ;
    const std::size_t t = kk % nn::kQuantKQ;
    const std::size_t off =
        c < 8 ? c * nn::kQuantKQ + t
              : 8 * nn::kQuantKQ + (c - 8) * nn::kQuantKQ + t;
    return wq.panelData[quad + off];
}

// ---------------------------------------------------------------------
// Activation quantization.
// ---------------------------------------------------------------------

TEST(ActQuant, RoundTripErrorWithinHalfStep)
{
    Rng rng(11);
    std::vector<float> x(257);
    for (auto &v : x) {
        v = rng.uniform(-2.0f, 3.0f);
    }
    const nn::ActQuant q = nn::computeActQuant(x.data(), x.size());
    ASSERT_GT(q.scale, 0.0f);
    EXPECT_GE(q.zeroPoint, 0);
    EXPECT_LE(q.zeroPoint, nn::kQuantActMax);
    for (const float v : x) {
        const std::uint8_t u = nn::quantizeAct(v, q);
        const float back =
            (static_cast<float>(u) - static_cast<float>(q.zeroPoint)) *
            q.scale;
        // Half a step of rounding plus up to one step at the range
        // boundary (zero-point rounding can shift the lattice by one).
        EXPECT_NEAR(back, v, 1.5f * q.scale) << "v=" << v;
    }
}

TEST(ActQuant, ConstantTensorRepresentedExactly)
{
    for (const float c : {3.2f, -2.5f, 0.75f}) {
        std::vector<float> x(33, c);
        const nn::ActQuant q = nn::computeActQuant(x.data(), x.size());
        const std::uint8_t u = nn::quantizeAct(c, q);
        const float back =
            (static_cast<float>(u) - static_cast<float>(q.zeroPoint)) *
            q.scale;
        EXPECT_NEAR(back, c, 1e-5f * std::fabs(c)) << "c=" << c;
    }
}

TEST(ActQuant, AllZeroTensorQuantizesToExactZero)
{
    std::vector<float> x(64, 0.0f);
    const nn::ActQuant q = nn::computeActQuant(x.data(), x.size());
    ASSERT_GT(q.scale, 0.0f);
    const std::uint8_t u = nn::quantizeAct(0.0f, q);
    EXPECT_EQ(static_cast<std::int32_t>(u), q.zeroPoint);
}

TEST(ActQuant, EmptyTensorReturnsIdentity)
{
    const nn::ActQuant q = nn::computeActQuant(nullptr, 0);
    EXPECT_EQ(q.scale, 1.0f);
    EXPECT_EQ(q.zeroPoint, 0);
}

TEST(ActQuant, ExtremesSaturateToRangeEnds)
{
    // Values far outside the observed range clamp to [0, 127].
    std::vector<float> x = {-1.0f, 1.0f};
    const nn::ActQuant q = nn::computeActQuant(x.data(), x.size());
    EXPECT_EQ(nn::quantizeAct(-100.0f, q), 0);
    EXPECT_EQ(nn::quantizeAct(100.0f, q), nn::kQuantActMax);
}

// ---------------------------------------------------------------------
// Weight quantization and the panel layout.
// ---------------------------------------------------------------------

TEST(QuantWeights, PerChannelRoundTripWithinHalfStep)
{
    Rng rng(21);
    const nn::Matrix w = randomMatrix(rng, 37, 29, -1.5f, 1.5f);
    const auto wq = nn::buildQuantizedWeights(w);
    ASSERT_EQ(wq->k, 37u);
    ASSERT_EQ(wq->n, 29u);
    for (std::size_t j = 0; j < wq->n; ++j) {
        const float s = wq->colScale[j];
        ASSERT_GT(s, 0.0f);
        for (std::size_t kk = 0; kk < wq->k; ++kk) {
            const float back =
                static_cast<float>(panelWeight(*wq, kk, j)) * s;
            EXPECT_NEAR(back, w.at(kk, j), 0.5f * s + 1e-7f)
                << "k=" << kk << " j=" << j;
        }
    }
}

TEST(QuantWeights, ChannelExtremesHit127)
{
    nn::Matrix w(4, 2);
    w.at(0, 0) = 2.0f; // channel max.
    w.at(1, 0) = -1.0f;
    w.at(2, 0) = 0.5f;
    w.at(3, 0) = -2.0f; // |min| == max: both extremes.
    w.at(0, 1) = -0.25f; // channel amax on the negative side.
    w.at(1, 1) = 0.1f;
    w.at(2, 1) = 0.0f;
    w.at(3, 1) = 0.2f;
    const auto wq = nn::buildQuantizedWeights(w);
    EXPECT_EQ(panelWeight(*wq, 0, 0), 127);
    EXPECT_EQ(panelWeight(*wq, 3, 0), -127);
    EXPECT_EQ(panelWeight(*wq, 0, 1), -127);
}

TEST(QuantWeights, AllZeroChannelGetsZeroScaleAndSum)
{
    Rng rng(22);
    nn::Matrix w = randomMatrix(rng, 9, 5, -1.0f, 1.0f);
    for (std::size_t kk = 0; kk < 9; ++kk) {
        w.at(kk, 2) = 0.0f;
    }
    const auto wq = nn::buildQuantizedWeights(w);
    EXPECT_EQ(wq->colScale[2], 0.0f);
    EXPECT_EQ(wq->colSum[2], 0);
    for (std::size_t kk = 0; kk < 9; ++kk) {
        EXPECT_EQ(panelWeight(*wq, kk, 2), 0);
    }
}

TEST(QuantWeights, SingleValueChannelQuantizesExactly)
{
    nn::Matrix w(6, 1);
    for (std::size_t kk = 0; kk < 6; ++kk) {
        w.at(kk, 0) = 0.0f;
    }
    w.at(4, 0) = -0.375f;
    const auto wq = nn::buildQuantizedWeights(w);
    EXPECT_EQ(panelWeight(*wq, 4, 0), -127);
    EXPECT_EQ(wq->colSum[0], -127);
    EXPECT_NEAR(static_cast<float>(panelWeight(*wq, 4, 0)) *
                    wq->colScale[0],
                -0.375f, 1e-7f);
}

TEST(QuantWeights, PaddingIsZeroFilled)
{
    Rng rng(23);
    // 7 % kQuantKQ != 0 and 19 % kQuantNR != 0: both paddings exist.
    const nn::Matrix w = randomMatrix(rng, 7, 19, -1.0f, 1.0f);
    const auto wq = nn::buildQuantizedWeights(w);
    ASSERT_EQ(wq->kPadded, 8u);
    ASSERT_EQ(wq->panels, 2u);
    for (std::size_t j = 0; j < wq->panels * nn::kQuantNR; ++j) {
        for (std::size_t kk = 0; kk < wq->kPadded; ++kk) {
            if (kk >= wq->k || j >= wq->n) {
                EXPECT_EQ(panelWeight(*wq, kk, j), 0)
                    << "k=" << kk << " j=" << j;
            }
        }
        if (j >= wq->n) {
            EXPECT_EQ(wq->colScale[j], 0.0f);
            EXPECT_EQ(wq->colSum[j], 0);
        }
    }
}

TEST(QuantWeights, ColSumMatchesDecodedWeights)
{
    Rng rng(24);
    const nn::Matrix w = randomMatrix(rng, 21, 18, -2.0f, 2.0f);
    const auto wq = nn::buildQuantizedWeights(w);
    for (std::size_t j = 0; j < wq->n; ++j) {
        std::int32_t sum = 0;
        for (std::size_t kk = 0; kk < wq->k; ++kk) {
            sum += panelWeight(*wq, kk, j);
        }
        EXPECT_EQ(wq->colSum[j], sum) << "j=" << j;
    }
}

// ---------------------------------------------------------------------
// Panel cache invalidation.
// ---------------------------------------------------------------------

TEST(QuantPanelCache, RebuildOnlyWhenContentChanges)
{
    Rng rng(31);
    nn::Matrix w = randomMatrix(rng, 12, 10, -1.0f, 1.0f);
    nn::QuantPanelCache cache;
    const auto a = cache.get(w);
    const auto b = cache.get(w);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.rebuilds(), 1u);

    w.at(3, 4) += 0.5f; // optimizer-step-style in-place mutation.
    const auto c = cache.get(w);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.rebuilds(), 2u);
    EXPECT_NE(a->contentHash, c->contentHash);

    // The old build stays valid for readers that captured it.
    EXPECT_EQ(a->k, 12u);
    EXPECT_EQ(cache.get(w).get(), c.get());
    EXPECT_EQ(cache.rebuilds(), 2u);
}

// ---------------------------------------------------------------------
// Kernel bit-exactness against the scalar-integer reference.
// ---------------------------------------------------------------------

struct QuantShape
{
    std::size_t m, k, n;
};

void
expectKernelMatchesReference(const QuantShape &s,
                             nn::GemmEpilogue epilogue)
{
    Rng rng(41 + s.m + s.k * 3 + s.n * 7);
    const nn::Matrix a = randomMatrix(rng, s.m, s.k, -2.0f, 2.0f);
    const nn::Matrix w = randomMatrix(rng, s.k, s.n, -1.0f, 1.0f);
    const nn::Matrix bias = randomMatrix(rng, 1, s.n, -0.5f, 0.5f);
    const auto wq = nn::buildQuantizedWeights(w);

    const nn::Matrix c =
        scalarEngine().multiplyQuantized(a, *wq, epilogue, bias);

    const nn::ActQuant aq = nn::computeActQuant(a.data(), a.numel());
    nn::Matrix ref(s.m, s.n);
    nn::quantizedGemmRef(a.data(), s.m, aq, *wq, ref.data(), epilogue,
                         bias.data());

    ASSERT_EQ(c.rows(), ref.rows());
    ASSERT_EQ(c.cols(), ref.cols());
    for (std::size_t i = 0; i < c.numel(); ++i) {
        // Bit-exact: integer accumulation is order-free and the
        // dequant epilogue fixes one float operation order.
        ASSERT_EQ(c.data()[i], ref.data()[i])
            << "m=" << s.m << " k=" << s.k << " n=" << s.n
            << " flat=" << i;
    }
}

TEST(QuantGemm, KernelsBitExactWithReferenceOnRemainderShapes)
{
    const std::vector<QuantShape> shapes = {
        {1, 1, 1},   {3, 5, 2},    {5, 16, 7},   {6, 64, 16},
        {7, 65, 17}, {13, 33, 31}, {32, 128, 40}, {48, 256, 64}};
    std::vector<KernelBuild> builds = {KernelBuild::Scalar};
    if (cpuHasAvx2Fma()) {
        builds.push_back(KernelBuild::Avx2);
    }
    for (const KernelBuild build : builds) {
        const test::BuildGuard guard(KernelFamily::Gemm, build);
        for (const QuantShape &s : shapes) {
            expectKernelMatchesReference(s, nn::GemmEpilogue::Bias);
            expectKernelMatchesReference(s, nn::GemmEpilogue::BiasRelu);
        }
    }
}

TEST(QuantGemm, QuantizedCloseToFp32)
{
    Rng rng(51);
    const nn::Matrix a = randomMatrix(rng, 48, 64, -1.0f, 1.0f);
    const nn::Matrix w = randomMatrix(rng, 64, 32, -0.5f, 0.5f);
    const nn::Matrix bias = randomMatrix(rng, 1, 32, -0.2f, 0.2f);
    const auto wq = nn::buildQuantizedWeights(w);
    nn::GemmEngine &engine = scalarEngine();
    const nn::Matrix q =
        engine.multiplyQuantized(a, *wq, nn::GemmEpilogue::Bias, bias);
    const nn::Matrix f =
        engine.multiply(a, w, nn::GemmEpilogue::Bias, bias);
    for (std::size_t i = 0; i < q.numel(); ++i) {
        EXPECT_NEAR(q.data()[i], f.data()[i], 0.1f) << "flat=" << i;
    }
}

// ---------------------------------------------------------------------
// Route resolution: On / Off decide, Auto defers to the shape.
// ---------------------------------------------------------------------

TEST(QuantGemm, ResolveRouteThenShape)
{
    // On and Off decide whatever the shape.
    EXPECT_TRUE(nn::resolveQuantGemm(Route::On, 1, 1));
    EXPECT_FALSE(nn::resolveQuantGemm(Route::Off, 1024, 1024));

    // Auto defers to the shape floors.
    EXPECT_TRUE(nn::resolveQuantGemm(Route::Auto, nn::kQuantMinRows,
                                     nn::kQuantMinK));
    EXPECT_FALSE(nn::resolveQuantGemm(Route::Auto, nn::kQuantMinRows - 1,
                                      nn::kQuantMinK));
    EXPECT_FALSE(nn::resolveQuantGemm(Route::Auto, nn::kQuantMinRows,
                                      nn::kQuantMinK - 1));
}

// ---------------------------------------------------------------------
// Linear-layer integration.
// ---------------------------------------------------------------------

TEST(QuantLinear, InferenceForwardTakesQuantRoute)
{
    Rng rng(61);
    nn::Linear lin(64, 24, rng);
    const nn::Matrix input = randomMatrix(rng, 40, 64, -1.0f, 1.0f);

    const nn::Matrix out =
        lin.forward(input, {scalarEngine(), Route::On}, false);
    const auto wq = nn::buildQuantizedWeights(lin.weights().value);
    const nn::Matrix expected = scalarEngine().multiplyQuantized(
        input, *wq, nn::GemmEpilogue::Bias, lin.biases().value);
    for (std::size_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(out.data()[i], expected.data()[i]) << "flat=" << i;
    }
    EXPECT_GE(lin.quantRebuilds(), 1u);
}

TEST(QuantLinear, TrainingForwardStaysFp32)
{
    Rng rng(62);
    nn::Linear lin(64, 16, rng);
    const nn::Matrix input = randomMatrix(rng, 40, 64, -1.0f, 1.0f);
    // Even with the int8 route On...
    const nn::Matrix train_out =
        lin.forward(input, {scalarEngine(), Route::On}, true);

    const nn::Matrix fp32_out =
        lin.forward(input, {scalarEngine(), Route::Off}, false);
    for (std::size_t i = 0; i < train_out.numel(); ++i) {
        // ...training uses the identical fp32 route.
        ASSERT_EQ(train_out.data()[i], fp32_out.data()[i]);
    }
    EXPECT_EQ(lin.quantRebuilds(), 0u);
}

TEST(QuantLinear, ReluVariantClampsAtZero)
{
    Rng rng(63);
    nn::LinearRelu lin(64, 24, rng);
    const nn::Matrix input = randomMatrix(rng, 36, 64, -1.0f, 1.0f);
    const nn::Matrix out =
        lin.forward(input, {scalarEngine(), Route::On}, false);
    bool any_zero = false;
    for (std::size_t i = 0; i < out.numel(); ++i) {
        ASSERT_GE(out.data()[i], 0.0f);
        any_zero = any_zero || out.data()[i] == 0.0f;
    }
    EXPECT_TRUE(any_zero);
}

// ---------------------------------------------------------------------
// Fixed-point SoA distance kernels.
// ---------------------------------------------------------------------

TEST(FixedPointDistance, KernelsBitExactAcrossDispatchPaths)
{
    Rng rng(71);
    for (const std::size_t n : {1u, 5u, 8u, 13u, 16u, 33u, 100u}) {
        const std::size_t padded = simd::paddedSize(n);
        std::vector<std::int16_t> qxy(2 * padded, simd::kFixedPadQ);
        std::vector<std::int16_t> qzw(2 * padded, 0);
        for (std::size_t i = 0; i < n; ++i) {
            qxy[2 * i] = static_cast<std::int16_t>(
                rng.uniform(-4095.0f, 4095.0f));
            qxy[2 * i + 1] = static_cast<std::int16_t>(
                rng.uniform(-4095.0f, 4095.0f));
            qzw[2 * i] = static_cast<std::int16_t>(
                rng.uniform(-4095.0f, 4095.0f));
            qzw[2 * i + 1] = 0;
        }
        const std::int16_t qx = -8191, qy = 8191, qz = 4095;

        std::vector<float> expect(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t dx = qxy[2 * i] - qx;
            const std::int32_t dy = qxy[2 * i + 1] - qy;
            const std::int32_t dz = qzw[2 * i] - qz;
            expect[i] =
                static_cast<float>(dx * dx + dy * dy + dz * dz);
        }

        std::vector<KernelBuild> builds = {KernelBuild::Scalar};
        if (simd::simdAvailable()) {
            builds.push_back(KernelBuild::Avx2);
        }
        for (const KernelBuild build : builds) {
            const test::BuildGuard guard(KernelFamily::Distance, build);
            std::vector<float> out(n, -1.0f);
            simd::batchSqDistFixed(qxy.data(), qzw.data(), n, qx, qy,
                                   qz, out.data());
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(out[i], expect[i]) << "n=" << n << " i=" << i;
            }
        }
    }
}

TEST(FixedPointDistance, PointsFixedRoundTripWithinHalfStep)
{
    Rng rng(72);
    std::vector<Vec3> pts(57);
    for (auto &p : pts) {
        p = {rng.uniform(-3.0f, 5.0f), rng.uniform(-1.0f, 1.0f),
             rng.uniform(0.0f, 2.0f)};
    }
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const PointsSoA soa(pts, arena);
    const PointsFixed fixed(soa, arena);
    ASSERT_TRUE(fixed.valid());
    const float s = fixed.scale();
    ASSERT_GT(s, 0.0f);
    // The widest sampled axis spans exactly 2 * kFixedMaxQ grid steps.
    float span = 0.0f;
    for (std::size_t axis = 0; axis < 3; ++axis) {
        const auto coord = [axis](const Vec3 &p) {
            return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
        };
        float lo = coord(pts[0]), hi = coord(pts[0]);
        for (const Vec3 &p : pts) {
            lo = std::min(lo, coord(p));
            hi = std::max(hi, coord(p));
        }
        span = std::max(span, hi - lo);
    }
    EXPECT_NEAR(s * 2.0f * simd::kFixedMaxQ, span, 1e-3f * span);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::int16_t qx = 0, qy = 0, qz = 0;
        // Candidates and queries share the same lattice; the query
        // clamp is wider, so in-bounds points agree.
        fixed.quantizeQuery(pts[i], qx, qy, qz);
        EXPECT_EQ(fixed.xy()[2 * i], qx);
        EXPECT_EQ(fixed.xy()[2 * i + 1], qy);
        EXPECT_EQ(fixed.zw()[2 * i], qz);
        EXPECT_EQ(fixed.zw()[2 * i + 1], 0);
        EXPECT_LE(std::abs(static_cast<std::int32_t>(qx)),
                  simd::kFixedMaxQ);
    }
}

TEST(FixedPointDistance, DegenerateCloudsAreInvalid)
{
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const std::vector<Vec3> single = {{1.0f, 2.0f, 3.0f}};
    const PointsSoA soa1(single, arena);
    EXPECT_FALSE(PointsFixed(soa1, arena).valid());

    const std::vector<Vec3> coincident(5, Vec3{0.5f, 0.5f, 0.5f});
    const PointsSoA soa2(coincident, arena);
    EXPECT_FALSE(PointsFixed(soa2, arena).valid());
}

TEST(FixedPointDistance, FarQueriesClampWithoutWrapping)
{
    Rng rng(73);
    std::vector<Vec3> pts(16);
    for (auto &p : pts) {
        p = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
             rng.uniform(-1.0f, 1.0f)};
    }
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const PointsSoA soa(pts, arena);
    const PointsFixed fixed(soa, arena);
    ASSERT_TRUE(fixed.valid());
    std::int16_t qx = 0, qy = 0, qz = 0;
    fixed.quantizeQuery({1e6f, -1e6f, 1e6f}, qx, qy, qz);
    EXPECT_EQ(qx, simd::kFixedMaxQueryQ);
    EXPECT_EQ(qy, -simd::kFixedMaxQueryQ);
    EXPECT_EQ(qz, simd::kFixedMaxQueryQ);
    // The clamped query still yields exact (large) distances.
    std::vector<float> out(pts.size());
    simd::batchSqDistFixed(fixed.xy(), fixed.zw(), pts.size(), qx, qy,
                           qz, out.data());
    for (const float d : out) {
        EXPECT_GT(d, 0.0f);
        EXPECT_TRUE(std::isfinite(d));
    }
}

TEST(FixedPointDistance, ResolveRouteThenHeuristic)
{
    // On and Off decide whatever the scale and radius.
    EXPECT_TRUE(simd::resolveFixedPointBall(Route::On, 1.0f, 0.001f));
    EXPECT_TRUE(simd::resolveFixedPointKnn(Route::On));
    EXPECT_FALSE(simd::resolveFixedPointBall(Route::Off, 1e-6f, 100.0f));
    EXPECT_FALSE(simd::resolveFixedPointKnn(Route::Off));

    // Auto: the scale/radius heuristic decides (ball query).
    const float r = 0.2f;
    EXPECT_TRUE(simd::resolveFixedPointBall(
        Route::Auto, r / simd::kFixedAutoFactor, r));
    EXPECT_FALSE(simd::resolveFixedPointBall(
        Route::Auto, 2.0f * r / simd::kFixedAutoFactor, r));
    // Auto is Off for k-NN (ordering-sensitive).
    EXPECT_FALSE(simd::resolveFixedPointKnn(Route::Auto));
}

/** A 5x5x5 unit-spaced grid: every pairwise distance is far from the
    test radius relative to the fixed-point snap error. */
std::vector<Vec3>
gridCloud()
{
    std::vector<Vec3> pts;
    for (int x = 0; x < 5; ++x) {
        for (int y = 0; y < 5; ++y) {
            for (int z = 0; z < 5; ++z) {
                pts.push_back({static_cast<float>(x),
                               static_cast<float>(y),
                               static_cast<float>(z)});
            }
        }
    }
    return pts;
}

TEST(FixedPointDistance, BallQueryMatchesExactOnSeparatedCloud)
{
    const std::vector<Vec3> pts = gridCloud();
    // r = 1.5 sits between the sqrt(2) and sqrt(3) neighbor shells;
    // the snap error (~1e-3) cannot flip membership at that margin.
    BallQuery exact(1.5f, Route::Off);
    BallQuery fixed(1.5f, Route::On);
    const NeighborLists a = exact.search(pts, pts, 8);
    const NeighborLists b = fixed.search(pts, pts, 8);
    ASSERT_EQ(a.indices.size(), b.indices.size());
    for (std::size_t i = 0; i < a.indices.size(); ++i) {
        ASSERT_EQ(a.indices[i], b.indices[i]) << "flat=" << i;
    }
}

TEST(FixedPointDistance, KnnMatchesExactOnSeparatedCloud)
{
    // Distinct, well-separated distances along a line: quantization
    // cannot reorder them.
    std::vector<Vec3> pts;
    for (int i = 0; i < 16; ++i) {
        pts.push_back({static_cast<float>(i), 0.0f, 0.0f});
    }
    BruteForceKnn exact(Route::Off);
    BruteForceKnn fixed(Route::On);
    const NeighborLists a = exact.search(pts, pts, 4);
    const NeighborLists b = fixed.search(pts, pts, 4);
    ASSERT_EQ(a.indices.size(), b.indices.size());
    for (std::size_t i = 0; i < a.indices.size(); ++i) {
        ASSERT_EQ(a.indices[i], b.indices[i]) << "flat=" << i;
    }
}

TEST(FixedPointDistance, BallQueryFixedPathBumpsCounter)
{
    obs::Counter &fixed_calls =
        obs::MetricsRegistry::global().counter("simd.fixed_calls");
    const std::vector<Vec3> pts = gridCloud();

    const std::uint64_t before = fixed_calls.value();
    BallQuery off(1.5f, Route::Off);
    (void)off.search(pts, pts, 4);
    EXPECT_EQ(fixed_calls.value(), before);

    BallQuery on(1.5f, Route::On);
    (void)on.search(pts, pts, 4);
    EXPECT_EQ(fixed_calls.value(), before + pts.size());
}

// ---------------------------------------------------------------------
// Fig-9-style accuracy budget: quantized inference within 1.0 pp of
// fp32 on the synthetic tasks (models trained fp32, evaluated both
// ways on the same split). One trained model's gap is a coin flip of
// a few borderline points, so each test bounds the median gap over a
// fixed list of (dataset seed, model seed) pairs: the original single
// draw first, then the next four seeds of each.
// ---------------------------------------------------------------------

/** |accuracy(int8) - accuracy(fp32)| in percentage points. */
double
quantAccuracyDeltaPp(PointCloudModel &model, const Dataset &data,
                     bool classifier)
{
    Trainer trainer;
    EdgePcConfig cfg = EdgePcConfig::baseline();
    cfg.int8Gemm = Route::Off;
    const EvalResult fp32 =
        classifier ? trainer.evaluateClassifier(model, data, cfg)
                   : trainer.evaluateSegmentation(model, data, cfg);
    cfg.int8Gemm = Route::On;
    const EvalResult int8 =
        classifier ? trainer.evaluateClassifier(model, data, cfg)
                   : trainer.evaluateSegmentation(model, data, cfg);
    return std::fabs(int8.accuracy - fp32.accuracy) * 100.0;
}

/** Seed pairs per test: (data_seed + i, 42 + i) for i in [0, 5). */
constexpr std::uint64_t kSeedPairs = 5;
constexpr std::uint64_t kModelSeed = 42;

/**
 * Median of @p gap_of(data seed, model seed) over the kSeedPairs pairs
 * starting at (@p data_seed, kModelSeed); every gap is recorded as a
 * test property and echoed in @p gaps.
 */
double
medianGapPp(std::uint64_t data_seed,
            const std::function<double(std::uint64_t, std::uint64_t)> &gap_of,
            std::string &gaps)
{
    std::vector<double> all;
    for (std::uint64_t i = 0; i < kSeedPairs; ++i) {
        const double gap = gap_of(data_seed + i, kModelSeed + i);
        all.push_back(gap);
        const std::string pair = std::to_string(data_seed + i) + "/" +
                                 std::to_string(kModelSeed + i);
        ::testing::Test::RecordProperty("gap_pp_" + pair,
                                        std::to_string(gap));
        gaps += pair + ": " + std::to_string(gap) + " pp; ";
    }
    std::sort(all.begin(), all.end());
    return all[all.size() / 2];
}

TEST(QuantAccuracy, ClassificationWithinOnePointOfFp32)
{
    std::string gaps;
    const double median = medianGapPp(
        5,
        [](std::uint64_t data_seed, std::uint64_t model_seed) {
            ShapeOptions options;
            options.points = 96;
            options.randomRotation = false;
            // 8 classes x 25 clouds = 200 samples: one flipped
            // prediction is 0.5 pp.
            const Dataset data = makeShapeDataset(25, options, data_seed);
            auto [train_set, eval_set] = data.split(0.5, 2);

            TrainOptions topt;
            topt.epochs = 8;
            topt.learningRate = 0.01f;
            topt.batchSize = 4;
            Trainer trainer(topt);
            PointNetPP model(
                PointNetPPConfig::liteClassification(96, data.numClasses),
                model_seed);
            trainer.trainClassifier(model, train_set,
                                    EdgePcConfig::baseline());
            return quantAccuracyDeltaPp(model, data, true);
        },
        gaps);
    EXPECT_LE(median, 1.0) << gaps;
}

TEST(QuantAccuracy, SemanticSegmentationWithinOnePointOfFp32)
{
    std::string gaps;
    const double median = medianGapPp(
        3,
        [](std::uint64_t data_seed, std::uint64_t model_seed) {
            SceneOptions options;
            options.points = 128;
            const Dataset data = makeSceneDataset(8, options, data_seed);

            TrainOptions topt;
            topt.epochs = 4;
            topt.learningRate = 0.02f;
            topt.batchSize = 4;
            Trainer trainer(topt);
            PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5),
                             model_seed);
            trainer.trainSegmentation(model, data,
                                      EdgePcConfig::baseline());
            return quantAccuracyDeltaPp(model, data, false);
        },
        gaps);
    EXPECT_LE(median, 1.0) << gaps;
}

TEST(QuantAccuracy, PartSegmentationWithinOnePointOfFp32)
{
    std::string gaps;
    const double median = medianGapPp(
        7,
        [](std::uint64_t data_seed, std::uint64_t model_seed) {
            PartOptions options;
            options.points = 128;
            const Dataset data = makePartDataset(4, options, data_seed);

            TrainOptions topt;
            topt.epochs = 4;
            topt.learningRate = 0.02f;
            topt.batchSize = 4;
            Trainer trainer(topt);
            Dgcnn model(DgcnnConfig::liteSegmentation(data.numClasses),
                        model_seed);
            trainer.trainSegmentation(model, data,
                                      EdgePcConfig::baseline());
            return quantAccuracyDeltaPp(model, data, false);
        },
        gaps);
    EXPECT_LE(median, 1.0) << gaps;
}

} // namespace
} // namespace edgepc
