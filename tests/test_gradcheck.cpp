/**
 * @file Numeric gradient checks for the model backward passes.
 *
 * These validate the hand-written backprop of PointNet++ and DGCNN by
 * comparing analytic parameter gradients against central differences
 * of the loss on tiny networks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnetpp.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace {

PointCloud
tinyCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    ShapeOptions options;
    options.points = points;
    options.randomRotation = false;
    return makeShape(ShapeClass::Cone, options, rng);
}

/**
 * Compare analytic and numeric gradients on a random subset of the
 * model's parameters.
 *
 * BatchNorm keeps the comparison honest only if forward passes are
 * repeatable; the models are deterministic, and we always run in
 * train mode so batch statistics are recomputed identically.
 */
void
checkGradients(TrainableModel &model, const PointCloud &cloud,
               const EdgePcConfig &cfg,
               const std::vector<std::int32_t> &labels)
{
    std::vector<nn::Parameter *> params;
    model.collectParameters(params);
    ASSERT_FALSE(params.empty());

    auto loss_at = [&]() {
        const nn::Matrix logits = model.forward(cloud, cfg, nullptr, true);
        return nn::softmaxCrossEntropy(logits, labels).loss;
    };

    // Analytic gradients.
    for (nn::Parameter *p : params) {
        p->zeroGrad();
    }
    const nn::Matrix logits = model.forward(cloud, cfg, nullptr, true);
    const nn::LossResult loss = nn::softmaxCrossEntropy(logits, labels);
    model.backward(loss.gradLogits);

    // Numeric spot-checks on a few entries of a few parameters. The
    // loss surface has kinks (ReLU masks and max-pool argmax flips);
    // an entry whose two-scale finite differences disagree straddles
    // a kink, where the one-sided derivative the backward pass
    // returns need not match the symmetric difference — skip those.
    Rng pick(99);
    int checked = 0;
    int attempted = 0;
    for (std::size_t pi = 0; pi < params.size() && attempted < 24;
         pi += 1 + pick.nextBelow(3)) {
        nn::Parameter &p = *params[pi];
        if (p.value.numel() == 0) {
            continue;
        }
        const std::size_t j = pick.nextBelow(p.value.numel());
        const float saved = p.value.data()[j];
        ++attempted;

        auto numeric_at = [&](float eps) {
            p.value.data()[j] = saved + eps;
            const double lp = loss_at();
            p.value.data()[j] = saved - eps;
            const double lm = loss_at();
            p.value.data()[j] = saved;
            return (lp - lm) / (2.0 * static_cast<double>(eps));
        };
        const double coarse = numeric_at(1e-2f);
        const double fine = numeric_at(5e-3f);
        const double agreement_scale =
            std::max({1.0, std::abs(coarse), std::abs(fine)});
        if (std::abs(coarse - fine) > 0.02 * agreement_scale) {
            continue; // kink detected: finite differences unreliable
        }

        const double analytic = p.grad.data()[j];
        const double scale =
            std::max({1.0, std::abs(fine), std::abs(analytic)});
        // Tolerance sized to catch structural backprop errors (wrong
        // formula, missing term, sign) while riding out residual
        // nonsmoothness of the max-pool/ReLU loss surface.
        EXPECT_NEAR(analytic, fine, 0.15 * scale)
            << "param " << pi << " entry " << j;
        ++checked;
    }
    EXPECT_GE(checked, 4);
}

TEST(GradCheck, PointNetPPClassifierBaseline)
{
    PointNetPPConfig cfg;
    cfg.numClasses = 3;
    cfg.sa = {
        {8, 4, 0.5f, NeighborMode::BallQuery, {6}},
        {4, 2, 0.9f, NeighborMode::BallQuery, {8}},
    };
    cfg.headMlp = {6};
    PointNetPP model(cfg, 3);
    const PointCloud cloud = tinyCloud(24, 1);
    checkGradients(model, cloud, EdgePcConfig::baseline(), {1});
}

TEST(GradCheck, PointNetPPSegmentationBaseline)
{
    PointNetPPConfig cfg;
    cfg.numClasses = 3;
    cfg.sa = {
        {8, 4, 0.5f, NeighborMode::BallQuery, {6}},
        {4, 2, 0.9f, NeighborMode::BallQuery, {8}},
    };
    cfg.fp = {{{6}}, {{6}}};
    cfg.headMlp = {6};
    PointNetPP model(cfg, 4);
    const PointCloud cloud = tinyCloud(24, 2);
    std::vector<std::int32_t> labels(cloud.size());
    Rng rng(5);
    for (auto &l : labels) {
        l = static_cast<std::int32_t>(rng.nextBelow(3));
    }
    checkGradients(model, cloud, EdgePcConfig::baseline(), labels);
}

TEST(GradCheck, PointNetPPSegmentationWithApproximations)
{
    // The gradients must also be consistent when the Morton kernels
    // are in the loop (the retraining path of Sec 5.3).
    PointNetPPConfig cfg;
    cfg.numClasses = 3;
    cfg.sa = {
        {8, 4, 0.5f, NeighborMode::BallQuery, {6}},
        {4, 2, 0.9f, NeighborMode::BallQuery, {8}},
    };
    cfg.fp = {{{6}}, {{6}}};
    cfg.headMlp = {6};
    PointNetPP model(cfg, 6);
    const PointCloud cloud = tinyCloud(24, 3);
    std::vector<std::int32_t> labels(cloud.size());
    Rng rng(7);
    for (auto &l : labels) {
        l = static_cast<std::int32_t>(rng.nextBelow(3));
    }
    checkGradients(model, cloud, EdgePcConfig::sn(), labels);
}

// The backward passes must stay numerically consistent under either
// GEMM microkernel build: the packed scalar kernel and the AVX2+FMA
// kernel round differently, and a gradient formula that only works at
// one rounding is a bug.
void
checkPointNetPPUnderDispatchPath(KernelBuild build, std::uint64_t seed)
{
    const test::BuildGuard guard(KernelFamily::Gemm, build);
    PointNetPPConfig cfg;
    cfg.numClasses = 3;
    cfg.sa = {
        {8, 4, 0.5f, NeighborMode::BallQuery, {6}},
        {4, 2, 0.9f, NeighborMode::BallQuery, {8}},
    };
    cfg.headMlp = {6};
    PointNetPP model(cfg, 3);
    const PointCloud cloud = tinyCloud(24, seed);
    checkGradients(model, cloud, EdgePcConfig::baseline(), {1});
}

TEST(GradCheck, PointNetPPForcedScalarGemm)
{
    checkPointNetPPUnderDispatchPath(KernelBuild::Scalar, 1);
}

TEST(GradCheck, PointNetPPForcedFastGemm)
{
    if (!nn::GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    checkPointNetPPUnderDispatchPath(KernelBuild::Avx2, 1);
}

TEST(GradCheck, DgcnnClassifierBaseline)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::Classification;
    cfg.numClasses = 3;
    cfg.k = 4;
    cfg.ecWidths = {6, 8};
    cfg.embeddingDim = 8;
    cfg.headMlp = {6};
    Dgcnn model(cfg, 8);
    const PointCloud cloud = tinyCloud(20, 4);
    checkGradients(model, cloud, EdgePcConfig::baseline(), {2});
}

// Delayed aggregation (DESIGN.md §13) reformulates the first Linear's
// backward as scatter-adds and segment sums; the gradients must agree
// with finite differences under both GEMM microkernel builds, exactly
// like the eager route.
void
checkDelayedBlocksUnderDispatchPath(KernelBuild build)
{
    const test::BuildGuard guard(KernelFamily::Gemm, build);
    EdgePcConfig delayed = EdgePcConfig::baseline();
    delayed.delayedAggregation = Route::On;

    {
        // Segmentation exercises the delayed dF path (level-1 SA
        // grouping carries features; level-0 is coordinates-only, so
        // both cache shapes are covered).
        PointNetPPConfig cfg;
        cfg.numClasses = 3;
        cfg.sa = {
            {8, 4, 0.5f, NeighborMode::BallQuery, {6}},
            {4, 2, 0.9f, NeighborMode::BallQuery, {8}},
        };
        cfg.fp = {{{6}}, {{6}}};
        cfg.headMlp = {6};
        PointNetPP model(cfg, 4);
        const PointCloud cloud = tinyCloud(24, 2);
        std::vector<std::int32_t> labels(cloud.size());
        Rng rng(5);
        for (auto &l : labels) {
            l = static_cast<std::int32_t>(rng.nextBelow(3));
        }
        checkGradients(model, cloud, delayed, labels);
    }
    {
        DgcnnConfig cfg;
        cfg.task = DgcnnTask::Classification;
        cfg.numClasses = 3;
        cfg.k = 4;
        cfg.ecWidths = {6, 8};
        cfg.embeddingDim = 8;
        cfg.headMlp = {6};
        Dgcnn model(cfg, 8);
        const PointCloud cloud = tinyCloud(20, 4);
        checkGradients(model, cloud, delayed, {2});
    }
}

TEST(GradCheck, DelayedBlocksForcedScalarGemm)
{
    checkDelayedBlocksUnderDispatchPath(KernelBuild::Scalar);
}

TEST(GradCheck, DelayedBlocksForcedFastGemm)
{
    if (!nn::GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    checkDelayedBlocksUnderDispatchPath(KernelBuild::Avx2);
}

// The split first Linears (DESIGN.md §13) reformulate the head's and
// the FP modules' first-Linear backward on the un-concatenated inputs.
// Their output is linear in every input, so with the loss
// L = sum(pre * R) for a fixed random R the central difference of each
// entry is exact up to rounding: check every entry.

/** sum(pre * r) in double. */
double
weightedSum(const nn::Matrix &pre, const nn::Matrix &r)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < pre.numel(); ++i) {
        sum += static_cast<double>(pre.data()[i]) * r.data()[i];
    }
    return sum;
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

/** Every entry of @p x: the central difference of @p loss against
    @p analytic. */
void
expectEntryGradients(nn::Matrix &x, const nn::Matrix &analytic,
                     const std::function<double()> &loss, const char *what)
{
    ASSERT_EQ(x.rows(), analytic.rows()) << what;
    ASSERT_EQ(x.cols(), analytic.cols()) << what;
    constexpr float eps = 0.05f;
    for (std::size_t j = 0; j < x.numel(); ++j) {
        const float saved = x.data()[j];
        x.data()[j] = saved + eps;
        const double lp = loss();
        x.data()[j] = saved - eps;
        const double lm = loss();
        x.data()[j] = saved;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double a = analytic.data()[j];
        EXPECT_NEAR(a, numeric, 2e-3 * std::max({1.0, std::abs(a)}))
            << what << " entry " << j;
    }
}

void
checkSplitFirstLinearsUnderDispatchPath(KernelBuild build)
{
    const test::BuildGuard guard(KernelFamily::Gemm, build);
    nn::GemmEngine &engine = EdgePcConfig::baseline().gemmRoute().engine;
    Rng rng(17);

    {
        // Head: [C | 1 p] W + b.
        nn::Matrix local = randomMatrix(rng, 6, 4);
        nn::Matrix global = randomMatrix(rng, 1, 5);
        nn::Parameter weight;
        nn::Parameter bias;
        weight.init(9, 7);
        bias.init(1, 7);
        weight.value = randomMatrix(rng, 9, 7);
        bias.value = randomMatrix(rng, 1, 7);
        const nn::Matrix r = randomMatrix(rng, 6, 7);
        auto loss = [&] {
            return weightedSum(
                nn::broadcastFirstLinear(local, global, weight.value,
                                         bias.value, engine, nullptr),
                r);
        };
        nn::BroadcastLinearCache cache;
        nn::broadcastFirstLinear(local, global, weight.value, bias.value,
                                 engine, &cache);
        auto [d_local, d_global] = nn::broadcastFirstLinearBackward(
            cache, r, weight, bias, engine);
        expectEntryGradients(weight.value, weight.grad, loss, "head dW");
        expectEntryGradients(bias.value, bias.grad, loss, "head db");
        expectEntryGradients(local, d_local, loss, "head dC");
        expectEntryGradients(global, d_global, loss, "head dp");
    }
    for (const std::size_t skip_cols : {std::size_t{3}, std::size_t{0}}) {
        // FP: [interp(F) | S] W + b, with and without skip columns;
        // duplicate sources in the plan collide in the scatter.
        nn::Matrix coarse = randomMatrix(rng, 4, 5);
        nn::Matrix skip = randomMatrix(rng, 7, skip_cols);
        InterpolationPlan plan;
        plan.k = 3;
        for (std::size_t t = 0; t < 7; ++t) {
            const std::uint32_t first =
                static_cast<std::uint32_t>(rng.nextBelow(4));
            plan.indices.insert(plan.indices.end(),
                                {first, first,
                                 static_cast<std::uint32_t>(
                                     rng.nextBelow(4))});
            plan.weights.insert(plan.weights.end(), {0.5f, 0.2f, 0.3f});
        }
        nn::Parameter weight;
        nn::Parameter bias;
        weight.init(5 + skip_cols, 6);
        bias.init(1, 6);
        weight.value = randomMatrix(rng, 5 + skip_cols, 6);
        bias.value = randomMatrix(rng, 1, 6);
        const nn::Matrix r = randomMatrix(rng, 7, 6);
        const std::size_t coarse_rows[] = {4};
        const InterpolationPlan *const plans[] = {&plan};
        auto loss = [&] {
            return weightedSum(
                nn::interpolatedFirstLinear(coarse, coarse_rows, plans, skip,
                                            weight.value, bias.value, engine,
                                            nullptr),
                r);
        };
        nn::InterpolatedLinearCache cache;
        nn::interpolatedFirstLinear(coarse, coarse_rows, plans, skip,
                                    weight.value, bias.value, engine,
                                    &cache);
        auto [d_coarse, d_skip] = nn::interpolatedFirstLinearBackward(
            cache, r, weight, bias, engine);
        expectEntryGradients(weight.value, weight.grad, loss, "fp dW");
        expectEntryGradients(bias.value, bias.grad, loss, "fp db");
        expectEntryGradients(coarse, d_coarse, loss, "fp dF");
        expectEntryGradients(skip, d_skip, loss, "fp dS");
    }
}

TEST(GradCheck, SplitFirstLinearsForcedScalarGemm)
{
    checkSplitFirstLinearsUnderDispatchPath(KernelBuild::Scalar);
}

TEST(GradCheck, SplitFirstLinearsForcedFastGemm)
{
    if (!nn::GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    checkSplitFirstLinearsUnderDispatchPath(KernelBuild::Avx2);
}

TEST(GradCheck, DgcnnSegmentationWithApproximations)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::SemanticSegmentation;
    cfg.numClasses = 3;
    cfg.k = 4;
    cfg.ecWidths = {6, 8};
    cfg.embeddingDim = 8;
    cfg.headMlp = {6};
    Dgcnn model(cfg, 9);
    const PointCloud cloud = tinyCloud(20, 5);
    std::vector<std::int32_t> labels(cloud.size());
    Rng rng(11);
    for (auto &l : labels) {
        l = static_cast<std::int32_t>(rng.nextBelow(3));
    }
    checkGradients(model, cloud, EdgePcConfig::sn(), labels);
}

} // namespace
} // namespace edgepc
