/** @file Integration tests for the PointNet++, DGCNN and PointNet models. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "datasets/scenes.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"
#include "models/pointnetpp.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"

namespace edgepc {
namespace {

/**
 * @p cfg with the int8 GEMM route off and delayed aggregation
 * @p delayed: the delayed-vs-eager and training parity tests assert
 * fp32 reassociation budgets (quantization error is budgeted in
 * test_quant.cpp, not here).
 */
EdgePcConfig
fp32(EdgePcConfig cfg, Route delayed = dispatchEnv().delayedAggregation)
{
    cfg.int8Gemm = Route::Off;
    cfg.delayedAggregation = delayed;
    return cfg;
}

PointCloud
makeCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    ShapeOptions options;
    options.points = points;
    return makeShape(ShapeClass::Torus, options, rng);
}

void
expectFinite(const nn::Matrix &m)
{
    for (std::size_t i = 0; i < m.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(m.data()[i])) << "element " << i;
    }
}

TEST(PointNetPP, SegmentationForwardShapes)
{
    const PointCloud cloud = makeCloud(256, 1);
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    EXPECT_FALSE(model.isClassifier());

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), cloud.size());
    EXPECT_EQ(logits.cols(), 5u);
    expectFinite(logits);
}

TEST(PointNetPP, ClassificationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 2);
    PointNetPP model(PointNetPPConfig::liteClassification(128, 8), 7);
    EXPECT_TRUE(model.isClassifier());

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), 1u);
    EXPECT_EQ(logits.cols(), 8u);
    expectFinite(logits);
}

TEST(PointNetPP, ApproximateConfigAlsoRuns)
{
    const PointCloud cloud = makeCloud(256, 3);
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    const nn::Matrix logits = model.infer(cloud, EdgePcConfig::sn());
    EXPECT_EQ(logits.rows(), cloud.size());
    expectFinite(logits);
}

TEST(PointNetPP, StageTimerCoversAllStages)
{
    const PointCloud cloud = makeCloud(512, 4);
    PointNetPP model(PointNetPPConfig::liteSegmentation(512, 5), 7);
    // The group stage times the eager SA grouping. On the delayed route
    // every gather (SA neighborhoods and FP interpolations alike) runs
    // inside a first Linear (DESIGN.md §13), so the stage stays empty.
    for (const Route delayed : {Route::Off, Route::On}) {
        EdgePcConfig cfg = EdgePcConfig::baseline();
        cfg.delayedAggregation = delayed;
        StageTimer timer;
        model.infer(cloud, cfg, &timer);
        EXPECT_GT(timer.total(kStageSample), 0.0);
        EXPECT_GT(timer.total(kStageNeighbor), 0.0);
        EXPECT_GT(timer.total(kStageFeature), 0.0);
        if (delayed == Route::Off) {
            EXPECT_GT(timer.total(kStageGroup), 0.0);
        } else {
            EXPECT_EQ(timer.total(kStageGroup), 0.0);
        }
    }
}

TEST(PointNetPP, MortonSamplingFasterOnLargeClouds)
{
    const PointCloud cloud = makeCloud(4096, 5);
    PointNetPP model(PointNetPPConfig::liteSegmentation(4096, 5), 7);

    // Each variant is warmed once and scored by its best of 3 runs, the
    // runs of the two variants interleaved: a single cold run per side
    // let host noise flip the comparison.
    const EdgePcConfig variants[] = {EdgePcConfig::baseline(),
                                     EdgePcConfig::sn()};
    double best[2] = {0.0, 0.0};
    for (int run = -1; run < 3; ++run) { // run -1 warms both up
        for (int v = 0; v < 2; ++v) {
            StageTimer timer;
            model.infer(cloud, variants[v], &timer);
            const double ms =
                timer.total(kStageSample) + timer.total(kStageNeighbor);
            if (run == 0 || (run > 0 && ms < best[v])) {
                best[v] = ms;
            }
        }
    }
    const double base_sn = best[0];
    const double approx_sn = best[1];
    EXPECT_LT(approx_sn, base_sn);
}

TEST(PointNetPP, DeterministicAcrossRuns)
{
    const PointCloud cloud = makeCloud(128, 6);
    PointNetPP model(PointNetPPConfig::liteClassification(128, 8), 7);
    const nn::Matrix a = model.infer(cloud, EdgePcConfig::baseline());
    const nn::Matrix b = model.infer(cloud, EdgePcConfig::baseline());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
    }
}

TEST(PointNetPP, PaperScaleConfigConstructs)
{
    const auto cfg = PointNetPPConfig::semanticSegmentation(8192, 13);
    ASSERT_EQ(cfg.sa.size(), 4u);
    ASSERT_EQ(cfg.fp.size(), 4u);
    EXPECT_EQ(cfg.sa[0].points, 1024u);
    EXPECT_EQ(cfg.sa[3].points, 16u);
    PointNetPP model(cfg, 7); // constructs all weights
    std::vector<nn::Parameter *> params;
    model.collectParameters(params);
    EXPECT_GT(params.size(), 40u);
}

// ---------------------------------------------------------------------
// One geometry plan, two feature routes: the training forward keeps
// its layer caches for backward but must compute exactly what
// inference computes, and inference must leave those caches alone.
// ---------------------------------------------------------------------

/** Elements of @p a that differ from @p b bit for bit (a shape
    mismatch counts every element). */
std::size_t
differingValues(const nn::Matrix &a, const nn::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return std::max(a.numel(), b.numel());
    }
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
            ++differing;
        }
    }
    return differing;
}

TEST(PointNetPP, TrainingForwardMatchesInference)
{
    // Training always runs fp32, so inference does too here.
    const PointCloud seg_cloud = makeCloud(256, 31);
    const PointCloud cls_cloud = makeCloud(128, 32);
    for (const Route delayed : {Route::Off, Route::On, Route::Auto}) {
        for (const bool classifier : {false, true}) {
            PointNetPP model(
                classifier ? PointNetPPConfig::liteClassification(128, 8)
                           : PointNetPPConfig::liteSegmentation(256, 5),
                7);
            const PointCloud &cloud = classifier ? cls_cloud : seg_cloud;
            for (const EdgePcConfig &variant :
                 {EdgePcConfig::baseline(), EdgePcConfig::sn(),
                  EdgePcConfig::snf()}) {
                const EdgePcConfig config = fp32(variant, delayed);
                const nn::Matrix inferred = model.infer(cloud, config);
                const nn::Matrix trained =
                    model.forward(cloud, config, nullptr, true);
                EXPECT_EQ(differingValues(trained, inferred), 0u)
                    << (classifier ? "classifier" : "segmentation")
                    << " delayed " << routeName(delayed) << " variant "
                    << variantName(config.variant);
            }
        }
    }
}

TEST(PointNetPP, InferBetweenForwardAndBackwardKeepsGradients)
{
    const PointCloud cloud = makeCloud(256, 33);
    const PointCloud other = makeCloud(192, 34);
    std::vector<std::int32_t> labels(cloud.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<std::int32_t>(i % 5);
    }

    // One training step's parameter gradients, with or without an
    // inference call on another cloud between forward and backward.
    auto step_gradients = [&](Route delayed, bool infer_between) {
        const EdgePcConfig config = fp32(EdgePcConfig::sn(), delayed);
        PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
        std::vector<nn::Parameter *> params;
        model.collectParameters(params);
        for (nn::Parameter *p : params) {
            p->zeroGrad();
        }
        const nn::Matrix logits =
            model.forward(cloud, config, nullptr, true);
        if (infer_between) {
            model.infer(other, config);
        }
        model.backward(nn::softmaxCrossEntropy(logits, labels).gradLogits);
        std::vector<nn::Matrix> grads;
        for (const nn::Parameter *p : params) {
            grads.push_back(p->grad);
        }
        return grads;
    };

    for (const Route delayed : {Route::Off, Route::On}) {
        const std::vector<nn::Matrix> plain = step_gradients(delayed, false);
        const std::vector<nn::Matrix> interleaved =
            step_gradients(delayed, true);
        ASSERT_EQ(plain.size(), interleaved.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(differingValues(interleaved[i], plain[i]), 0u)
                << "parameter " << i << " delayed " << routeName(delayed);
        }
    }
}

TEST(Dgcnn, TrainingForwardMatchesInference)
{
    // Training always runs fp32, so inference does too here.
    const PointCloud cloud = makeCloud(96, 35);
    for (const Route delayed : {Route::Off, Route::On, Route::Auto}) {
        for (const bool classifier : {false, true}) {
            Dgcnn model(classifier ? DgcnnConfig::liteClassification(8)
                                   : DgcnnConfig::liteSegmentation(5),
                        7);
            for (const EdgePcConfig &variant :
                 {EdgePcConfig::baseline(), EdgePcConfig::sn(),
                  EdgePcConfig::snf()}) {
                const EdgePcConfig config = fp32(variant, delayed);
                const nn::Matrix inferred = model.infer(cloud, config);
                const nn::Matrix trained =
                    model.forward(cloud, config, nullptr, true);
                EXPECT_EQ(differingValues(trained, inferred), 0u)
                    << (classifier ? "classifier" : "segmentation")
                    << " delayed " << routeName(delayed) << " variant "
                    << variantName(config.variant);
            }
        }
    }
}

TEST(PointNet, TrainingForwardMatchesInference)
{
    const PointCloud cloud = makeCloud(96, 36);
    for (const bool segmentation : {true, false}) {
        PointNet model(segmentation
                           ? PointNetConfig::segmentationConfig(5)
                           : PointNetConfig::classification(8),
                       7);
        for (const EdgePcConfig &variant :
             {EdgePcConfig::baseline(), EdgePcConfig::sn(),
              EdgePcConfig::snf()}) {
            const EdgePcConfig config = fp32(variant);
            const nn::Matrix inferred = model.infer(cloud, config);
            const nn::Matrix trained =
                model.forward(cloud, config, nullptr, true);
            EXPECT_EQ(differingValues(trained, inferred), 0u)
                << (segmentation ? "segmentation" : "classifier")
                << " variant " << variantName(config.variant);
        }
    }
}

/** One training step's parameter gradients on @p cloud, with or
    without an inference call on @p other between forward and
    backward. */
std::vector<nn::Matrix>
stepGradients(TrainableModel &model, const PointCloud &cloud,
              const PointCloud *other, const EdgePcConfig &config)
{
    std::vector<nn::Parameter *> params;
    model.collectParameters(params);
    for (nn::Parameter *p : params) {
        p->zeroGrad();
    }
    std::vector<std::int32_t> labels(cloud.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<std::int32_t>(i % model.numClasses());
    }
    const nn::Matrix logits = model.forward(cloud, config, nullptr, true);
    if (other != nullptr) {
        model.infer(*other, config);
    }
    model.backward(nn::softmaxCrossEntropy(logits, labels).gradLogits);
    std::vector<nn::Matrix> grads;
    for (const nn::Parameter *p : params) {
        grads.push_back(p->grad);
    }
    return grads;
}

void
expectSameGradients(const std::vector<nn::Matrix> &a,
                    const std::vector<nn::Matrix> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(differingValues(a[i], b[i]), 0u)
            << what << " parameter " << i;
    }
}

TEST(Dgcnn, InferBetweenForwardAndBackwardKeepsGradients)
{
    const PointCloud cloud = makeCloud(96, 37);
    const PointCloud other = makeCloud(72, 38);
    for (const Route delayed : {Route::Off, Route::On}) {
        const EdgePcConfig config = fp32(EdgePcConfig::sn(), delayed);
        Dgcnn plain_model(DgcnnConfig::liteSegmentation(5), 7);
        Dgcnn interleaved_model(DgcnnConfig::liteSegmentation(5), 7);
        expectSameGradients(
            stepGradients(interleaved_model, cloud, &other, config),
            stepGradients(plain_model, cloud, nullptr, config),
            delayed == Route::On ? "delayed" : "eager");
    }
}

TEST(PointNet, InferBetweenForwardAndBackwardKeepsGradients)
{
    const PointCloud cloud = makeCloud(96, 39);
    const PointCloud other = makeCloud(72, 40);
    const EdgePcConfig config = fp32(EdgePcConfig::baseline());
    PointNet plain_model(PointNetConfig::segmentationConfig(5), 7);
    PointNet interleaved_model(PointNetConfig::segmentationConfig(5), 7);
    expectSameGradients(
        stepGradients(interleaved_model, cloud, &other, config),
        stepGradients(plain_model, cloud, nullptr, config), "segmentation");
}

// Inference writes no model member, so two threads may infer on one
// model at once. Named ConcurrentInfer* so the TSan CI gate runs it
// under the thread sanitizer.

/** Two threads infer every cloud on @p model at once, twice each;
    every output must equal the serial infer() bit for bit. */
void
expectConcurrentInferMatchesSerial(PointCloudModel &model,
                                   const std::vector<PointCloud> &clouds,
                                   const EdgePcConfig &config)
{
    std::vector<nn::Matrix> serial;
    for (const PointCloud &cloud : clouds) {
        serial.push_back(model.infer(cloud, config));
    }
    std::vector<std::vector<nn::Matrix>> outputs(2);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < 2; ++round) {
                for (std::size_t c = 0; c < clouds.size(); ++c) {
                    // The threads walk the clouds in opposite orders.
                    const std::size_t i = t == 0 ? c : clouds.size() - 1 - c;
                    outputs[t].push_back(model.infer(clouds[i], config));
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (std::size_t t = 0; t < 2; ++t) {
        ASSERT_EQ(outputs[t].size(), 2 * clouds.size());
        for (std::size_t j = 0; j < outputs[t].size(); ++j) {
            const std::size_t c = j % clouds.size();
            const std::size_t i = t == 0 ? c : clouds.size() - 1 - c;
            EXPECT_EQ(differingValues(outputs[t][j], serial[i]), 0u)
                << "thread " << t << " output " << j;
        }
    }
}

TEST(ConcurrentInfer, EveryModelMatchesSerial)
{
    const std::vector<PointCloud> clouds = {makeCloud(96, 41),
                                            makeCloud(128, 42),
                                            makeCloud(80, 43)};
    {
        Dgcnn model(DgcnnConfig::partSegmentation(6), 7);
        expectConcurrentInferMatchesSerial(model, clouds,
                                           fp32(EdgePcConfig::snf()));
    }
    {
        PointNet model(PointNetConfig::segmentationConfig(5), 7);
        expectConcurrentInferMatchesSerial(model, clouds,
                                           fp32(EdgePcConfig::baseline()));
    }
    // One thread plans a PointNet++ frame while the other executes
    // another frame's plan.
    for (const Route delayed : {Route::Off, Route::On}) {
        PointNetPP model(PointNetPPConfig::liteSegmentation(96, 5), 7);
        expectConcurrentInferMatchesSerial(
            model, clouds, fp32(EdgePcConfig::snf(), delayed));
    }
}

/**
 * On each of two threads an InferencePipeline of its own variant runs
 * @p frames frames on the shared @p model: S+N+F (the fast-path GEMM
 * policy) on one, the baseline (the scalar one) on the other. Every
 * frame must equal that pipeline's serial run bit for bit: the variant
 * reaches the GEMMs by argument, so neither run can set the other's
 * policy.
 */
void
expectMixedVariantPipelinesMatchSerial(PointCloudModel &model,
                                       const std::vector<PointCloud> &clouds,
                                       std::size_t frames)
{
    const EdgePcConfig configs[] = {EdgePcConfig::snf(),
                                    EdgePcConfig::baseline()};
    std::vector<std::vector<nn::Matrix>> serial(2);
    for (std::size_t t = 0; t < 2; ++t) {
        InferencePipeline pipeline(model, configs[t]);
        for (const PointCloud &cloud : clouds) {
            serial[t].push_back(pipeline.run(cloud).logits);
        }
    }
    std::vector<std::vector<nn::Matrix>> outputs(2);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            InferencePipeline pipeline(model, configs[t]);
            for (std::size_t f = 0; f < frames; ++f) {
                outputs[t].push_back(
                    pipeline.run(clouds[f % clouds.size()]).logits);
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (std::size_t t = 0; t < 2; ++t) {
        ASSERT_EQ(outputs[t].size(), frames);
        std::size_t differing_frames = 0;
        for (std::size_t f = 0; f < frames; ++f) {
            const nn::Matrix &want = serial[t][f % clouds.size()];
            differing_frames += differingValues(outputs[t][f], want) > 0;
        }
        EXPECT_EQ(differing_frames, 0u)
            << variantName(configs[t].variant) << " pipeline, of "
            << frames << " frames";
    }
}

TEST(ConcurrentInfer, MixedVariantPipelinesMatchSerial)
{
    const std::vector<PointCloud> clouds = {makeCloud(96, 44),
                                            makeCloud(128, 45),
                                            makeCloud(80, 46),
                                            makeCloud(112, 47)};
    {
        Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
        expectMixedVariantPipelinesMatchSerial(model, clouds, 20);
    }
    {
        PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
        expectMixedVariantPipelinesMatchSerial(model, clouds, 20);
    }
}

// ---------------------------------------------------------------------
// Delayed-aggregation accuracy parity (DESIGN.md §13): the delayed and
// eager routes share parameters, so same-seed models must produce the
// same logits on the three synthetic tasks, up to the float
// reassociation the route swap introduces.
// ---------------------------------------------------------------------

void
expectLogitsNear(const nn::Matrix &a, const nn::Matrix &b, float tol)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "logit " << i;
    }
}

/**
 * One model, run eager and then delayed on @p cloud under @p variant
 * with int8 off: the logits agree within the reassociation budget, and
 * the group stage shows that each run took its route (the delayed
 * route gathers inside its first Linear, DESIGN.md §13), whatever
 * EDGEPC_DELAYED_AGG defaults to.
 */
void
expectDelayedMatchesEager(PointCloudModel &model, const PointCloud &cloud,
                          const EdgePcConfig &variant)
{
    StageTimer eager_t;
    StageTimer delayed_t;
    const nn::Matrix eager =
        model.infer(cloud, fp32(variant, Route::Off), &eager_t);
    const nn::Matrix delayed =
        model.infer(cloud, fp32(variant, Route::On), &delayed_t);
    EXPECT_GT(eager_t.total(kStageGroup), 0.0) << "eager run grouped";
    EXPECT_EQ(delayed_t.total(kStageGroup), 0.0)
        << "delayed run grouped eagerly";
    expectLogitsNear(eager, delayed, 5e-3f);
}

TEST(PointNetPP, DelayedAggregationMatchesEagerClassification)
{
    PointNetPP model(PointNetPPConfig::liteClassification(128, 8), 7);
    expectDelayedMatchesEager(model, makeCloud(128, 21),
                              EdgePcConfig::baseline());
}

TEST(PointNetPP, DelayedAggregationMatchesEagerSegmentation)
{
    const PointCloud cloud = makeCloud(256, 22);
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    // The approximate config also runs both routes (Morton kernels
    // change the neighbor lists, not the commute argument).
    for (const EdgePcConfig &variant :
         {EdgePcConfig::baseline(), EdgePcConfig::sn()}) {
        expectDelayedMatchesEager(model, cloud, variant);
    }
}

TEST(Dgcnn, DelayedAggregationMatchesEagerClassification)
{
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    expectDelayedMatchesEager(model, makeCloud(128, 23),
                              EdgePcConfig::baseline());
}

TEST(Dgcnn, DelayedAggregationMatchesEagerSegmentation)
{
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    expectDelayedMatchesEager(model, makeCloud(96, 24),
                              EdgePcConfig::baseline());
}

TEST(Dgcnn, ClassificationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 8);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    EXPECT_TRUE(model.isClassifier());
    EXPECT_EQ(model.name(), "dgcnn(c)");

    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), 1u);
    EXPECT_EQ(logits.cols(), 8u);
    expectFinite(logits);
}

TEST(Dgcnn, SegmentationForwardShapes)
{
    const PointCloud cloud = makeCloud(128, 9);
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    const nn::Matrix logits =
        model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(logits.rows(), cloud.size());
    EXPECT_EQ(logits.cols(), 5u);
    expectFinite(logits);
}

TEST(Dgcnn, ApproximateAndReuseRun)
{
    const PointCloud cloud = makeCloud(256, 10);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    EdgePcConfig cfg = EdgePcConfig::sn();
    cfg.reuseDistance = 1;
    const nn::Matrix logits = model.infer(cloud, cfg);
    expectFinite(logits);
}

TEST(Dgcnn, NeighborStageCheaperWithApproximation)
{
    const PointCloud cloud = makeCloud(2048, 11);
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);

    StageTimer base_t, sn_t;
    model.infer(cloud, EdgePcConfig::baseline(), &base_t);
    model.infer(cloud, EdgePcConfig::sn(), &sn_t);
    EXPECT_LT(sn_t.total(kStageNeighbor),
              base_t.total(kStageNeighbor));
}

TEST(Dgcnn, PaperScaleConfigsConstruct)
{
    Dgcnn cls(DgcnnConfig::classification(40), 7);
    Dgcnn part(DgcnnConfig::partSegmentation(50), 7);
    Dgcnn seg(DgcnnConfig::semanticSegmentation(13), 7);
    EXPECT_EQ(cls.name(), "dgcnn(c)");
    EXPECT_EQ(part.name(), "dgcnn(p)");
    EXPECT_EQ(seg.name(), "dgcnn(s)");
}

} // namespace
} // namespace edgepc
