/** @file Integration tests for the InferencePipeline. */

#include <gtest/gtest.h>

#include <cstring>

#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "datasets/scenes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnetpp.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"

namespace edgepc {
namespace {

PointCloud
sceneCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    SceneOptions options;
    options.points = points;
    return makeScene(options, rng);
}

TEST(Pipeline, ProducesConsistentResult)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(512, 5), 7);
    InferencePipeline pipeline(model, EdgePcConfig::baseline());
    const PointCloud cloud = sceneCloud(512, 1);
    const PipelineResult result = pipeline.run(cloud);

    EXPECT_EQ(result.logits.rows(), cloud.size());
    EXPECT_GT(result.endToEndMs, 0.0);
    EXPECT_EQ(result.endToEndMs, result.stages.grandTotal());
    EXPECT_GT(result.sampleNeighborMs, 0.0);
    EXPECT_EQ(result.sampleNeighborMs,
              result.stages.total(kStageSample) +
                  result.stages.total(kStageNeighbor));
    EXPECT_LT(result.sampleNeighborMs, result.endToEndMs);
    EXPECT_GT(result.energyMj, 0.0);
}

TEST(Pipeline, SnVariantSpeedsUpSampleNeighbor)
{
    // Each variant is warmed once and scored by its best of 3 runs,
    // the runs of the two variants interleaved: a single cold run per
    // side let host noise in the (shared) feature stage flip the
    // comparison.
    PointNetPP model(PointNetPPConfig::liteSegmentation(4096, 5), 7);
    const PointCloud cloud = sceneCloud(4096, 2);
    InferencePipeline pipelines[] = {
        InferencePipeline(model, EdgePcConfig::baseline()),
        InferencePipeline(model, EdgePcConfig::sn())};
    PipelineResult best[2];
    for (int run = -1; run < 3; ++run) { // run -1 warms both up
        for (int v = 0; v < 2; ++v) {
            const PipelineResult r = pipelines[v].run(cloud);
            if (run < 0) {
                continue;
            }
            if (run == 0 || r.sampleNeighborMs < best[v].sampleNeighborMs) {
                best[v].sampleNeighborMs = r.sampleNeighborMs;
            }
            if (run == 0 || r.energyMj < best[v].energyMj) {
                best[v].energyMj = r.energyMj;
            }
        }
    }
    const PipelineResult &rb = best[0];
    const PipelineResult &rs = best[1];
    EXPECT_LT(rs.sampleNeighborMs, rb.sampleNeighborMs);
    EXPECT_LT(rs.energyMj, rb.energyMj);
}

TEST(Pipeline, TensorCoreVariantSetsGemmMode)
{
    // The variant alone picks its run's engine; running another
    // variant first changes nothing.
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline(model, EdgePcConfig::snf()).run(sceneCloud(256, 5));
    EXPECT_EQ(EdgePcConfig::baseline().gemmRoute().engine.mode(),
              nn::GemmMode::Scalar);
    EXPECT_EQ(EdgePcConfig::sn().gemmRoute().engine.mode(),
              nn::GemmMode::Scalar);
    InferencePipeline(model, EdgePcConfig::baseline()).run(sceneCloud(256, 6));
    EXPECT_EQ(EdgePcConfig::snf().gemmRoute().engine.mode(),
              nn::GemmMode::Auto);
}

bool
sameBits(const nn::Matrix &a, const nn::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

std::uint64_t
fastPathCalls()
{
    return obs::MetricsRegistry::global()
        .counter("gemm.fast_path_calls")
        .value();
}

TEST(Pipeline, DirectInferFollowsItsOwnVariant)
{
    // A direct infer() runs on the engine of the config it is given: no
    // pipeline has to set it first, and no pipeline run changes it.
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    const PointCloud cloud = sceneCloud(256, 8);

    std::uint64_t before = fastPathCalls();
    (void)model.infer(cloud, EdgePcConfig::snf());
    if (nn::GemmEngine::fastKernelAvailable()) {
        EXPECT_GT(fastPathCalls(), before)
            << "an S+N+F infer made no fast-path GEMM call";
    }

    const nn::Matrix first = model.infer(cloud, EdgePcConfig::baseline());
    (void)InferencePipeline(model, EdgePcConfig::snf())
        .run(sceneCloud(256, 9));
    before = fastPathCalls();
    const nn::Matrix second = model.infer(cloud, EdgePcConfig::baseline());
    EXPECT_EQ(fastPathCalls(), before)
        << "a baseline infer made a fast-path GEMM call";
    EXPECT_TRUE(sameBits(second, first))
        << "an S+N+F pipeline run changed a later baseline infer";
}

TEST(Pipeline, ConfigSwappable)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline pipeline(model, EdgePcConfig::baseline());
    EXPECT_EQ(pipeline.config().variant, PipelineVariant::Baseline);
    pipeline.setConfig(EdgePcConfig::sn());
    EXPECT_EQ(pipeline.config().variant, PipelineVariant::SN);
    EXPECT_TRUE(pipeline.config().approximate());
}

TEST(Pipeline, VariantNames)
{
    EXPECT_EQ(variantName(PipelineVariant::Baseline), "baseline");
    EXPECT_EQ(variantName(PipelineVariant::SN), "S+N");
    EXPECT_EQ(variantName(PipelineVariant::SNF), "S+N+F");
}

} // namespace
} // namespace edgepc
