/** @file Unit tests for weight serialization. */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "datasets/shapes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnetpp.hpp"
#include "nn/quant.hpp"
#include "nn/serialization.hpp"

namespace edgepc {
namespace {

/**
 * The baseline with the delayed route @p delayed and int8 off: the
 * eager/delayed logit parity asserted below is an fp32 reassociation
 * bound, whatever the environment defaults to.
 */
EdgePcConfig
fp32Config(Route delayed)
{
    EdgePcConfig cfg = EdgePcConfig::baseline();
    cfg.delayedAggregation = delayed;
    cfg.int8Gemm = Route::Off;
    return cfg;
}

TEST(Serialization, StreamRoundTrip)
{
    Rng rng(1);
    nn::Parameter a, b;
    a.init(3, 4);
    b.init(1, 2);
    a.value.fillNormal(rng, 1.0f);
    b.value.fillNormal(rng, 1.0f);

    std::stringstream ss;
    ASSERT_TRUE(nn::saveParameters({&a, &b}, ss));

    nn::Parameter a2, b2;
    a2.init(3, 4);
    b2.init(1, 2);
    ASSERT_TRUE(nn::loadParameters({&a2, &b2}, ss));
    for (std::size_t i = 0; i < a.value.numel(); ++i) {
        EXPECT_FLOAT_EQ(a2.value.data()[i], a.value.data()[i]);
    }
    for (std::size_t i = 0; i < b.value.numel(); ++i) {
        EXPECT_FLOAT_EQ(b2.value.data()[i], b.value.data()[i]);
    }
}

TEST(Serialization, RejectsBadMagic)
{
    std::stringstream ss("garbage data here");
    nn::Parameter p;
    p.init(1, 1);
    EXPECT_FALSE(nn::loadParameters({&p}, ss));
}

TEST(Serialization, RejectsCountMismatch)
{
    nn::Parameter a;
    a.init(2, 2);
    std::stringstream ss;
    ASSERT_TRUE(nn::saveParameters({&a}, ss));
    nn::Parameter b, c;
    b.init(2, 2);
    c.init(2, 2);
    EXPECT_FALSE(nn::loadParameters({&b, &c}, ss));
}

TEST(Serialization, RejectsShapeMismatch)
{
    nn::Parameter a;
    a.init(2, 2);
    std::stringstream ss;
    ASSERT_TRUE(nn::saveParameters({&a}, ss));
    nn::Parameter b;
    b.init(2, 3);
    EXPECT_FALSE(nn::loadParameters({&b}, ss));
}

TEST(Serialization, RejectsTruncatedStream)
{
    nn::Parameter a;
    a.init(8, 8);
    std::stringstream ss;
    ASSERT_TRUE(nn::saveParameters({&a}, ss));
    const std::string full = ss.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    nn::Parameter b;
    b.init(8, 8);
    EXPECT_FALSE(nn::loadParameters({&b}, truncated));
}

TEST(Serialization, ModelRoundTripPreservesInference)
{
    Rng rng(3);
    ShapeOptions options;
    options.points = 64;
    const PointCloud cloud = makeShape(ShapeClass::Cube, options, rng);

    Dgcnn source(DgcnnConfig::liteClassification(8), 11);
    Dgcnn target(DgcnnConfig::liteClassification(8), 99);

    const std::string path = "/tmp/edgepc_weights_test.bin";
    std::vector<nn::Parameter *> src_params, dst_params;
    source.collectParameters(src_params);
    target.collectParameters(dst_params);
    ASSERT_TRUE(nn::saveParameters(src_params, path));
    ASSERT_TRUE(nn::loadParameters(dst_params, path));
    std::remove(path.c_str());

    const nn::Matrix a = source.infer(cloud, EdgePcConfig::baseline());
    const nn::Matrix b = target.infer(cloud, EdgePcConfig::baseline());
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]) << "logit " << i;
    }
}

TEST(Serialization, EagerCheckpointLoadsIntoDelayedBlocksAndBack)
{
    // Delayed aggregation is an execution route, not a parameter
    // layout: a checkpoint written by an eager model must load into a
    // model run delayed (same stream, logits within reassociation
    // distance) and a checkpoint written back by the delayed model
    // must reproduce the eager model's logits bit-exactly.
    Rng rng(7);
    ShapeOptions options;
    options.points = 64;
    const PointCloud cloud = makeShape(ShapeClass::Cube, options, rng);
    const EdgePcConfig eager_cfg = fp32Config(Route::Off);
    const EdgePcConfig delayed_cfg = fp32Config(Route::On);

    Dgcnn eager(DgcnnConfig::liteClassification(8), 11);
    Dgcnn delayed(DgcnnConfig::liteClassification(8), 99);

    std::stringstream ss;
    std::vector<nn::Parameter *> ep, dp;
    eager.collectParameters(ep);
    delayed.collectParameters(dp);
    ASSERT_EQ(ep.size(), dp.size());
    ASSERT_TRUE(nn::saveParameters(ep, ss));
    ASSERT_TRUE(nn::loadParameters(dp, ss));

    const nn::Matrix a = eager.infer(cloud, eager_cfg);
    const nn::Matrix b = delayed.infer(cloud, delayed_cfg);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.data()[i], b.data()[i], 5e-3) << "logit " << i;
    }

    // And back: the delayed model's checkpoint restores the eager
    // route exactly (identical parameter stream either way).
    std::stringstream back_ss;
    ASSERT_TRUE(nn::saveParameters(dp, back_ss));
    Dgcnn back(DgcnnConfig::liteClassification(8), 5);
    std::vector<nn::Parameter *> bp;
    back.collectParameters(bp);
    ASSERT_TRUE(nn::loadParameters(bp, back_ss));
    const nn::Matrix c = back.infer(cloud, eager_cfg);
    ASSERT_EQ(a.numel(), c.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[i], c.data()[i]) << "logit " << i;
    }
}

TEST(Serialization, EagerCheckpointLoadsIntoDelayedPointNetPP)
{
    Rng rng(9);
    ShapeOptions options;
    options.points = 64;
    const PointCloud cloud = makeShape(ShapeClass::Torus, options, rng);

    PointNetPP eager(PointNetPPConfig::liteSegmentation(64, 5), 31);
    PointNetPP delayed(PointNetPPConfig::liteSegmentation(64, 5), 77);

    std::stringstream ss;
    std::vector<nn::Parameter *> ep, dp;
    eager.collectParameters(ep);
    delayed.collectParameters(dp);
    ASSERT_EQ(ep.size(), dp.size());
    ASSERT_TRUE(nn::saveParameters(ep, ss));
    ASSERT_TRUE(nn::loadParameters(dp, ss));

    const nn::Matrix a = eager.infer(cloud, fp32Config(Route::Off));
    const nn::Matrix b = delayed.infer(cloud, fp32Config(Route::On));
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.data()[i], b.data()[i], 5e-3) << "logit " << i;
    }
}

TEST(Serialization, ModelStateIncludesBatchNormStatistics)
{
    Rng rng(5);
    ShapeOptions options;
    options.points = 64;
    const PointCloud cloud = makeShape(ShapeClass::Torus, options, rng);

    // Train-mode forwards move the source's BN running statistics
    // away from their defaults.
    Dgcnn source(DgcnnConfig::liteClassification(8), 21);
    for (int i = 0; i < 5; ++i) {
        source.forward(cloud, EdgePcConfig::baseline(), nullptr, true);
    }
    Dgcnn target(DgcnnConfig::liteClassification(8), 22);

    std::vector<nn::Parameter *> sp, tp;
    std::vector<std::vector<float> *> sb, tb;
    source.collectParameters(sp);
    source.collectBuffers(sb);
    target.collectParameters(tp);
    target.collectBuffers(tb);
    ASSERT_FALSE(sb.empty());

    std::stringstream ss;
    ASSERT_TRUE(nn::saveModelState(sp, sb, ss));
    ASSERT_TRUE(nn::loadModelState(tp, tb, ss));

    // Inference (which reads the running stats) must now agree.
    const nn::Matrix a = source.infer(cloud, EdgePcConfig::baseline());
    const nn::Matrix b = target.infer(cloud, EdgePcConfig::baseline());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
    }
}

TEST(Serialization, ModelStateRejectsBufferMismatch)
{
    nn::Parameter p;
    p.init(1, 1);
    std::vector<float> buf_a(4, 1.0f);
    std::stringstream ss;
    ASSERT_TRUE(nn::saveModelState({&p}, {&buf_a}, ss));
    std::vector<float> wrong_size(5, 0.0f);
    EXPECT_FALSE(nn::loadModelState({&p}, {&wrong_size}, ss));
}

TEST(Serialization, MissingFileFails)
{
    nn::Parameter p;
    p.init(1, 1);
    EXPECT_FALSE(nn::loadParameters({&p}, "/nonexistent/w.bin"));
    EXPECT_FALSE(nn::saveParameters({&p}, "/nonexistent/dir/w.bin"));
}

} // namespace
} // namespace edgepc
