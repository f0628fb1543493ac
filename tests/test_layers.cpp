/** @file Unit tests for NN layers (forward behaviour). */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace edgepc {
namespace nn {
namespace {

/** fp32 on the scalar engine: the int8 route is Off whatever the
    environment says. */
const GemmRoute kFp32{GemmEngine::shared(GemmMode::Scalar)};

TEST(Linear, ForwardAppliesWeightsAndBias)
{
    Rng rng(1);
    Linear layer(2, 1, rng);
    layer.weights().value.at(0, 0) = 2.0f;
    layer.weights().value.at(1, 0) = -1.0f;
    layer.biases().value.at(0, 0) = 0.5f;

    Matrix x(1, 2, {3, 4});
    const Matrix y = layer.forward(x, kFp32, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3 * 2 - 4 + 0.5f);
}

TEST(Linear, ShapePropagation)
{
    Rng rng(2);
    Linear layer(8, 16, rng);
    Matrix x(10, 8);
    const Matrix y = layer.forward(x, kFp32, false);
    EXPECT_EQ(y.rows(), 10u);
    EXPECT_EQ(y.cols(), 16u);
    EXPECT_EQ(layer.inDim(), 8u);
    EXPECT_EQ(layer.outDim(), 16u);
}

TEST(ReLU, ClampsNegatives)
{
    ReLU relu;
    Matrix x(1, 4, {-1, 0, 2, -3});
    const Matrix y = relu.forward(x, kFp32, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 3), 0.0f);
}

TEST(ReLU, BackwardMasksGradient)
{
    ReLU relu;
    Matrix x(1, 3, {-1, 1, 2});
    relu.forward(x, kFp32, true);
    Matrix dy(1, 3, {10, 20, 30});
    const Matrix dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 1), 20.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 2), 30.0f);
}

TEST(LeakyReLU, ScalesNegativesBySlope)
{
    LeakyReLU lrelu(0.2f);
    Matrix x(1, 3, {-10, 0, 5});
    const Matrix y = lrelu.forward(x, kFp32, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), -2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(LeakyReLU, BackwardScalesMaskedGradients)
{
    LeakyReLU lrelu(0.25f);
    Matrix x(1, 2, {-1, 2});
    lrelu.forward(x, kFp32, true);
    Matrix dy(1, 2, {8, 8});
    const Matrix dx = lrelu.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 2.0f); // 8 * 0.25
    EXPECT_FLOAT_EQ(dx.at(0, 1), 8.0f);
}

TEST(LeakyReLU, NeverFullyBlocksGradient)
{
    // Unlike ReLU, every unit passes some gradient — the property
    // that keeps the pre-pool features of DGCNN alive.
    LeakyReLU lrelu;
    Matrix x(1, 4, {-5, -1, -0.1f, -100});
    lrelu.forward(x, kFp32, true);
    Matrix dy(1, 4, {1, 1, 1, 1});
    const Matrix dx = lrelu.backward(dy);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_GT(dx.at(0, c), 0.0f);
    }
}

TEST(BatchNorm, NormalizesBatchStatistics)
{
    BatchNorm bn(2);
    Matrix x(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
    const Matrix y = bn.forward(x, kFp32, true);
    // Each column should have ~zero mean and ~unit variance.
    for (std::size_t c = 0; c < 2; ++c) {
        float mean = 0.0f, var = 0.0f;
        for (std::size_t r = 0; r < 4; ++r) {
            mean += y.at(r, c);
        }
        mean /= 4.0f;
        for (std::size_t r = 0; r < 4; ++r) {
            var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
        }
        var /= 4.0f;
        EXPECT_NEAR(mean, 0.0f, 1e-4f);
        EXPECT_NEAR(var, 1.0f, 1e-2f);
    }
}

TEST(BatchNorm, SingleRowInferenceUsesRunningStats)
{
    BatchNorm bn(1);
    // Train on data with mean 10 to move the running stats.
    Matrix x(8, 1, {9, 10, 11, 10, 9, 11, 10, 10});
    for (int i = 0; i < 50; ++i) {
        bn.forward(x, kFp32, true);
    }
    // A single-row input (the post-global-pool case) cannot form
    // batch statistics and is normalized by the running stats: an
    // input at the running mean maps near beta = 0.
    Matrix probe(1, 1, {10});
    const Matrix y = bn.forward(probe, kFp32, false);
    EXPECT_NEAR(y.at(0, 0), 0.0f, 0.2f);
}

TEST(BatchNorm, MultiRowInferenceUsesInstanceStats)
{
    // Per-cloud (instance) statistics are used at inference for
    // multi-row batches, so a shifted copy of the training data
    // normalizes identically — the consistency that lets per-cloud-
    // trained models generalize (see the note in layers.cpp).
    BatchNorm bn(1);
    Matrix x(4, 1, {1, 2, 3, 4});
    const Matrix y_train = bn.forward(x, kFp32, true);
    Matrix shifted(4, 1, {101, 102, 103, 104});
    const Matrix y_eval = bn.forward(shifted, kFp32, false);
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_NEAR(y_eval.at(r, 0), y_train.at(r, 0), 1e-4f);
    }
}

// LinearRelu must be indistinguishable from a separate Linear + ReLU
// pair with the same parameters — forward, backward and the
// serialized parameter stream.
TEST(LinearRelu, MatchesSeparateLinearPlusRelu)
{
    Rng rng_a(7);
    Rng rng_b(7);
    LinearRelu fused(4, 3, rng_a);
    Linear lin(4, 3, rng_b);
    ReLU relu;

    Rng data_rng(8);
    Matrix x(6, 4);
    x.fillNormal(data_rng, 1.0f);

    const Matrix y_fused = fused.forward(x, kFp32, true);
    const Matrix y_pair =
        relu.forward(lin.forward(x, kFp32, true), kFp32, true);
    ASSERT_EQ(y_fused.rows(), y_pair.rows());
    ASSERT_EQ(y_fused.cols(), y_pair.cols());
    for (std::size_t i = 0; i < y_fused.numel(); ++i) {
        EXPECT_FLOAT_EQ(y_fused.data()[i], y_pair.data()[i])
            << "element " << i;
    }

    Matrix dy(6, 3);
    dy.fillNormal(data_rng, 1.0f);
    const Matrix dx_fused = fused.backward(dy);
    const Matrix dx_pair = lin.backward(relu.backward(dy));
    for (std::size_t i = 0; i < dx_fused.numel(); ++i) {
        EXPECT_NEAR(dx_fused.data()[i], dx_pair.data()[i], 1e-5f)
            << "element " << i;
    }

    std::vector<Parameter *> fused_params, pair_params;
    fused.collectParameters(fused_params);
    lin.collectParameters(pair_params);
    relu.collectParameters(pair_params);
    ASSERT_EQ(fused_params.size(), pair_params.size());
    for (std::size_t p = 0; p < fused_params.size(); ++p) {
        const Matrix &fg = fused_params[p]->grad;
        const Matrix &pg = pair_params[p]->grad;
        ASSERT_EQ(fg.numel(), pg.numel());
        for (std::size_t i = 0; i < fg.numel(); ++i) {
            EXPECT_NEAR(fg.data()[i], pg.data()[i], 1e-5f)
                << "param " << p << " element " << i;
        }
    }
}

TEST(Sequential, AddLinearReluAppendsOneLayer)
{
    Rng rng(10);
    Sequential seq;
    seq.addLinearRelu(4, 8, rng);
    EXPECT_EQ(seq.size(), 1u);
    std::vector<Parameter *> params;
    seq.collectParameters(params);
    EXPECT_EQ(params.size(), 2u); // weight + bias, ReLU is parameterless
}

TEST(Sequential, ChainsLayers)
{
    Rng rng(3);
    Sequential seq;
    seq.addLinearBnRelu(4, 8, rng);
    seq.addLinearBnRelu(8, 2, rng);
    EXPECT_EQ(seq.size(), 6u);
    Matrix x(5, 4);
    x.fillNormal(rng, 1.0f);
    const Matrix y = seq.forward(x, kFp32, false);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 2u);

    std::vector<Parameter *> params;
    seq.collectParameters(params);
    // 2 x (linear W+b, bn gamma+beta) = 8 parameters.
    EXPECT_EQ(params.size(), 8u);
}

TEST(MaxPoolNeighbors, PoolsGroupsOfRows)
{
    MaxPoolNeighbors pool(2);
    Matrix x(4, 2, {1, 8, 3, 2, -5, 0, -1, -7});
    const Matrix y = pool.forward(x, kFp32, false);
    ASSERT_EQ(y.rows(), 2u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
    EXPECT_FLOAT_EQ(y.at(1, 0), -1.0f);
    EXPECT_FLOAT_EQ(y.at(1, 1), 0.0f);
}

TEST(MaxPoolNeighbors, BackwardRoutesToArgmax)
{
    MaxPoolNeighbors pool(2);
    Matrix x(4, 1, {1, 3, 5, 2});
    pool.forward(x, kFp32, true);
    Matrix dy(2, 1, {10, 20});
    const Matrix dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(1, 0), 10.0f);
    EXPECT_FLOAT_EQ(dx.at(2, 0), 20.0f);
    EXPECT_FLOAT_EQ(dx.at(3, 0), 0.0f);
}

TEST(GlobalMaxPool, ReducesToOneRow)
{
    GlobalMaxPool pool;
    Matrix x(3, 2, {1, 9, 7, 2, 4, 5});
    const Matrix y = pool.forward(x, kFp32, true);
    ASSERT_EQ(y.rows(), 1u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 9.0f);

    Matrix dy(1, 2, {100, 200});
    const Matrix dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(1, 0), 100.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 1), 200.0f);
    EXPECT_FLOAT_EQ(dx.at(2, 0), 0.0f);
}

} // namespace
} // namespace nn
} // namespace edgepc
