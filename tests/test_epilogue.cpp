/**
 * @file
 * The inference epilogue (nn/epilogue.hpp): fused BatchNorm ->
 * activation, branchless activations, the column statistics kernel
 * and the row-range max-pool.
 *
 * Every comparison is bit for bit. The statistics kernel writes
 * per-stripe results from pool threads, so this suite is part of the
 * TSan gate (tools/ci/run_tsan.sh matches 'Epilogue').
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/epilogue.hpp"
#include "nn/layers.hpp"

namespace edgepc {
namespace nn {
namespace {

/** fp32 on the scalar engine, whatever the environment says. */
const GemmRoute kFp32{GemmEngine::shared(GemmMode::Scalar)};

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = 1e-39f;

/** Row counts around 256 and the statistics tile, plus W4's n * k. */
const std::size_t kRowCounts[] = {1, 2, 255, 256, 257, 40960};

/** Bit-for-bit equality, except that any two NaNs match: which NaN
    operand an instruction propagates is not part of the contract. */
bool
sameBits(const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
        if (!both_nan && std::memcmp(a + i, b + i, sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           sameBits(a.data(), b.data(), a.numel());
}

bool
sameBits(float a, float b)
{
    return sameBits(&a, &b, 1);
}

/** Post-GEMM-like activations: offset, scaled, both signs. */
Matrix
randomActivations(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix x(rows, cols);
    x.fillNormal(rng, 2.0f);
    for (std::size_t i = 0; i < x.numel(); ++i) {
        x.data()[i] += 0.5f;
    }
    return x;
}

/** Non-trivial gamma, beta and running statistics. */
void
randomizeBatchNorm(BatchNorm &bn, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Parameter *> params;
    bn.collectParameters(params);
    for (Parameter *p : params) {
        p->value.fillNormal(rng, 1.0f);
    }
    std::vector<std::vector<float> *> buffers;
    bn.collectBuffers(buffers);
    for (float &m : *buffers[0]) {
        m = rng.nextFloat() - 0.5f;
    }
    for (float &v : *buffers[1]) {
        v = rng.nextFloat() + 0.5f;
    }
}

/** Random data with NaN, signed zeros, infinities and denormals. */
std::vector<float>
hostileValues(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const float specials[] = {kNaN,    -kNaN,     0.0f,     -0.0f,
                              kInf,    -kInf,     kDenorm,  -kDenorm,
                              1e-45f, -1e-45f,    1.0f,     -1.0f};
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = i % 5 == 0 ? specials[(i / 5) % std::size(specials)]
                          : 4.0f * (rng.nextFloat() - 0.5f);
    }
    return v;
}

/** The statistics by hand: the plain serial loop, every column summed
    in row order from 0. */
void
serialStats(const Matrix &x, std::vector<float> &mean,
            std::vector<float> &var)
{
    const std::size_t rows = x.rows();
    const std::size_t cols = x.cols();
    const float inv_rows = 1.0f / static_cast<float>(rows);
    mean.assign(cols, 0.0f);
    var.assign(cols, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            mean[c] += x.at(r, c);
        }
    }
    for (std::size_t c = 0; c < cols; ++c) {
        mean[c] *= inv_rows;
    }
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const float d = x.at(r, c) - mean[c];
            var[c] += d * d;
        }
    }
    for (std::size_t c = 0; c < cols; ++c) {
        var[c] *= inv_rows;
    }
}

TEST(Epilogue, StatisticsMatchSerialLoop)
{
    // 37 columns: two register stripes and a tail. 600: spans more
    // than one stack buffer, split across threads.
    for (std::size_t rows : kRowCounts) {
        for (std::size_t cols : {37u, 64u, 600u}) {
            if (rows * cols > (1u << 22)) {
                continue;
            }
            const Matrix x = randomActivations(rows, cols, 100 + rows);
            std::vector<float> mean(cols), var(cols), ref_mean, ref_var;
            columnMeanVar(x.data(), rows, cols, mean.data(), var.data());
            serialStats(x, ref_mean, ref_var);
            EXPECT_TRUE(sameBits(mean.data(), ref_mean.data(), cols))
                << rows << " x " << cols;
            EXPECT_TRUE(sameBits(var.data(), ref_var.data(), cols))
                << rows << " x " << cols;
        }
    }
}

/** BatchNorm followed by the activation @p make_act builds. */
void
expectFusedMatchesLayerByLayer(
    const std::function<std::unique_ptr<Layer>()> &make_act)
{
    for (std::size_t rows : kRowCounts) {
        const std::size_t cols = rows > 1000 ? 64 : 37;
        Sequential seq;
        seq.add(std::make_unique<BatchNorm>(cols));
        seq.add(make_act());
        randomizeBatchNorm(*static_cast<BatchNorm *>(seq.layerAt(0)),
                           rows);
        const Matrix x = randomActivations(rows, cols, rows);

        const Matrix fused = seq.forward(x, kFp32, false);
        const Matrix normalized = seq.layerAt(0)->forward(x, kFp32, false);
        EXPECT_TRUE(
            sameBits(fused, seq.layerAt(1)->forward(normalized, kFp32, false)))
            << rows << " rows";
        // The owned-input route normalizes the moved-in copy in place.
        EXPECT_TRUE(sameBits(seq.forwardFrom(0, x, kFp32, false), fused))
            << rows << " rows";
    }
}

TEST(Epilogue, FusedBnReluMatchesLayerByLayer)
{
    expectFusedMatchesLayerByLayer([] { return std::make_unique<ReLU>(); });
}

TEST(Epilogue, FusedBnLeakyReluMatchesLayerByLayer)
{
    expectFusedMatchesLayerByLayer(
        [] { return std::make_unique<LeakyReLU>(0.2f); });
}

TEST(Epilogue, SegmentedMatchesPerSegmentForward)
{
    const std::size_t cols = 24;
    // Fused BN -> ReLU, fused BN -> LeakyReLU, a lone activation and
    // a lone BatchNorm; a one-row segment takes the running stats.
    Sequential seq;
    seq.add(std::make_unique<BatchNorm>(cols));
    seq.add(std::make_unique<ReLU>());
    seq.add(std::make_unique<BatchNorm>(cols));
    seq.add(std::make_unique<LeakyReLU>(0.2f));
    seq.add(std::make_unique<LeakyReLU>(0.1f));
    seq.add(std::make_unique<BatchNorm>(cols));
    for (std::size_t i : {0u, 2u, 5u}) {
        randomizeBatchNorm(*static_cast<BatchNorm *>(seq.layerAt(i)),
                           7 + i);
    }

    const std::vector<std::size_t> segments = {257, 1, 256, 3, 255};
    std::vector<Matrix> parts;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        parts.push_back(randomActivations(segments[s], cols, 40 + s));
    }
    const Matrix stacked =
        seq.forwardSegmented(concatRows(parts), segments, kFp32);

    std::size_t offset = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        const Matrix alone = seq.forward(parts[s], kFp32, false);
        EXPECT_TRUE(sameBits(
            sliceRows(stacked, offset, offset + segments[s]), alone))
            << "segment " << s;
        offset += segments[s];
    }
}

TEST(Epilogue, Avx2BuildMatchesBaseline)
{
    const EpilogueKernels *avx2 = avx2EpilogueKernels();
    if (avx2 == nullptr) {
        GTEST_SKIP() << "CPU lacks AVX2";
    }
    const EpilogueKernels &base = baselineEpilogueKernels();
    const std::size_t rows = 257;
    const std::size_t cols = 67; // Vector tails on both builds.
    const std::vector<float> x = hostileValues(rows * cols, 1);
    const std::vector<float> mean = hostileValues(cols, 2);
    const std::vector<float> inv_std = hostileValues(cols, 3);
    const std::vector<float> gamma = hostileValues(cols, 4);
    const std::vector<float> beta = hostileValues(cols, 5);

    std::vector<float> mean_a(cols), var_a(cols), mean_b(cols),
        var_b(cols);
    base.columnMeanVar(x.data(), rows, cols, cols, mean_a.data(),
                       var_a.data());
    avx2->columnMeanVar(x.data(), rows, cols, cols, mean_b.data(),
                        var_b.data());
    EXPECT_TRUE(sameBits(mean_a.data(), mean_b.data(), cols));
    EXPECT_TRUE(sameBits(var_a.data(), var_b.data(), cols));

    const Activation acts[] = {Activation{}, Activation::relu(),
                               Activation::leakyRelu(0.2f)};
    std::vector<float> out_a(rows * cols), out_b(rows * cols);
    for (const Activation act : acts) {
        base.normalizeActivate(x.data(), out_a.data(), rows, cols,
                               mean.data(), inv_std.data(), gamma.data(),
                               beta.data(), act);
        avx2->normalizeActivate(x.data(), out_b.data(), rows, cols,
                                mean.data(), inv_std.data(), gamma.data(),
                                beta.data(), act);
        EXPECT_TRUE(sameBits(out_a.data(), out_b.data(), out_a.size()));
        base.activate(x.data(), out_a.data(), x.size(), act);
        avx2->activate(x.data(), out_b.data(), x.size(), act);
        EXPECT_TRUE(sameBits(out_a.data(), out_b.data(), out_a.size()));
    }

    const std::size_t k = 7;
    const std::size_t groups = rows / k;
    base.maxPoolGroups(x.data(), groups, k, cols, out_a.data());
    avx2->maxPoolGroups(x.data(), groups, k, cols, out_b.data());
    EXPECT_TRUE(sameBits(out_a.data(), out_b.data(), groups * cols));
}

/** Apply @p layer to @p in at inference and at training. */
std::vector<float>
activateBothWays(Layer &layer, const std::vector<float> &in)
{
    const Matrix x(1, in.size(), in);
    const Matrix infer = layer.forward(x, kFp32, false);
    const Matrix train = layer.forward(x, kFp32, true);
    EXPECT_TRUE(sameBits(infer, train));
    return {infer.data(), infer.data() + infer.numel()};
}

TEST(Epilogue, ReluEdgeValues)
{
    ReLU relu;
    const std::vector<float> y = activateBothWays(
        relu, {kNaN, -0.0f, -kInf, kInf, kDenorm, -kDenorm, 3.0f});
    EXPECT_TRUE(sameBits(y[0], 0.0f)); // NaN -> +0
    EXPECT_TRUE(sameBits(y[1], 0.0f)); // -0 -> +0
    EXPECT_TRUE(sameBits(y[2], 0.0f));
    EXPECT_TRUE(sameBits(y[3], kInf));
    EXPECT_TRUE(sameBits(y[4], kDenorm));
    EXPECT_TRUE(sameBits(y[5], 0.0f));
    EXPECT_TRUE(sameBits(y[6], 3.0f));
}

TEST(Epilogue, LeakyReluEdgeValues)
{
    LeakyReLU leaky(0.2f);
    const std::vector<float> y = activateBothWays(
        leaky, {kNaN, -0.0f, -kInf, kInf, kDenorm, -kDenorm, -3.0f});
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_TRUE(sameBits(y[1], -0.0f));
    EXPECT_TRUE(sameBits(y[2], -kInf));
    EXPECT_TRUE(sameBits(y[3], kInf));
    EXPECT_TRUE(sameBits(y[4], kDenorm));
    const float scaled = 0.2f * -kDenorm;
    EXPECT_NE(scaled, 0.0f);
    EXPECT_TRUE(sameBits(y[5], scaled));
    EXPECT_TRUE(sameBits(y[6], 0.2f * -3.0f));
}

TEST(Epilogue, MaxPoolMatchesTrainingPool)
{
    const std::size_t k = 20;
    const std::size_t points = 64;
    const std::size_t cols = 19;
    const std::vector<float> values = hostileValues(points * k * cols, 9);
    const Matrix x(points * k, cols, values);

    MaxPoolNeighbors pool(k);
    const Matrix infer = pool.forward(x, kFp32, false);
    EXPECT_TRUE(sameBits(infer, pool.forward(x, kFp32, true)));

    // A row range of a stacked matrix pools like the range alone.
    const Matrix range = maxPoolRows(x, 5 * k, 7 * k, k);
    EXPECT_TRUE(sameBits(range, sliceRows(infer, 5, 12)));

    GlobalMaxPool global;
    EXPECT_TRUE(sameBits(global.forward(x, kFp32, false),
                         global.forward(x, kFp32, true)));
}

TEST(Epilogue, MaxPoolKeepsFirstOnTiesAndNaN)
{
    // Column 0: -0 then +0 keeps -0. Column 1: NaN first stays NaN.
    // Column 2: a later NaN never wins.
    const Matrix x(2, 3, {-0.0f, kNaN, 1.0f, 0.0f, 5.0f, kNaN});
    const Matrix y = maxPoolRows(x, 0, 2, 2);
    EXPECT_TRUE(sameBits(y.at(0, 0), -0.0f));
    EXPECT_TRUE(std::isnan(y.at(0, 1)));
    EXPECT_TRUE(sameBits(y.at(0, 2), 1.0f));
}

} // namespace
} // namespace nn
} // namespace edgepc
