#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace edgepc {
namespace nn {

// ---------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, Rng &rng)
{
    weight.init(in, out);
    bias.init(1, out);
    // He initialization suits the ReLU blocks these layers live in.
    const float stddev = std::sqrt(2.0f / static_cast<float>(in));
    weight.value.fillNormal(rng, stddev);
}

Matrix
Linear::forward(const Matrix &input, const GemmRoute &route, bool train)
{
    if (input.cols() != weight.value.rows()) {
        fatal("Linear::forward: input dim %zu != weight dim %zu",
              input.cols(), weight.value.rows());
    }
    if (!train && resolveQuantGemm(route.int8, input.rows(), input.cols())) {
        // Int8 inference route: cached quantized panels, dynamic
        // activation scales, dequant+bias fused into the tile store.
        auto wq = quantCache.get(weight.value);
        return route.engine.multiplyQuantized(input, *wq, GemmEpilogue::Bias,
                                              bias.value);
    }
    // Bias is added in the GEMM epilogue: one pass over the output
    // instead of a second sweep.
    Matrix out = route.engine.multiply(input, weight.value,
                                       GemmEpilogue::Bias, bias.value);
    if (train) {
        savedInput = input;
        trainEngine = &route.engine;
    }
    return out;
}

Matrix
Linear::backward(const Matrix &grad_output)
{
    if (trainEngine == nullptr) {
        panic("Linear::backward without forward(train=true)");
    }
    GemmEngine &engine = *trainEngine;
    // dW += X^T * dY ; db += column sums of dY ; dX = dY * W^T.
    engine.multiplyLeftTransposedAdd(savedInput, grad_output, weight.grad);

    for (std::size_t r = 0; r < grad_output.rows(); ++r) {
        const float *row = grad_output.data() + r * grad_output.cols();
        float *bg = bias.grad.data();
        for (std::size_t c = 0; c < grad_output.cols(); ++c) {
            bg[c] += row[c];
        }
    }
    return engine.multiplyTransposed(grad_output, weight.value);
}

void
Linear::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight);
    out.push_back(&bias);
}

// ---------------------------------------------------------------------
// LinearRelu
// ---------------------------------------------------------------------

LinearRelu::LinearRelu(std::size_t in, std::size_t out, Rng &rng)
{
    weight.init(in, out);
    bias.init(1, out);
    const float stddev = std::sqrt(2.0f / static_cast<float>(in));
    weight.value.fillNormal(rng, stddev);
}

Matrix
LinearRelu::forward(const Matrix &input, const GemmRoute &route, bool train)
{
    if (input.cols() != weight.value.rows()) {
        fatal("LinearRelu::forward: input dim %zu != weight dim %zu",
              input.cols(), weight.value.rows());
    }
    if (!train && resolveQuantGemm(route.int8, input.rows(), input.cols())) {
        // Int8 inference route (see Linear::forward); ReLU joins the
        // fused dequant epilogue. Training never reaches this branch,
        // so the saved input and ReLU mask stay fp32-derived.
        auto wq = quantCache.get(weight.value);
        return route.engine.multiplyQuantized(input, *wq,
                                              GemmEpilogue::BiasRelu,
                                              bias.value);
    }
    Matrix out = route.engine.multiply(input, weight.value,
                                       GemmEpilogue::BiasRelu, bias.value);
    if (train) {
        savedInput = input;
        trainEngine = &route.engine;
        // The pre-activation is positive exactly where the output is,
        // so the ReLU mask is recoverable from the fused output.
        mask.assign(out.numel(), 0);
        const float *data = out.data();
        for (std::size_t i = 0; i < out.numel(); ++i) {
            if (data[i] > 0.0f) {
                mask[i] = 1;
            }
        }
    }
    return out;
}

Matrix
LinearRelu::backward(const Matrix &grad_output)
{
    // Gate the incoming gradient by the ReLU mask, then backprop
    // through the affine part exactly as Linear does.
    if (trainEngine == nullptr) {
        panic("LinearRelu::backward without forward(train=true)");
    }
    GemmEngine &engine = *trainEngine;
    Matrix gated = grad_output;
    float *gd = gated.data();
    for (std::size_t i = 0; i < gated.numel(); ++i) {
        if (!mask[i]) {
            gd[i] = 0.0f;
        }
    }

    engine.multiplyLeftTransposedAdd(savedInput, gated, weight.grad);

    for (std::size_t r = 0; r < gated.rows(); ++r) {
        const float *row = gated.data() + r * gated.cols();
        float *bg = bias.grad.data();
        for (std::size_t c = 0; c < gated.cols(); ++c) {
            bg[c] += row[c];
        }
    }
    return engine.multiplyTransposed(gated, weight.value);
}

void
LinearRelu::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight);
    out.push_back(&bias);
}

// ---------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------

BatchNorm::BatchNorm(std::size_t features, float momentum, float epsilon)
    : runningMean(features, 0.0f), runningVar(features, 1.0f),
      mom(momentum), eps(epsilon)
{
    gamma.init(1, features);
    beta.init(1, features);
    for (std::size_t c = 0; c < features; ++c) {
        gamma.value.at(0, c) = 1.0f;
    }
}

// This engine processes one cloud per forward pass, so the batch
// statistics are per-cloud (instance) statistics. They are used at
// inference as well: the reference implementations train with large
// multi-cloud batches whose statistics match their running averages,
// but here per-cloud statistics differ strongly across inputs and
// normalizing with the blended running average at eval would put
// activations outside the trained regime. Running statistics still
// back the single-row case (classifier heads after global pooling),
// where a per-batch variance is degenerate.
bool
BatchNorm::statistics(const float *x, std::size_t rows,
                      std::vector<float> &mean,
                      std::vector<float> &var) const
{
    if (rows > 1) {
        columnMeanVar(x, rows, runningMean.size(), mean.data(),
                      var.data());
        return true;
    }
    mean = runningMean;
    var = runningVar;
    return false;
}

Matrix
BatchNorm::forward(const Matrix &input, const GemmRoute &, bool train)
{
    const std::size_t rows = input.rows();
    const std::size_t cols = input.cols();
    if (cols != runningMean.size()) {
        fatal("BatchNorm::forward: feature dim %zu != configured %zu",
              cols, runningMean.size());
    }
    Matrix out = Matrix::forOverwrite(rows, cols);
    if (!train) {
        const std::size_t segment[] = {rows};
        inferSegments(input, out, segment, Activation{});
        return out;
    }

    std::vector<float> mean(cols), var(cols);
    usedBatchStats = statistics(input.data(), rows, mean, var);
    if (usedBatchStats) {
        for (std::size_t c = 0; c < cols; ++c) {
            runningMean[c] = (1.0f - mom) * runningMean[c] + mom * mean[c];
            runningVar[c] = (1.0f - mom) * runningVar[c] + mom * var[c];
        }
    }

    savedInvStd.resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        savedInvStd[c] = 1.0f / std::sqrt(var[c] + eps);
    }

    savedNormalized = Matrix(rows, cols);
    const float *g = gamma.value.data();
    const float *b = beta.value.data();
    parallelFor(0, rows, [&](std::size_t r) {
        const float *in_row = input.data() + r * cols;
        float *out_row = out.data() + r * cols;
        float *norm_row = savedNormalized.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            const float normalized =
                (in_row[c] - mean[c]) * savedInvStd[c];
            norm_row[c] = normalized;
            out_row[c] = g[c] * normalized + b[c];
        }
    });
    return out;
}

void
BatchNorm::inferSegments(const Matrix &in, Matrix &out,
                         std::span<const std::size_t> segment_rows,
                         Activation act) const
{
    const std::size_t cols = in.cols();
    if (cols != runningMean.size()) {
        fatal("BatchNorm::inferSegments: feature dim %zu != configured "
              "%zu",
              cols, runningMean.size());
    }
    std::vector<float> mean(cols), var(cols), inv_std(cols);
    std::size_t offset = 0;
    for (std::size_t rows : segment_rows) {
        const float *src = in.data() + offset * cols;
        statistics(src, rows, mean, var);
        for (std::size_t c = 0; c < cols; ++c) {
            inv_std[c] = 1.0f / std::sqrt(var[c] + eps);
        }
        normalizeActivate(src, out.data() + offset * cols, rows, cols,
                          mean.data(), inv_std.data(), gamma.value.data(),
                          beta.value.data(), act);
        offset += rows;
    }
}

Matrix
BatchNorm::backward(const Matrix &grad_output)
{
    const std::size_t rows = grad_output.rows();
    const std::size_t cols = grad_output.cols();
    const auto frows = static_cast<float>(rows);

    // Per-feature reductions: sum(dY), sum(dY * xhat).
    std::vector<float> sum_dy(cols, 0.0f), sum_dy_xhat(cols, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        const float *dy = grad_output.data() + r * cols;
        const float *xh = savedNormalized.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            sum_dy[c] += dy[c];
            sum_dy_xhat[c] += dy[c] * xh[c];
        }
    }
    for (std::size_t c = 0; c < cols; ++c) {
        gamma.grad.at(0, c) += sum_dy_xhat[c];
        beta.grad.at(0, c) += sum_dy[c];
    }

    Matrix grad_in(rows, cols);
    const float *g = gamma.value.data();
    parallelFor(0, rows, [&](std::size_t r) {
        const float *dy = grad_output.data() + r * cols;
        const float *xh = savedNormalized.data() + r * cols;
        float *dx = grad_in.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            if (usedBatchStats) {
                // Standard batch-norm input gradient.
                dx[c] = g[c] * savedInvStd[c] *
                        (dy[c] - sum_dy[c] / frows -
                         xh[c] * sum_dy_xhat[c] / frows);
            } else {
                // Running-stats normalization is an affine map of the
                // input, so the statistics terms vanish.
                dx[c] = g[c] * savedInvStd[c] * dy[c];
            }
        }
    });
    return grad_in;
}

void
BatchNorm::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&gamma);
    out.push_back(&beta);
}

void
BatchNorm::collectBuffers(std::vector<std::vector<float> *> &out)
{
    out.push_back(&runningMean);
    out.push_back(&runningVar);
}

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

namespace {

/**
 * Shared activation forward: the output comes from the same branchless
 * kernel at training and inference, and training also records which
 * inputs were positive.
 */
Matrix
activationForward(const Matrix &input, Activation act, bool train,
                  std::vector<std::uint8_t> &mask)
{
    Matrix out = Matrix::forOverwrite(input.rows(), input.cols());
    activate(input.data(), out.data(), input.numel(), act);
    if (train) {
        const float *in = input.data();
        mask.resize(input.numel());
        for (std::size_t i = 0; i < input.numel(); ++i) {
            mask[i] = in[i] > 0.0f ? 1 : 0;
        }
    }
    return out;
}

} // namespace

Matrix
ReLU::forward(const Matrix &input, const GemmRoute &, bool train)
{
    return activationForward(input, Activation::relu(), train, mask);
}

Matrix
ReLU::backward(const Matrix &grad_output)
{
    Matrix grad_in = grad_output;
    float *data = grad_in.data();
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
        if (!mask[i]) {
            data[i] = 0.0f;
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// LeakyReLU
// ---------------------------------------------------------------------

LeakyReLU::LeakyReLU(float negative_slope) : slope(negative_slope) {}

Matrix
LeakyReLU::forward(const Matrix &input, const GemmRoute &, bool train)
{
    return activationForward(input, Activation::leakyRelu(slope), train,
                             mask);
}

Matrix
LeakyReLU::backward(const Matrix &grad_output)
{
    Matrix grad_in = grad_output;
    float *data = grad_in.data();
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
        if (!mask[i]) {
            data[i] *= slope;
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    layers.push_back(std::move(layer));
}

void
Sequential::addLinearBnRelu(std::size_t in, std::size_t out, Rng &rng)
{
    add(std::make_unique<Linear>(in, out, rng));
    add(std::make_unique<BatchNorm>(out));
    add(std::make_unique<ReLU>());
}

void
Sequential::addLinearRelu(std::size_t in, std::size_t out, Rng &rng)
{
    add(std::make_unique<LinearRelu>(in, out, rng));
}

Matrix
Sequential::forward(const Matrix &input, const GemmRoute &route, bool train)
{
    if (!train) {
        const std::size_t segment[] = {input.rows()};
        return infer(&input, Matrix{}, segment, route, 0);
    }
    if (layers.empty()) {
        return input;
    }
    return forwardFrom(1, layers[0]->forward(input, route, true), route,
                       true);
}

Matrix
Sequential::forwardFrom(std::size_t first, Matrix input,
                        const GemmRoute &route, bool train)
{
    if (first > layers.size()) {
        fatal("forwardFrom: first layer %zu > size %zu", first,
              layers.size());
    }
    if (!train) {
        const std::size_t segment[] = {input.rows()};
        return infer(nullptr, std::move(input), segment, route, first);
    }
    for (std::size_t i = first; i < layers.size(); ++i) {
        input = layers[i]->forward(input, route, true);
    }
    return input;
}

Matrix
Sequential::backwardFrom(std::size_t first, const Matrix &grad_output)
{
    if (first > layers.size()) {
        fatal("backwardFrom: first layer %zu > size %zu", first,
              layers.size());
    }
    Matrix g = grad_output;
    for (std::size_t i = layers.size(); i > first; --i) {
        g = layers[i - 1]->backward(g);
    }
    return g;
}

bool
Sequential::rowIndependentInference(Route int8) const
{
    for (const auto &layer : layers) {
        if (!layer->rowIndependentInference(int8)) {
            return false;
        }
    }
    return true;
}

Matrix
Sequential::forwardSegmented(Matrix input,
                             std::span<const std::size_t> segment_rows,
                             const GemmRoute &route,
                             std::size_t first_layer)
{
    if (first_layer > layers.size()) {
        fatal("forwardSegmented: first layer %zu > size %zu", first_layer,
              layers.size());
    }
    return infer(nullptr, std::move(input), segment_rows, route,
                 first_layer);
}

Matrix
Sequential::infer(const Matrix *borrowed, Matrix owned,
                  std::span<const std::size_t> segment_rows,
                  const GemmRoute &route, std::size_t first)
{
    const Matrix &input = borrowed ? *borrowed : owned;
    std::size_t total = 0;
    for (std::size_t rows : segment_rows) {
        total += rows;
    }
    if (total != input.rows()) {
        fatal("forwardSegmented: segment rows %zu != input rows %zu",
              total, input.rows());
    }
    // A single segment may change height (a pooling layer); later
    // statistics must see the new row count.
    std::size_t whole = total;
    if (segment_rows.size() == 1) {
        segment_rows = {&whole, 1};
    }

    // Shape-preserving epilogue step: in place once the loop owns its
    // matrix, else from the borrowed input into a fresh one (the same
    // single pass, with no entry copy).
    auto epilogue = [&](const auto &step) {
        if (borrowed != nullptr) {
            owned = Matrix::forOverwrite(borrowed->rows(), borrowed->cols());
            step(*borrowed, owned);
            borrowed = nullptr;
        } else {
            step(owned, owned);
        }
    };

    for (std::size_t li = first; li < layers.size(); ++li) {
        Layer &layer = *layers[li];
        if (const auto *bn = dynamic_cast<const BatchNorm *>(&layer)) {
            // BatchNorm absorbs the activation that follows it.
            Activation act;
            if (li + 1 < layers.size()) {
                if (const auto next = layers[li + 1]->activation()) {
                    act = *next;
                    ++li;
                }
            }
            epilogue([&](const Matrix &in, Matrix &out) {
                bn->inferSegments(in, out, segment_rows, act);
            });
            continue;
        }
        if (const auto act = layer.activation()) {
            epilogue([&](const Matrix &in, Matrix &out) {
                activate(in.data(), out.data(), in.numel(), *act);
            });
            continue;
        }
        const Matrix &x = borrowed ? *borrowed : owned;
        if (layer.rowIndependentInference(route.int8) ||
            segment_rows.size() == 1) {
            Matrix y = layer.forward(x, route, false);
            whole = y.rows();
            owned = std::move(y);
            borrowed = nullptr;
            continue;
        }
        Matrix out;
        std::size_t offset = 0;
        for (std::size_t s = 0; s < segment_rows.size(); ++s) {
            Matrix seg = sliceRows(x, offset, offset + segment_rows[s]);
            Matrix y = layer.forward(seg, route, false);
            if (y.rows() != segment_rows[s]) {
                fatal("forwardSegmented: layer changed segment rows "
                      "(%zu -> %zu)",
                      segment_rows[s], y.rows());
            }
            if (s == 0) {
                out = Matrix::forOverwrite(x.rows(), y.cols());
            }
            std::copy(y.data(), y.data() + y.numel(),
                      out.data() + offset * y.cols());
            offset += segment_rows[s];
        }
        owned = std::move(out);
        borrowed = nullptr;
    }
    if (borrowed != nullptr) {
        return *borrowed; // No layer ran.
    }
    return owned;
}

Matrix
Sequential::backward(const Matrix &grad_output)
{
    return backwardFrom(0, grad_output);
}

void
Sequential::collectParameters(std::vector<Parameter *> &out)
{
    for (auto &layer : layers) {
        layer->collectParameters(out);
    }
}

void
Sequential::collectBuffers(std::vector<std::vector<float> *> &out)
{
    for (auto &layer : layers) {
        layer->collectBuffers(out);
    }
}

// ---------------------------------------------------------------------
// Max-pooling
// ---------------------------------------------------------------------

Matrix
maxPoolRows(const Matrix &x, std::size_t begin, std::size_t rows,
            std::size_t k)
{
    if (k == 0 || rows % k != 0 || begin + rows > x.rows()) {
        fatal("maxPoolRows: rows [%zu, %zu) of %zu in groups of %zu",
              begin, begin + rows, x.rows(), k);
    }
    const std::size_t cols = x.cols();
    Matrix out = Matrix::forOverwrite(rows / k, cols);
    maxPoolGroups(x.data() + begin * cols, rows / k, k, cols, out.data());
    return out;
}

MaxPoolNeighbors::MaxPoolNeighbors(std::size_t group_size) : k(group_size)
{
    if (group_size == 0) {
        fatal("MaxPoolNeighbors: group size must be > 0");
    }
}

Matrix
MaxPoolNeighbors::forward(const Matrix &input, const GemmRoute &, bool train)
{
    if (input.rows() % k != 0) {
        fatal("MaxPoolNeighbors: rows %zu not a multiple of k=%zu",
              input.rows(), k);
    }
    if (!train) {
        return maxPoolRows(input, 0, input.rows(), k);
    }
    const std::size_t points = input.rows() / k;
    const std::size_t cols = input.cols();
    Matrix out(points, cols);
    argmax.assign(points * cols, 0);
    savedRows = input.rows();

    parallelFor(0, points, [&](std::size_t p) {
        float *out_row = out.data() + p * cols;
        const float *first = input.data() + p * k * cols;
        std::uint32_t *amax = argmax.data() + p * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            out_row[c] = first[c];
            amax[c] = static_cast<std::uint32_t>(p * k);
        }
        for (std::size_t j = 1; j < k; ++j) {
            const float *row = input.data() + (p * k + j) * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                if (row[c] > out_row[c]) {
                    out_row[c] = row[c];
                    amax[c] = static_cast<std::uint32_t>(p * k + j);
                }
            }
        }
    });
    return out;
}

Matrix
MaxPoolNeighbors::backward(const Matrix &grad_output)
{
    const std::size_t cols = grad_output.cols();
    Matrix grad_in(savedRows, cols);
    for (std::size_t p = 0; p < grad_output.rows(); ++p) {
        const float *dy = grad_output.data() + p * cols;
        const std::uint32_t *amax = argmax.data() + p * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            grad_in.at(amax[c], c) += dy[c];
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// GlobalMaxPool
// ---------------------------------------------------------------------

Matrix
GlobalMaxPool::forward(const Matrix &input, const GemmRoute &, bool train)
{
    if (input.rows() == 0) {
        fatal("GlobalMaxPool: empty input");
    }
    if (!train) {
        return maxPoolRows(input, 0, input.rows(), input.rows());
    }
    const std::size_t cols = input.cols();
    Matrix out(1, cols);
    argmax.assign(cols, 0);
    savedRows = input.rows();
    for (std::size_t c = 0; c < cols; ++c) {
        out.at(0, c) = input.at(0, c);
    }
    for (std::size_t r = 1; r < input.rows(); ++r) {
        const float *row = input.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            if (row[c] > out.at(0, c)) {
                out.at(0, c) = row[c];
                argmax[c] = static_cast<std::uint32_t>(r);
            }
        }
    }
    return out;
}

Matrix
GlobalMaxPool::backward(const Matrix &grad_output)
{
    Matrix grad_in(savedRows, grad_output.cols());
    for (std::size_t c = 0; c < grad_output.cols(); ++c) {
        grad_in.at(argmax[c], c) += grad_output.at(0, c);
    }
    return grad_in;
}

} // namespace nn
} // namespace edgepc
