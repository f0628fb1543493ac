#include "nn/feature_merge.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace edgepc {
namespace nn {

Matrix
exactLinear(const Matrix &input, const Matrix &weight, const Matrix &bias,
            GemmEngine &engine)
{
    if (input.cols() != weight.rows()) {
        fatal("exactLinear: input C %zu != weight rows %zu", input.cols(),
              weight.rows());
    }
    if (bias.numel() > 0) {
        return engine.multiply(input, weight, GemmEpilogue::Bias, bias);
    }
    return engine.multiply(input, weight);
}

Matrix
mergedLinear(const Matrix &input, const Matrix &weight, const Matrix &bias,
             std::size_t merge, GemmEngine &engine)
{
    if (input.cols() != weight.rows()) {
        fatal("mergedLinear: input C %zu != weight rows %zu",
              input.cols(), weight.rows());
    }
    const std::size_t n = input.rows();
    const std::size_t c_in = input.cols();
    const std::size_t c_out = weight.cols();
    merge = std::max<std::size_t>(1, std::min(merge, n));
    if (merge == 1) {
        return exactLinear(input, weight, bias, engine);
    }

    // Merged weight: t vertically stacked copies of W, scaled by 1/t,
    // so (merged row) * W_merged = mean(rows) * W.
    Matrix merged_weight(c_in * merge, c_out);
    const float inv = 1.0f / static_cast<float>(merge);
    for (std::size_t t = 0; t < merge; ++t) {
        for (std::size_t r = 0; r < c_in; ++r) {
            const float *src = weight.data() + r * c_out;
            float *dst =
                merged_weight.data() + (t * c_in + r) * c_out;
            for (std::size_t col = 0; col < c_out; ++col) {
                dst[col] = src[col] * inv;
            }
        }
    }

    // The bias rides along in the GEMM store (and gets replicated with
    // the group rows).
    const bool has_bias = bias.numel() > 0;
    const GemmEpilogue ep =
        has_bias ? GemmEpilogue::Bias : GemmEpilogue::None;
    const float *bias_ptr = has_bias ? bias.data() : nullptr;

    // Full groups go through the wide GEMM (the row-major layout makes
    // the merge itself a free reinterpretation of the buffer).
    const std::size_t groups = n / merge;
    Matrix out(n, c_out);
    if (groups > 0) {
        Matrix group_out(groups, c_out);
        engine.gemm(input.data(), merged_weight.data(),
                    group_out.data(), groups, c_in * merge, c_out, ep,
                    bias_ptr);
        parallelFor(0, groups, [&](std::size_t g) {
            const float *src = group_out.data() + g * c_out;
            for (std::size_t t = 0; t < merge; ++t) {
                float *dst =
                    out.data() + (g * merge + t) * c_out;
                std::copy(src, src + c_out, dst);
            }
        });
    }

    // Remainder rows (fewer than one group): exact path.
    const std::size_t tail_start = groups * merge;
    if (tail_start < n) {
        const std::size_t tail = n - tail_start;
        Matrix tail_out(tail, c_out);
        engine.gemm(input.data() + tail_start * c_in, weight.data(),
                    tail_out.data(), tail, c_in, c_out, ep, bias_ptr);
        std::copy(tail_out.data(), tail_out.data() + tail_out.numel(),
                  out.data() + tail_start * c_out);
    }

    return out;
}

double
meanRelativeError(const Matrix &approx, const Matrix &exact)
{
    if (approx.numel() != exact.numel()) {
        fatal("meanRelativeError: shape mismatch (%zu vs %zu)",
              approx.numel(), exact.numel());
    }
    if (exact.numel() == 0) {
        return 0.0;
    }
    double err = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < exact.numel(); ++i) {
        err += std::abs(static_cast<double>(approx.data()[i]) -
                        exact.data()[i]);
        norm += std::abs(static_cast<double>(exact.data()[i]));
    }
    return norm > 0.0 ? err / norm : 0.0;
}

} // namespace nn
} // namespace edgepc
