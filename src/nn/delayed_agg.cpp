#include "nn/delayed_agg.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "nn/grouping.hpp"

namespace edgepc {
namespace nn {

namespace {

DelayedAggMode
initialModeFromEnv()
{
    const char *env = std::getenv("EDGEPC_DELAYED_AGG");
    if (env == nullptr) {
        return DelayedAggMode::Auto;
    }
    const std::string_view v(env);
    if (v == "on") {
        return DelayedAggMode::On;
    }
    if (v == "off") {
        return DelayedAggMode::Off;
    }
    if (v != "auto") {
        warn("EDGEPC_DELAYED_AGG=%s not understood (want on|off|auto); "
             "using auto",
             env);
    }
    return DelayedAggMode::Auto;
}

std::atomic<DelayedAggMode> &
modeState()
{
    static std::atomic<DelayedAggMode> state{initialModeFromEnv()};
    return state;
}

/** Broadcast-add @p bias over the rows of @p m (the split-epilogue
    bias pass; the fused path adds it in the GEMM tile store). */
void
addBiasRows(Matrix &m, const Matrix &bias)
{
    const float *b = bias.data();
    parallelFor(0, m.rows(), [&](std::size_t r) {
        float *row = m.data() + r * m.cols();
        for (std::size_t c = 0; c < m.cols(); ++c) {
            row[c] += b[c];
        }
    });
}

/** X * W (+ bias), honoring the process-wide epilogue-fusion toggle so
    the delayed route sees the same EDGEPC_GEMM_EPILOGUE matrix as the
    eager Linear::forward. */
Matrix
linearNoSave(const Matrix &x, const Matrix &weight, const Matrix &bias,
             GemmEngine &engine)
{
    if (bias.numel() > 0 && GemmEngine::fusedEpilogues()) {
        return engine.multiply(x, weight, GemmEpilogue::Bias, bias);
    }
    Matrix out = engine.multiply(x, weight);
    if (bias.numel() > 0) {
        addBiasRows(out, bias);
    }
    return out;
}

/** The N x (3+C) [p | f] matrix phi runs on. */
Matrix
buildUnifiedRows(std::span<const Vec3> positions, const Matrix &features)
{
    const std::size_t n = positions.size();
    const std::size_t feat_dim = features.empty() ? 0 : features.cols();
    Matrix unified = Matrix::forOverwrite(n, 3 + feat_dim);
    parallelFor(0, n, [&](std::size_t i) {
        float *dst = unified.data() + i * (3 + feat_dim);
        dst[0] = positions[i].x;
        dst[1] = positions[i].y;
        dst[2] = positions[i].z;
        if (feat_dim > 0) {
            const float *src = features.data() + i * feat_dim;
            std::copy(src, src + feat_dim, dst + 3);
        }
    });
    return unified;
}

/** The n x 3 sampled-center coordinate matrix psi runs on. */
Matrix
buildCenterRows(std::span<const Vec3> positions,
                std::span<const std::uint32_t> sample_indices)
{
    Matrix centers = Matrix::forOverwrite(sample_indices.size(), 3);
    for (std::size_t i = 0; i < sample_indices.size(); ++i) {
        const Vec3 p = positions[sample_indices[i]];
        centers.at(i, 0) = p.x;
        centers.at(i, 1) = p.y;
        centers.at(i, 2) = p.z;
    }
    return centers;
}

/** Copy of rows [begin, end) of @p weight (a row-slab submatrix). */
Matrix
weightRowSlab(const Matrix &weight, std::size_t begin, std::size_t end)
{
    Matrix slab = Matrix::forOverwrite(end - begin, weight.cols());
    std::copy(weight.data() + begin * weight.cols(),
              weight.data() + end * weight.cols(), slab.data());
    return slab;
}

/** Dphi[j] = sum of grad_pre rows whose gather index is j (the same
    sequential scatter-add as GroupingLayer::backward: rows collide). */
Matrix
scatterAddRows(const Matrix &grad_pre,
               std::span<const std::uint32_t> indices,
               std::size_t unique_rows)
{
    const std::size_t cols = grad_pre.cols();
    Matrix out(unique_rows, cols);
    for (std::size_t r = 0; r < indices.size(); ++r) {
        const float *src = grad_pre.data() + r * cols;
        float *dst = out.data() + std::size_t(indices[r]) * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c] += src[c];
        }
    }
    return out;
}

/** Dpsi[i] = sum of grad_pre rows of group i (k consecutive rows). */
Matrix
segmentSumRows(const Matrix &grad_pre, std::size_t k)
{
    const std::size_t groups = grad_pre.rows() / k;
    const std::size_t cols = grad_pre.cols();
    Matrix out(groups, cols);
    parallelFor(0, groups, [&](std::size_t i) {
        float *dst = out.data() + i * cols;
        for (std::size_t j = 0; j < k; ++j) {
            const float *src = grad_pre.data() + (i * k + j) * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                dst[c] += src[c];
            }
        }
    });
    return out;
}

/** db += column sums of grad_pre (identical to Linear::backward). */
void
accumulateBiasGrad(const Matrix &grad_pre, Parameter &bias)
{
    float *bg = bias.grad.data();
    for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
        const float *row = grad_pre.data() + r * grad_pre.cols();
        for (std::size_t c = 0; c < grad_pre.cols(); ++c) {
            bg[c] += row[c];
        }
    }
}

} // namespace

DelayedAggMode
delayedAggMode()
{
    return modeState().load(std::memory_order_relaxed);
}

void
setDelayedAggMode(DelayedAggMode mode)
{
    modeState().store(mode, std::memory_order_relaxed);
}

const char *
delayedAggModeName()
{
    switch (delayedAggMode()) {
      case DelayedAggMode::Off:
        return "off";
      case DelayedAggMode::On:
        return "on";
      case DelayedAggMode::Auto:
        return "auto";
    }
    return "auto";
}

bool
resolveDelayedAgg(DelayedAggMode config_mode, double flop_ratio)
{
    switch (delayedAggMode()) {
      case DelayedAggMode::On:
        return true;
      case DelayedAggMode::Off:
        return false;
      case DelayedAggMode::Auto:
        break;
    }
    switch (config_mode) {
      case DelayedAggMode::On:
        return true;
      case DelayedAggMode::Off:
        return false;
      case DelayedAggMode::Auto:
        break;
    }
    return flop_ratio >= kDelayedAggFlopRatio;
}

double
saDelayedFlopRatio(std::size_t unique_points, std::size_t samples,
                   std::size_t k, std::size_t feat_dim)
{
    // Per output channel: eager multiplies n*k grouped (3+C)-wide
    // rows; delayed multiplies N unique (3+C)-wide rows plus n 3-wide
    // centers.
    const double eager = static_cast<double>(samples * k) *
                         static_cast<double>(3 + feat_dim);
    const double delayed = static_cast<double>(unique_points) *
                               static_cast<double>(3 + feat_dim) +
                           static_cast<double>(samples) * 3.0;
    return delayed > 0.0 ? eager / delayed : 1.0;
}

double
edgeDelayedFlopRatio(std::size_t k)
{
    // Eager: N*k rows x 2C. Delayed: two N-row C-wide GEMMs.
    return static_cast<double>(k);
}

Matrix
delayedSaFirstLinear(std::span<const Vec3> positions,
                     const Matrix &features,
                     std::span<const std::uint32_t> sample_indices,
                     const NeighborLists &neighbors, const Matrix &weight,
                     const Matrix &bias, GemmEngine &engine,
                     DelayedSaCache *cache)
{
    const std::size_t feat_dim = features.empty() ? 0 : features.cols();
    if (weight.rows() != 3 + feat_dim) {
        fatal("delayedSaFirstLinear: weight rows %zu != 3 + C (%zu)",
              weight.rows(), 3 + feat_dim);
    }
    const std::size_t n = sample_indices.size();
    const std::size_t k = neighbors.k;
    if (neighbors.queries() != n) {
        fatal("delayedSaFirstLinear: %zu queries != %zu samples",
              neighbors.queries(), n);
    }
    const std::size_t c_out = weight.cols();

    // phi = [p | f] W + b over the N unique points (the bias rides in
    // phi so the combine applies it exactly once per grouped row).
    const Matrix unified = buildUnifiedRows(positions, features);
    const Matrix phi = linearNoSave(unified, weight, bias, engine);

    // psi = p_center W_pos over the n sampled centers.
    const Matrix centers = buildCenterRows(positions, sample_indices);
    const Matrix w_pos = weightRowSlab(weight, 0, 3);
    const Matrix psi = engine.multiply(centers, w_pos);

    Matrix pre = Matrix::forOverwrite(n * k, c_out);
    const float *phi_base = phi.data();
    const float *psi_base = psi.data();
    float *pre_base = pre.data();
    // EDGEPC_HOT: delayed-aggregation combine, gather + subtract.
    parallelFor(0, n, [&](std::size_t i) {
        const auto row = neighbors.row(i);
        const float *psi_row = psi_base + i * c_out;
        for (std::size_t j = 0; j < k; ++j) {
            const float *phi_row =
                phi_base + std::size_t(row[j]) * c_out;
            float *dst = pre_base + (i * k + j) * c_out;
            for (std::size_t c = 0; c < c_out; ++c) {
                dst[c] = phi_row[c] - psi_row[c];
            }
        }
    });

    if (cache != nullptr) {
        cache->unified = unified;
        cache->centers = centers;
        cache->neighborIdx.assign(neighbors.indices.begin(),
                                  neighbors.indices.end());
        cache->k = k;
        cache->featDim = feat_dim;
    }
    return pre;
}

Matrix
delayedSaFirstLinearBackward(const DelayedSaCache &cache,
                             const Matrix &grad_pre, Parameter &weight,
                             Parameter &bias, GemmEngine &engine)
{
    const std::size_t c_out = grad_pre.cols();
    const std::size_t unique = cache.unified.rows();

    // pre[r] = unified[nb_r] W + b - centers[i_r] W_pos, so with
    // Dphi[j] = sum_{r: nb_r = j} dPre[r] and Dpsi[i] = sum of group
    // i's rows: dW = U^T Dphi - pad3(Pc^T Dpsi), db = column sums.
    const Matrix d_phi = scatterAddRows(grad_pre, cache.neighborIdx,
                                        unique);
    const Matrix d_psi = segmentSumRows(grad_pre, cache.k);

    engine.multiplyLeftTransposedAdd(cache.unified, d_phi, weight.grad);
    const Matrix d_w_pos =
        engine.multiplyLeftTransposed(cache.centers, d_psi);
    for (std::size_t r = 0; r < 3; ++r) {
        float *wg = weight.grad.data() + r * c_out;
        const float *src = d_w_pos.data() + r * c_out;
        for (std::size_t c = 0; c < c_out; ++c) {
            wg[c] -= src[c];
        }
    }
    accumulateBiasGrad(grad_pre, bias);

    // dF = Dphi W_f^T (the feature columns of the unified rows); the
    // coordinate part carries no learnable gradient, matching the
    // eager path's discarded rel-coordinate gradient.
    if (cache.featDim == 0) {
        return Matrix(unique, 0);
    }
    const Matrix w_feat =
        weightRowSlab(weight.value, 3, 3 + cache.featDim);
    return engine.multiplyTransposed(d_phi, w_feat);
}

Matrix
delayedSaSingleStageInfer(std::span<const Vec3> positions,
                          const Matrix &features,
                          std::span<const std::uint32_t> sample_indices,
                          const NeighborLists &neighbors,
                          const Matrix &weight, const Matrix &bias,
                          GemmEngine &engine)
{
    const std::size_t n = sample_indices.size();
    if (neighbors.queries() != n) {
        fatal("delayedSaSingleStageInfer: %zu queries != %zu samples",
              neighbors.queries(), n);
    }
    const std::size_t c_out = weight.cols();

    const Matrix unified = buildUnifiedRows(positions, features);
    const Matrix phi = linearNoSave(unified, weight, bias, engine);
    const Matrix centers = buildCenterRows(positions, sample_indices);
    const Matrix w_pos = weightRowSlab(weight, 0, 3);
    const Matrix psi = engine.multiply(centers, w_pos);

    // out = relu(max_j phi[nb] - psi): the per-group shift commutes
    // with the max and ReLU is monotone, so no (n*k)-row matrix ever
    // exists — gatherMaxPoolInto pools the transformed unique rows
    // straight into the output.
    Matrix out = Matrix::forOverwrite(n, c_out);
    gatherMaxPoolInto(phi, neighbors,
                      std::span<float>(out.data(), out.numel()));
    const float *psi_base = psi.data();
    float *out_base = out.data();
    // EDGEPC_HOT: fused shift + ReLU epilogue over the pooled rows.
    parallelFor(0, n, [&](std::size_t i) {
        const float *psi_row = psi_base + i * c_out;
        float *row = out_base + i * c_out;
        for (std::size_t c = 0; c < c_out; ++c) {
            const float v = row[c] - psi_row[c];
            row[c] = v > 0.0f ? v : 0.0f;
        }
    });
    return out;
}

Matrix
delayedEdgeFirstLinear(const Matrix &features,
                       const NeighborLists &neighbors,
                       const Matrix &weight, const Matrix &bias,
                       GemmEngine &engine, DelayedEdgeCache *cache)
{
    const std::size_t n = neighbors.queries();
    const std::size_t k = neighbors.k;
    const std::size_t c = features.cols();
    if (features.rows() != n) {
        fatal("delayedEdgeFirstLinear: %zu feature rows != %zu queries",
              features.rows(), n);
    }
    if (weight.rows() != 2 * c) {
        fatal("delayedEdgeFirstLinear: weight rows %zu != 2C (%zu)",
              weight.rows(), 2 * c);
    }
    const std::size_t c_out = weight.cols();

    // [f_i | f_j - f_i] [Ws; Wd] + b = f_i (Ws - Wd) + f_j Wd + b:
    // psi = F (Ws - Wd) + b (bias rides in the self term), phi = F Wd.
    Matrix w_self_minus_diff = weightRowSlab(weight, 0, c);
    {
        const float *wd = weight.data() + c * c_out;
        float *m = w_self_minus_diff.data();
        for (std::size_t i = 0; i < c * c_out; ++i) {
            m[i] -= wd[i];
        }
    }
    const Matrix w_diff = weightRowSlab(weight, c, 2 * c);
    const Matrix psi = linearNoSave(features, w_self_minus_diff, bias,
                                    engine);
    const Matrix phi = engine.multiply(features, w_diff);

    Matrix pre = Matrix::forOverwrite(n * k, c_out);
    const float *phi_base = phi.data();
    const float *psi_base = psi.data();
    float *pre_base = pre.data();
    // EDGEPC_HOT: delayed edge combine, gather + add.
    parallelFor(0, n, [&](std::size_t i) {
        const auto row = neighbors.row(i);
        const float *psi_row = psi_base + i * c_out;
        for (std::size_t j = 0; j < k; ++j) {
            const float *phi_row =
                phi_base + std::size_t(row[j]) * c_out;
            float *dst = pre_base + (i * k + j) * c_out;
            for (std::size_t cc = 0; cc < c_out; ++cc) {
                dst[cc] = psi_row[cc] + phi_row[cc];
            }
        }
    });

    if (cache != nullptr) {
        cache->features = features;
        cache->neighbors = neighbors;
    }
    return pre;
}

Matrix
delayedEdgeFirstLinearBackward(const DelayedEdgeCache &cache,
                               const Matrix &grad_pre, Parameter &weight,
                               Parameter &bias, GemmEngine &engine)
{
    const std::size_t n = cache.neighbors.queries();
    const std::size_t k = cache.neighbors.k;
    const std::size_t c = cache.features.cols();
    const std::size_t c_out = grad_pre.cols();

    const Matrix d_psi = segmentSumRows(grad_pre, k);
    const Matrix d_phi =
        scatterAddRows(grad_pre, cache.neighbors.indices, n);

    // pre depends on Ws only through M = Ws - Wd: dWs = F^T Dpsi,
    // dWd = F^T Dphi - F^T Dpsi.
    const Matrix d_m = engine.multiplyLeftTransposed(cache.features,
                                                     d_psi);
    const Matrix d_phi_w =
        engine.multiplyLeftTransposed(cache.features, d_phi);
    for (std::size_t r = 0; r < c; ++r) {
        float *ws = weight.grad.data() + r * c_out;
        float *wd = weight.grad.data() + (c + r) * c_out;
        const float *dm = d_m.data() + r * c_out;
        const float *dp = d_phi_w.data() + r * c_out;
        for (std::size_t cc = 0; cc < c_out; ++cc) {
            ws[cc] += dm[cc];
            wd[cc] += dp[cc] - dm[cc];
        }
    }
    accumulateBiasGrad(grad_pre, bias);

    // dF = Dpsi M^T + Dphi Wd^T.
    Matrix w_self_minus_diff = weightRowSlab(weight.value, 0, c);
    {
        const float *wd = weight.value.data() + c * c_out;
        float *m = w_self_minus_diff.data();
        for (std::size_t i = 0; i < c * c_out; ++i) {
            m[i] -= wd[i];
        }
    }
    const Matrix w_diff = weightRowSlab(weight.value, c, 2 * c);
    Matrix d_features =
        engine.multiplyTransposed(d_psi, w_self_minus_diff);
    d_features.add(engine.multiplyTransposed(d_phi, w_diff));
    return d_features;
}

} // namespace nn
} // namespace edgepc
