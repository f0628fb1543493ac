#include "nn/delayed_agg.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "nn/grouping.hpp"

namespace edgepc {
namespace nn {

namespace {

/** The @p rows x @p k matrix at @p a times rows [w_row, w_row + k) of
    @p weight, plus @p bias (weight.cols() floats, or null) in the
    GEMM epilogue, into @p out — always on the fp32 GEMM. */
void
linearRowsInto(const float *a, std::size_t rows, std::size_t k,
               const Matrix &weight, std::size_t w_row, const float *bias,
               float *out, GemmEngine &engine)
{
    const std::size_t n = weight.cols();
    engine.gemm(a, weight.data() + w_row * n, out, rows, k, n,
                bias != nullptr ? GemmEpilogue::Bias : GemmEpilogue::None,
                bias);
}

/** X * W (+ bias) on the fp32 GEMM. */
Matrix
linearNoSave(const Matrix &x, const Matrix &weight, const Matrix &bias,
             GemmEngine &engine)
{
    if (x.cols() != weight.rows()) {
        fatal("linearNoSave: %zux%zu times %zux%zu", x.rows(), x.cols(),
              weight.rows(), weight.cols());
    }
    Matrix out = Matrix::forOverwrite(x.rows(), weight.cols());
    linearRowsInto(x.data(), x.rows(), x.cols(), weight, 0,
                   bias.numel() > 0 ? bias.data() : nullptr, out.data(),
                   engine);
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

/** dG = interp^T(dY): each target row of @p grad_pre scattered onto
    its plan sources with their weights (sequential: sources collide). */
Matrix
scatterInterpolation(const InterpolationPlan &plan, const Matrix &grad_pre,
                     std::size_t source_rows)
{
    const std::size_t cols = grad_pre.cols();
    const std::size_t k = plan.k;
    Matrix out(source_rows, cols);
    for (std::size_t t = 0; t < plan.targets(); ++t) {
        const float *dy = grad_pre.data() + t * cols;
        for (std::size_t j = 0; j < k; ++j) {
            const float w = plan.weights[t * k + j];
            float *dst =
                out.data() + std::size_t(plan.indices[t * k + j]) * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                dst[c] += w * dy[c];
            }
        }
    }
    return out;
}

/** The 1 x C column sums of @p m, in row order (as Linear::backward
    sums its bias gradient). */
Matrix
columnSums(const Matrix &m)
{
    Matrix sums(1, m.cols());
    float *s = sums.data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *row = m.data() + r * m.cols();
        for (std::size_t c = 0; c < m.cols(); ++c) {
            s[c] += row[c];
        }
    }
    return sums;
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

/** Rows [begin, begin + a.cols()) of @p grad += A^T B: the weight
    gradient of a row slab. */
void
accumulateSlabGrad(const Matrix &a, const Matrix &b, Matrix &grad,
                   std::size_t begin, GemmEngine &engine)
{
    const Matrix d = engine.multiplyLeftTransposed(a, b);
    float *dst = grad.data() + begin * grad.cols();
    for (std::size_t i = 0; i < d.numel(); ++i) {
        dst[i] += d.data()[i];
    }
}

} // namespace

bool
resolveDelayedAgg(Route route, double flop_ratio)
{
    switch (route) {
      case Route::On:
        return true;
      case Route::Off:
        return false;
      case Route::Auto:
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

Matrix
broadcastFirstLinear(const Matrix &local, const Matrix &global_row,
                     const Matrix &weight, const Matrix &bias,
                     GemmEngine &engine, BroadcastLinearCache *cache)
{
    const std::size_t c = local.cols();
    const std::size_t p = global_row.cols();
    if (global_row.rows() != 1) {
        fatal("broadcastFirstLinear: expected a single global row, got %zu",
              global_row.rows());
    }
    if (weight.rows() != c + p || bias.numel() != weight.cols()) {
        fatal("broadcastFirstLinear: weight %zux%zu, bias %zu for "
              "[%zu | %zu] inputs",
              weight.rows(), weight.cols(), bias.numel(), c, p);
    }
    const std::size_t c_out = weight.cols();

    // [C | 1 p] W + b = C W_top + (p W_bot + b): the row product is the
    // bias of the n-row GEMM.
    Matrix row = Matrix::forOverwrite(1, c_out);
    linearRowsInto(global_row.data(), 1, p, weight, c, bias.data(),
                   row.data(), engine);
    Matrix pre = Matrix::forOverwrite(local.rows(), c_out);
    linearRowsInto(local.data(), local.rows(), c, weight, 0, row.data(),
                   pre.data(), engine);

    if (cache != nullptr) {
        cache->local = local;
        cache->global = global_row;
    }
    return pre;
}

std::pair<Matrix, Matrix>
broadcastFirstLinearBackward(const BroadcastLinearCache &cache,
                             const Matrix &grad_pre, Parameter &weight,
                             Parameter &bias, GemmEngine &engine)
{
    const std::size_t c = cache.local.cols();
    const std::size_t p = cache.global.cols();

    // Every row saw the same p, so its weight and input gradients only
    // need the column sums of dY.
    const Matrix sums = columnSums(grad_pre);
    accumulateSlabGrad(cache.local, grad_pre, weight.grad, 0, engine);
    accumulateSlabGrad(cache.global, sums, weight.grad, c, engine);
    bias.grad.add(sums);

    Matrix d_local = engine.multiplyTransposed(
        grad_pre, weightRowSlab(weight.value, 0, c));
    Matrix d_global = engine.multiplyTransposed(
        sums, weightRowSlab(weight.value, c, c + p));
    return {std::move(d_local), std::move(d_global)};
}

Matrix
interpolatedFirstLinear(const Matrix &coarse,
                        std::span<const std::size_t> coarse_rows,
                        std::span<const InterpolationPlan *const> plans,
                        const Matrix &skip, const Matrix &weight,
                        const Matrix &bias, GemmEngine &engine,
                        InterpolatedLinearCache *cache)
{
    const std::size_t up = coarse.cols();
    const std::size_t skip_cols = skip.cols();
    if (weight.rows() != up + skip_cols || bias.numel() != weight.cols()) {
        fatal("interpolatedFirstLinear: weight %zux%zu, bias %zu for "
              "[%zu | %zu] inputs",
              weight.rows(), weight.cols(), bias.numel(), up, skip_cols);
    }
    if (coarse_rows.size() != plans.size()) {
        fatal("interpolatedFirstLinear: %zu coarse row counts for %zu "
              "plans",
              coarse_rows.size(), plans.size());
    }
    if (cache != nullptr && plans.size() != 1) {
        fatal("interpolatedFirstLinear: a training cache holds one cloud, "
              "got %zu",
              plans.size());
    }
    std::size_t coarse_total = 0;
    std::size_t targets = 0;
    for (std::size_t b = 0; b < plans.size(); ++b) {
        coarse_total += coarse_rows[b];
        targets += plans[b]->targets();
    }
    if (coarse_total != coarse.rows() || targets != skip.rows()) {
        fatal("interpolatedFirstLinear: %zu coarse rows (want %zu), %zu "
              "skip rows (want %zu)",
              coarse.rows(), coarse_total, skip.rows(), targets);
    }
    const std::size_t c_out = weight.cols();

    // [interp(F) | S] W + b = interp(F W_up) + (S W_skip + b): the
    // up-product runs on the coarse rows, and each cloud's plan adds
    // its interpolated rows onto its skip product.
    Matrix up_product = Matrix::forOverwrite(coarse_total, c_out);
    linearRowsInto(coarse.data(), coarse_total, up, weight, 0, nullptr,
                   up_product.data(), engine);
    Matrix pre = Matrix::forOverwrite(targets, c_out);
    linearRowsInto(skip.data(), targets, skip_cols, weight, up,
                   bias.data(), pre.data(), engine);
    std::size_t coarse_offset = 0;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < plans.size(); ++b) {
        const std::size_t rows = plans[b]->targets();
        addInterpolation(
            *plans[b],
            std::span<const float>(
                up_product.data() + coarse_offset * c_out,
                coarse_rows[b] * c_out),
            c_out,
            std::span<float>(pre.data() + offset * c_out, rows * c_out));
        coarse_offset += coarse_rows[b];
        offset += rows;
    }

    if (cache != nullptr) {
        cache->coarse = coarse;
        cache->skip = skip;
        cache->plan = *plans[0];
    }
    return pre;
}

std::pair<Matrix, Matrix>
interpolatedFirstLinearBackward(const InterpolatedLinearCache &cache,
                                const Matrix &grad_pre, Parameter &weight,
                                Parameter &bias, GemmEngine &engine)
{
    const std::size_t up = cache.coarse.cols();
    const std::size_t skip_cols = cache.skip.cols();

    // The up-product's gradient lives on the coarse rows: scatter dY
    // back through the plan first, then both GEMMs run there.
    const Matrix d_up =
        scatterInterpolation(cache.plan, grad_pre, cache.coarse.rows());
    accumulateSlabGrad(cache.coarse, d_up, weight.grad, 0, engine);
    accumulateSlabGrad(cache.skip, grad_pre, weight.grad, up, engine);
    accumulateBiasGrad(grad_pre, bias);

    Matrix d_coarse =
        engine.multiplyTransposed(d_up, weightRowSlab(weight.value, 0, up));
    Matrix d_skip = engine.multiplyTransposed(
        grad_pre, weightRowSlab(weight.value, up, up + skip_cols));
    return {std::move(d_coarse), std::move(d_skip)};
}

} // namespace nn
} // namespace edgepc
