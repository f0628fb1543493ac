#include "nn/grouping.hpp"

#include <algorithm>
#include <list>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"

namespace edgepc {
namespace nn {

void
gatherRowsInto(const Matrix &features,
               std::span<const std::uint32_t> indices,
               std::span<float> out)
{
    const std::size_t cols = features.cols();
    if (out.size() < indices.size() * cols) {
        fatal("gatherRowsInto: buffer %zu < required %zu", out.size(),
              indices.size() * cols);
    }
    float *dst_base = out.data();
    // EDGEPC_HOT: row gather into the caller's (arena) buffer.
    parallelFor(0, indices.size(), [&](std::size_t r) {
        const float *src = features.data() + std::size_t(indices[r]) * cols;
        float *dst = dst_base + r * cols;
        std::copy(src, src + cols, dst);
    });
}

Matrix
gatherRows(const Matrix &features, std::span<const std::uint32_t> indices)
{
    Matrix out = Matrix::forOverwrite(indices.size(), features.cols());
    gatherRowsInto(features, indices,
                   std::span<float>(out.data(), out.numel()));
    return out;
}

Matrix
gatherLinear(const Matrix &features,
             std::span<const std::uint32_t> indices, const Matrix &weight,
             const Matrix &bias, GemmEngine &engine)
{
    const std::size_t c_in = features.cols();
    const std::size_t c_out = weight.cols();
    if (c_in != weight.rows()) {
        fatal("gatherLinear: feature C %zu != weight rows %zu", c_in,
              weight.rows());
    }
    const std::size_t m = indices.size();

    // The gathered activation lives only in the arena: its lifetime is
    // exactly the GEMM call, which consumes it row-block by row-block
    // while packing.
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    std::span<float> gathered = arena.alloc<float>(m * c_in);
    gatherRowsInto(features, indices, gathered);

    const bool has_bias = bias.numel() > 0;
    Matrix out = Matrix::forOverwrite(m, c_out);
    engine.gemm(gathered.data(), weight.data(), out.data(), m, c_in,
                c_out, has_bias ? GemmEpilogue::Bias : GemmEpilogue::None,
                has_bias ? bias.data() : nullptr);
    return out;
}

void
gatherMaxPoolInto(const Matrix &features, const NeighborLists &neighbors,
                  std::span<float> out)
{
    const std::size_t cols = features.cols();
    const std::size_t n = neighbors.queries();
    if (neighbors.k == 0) {
        std::fill(out.begin(), out.end(), 0.0f);
        return;
    }
    if (out.size() < n * cols) {
        fatal("gatherMaxPoolInto: buffer %zu < required %zu", out.size(),
              n * cols);
    }
    const std::size_t k = neighbors.k;
    const float *src_base = features.data();
    float *out_base = out.data();
    // EDGEPC_HOT: fused gather + neighbor max-pool (no stacked matrix).
    parallelFor(0, n, [&](std::size_t i) {
        const auto row = neighbors.row(i);
        float *dst = out_base + i * cols;
        const float *first = src_base + std::size_t(row[0]) * cols;
        std::copy(first, first + cols, dst);
        for (std::size_t j = 1; j < k; ++j) {
            const float *src = src_base + std::size_t(row[j]) * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                if (src[c] > dst[c]) {
                    dst[c] = src[c];
                }
            }
        }
    });
}

Matrix
gatherMaxPool(const Matrix &features, const NeighborLists &neighbors)
{
    Matrix out =
        Matrix::forOverwrite(neighbors.queries(), features.cols());
    gatherMaxPoolInto(features, neighbors,
                      std::span<float>(out.data(), out.numel()));
    return out;
}

void
groupWithRelativeCoordsInto(std::span<const Vec3> positions,
                            const Matrix &features,
                            std::span<const std::uint32_t> sample_indices,
                            const NeighborLists &neighbors,
                            std::span<float> out)
{
    const std::size_t n = sample_indices.size();
    const std::size_t k = neighbors.k;
    if (neighbors.queries() != n) {
        fatal("groupWithRelativeCoords: %zu queries != %zu samples",
              neighbors.queries(), n);
    }
    const std::size_t feat_dim = features.empty() ? 0 : features.cols();
    const std::size_t out_dim = 3 + feat_dim;
    if (out.size() < n * k * out_dim) {
        fatal("groupWithRelativeCoordsInto: buffer %zu < required %zu",
              out.size(), n * k * out_dim);
    }

    float *out_base = out.data();
    // EDGEPC_HOT: grouped gather with relative-coordinate prefix.
    parallelFor(0, n, [&](std::size_t i) {
        const Vec3 center = positions[sample_indices[i]];
        const auto row = neighbors.row(i);
        for (std::size_t j = 0; j < k; ++j) {
            const std::uint32_t nb = row[j];
            float *dst = out_base + (i * k + j) * out_dim;
            const Vec3 rel = positions[nb] - center;
            dst[0] = rel.x;
            dst[1] = rel.y;
            dst[2] = rel.z;
            if (feat_dim > 0) {
                const float *src =
                    features.data() + std::size_t(nb) * feat_dim;
                std::copy(src, src + feat_dim, dst + 3);
            }
        }
    });
}

Matrix
groupWithRelativeCoords(std::span<const Vec3> positions,
                        const Matrix &features,
                        std::span<const std::uint32_t> sample_indices,
                        const NeighborLists &neighbors)
{
    const std::size_t feat_dim = features.empty() ? 0 : features.cols();
    Matrix out = Matrix::forOverwrite(sample_indices.size() * neighbors.k,
                                      3 + feat_dim);
    groupWithRelativeCoordsInto(positions, features, sample_indices,
                                neighbors,
                                std::span<float>(out.data(), out.numel()));
    return out;
}

void
edgeFeaturesInto(const Matrix &features, const NeighborLists &neighbors,
                 std::span<float> out)
{
    const std::size_t n = neighbors.queries();
    const std::size_t k = neighbors.k;
    const std::size_t c = features.cols();
    if (features.rows() != n) {
        fatal("edgeFeatures: %zu feature rows != %zu queries",
              features.rows(), n);
    }
    if (out.size() < n * k * 2 * c) {
        fatal("edgeFeaturesInto: buffer %zu < required %zu", out.size(),
              n * k * 2 * c);
    }

    float *out_base = out.data();
    // EDGEPC_HOT: edge-feature gather [f_i | f_j - f_i].
    parallelFor(0, n, [&](std::size_t i) {
        const float *fi = features.data() + i * c;
        const auto row = neighbors.row(i);
        for (std::size_t j = 0; j < k; ++j) {
            const float *fj =
                features.data() + std::size_t(row[j]) * c;
            float *dst = out_base + (i * k + j) * 2 * c;
            for (std::size_t d = 0; d < c; ++d) {
                dst[d] = fi[d];
                dst[c + d] = fj[d] - fi[d];
            }
        }
    });
}

Matrix
edgeFeatures(const Matrix &features, const NeighborLists &neighbors)
{
    Matrix out = Matrix::forOverwrite(neighbors.queries() * neighbors.k,
                                      2 * features.cols());
    edgeFeaturesInto(features, neighbors,
                     std::span<float>(out.data(), out.numel()));
    return out;
}

Matrix
applyInterpolation(const InterpolationPlan &plan,
                   const Matrix &source_features)
{
    const std::size_t c = source_features.cols();
    Matrix out(plan.targets(), c);
    addInterpolation(plan, source_features.storage(), c, out.storage());
    return out;
}

void
addInterpolation(const InterpolationPlan &plan,
                 std::span<const float> source, std::size_t cols,
                 std::span<float> out)
{
    const std::size_t targets = plan.targets();
    const std::size_t k = plan.k;
    if (out.size() < targets * cols) {
        fatal("addInterpolation: buffer %zu < required %zu", out.size(),
              targets * cols);
    }
    const float *src_base = source.data();
    float *out_base = out.data();
    // EDGEPC_HOT: FP up-sampling, k weighted source rows per target.
    parallelFor(0, targets, [&](std::size_t t) {
        float *dst = out_base + t * cols;
        for (std::size_t j = 0; j < k; ++j) {
            const float w = plan.weights[t * k + j];
            const float *src =
                src_base + std::size_t(plan.indices[t * k + j]) * cols;
            for (std::size_t d = 0; d < cols; ++d) {
                dst[d] += w * src[d];
            }
        }
    });
}

// ---------------------------------------------------------------------
// GroupingLayer
// ---------------------------------------------------------------------

void
GroupingLayer::setIndices(std::span<const std::uint32_t> indices)
{
    idx.assign(indices.begin(), indices.end());
}

Matrix
GroupingLayer::forward(const Matrix &input, const GemmRoute &, bool train)
{
    if (train) {
        savedRows = input.rows();
    }
    return gatherRows(input, idx);
}

Matrix
GroupingLayer::backward(const Matrix &grad_output)
{
    const std::size_t cols = grad_output.cols();
    Matrix grad_in(savedRows, cols);
    // Scatter-add (sequential: rows may collide).
    for (std::size_t r = 0; r < idx.size(); ++r) {
        const float *src = grad_output.data() + r * cols;
        float *dst = grad_in.data() + std::size_t(idx[r]) * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c] += src[c];
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// EdgeFeatureLayer
// ---------------------------------------------------------------------

void
EdgeFeatureLayer::setNeighbors(NeighborLists lists)
{
    neighbors = std::move(lists);
}

Matrix
EdgeFeatureLayer::forward(const Matrix &input, const GemmRoute &, bool train)
{
    if (train) {
        savedRows = input.rows();
    }
    return edgeFeatures(input, neighbors);
}

Matrix
EdgeFeatureLayer::backward(const Matrix &grad_output)
{
    const std::size_t k = neighbors.k;
    const std::size_t c = grad_output.cols() / 2;
    Matrix grad_in(savedRows, c);
    for (std::size_t i = 0; i < neighbors.queries(); ++i) {
        float *gi = grad_in.data() + i * c;
        const auto row = neighbors.row(i);
        for (std::size_t j = 0; j < k; ++j) {
            const float *dy = grad_output.data() + (i * k + j) * 2 * c;
            float *gj = grad_in.data() + std::size_t(row[j]) * c;
            for (std::size_t d = 0; d < c; ++d) {
                // d[f_i] += dy_self - dy_edge ; d[f_j] += dy_edge.
                gi[d] += dy[d] - dy[c + d];
                gj[d] += dy[c + d];
            }
        }
    }
    return grad_in;
}

// ---------------------------------------------------------------------
// Cache traffic model
// ---------------------------------------------------------------------

namespace {

/** Fully associative LRU cache over 64-byte line addresses. */
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity_lines) : cap(capacity_lines) {}

    /** Access a line; returns true on hit. */
    bool access(std::uint64_t line)
    {
        const auto it = where.find(line);
        if (it != where.end()) {
            order.splice(order.begin(), order, it->second);
            return true;
        }
        order.push_front(line);
        where[line] = order.begin();
        if (order.size() > cap) {
            where.erase(order.back());
            order.pop_back();
        }
        return false;
    }

  private:
    std::size_t cap;
    std::list<std::uint64_t> order;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        where;
};

} // namespace

GatherTraffic
estimateGatherTraffic(std::span<const std::uint32_t> indices,
                      std::size_t row_bytes, std::size_t l1_lines,
                      std::size_t l2_lines)
{
    constexpr std::size_t line_bytes = 64;
    // Transactions move 128-byte segments (two lines): back-to-back
    // misses inside one segment coalesce.
    constexpr std::uint64_t lines_per_segment = 2;
    LruCache l1(l1_lines);
    LruCache l2(l2_lines);
    GatherTraffic traffic;

    std::uint64_t last_l2_segment = ~0ull;
    std::uint64_t last_dram_segment = ~0ull;

    for (const std::uint32_t idx : indices) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(idx) * row_bytes;
        const std::uint64_t first_line = base / line_bytes;
        const std::uint64_t last_line =
            (base + row_bytes - 1) / line_bytes;
        for (std::uint64_t line = first_line; line <= last_line; ++line) {
            if (l1.access(line)) {
                continue;
            }
            const std::uint64_t segment = line / lines_per_segment;
            if (segment != last_l2_segment) {
                ++traffic.l2Lines;
                last_l2_segment = segment;
            }
            if (!l2.access(line)) {
                if (segment != last_dram_segment) {
                    ++traffic.dramLines;
                    last_dram_segment = segment;
                }
            }
        }
    }
    return traffic;
}

GatherTraffic
estimateWarpGatherTraffic(const NeighborLists &lists,
                          std::size_t row_bytes, std::size_t warp,
                          std::size_t l2_lines)
{
    constexpr std::size_t segment_bytes = 128;
    LruCache l2(l2_lines);
    GatherTraffic traffic;
    const std::size_t queries = lists.queries();
    const std::size_t k = lists.k;

    std::vector<std::uint64_t> segments;
    for (std::size_t warp_lo = 0; warp_lo < queries; warp_lo += warp) {
        const std::size_t warp_hi = std::min(queries, warp_lo + warp);
        for (std::size_t j = 0; j < k; ++j) {
            // One coalesced instruction: thread t reads neighbor j of
            // query warp_lo + t.
            segments.clear();
            for (std::size_t q = warp_lo; q < warp_hi; ++q) {
                const std::uint64_t base =
                    static_cast<std::uint64_t>(
                        lists.indices[q * k + j]) *
                    row_bytes;
                const std::uint64_t first = base / segment_bytes;
                const std::uint64_t last =
                    (base + row_bytes - 1) / segment_bytes;
                for (std::uint64_t s = first; s <= last; ++s) {
                    segments.push_back(s);
                }
            }
            std::sort(segments.begin(), segments.end());
            segments.erase(
                std::unique(segments.begin(), segments.end()),
                segments.end());
            traffic.l2Lines += segments.size();
            for (const std::uint64_t s : segments) {
                if (!l2.access(s)) {
                    ++traffic.dramLines;
                }
            }
        }
    }
    return traffic;
}

NeighborLists
sortNeighborRows(const NeighborLists &lists)
{
    NeighborLists out = lists;
    for (std::size_t q = 0; q < out.queries(); ++q) {
        std::uint32_t *row = out.indices.data() + q * out.k;
        std::sort(row, row + out.k);
    }
    return out;
}

} // namespace nn
} // namespace edgepc
