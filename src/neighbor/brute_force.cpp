#include "neighbor/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "geometry/simd_distance.hpp"
#include "neighbor/kheap.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pointcloud/points_soa.hpp"

namespace edgepc {

namespace {

/// Byte budget of one feature-space tile: its distance rows plus its
/// centered query rows (DESIGN.md §16).
constexpr std::size_t kFeatureTileBytes = std::size_t{1} << 20;

/// Largest ‖x − μ‖² sum a query and a candidate may reach: below it no
/// term or partial sum of ‖q‖² − 2q·c + ‖c‖² can overflow fp32, since
/// |2q·c| <= ‖q‖² + ‖c‖² (DESIGN.md §16).
constexpr float kMaxSquaredNorm = std::numeric_limits<float>::max() / 4;

/**
 * Query rows per feature-space tile: as many as fit kFeatureTileBytes,
 * at least one. Derived from the shape alone, never from the pool, so
 * the lists do not depend on the thread count.
 */
std::size_t
featureTileRows(std::size_t nc, std::size_t dim)
{
    return std::max<std::size_t>(
        1, kFeatureTileBytes / ((nc + dim) * sizeof(float)));
}

/**
 * Column means of @p nc row-major rows of @p dim floats, each summed in
 * double in row order. Raises NonFiniteData when a mean is not finite:
 * a double sum of finite floats cannot overflow, so that happens
 * exactly when some candidate holds a NaN or an infinity.
 */
void
candidateMean(const float *rows, std::size_t nc, std::size_t dim,
              float *mean)
{
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const std::span<double> sum = arena.alloc<double>(dim);
    std::fill(sum.begin(), sum.end(), 0.0);
    // EDGEPC_HOT: one streaming pass over the candidates.
    for (std::size_t c = 0; c < nc; ++c) {
        const float *row = rows + c * dim;
        for (std::size_t d = 0; d < dim; ++d) {
            sum[d] += row[d];
        }
    }
    for (std::size_t d = 0; d < dim; ++d) {
        mean[d] = static_cast<float>(sum[d] / static_cast<double>(nc));
        if (!std::isfinite(mean[d])) {
            raise(ErrorCode::NonFiniteData,
                  "searchFeatureSpace: candidate column %zu holds a NaN "
                  "or an infinity",
                  d);
        }
    }
}

} // namespace

NeighborLists
BruteForceKnn::search(std::span<const Vec3> queries,
                      std::span<const Vec3> candidates, std::size_t k)
{
    EDGEPC_TRACE_SCOPE("brute-force", "neighbor");
    static obs::Counter &qcount = obs::MetricsRegistry::global().counter(
        "neighbor.brute-force.queries");
    qcount.add(queries.size());
    if (candidates.empty() || k == 0) {
        raise(ErrorCode::EmptyCloud, "BruteForceKnn: empty candidate set or k == 0");
    }
    k = std::min(k, candidates.size());
    simd::recordDispatch();

    NeighborLists out;
    out.k = k;
    out.indices.resize(queries.size() * k);

    // The SoA is built once on the calling thread; worker threads only
    // read it (the task queue publication orders those reads).
    ScratchArena &caller_arena = ScratchArena::local();
    const ScratchArena::Frame frame(caller_arena);
    const PointsSoA soa(candidates, caller_arena);
    const std::size_t nc = candidates.size();

    // Fixed-point route (DESIGN.md §15): neighbors rank by exact
    // integer grid distance instead of fp32 distance. Opt-in only
    // (Auto resolves Off for k-NN) — see resolveFixedPointKnn.
    PointsFixed fixed;
    bool use_fixed = false;
    if (simd::resolveFixedPointKnn(fixedRoute)) {
        fixed = PointsFixed(soa, caller_arena);
        use_fixed = fixed.valid();
    }
    if (use_fixed) {
        simd::recordFixedDispatch(queries.size());
    }

    // EDGEPC_HOT: per-query scan — arena scratch only, no allocation.
    parallelFor(0, queries.size(), [&](std::size_t q) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame qframe(arena);
        const std::span<float> dist = arena.alloc<float>(nc);
        const std::span<std::uint64_t> mask =
            arena.alloc<std::uint64_t>(simd::maskWords(kAdmitMaskChunk));
        if (use_fixed) {
            std::int16_t fqx = 0, fqy = 0, fqz = 0;
            fixed.quantizeQuery(queries[q], fqx, fqy, fqz);
            simd::batchSqDistFixed(fixed.xy(), fixed.zw(), nc, fqx, fqy,
                                   fqz, dist.data());
        } else {
            simd::batchSqDist(soa.xs(), soa.ys(), soa.zs(), nc,
                              queries[q], dist.data());
        }
        KHeap heap(arena.alloc<KHeap::Key>(k));
        admitMasked(heap, dist.data(), nc, mask.data(), kAdmitMaskChunk,
                    [](std::size_t i) {
                        return static_cast<std::uint32_t>(i);
                    });
        const auto row = heap.finish();
        for (std::size_t j = 0; j < k; ++j) {
            out.indices[q * k + j] = KHeap::indexOf(row[j]);
        }
    });
    return out;
}

NeighborLists
BruteForceKnn::searchFeatureSpace(std::span<const float> queries,
                                  std::span<const float> candidates,
                                  std::size_t dim, std::size_t k,
                                  const nn::GemmEngine &engine)
{
    EDGEPC_TRACE_SCOPE("brute-force-feature", "neighbor");
    static obs::Counter &qcount = obs::MetricsRegistry::global().counter(
        "neighbor.brute-force-feature.queries");
    if (dim == 0 || candidates.empty() || k == 0) {
        raise(ErrorCode::EmptyCloud,
              "searchFeatureSpace: empty candidate set, dim == 0 or k == 0");
    }
    if (queries.size() % dim != 0 || candidates.size() % dim != 0) {
        raise(ErrorCode::ShapeMismatch,
              "searchFeatureSpace: %zu query and %zu candidate floats are "
              "not whole rows of dim %zu",
              queries.size(), candidates.size(), dim);
    }
    const std::size_t nq = queries.size() / dim;
    const std::size_t nc = candidates.size() / dim;
    qcount.add(nq);
    k = std::min(k, nc);

    NeighborLists out;
    out.k = k;
    out.indices.resize(nq * k);
    if (nq == 0) {
        return out;
    }

    // Built once on the calling thread; the tile tasks only read them
    // (the task queue publication orders those reads).
    ScratchArena &caller_arena = ScratchArena::local();
    const ScratchArena::Frame frame(caller_arena);
    const std::span<float> mean = caller_arena.alloc<float>(dim);
    candidateMean(candidates.data(), nc, dim, mean.data());
    const nn::PackedTransposedB packed(engine, candidates.data(), nc, dim,
                                       mean.data(), caller_arena);
    const std::span<float> cnorm = caller_arena.alloc<float>(nc);
    packed.rowSquaredNorms(cnorm.data());
    float cmax = 0.0f;
    for (const float v : cnorm) {
        if (!(v <= kMaxSquaredNorm)) {
            raise(ErrorCode::NonFiniteData,
                  "searchFeatureSpace: candidate squared norm %g is not "
                  "finite or overflows fp32 distances",
                  static_cast<double>(v));
        }
        cmax = std::max(cmax, v);
    }

    const std::size_t tile_rows = featureTileRows(nc, dim);
    const std::size_t tiles = (nq + tile_rows - 1) / tile_rows;
    parallelFor(
        0, tiles,
        [&](std::size_t t) {
            ScratchArena &arena = ScratchArena::local();
            const ScratchArena::Frame tframe(arena);
            const std::size_t q0 = t * tile_rows;
            const std::size_t rows = std::min(tile_rows, nq - q0);
            const std::span<float> a = arena.alloc<float>(rows * dim);
            const std::span<float> qnorm = arena.alloc<float>(rows);
            const std::span<float> dist = arena.alloc<float>(rows * nc);
            const std::span<std::uint64_t> mask =
                arena.alloc<std::uint64_t>(simd::maskWords(kAdmitMaskChunk));
            const std::span<KHeap::Key> keys = arena.alloc<KHeap::Key>(k);
            // EDGEPC_HOT: one query tile — center, GEMM, select.
            for (std::size_t i = 0; i < rows; ++i) {
                const float *q = queries.data() + (q0 + i) * dim;
                float norm = 0.0f;
                for (std::size_t d = 0; d < dim; ++d) {
                    const float v = q[d] - mean[d];
                    norm += v * v;
                    a[i * dim + d] = -2.0f * v;
                }
                if (!(norm + cmax <= kMaxSquaredNorm)) {
                    raise(ErrorCode::NonFiniteData,
                          "searchFeatureSpace: query %zu squared norm %g "
                          "is not finite or overflows fp32 distances",
                          q0 + i, static_cast<double>(norm));
                }
                qnorm[i] = norm;
            }
            // dist = ‖c‖² − 2·q·c for every (query, candidate) pair.
            packed.multiply(a.data(), rows, cnorm.data(), dist.data());
            for (std::size_t i = 0; i < rows; ++i) {
                const std::span<float> row = dist.subspan(i * nc, nc);
                const float qn = qnorm[i];
                // KHeap orders raw IEEE bits, so every key must be
                // >= +0: cancellation can leave −0 or a small negative.
                for (float &v : row) {
                    const float sum = v + qn;
                    v = sum <= 0.0f ? 0.0f : sum;
                }
                KHeap heap(keys);
                admitMasked(heap, row.data(), nc, mask.data(), kAdmitMaskChunk,
                            [](std::size_t c) {
                                return static_cast<std::uint32_t>(c);
                            });
                const auto sorted = heap.finish();
                std::uint32_t *dst = out.indices.data() + (q0 + i) * k;
                for (std::size_t j = 0; j < k; ++j) {
                    dst[j] = KHeap::indexOf(sorted[j]);
                }
            }
        },
        1);
    return out;
}

} // namespace edgepc
