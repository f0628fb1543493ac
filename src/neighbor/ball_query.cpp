#include "neighbor/ball_query.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "geometry/simd_distance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pointcloud/points_soa.hpp"

namespace edgepc {

namespace {

/// Distances are computed (and the in-ball mask evaluated) in blocks of
/// this many candidates; the early exit at k in-ball hits still fires
/// at block granularity, so a small block keeps the overshoot cheap.
constexpr std::size_t kChunk = 256;

} // namespace

BallQuery::BallQuery(float radius, Route int8_search)
    : r(radius), fixedRoute(int8_search)
{
    if (radius <= 0.0f) {
        raise(ErrorCode::InvalidArgument, "BallQuery: radius must be positive (got %f)",
              static_cast<double>(radius));
    }
}

NeighborLists
BallQuery::search(std::span<const Vec3> queries,
                  std::span<const Vec3> candidates, std::size_t k)
{
    EDGEPC_TRACE_SCOPE("ball-query", "neighbor");
    static obs::Counter &qcount = obs::MetricsRegistry::global().counter(
        "neighbor.ball-query.queries");
    qcount.add(queries.size());
    if (candidates.empty() || k == 0) {
        raise(ErrorCode::EmptyCloud, "BallQuery: empty candidate set or k == 0");
    }
    k = std::min(k, candidates.size());
    const float r2 = r * r;
    simd::recordDispatch();

    NeighborLists out;
    out.k = k;
    out.indices.resize(queries.size() * k);

    ScratchArena &caller_arena = ScratchArena::local();
    const ScratchArena::Frame frame(caller_arena);
    const PointsSoA soa(candidates, caller_arena);
    const std::size_t nc = candidates.size();

    // Fixed-point route (DESIGN.md §15): snap candidates to the
    // per-cloud s16 grid once, then every chunk runs the integer
    // madd kernel against the quantized query with the radius
    // threshold re-expressed in quantized units. In-ball membership
    // near the boundary can differ from fp32 by up to one grid step;
    // the route (On, or Auto's scale/radius heuristic) keeps the path
    // off unless that error is acceptable.
    PointsFixed fixed;
    bool use_fixed = false;
    if (fixedRoute != Route::Off) {
        fixed = PointsFixed(soa, caller_arena);
        use_fixed = fixed.valid() &&
                    simd::resolveFixedPointBall(fixedRoute, fixed.scale(),
                                                r);
    }
    const float r2q = use_fixed ? fixed.radiusSqQ(r) : r2;
    if (use_fixed) {
        simd::recordFixedDispatch(queries.size());
    }

    // EDGEPC_HOT: per-query in-ball scan — arena scratch only.
    parallelFor(0, queries.size(), [&](std::size_t q) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame qframe(arena);
        const std::span<float> dist = arena.alloc<float>(kChunk);
        const std::span<std::uint64_t> mask =
            arena.alloc<std::uint64_t>(simd::maskWords(kChunk));

        std::int16_t fqx = 0, fqy = 0, fqz = 0;
        if (use_fixed) {
            fixed.quantizeQuery(queries[q], fqx, fqy, fqz);
        }

        std::uint32_t *row = out.indices.data() + q * k;
        std::size_t found = 0;
        float nearest_dist = std::numeric_limits<float>::max();
        std::uint32_t nearest_idx = 0;

        // The in-ball indices collected here are identical to the
        // original in-order scalar scan with its early exit at k hits:
        // the chunk merely computes a few distances past the exit
        // point, and the nearest-candidate fallback is only consulted
        // when found == 0, i.e. when no early exit happened and the
        // whole candidate set was scanned either way.
        for (std::size_t c = 0; c < nc && found < k; c += kChunk) {
            const std::size_t len = std::min(kChunk, nc - c);
            if (use_fixed) {
                simd::batchSqDistFixed(fixed.xy() + 2 * c,
                                       fixed.zw() + 2 * c, len, fqx, fqy,
                                       fqz, dist.data());
            } else {
                simd::batchSqDist(soa.xs() + c, soa.ys() + c,
                                  soa.zs() + c, len, queries[q],
                                  dist.data());
            }
            const std::size_t hits = simd::batchRadiusMask(
                dist.data(), len, r2q, mask.data());
            if (hits != 0) {
                const std::size_t words = simd::maskWords(len);
                for (std::size_t w = 0; w < words && found < k; ++w) {
                    std::uint64_t bits = mask[w];
                    while (bits != 0 && found < k) {
                        const std::size_t i =
                            w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
                        bits &= bits - 1;
                        row[found++] =
                            static_cast<std::uint32_t>(c + i);
                    }
                }
            }
            if (found == 0) {
                simd::batchArgminUpdate(dist.data(), len,
                                        static_cast<std::uint32_t>(c),
                                        nearest_dist, nearest_idx);
            }
        }

        if (found == 0) {
            // Empty ball: fall back to the nearest candidate (the whole
            // set was scanned, so this is the global nearest).
            row[0] = nearest_idx;
            found = 1;
        }
        // Pad with the first in-ball index (reference convention).
        for (std::size_t j = found; j < k; ++j) {
            row[j] = row[0];
        }
    });
    return out;
}

} // namespace edgepc
