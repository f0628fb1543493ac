#include "sampling/fps.hpp"

#include <algorithm>
#include <limits>

#include "common/scratch_arena.hpp"
#include "geometry/simd_distance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pointcloud/points_soa.hpp"

namespace edgepc {

FarthestPointSampler::FarthestPointSampler(std::uint32_t start_index)
    : startIndex(start_index)
{
}

std::vector<std::uint32_t>
FarthestPointSampler::sample(std::span<const Vec3> points, std::size_t n)
{
    EDGEPC_TRACE_SCOPE("fps", "sampling");
    static obs::Counter &calls =
        obs::MetricsRegistry::global().counter("sampler.fps.calls");
    calls.add(1);
    const std::size_t total = points.size();
    n = std::min(n, total);
    std::vector<std::uint32_t> selected;
    if (n == 0) {
        return selected;
    }
    selected.resize(n);
    simd::recordDispatch();

    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const PointsSoA soa(points, arena);
    const std::size_t padded = soa.paddedSize();

    // dist[i] = squared distance from point i to the selected set.
    // Padding lanes start (and stay) below every real distance so the
    // argmax scan can run over whole SIMD blocks.
    const std::span<float> dist = arena.alloc<float>(padded);
    std::fill(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(total),
              std::numeric_limits<float>::max());
    std::fill(dist.begin() + static_cast<std::ptrdiff_t>(total), dist.end(),
              -1.0f);

    std::uint32_t current = std::min<std::uint32_t>(
        startIndex, static_cast<std::uint32_t>(total - 1));
    selected[0] = current;

    // EDGEPC_HOT: the quadratic FPS core — no heap allocation below.
    for (std::size_t step = 1; step < n; ++step) {
        const Vec3 last = points[current];

        // Relax distances against the newly selected point; this O(N)
        // update per selection is the quadratic-time core of FPS. It
        // runs on the calling thread: one pool launch per step costs
        // more than the update itself. The padded range is processed
        // too: pad coordinates are huge, so min() leaves the -1
        // sentinel lanes untouched.
        simd::batchMinUpdate(soa.xs(), soa.ys(), soa.zs(), padded, last,
                             dist.data());
        dist[current] = 0.0f;

        // Pick the point with the maximum distance to the selected set
        // (first-occurrence ties, matching the original scalar scan).
        current =
            static_cast<std::uint32_t>(simd::batchArgmax(dist.data(), padded));
        selected[step] = current;
    }
    return selected;
}

} // namespace edgepc
