#include "sampling/interpolation.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "geometry/simd_distance.hpp"
#include "neighbor/kheap.hpp"
#include "obs/trace.hpp"
#include "pointcloud/points_soa.hpp"

namespace edgepc {

namespace {

/**
 * Turn a target's selected (distance, source) keys, ascending, into
 * normalized inverse-distance weights written into the plan row. A
 * row with fewer than k keys repeats its last one.
 */
void
writeRow(InterpolationPlan &plan, std::size_t target,
         std::span<const KHeap::Key> best)
{
    const std::size_t k = plan.k;
    constexpr float eps = 1e-8f;
    float weight_sum = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
        const KHeap::Key cand = best[std::min(j, best.size() - 1)];
        plan.indices[target * k + j] = KHeap::indexOf(cand);
        const float w = 1.0f / (KHeap::distOf(cand) + eps);
        plan.weights[target * k + j] = w;
        weight_sum += w;
    }
    const float inv = 1.0f / weight_sum;
    for (std::size_t j = 0; j < k; ++j) {
        plan.weights[target * k + j] *= inv;
    }
}

} // namespace

InterpolationPlan
exactInterpolation(std::span<const Vec3> targets,
                   std::span<const Vec3> sources, std::size_t k)
{
    EDGEPC_TRACE_SCOPE("exact-upsample", "sampling");
    if (sources.empty()) {
        raise(ErrorCode::EmptyCloud, "exactInterpolation: empty source set");
    }
    k = std::min(k, sources.size());
    simd::recordDispatch();

    InterpolationPlan plan;
    plan.k = k;
    plan.indices.resize(targets.size() * k);
    plan.weights.resize(targets.size() * k);

    // The SoA is built once on the calling thread; worker threads only
    // read it (the task queue publication orders those reads).
    ScratchArena &caller_arena = ScratchArena::local();
    const ScratchArena::Frame frame(caller_arena);
    const PointsSoA soa(sources, caller_arena);
    const std::size_t ns = sources.size();

    // EDGEPC_HOT: per-target scan — arena scratch only, no allocation.
    parallelFor(0, targets.size(), [&](std::size_t t) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame tframe(arena);
        const std::span<float> dist = arena.alloc<float>(ns);
        const std::span<std::uint64_t> mask =
            arena.alloc<std::uint64_t>(simd::maskWords(kAdmitMaskChunk));
        simd::batchSqDist(soa.xs(), soa.ys(), soa.zs(), ns, targets[t],
                          dist.data());
        KHeap heap(arena.alloc<KHeap::Key>(k));
        admitMasked(heap, dist.data(), ns, mask.data(), kAdmitMaskChunk,
                    [](std::size_t i) {
                        return static_cast<std::uint32_t>(i);
                    });
        writeRow(plan, t, heap.finish());
    });
    return plan;
}

MortonUpsampler::MortonUpsampler(int window_halfwidth, std::size_t k)
    : halfWidth(window_halfwidth), numSources(k)
{
}

InterpolationPlan
MortonUpsampler::plan(std::span<const Vec3> points,
                      const Structurization &s,
                      std::span<const std::uint32_t> samples) const
{
    const std::size_t total = points.size();
    const std::size_t n = samples.size();
    if (n == 0) {
        raise(ErrorCode::EmptyCloud, "MortonUpsampler: empty sample set");
    }
    const std::size_t k = std::min(numSources, n);

    InterpolationPlan plan;
    plan.k = k;
    plan.indices.resize(total * k);
    plan.weights.resize(total * k);

    // EDGEPC_HOT: per-target window scan — arena scratch only.
    parallelFor(0, total, [&](std::size_t t) {
        // Sorted position of the target and its own stride slot.
        const std::size_t j = s.rank[t];
        const std::size_t q = j * n / total;

        // Candidate slots q-halfWidth .. q+halfWidth, clamped. This is
        // the paper's window of the 4 samples around j' = j - j%step,
        // plus the slot containing j itself.
        const std::size_t lo =
            q >= static_cast<std::size_t>(halfWidth)
                ? q - static_cast<std::size_t>(halfWidth)
                : 0;
        const std::size_t hi =
            std::min(n - 1, q + static_cast<std::size_t>(halfWidth));

        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        KHeap heap(arena.alloc<KHeap::Key>(k));
        for (std::size_t slot = lo; slot <= hi; ++slot) {
            const Vec3 &src = points[samples[slot]];
            heap.push(squaredDistance(points[t], src),
                      static_cast<std::uint32_t>(slot));
        }
        writeRow(plan, t, heap.finish());
    });
    return plan;
}

} // namespace edgepc
