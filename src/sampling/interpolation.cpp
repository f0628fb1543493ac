#include "sampling/interpolation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace edgepc {

namespace {

/**
 * Turn per-target candidate (source index, squared distance) lists
 * into normalized inverse-distance weights written into the plan row.
 */
void
writeRow(InterpolationPlan &plan, std::size_t target,
         std::span<const std::pair<float, std::uint32_t>> best)
{
    const std::size_t k = plan.k;
    constexpr float eps = 1e-8f;
    float weight_sum = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
        const auto &cand = best[std::min(j, best.size() - 1)];
        plan.indices[target * k + j] = cand.second;
        const float w = 1.0f / (cand.first + eps);
        plan.weights[target * k + j] = w;
        weight_sum += w;
    }
    const float inv = 1.0f / weight_sum;
    for (std::size_t j = 0; j < k; ++j) {
        plan.weights[target * k + j] *= inv;
    }
}

/** Keep the k smallest (distance, index) pairs, ascending by distance. */
void
insertCandidate(std::vector<std::pair<float, std::uint32_t>> &best,
                std::size_t k, float dist, std::uint32_t idx)
{
    if (best.size() < k) {
        best.emplace_back(dist, idx);
        std::push_heap(best.begin(), best.end());
        return;
    }
    if (dist < best.front().first) {
        std::pop_heap(best.begin(), best.end());
        best.back() = {dist, idx};
        std::push_heap(best.begin(), best.end());
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

    InterpolationPlan plan;
    plan.k = k;
    plan.indices.resize(targets.size() * k);
    plan.weights.resize(targets.size() * k);

    parallelFor(0, targets.size(), [&](std::size_t t) {
        std::vector<std::pair<float, std::uint32_t>> best;
        best.reserve(k + 1);
        for (std::size_t s = 0; s < sources.size(); ++s) {
            insertCandidate(best, k,
                            squaredDistance(targets[t], sources[s]),
                            static_cast<std::uint32_t>(s));
        }
        std::sort_heap(best.begin(), best.end());
        writeRow(plan, t, best);
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

        std::vector<std::pair<float, std::uint32_t>> best;
        best.reserve(k + 1);
        for (std::size_t slot = lo; slot <= hi; ++slot) {
            const Vec3 &src = points[samples[slot]];
            insertCandidate(best, k, squaredDistance(points[t], src),
                            static_cast<std::uint32_t>(slot));
        }
        std::sort_heap(best.begin(), best.end());
        writeRow(plan, t, best);
    });
    return plan;
}

} // namespace edgepc
