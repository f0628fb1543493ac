/** @file Unit tests for exact and Morton up-sampling plans. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geometry/simd_distance.hpp"
#include "nn/grouping.hpp"
#include "sampling/interpolation.hpp"

#include "build_guard.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {
namespace {

std::vector<Vec3>
randomCloud(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> pts(n);
    for (auto &p : pts) {
        p = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat()};
    }
    return pts;
}

TEST(ExactInterpolation, WeightsAreNormalized)
{
    const auto targets = randomCloud(50, 41);
    const auto sources = randomCloud(10, 42);
    const auto plan = exactInterpolation(targets, sources, 3);
    ASSERT_EQ(plan.k, 3u);
    ASSERT_EQ(plan.targets(), 50u);
    for (std::size_t t = 0; t < plan.targets(); ++t) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < plan.k; ++j) {
            sum += plan.weights[t * plan.k + j];
            EXPECT_LT(plan.indices[t * plan.k + j], sources.size());
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(ExactInterpolation, PicksTrueNearestSources)
{
    const std::vector<Vec3> sources = {
        {0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {10, 0, 0}};
    const std::vector<Vec3> targets = {{0.4f, 0, 0}};
    const auto plan = exactInterpolation(targets, sources, 3);
    std::set<std::uint32_t> chosen(plan.indices.begin(),
                                   plan.indices.end());
    EXPECT_TRUE(chosen.count(0));
    EXPECT_TRUE(chosen.count(1));
    EXPECT_TRUE(chosen.count(2));
    EXPECT_FALSE(chosen.count(3));
}

TEST(ExactInterpolation, SelfSourceDominatesWeights)
{
    // A target sitting exactly on a source gets ~all the weight there.
    const std::vector<Vec3> sources = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
    const std::vector<Vec3> targets = {{0, 0, 0}};
    const auto plan = exactInterpolation(targets, sources, 3);
    EXPECT_EQ(plan.indices[0], 0u);
    EXPECT_GT(plan.weights[0], 0.99f);
}

TEST(ExactInterpolation, ClampsKToSourceCount)
{
    const auto targets = randomCloud(5, 43);
    const auto sources = randomCloud(2, 44);
    const auto plan = exactInterpolation(targets, sources, 3);
    EXPECT_EQ(plan.k, 2u);
}

TEST(MortonUpsampler, ReconstructsConstantField)
{
    // Interpolating a constant feature must reproduce it exactly
    // regardless of which sources are chosen.
    const auto pts = randomCloud(256, 45);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const auto samples = sampler.sampleStructurized(s, 64);

    const MortonUpsampler upsampler;
    const auto plan = upsampler.plan(pts, s, samples);
    ASSERT_EQ(plan.targets(), pts.size());

    nn::Matrix source_features(samples.size(), 2);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        source_features.at(i, 0) = 3.5f;
        source_features.at(i, 1) = -1.0f;
    }
    const nn::Matrix out = nn::applyInterpolation(plan, source_features);
    for (std::size_t t = 0; t < out.rows(); ++t) {
        EXPECT_NEAR(out.at(t, 0), 3.5f, 1e-4f);
        EXPECT_NEAR(out.at(t, 1), -1.0f, 1e-4f);
    }
}

TEST(MortonUpsampler, ApproximatesExactPlan)
{
    // The Morton plan's chosen sources should usually be near the true
    // nearest sources: compare reconstruction error of a smooth field.
    const auto pts = randomCloud(512, 46);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const auto samples = sampler.sampleStructurized(s, 128);

    std::vector<Vec3> sample_pos;
    for (const auto idx : samples) {
        sample_pos.push_back(pts[idx]);
    }
    auto field = [](const Vec3 &p) {
        return p.x + 2.0f * p.y - 0.5f * p.z;
    };
    nn::Matrix src(samples.size(), 1);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        src.at(i, 0) = field(sample_pos[i]);
    }

    const auto exact_plan = exactInterpolation(pts, sample_pos, 3);
    const MortonUpsampler upsampler;
    const auto approx_plan = upsampler.plan(pts, s, samples);

    const nn::Matrix exact_out = nn::applyInterpolation(exact_plan, src);
    const nn::Matrix approx_out =
        nn::applyInterpolation(approx_plan, src);

    double exact_err = 0.0, approx_err = 0.0;
    for (std::size_t t = 0; t < pts.size(); ++t) {
        exact_err += std::abs(exact_out.at(t, 0) - field(pts[t]));
        approx_err += std::abs(approx_out.at(t, 0) - field(pts[t]));
    }
    // Approximate error within a small factor of exact error.
    EXPECT_LT(approx_err, exact_err * 4.0 + 1.0);
}

TEST(MortonUpsampler, SampledPointsKeepOwnFeatureApproximately)
{
    const auto pts = randomCloud(128, 47);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const auto samples = sampler.sampleStructurized(s, 32);

    const MortonUpsampler upsampler(2, 3);
    const auto plan = upsampler.plan(pts, s, samples);

    // For each sampled point, its own slot must appear in its plan.
    for (std::size_t q = 0; q < samples.size(); ++q) {
        const std::size_t t = samples[q];
        bool found_self = false;
        for (std::size_t j = 0; j < plan.k; ++j) {
            if (samples[plan.indices[t * plan.k + j]] ==
                static_cast<std::uint32_t>(t)) {
                found_self = true;
            }
        }
        EXPECT_TRUE(found_self) << "sample " << q;
    }
}

// ---------------------------------------------------------------------
// Plan equality against the pair-heap scan
// ---------------------------------------------------------------------

using Candidate = std::pair<float, std::uint32_t>;

/** The oracle's selection: a std::vector max-heap of (distance, index)
    pairs fed in index order, the planners' scan before KHeap. */
void
oracleInsert(std::vector<Candidate> &best, std::size_t k, float dist,
             std::uint32_t idx)
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

void
oracleWriteRow(InterpolationPlan &plan, std::size_t t,
               std::vector<Candidate> &best)
{
    std::sort_heap(best.begin(), best.end());
    const std::size_t k = plan.k;
    float weight_sum = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
        const Candidate &cand = best[std::min(j, best.size() - 1)];
        plan.indices[t * k + j] = cand.second;
        const float w = 1.0f / (cand.first + 1e-8f);
        plan.weights[t * k + j] = w;
        weight_sum += w;
    }
    const float inv = 1.0f / weight_sum;
    for (std::size_t j = 0; j < k; ++j) {
        plan.weights[t * k + j] *= inv;
    }
}

InterpolationPlan
oracleExact(const std::vector<Vec3> &targets,
            const std::vector<Vec3> &sources, std::size_t k)
{
    InterpolationPlan plan;
    plan.k = std::min(k, sources.size());
    plan.indices.resize(targets.size() * plan.k);
    plan.weights.resize(targets.size() * plan.k);
    for (std::size_t t = 0; t < targets.size(); ++t) {
        std::vector<Candidate> best;
        for (std::size_t s = 0; s < sources.size(); ++s) {
            oracleInsert(best, plan.k,
                         squaredDistance(targets[t], sources[s]),
                         static_cast<std::uint32_t>(s));
        }
        oracleWriteRow(plan, t, best);
    }
    return plan;
}

InterpolationPlan
oracleMorton(const std::vector<Vec3> &points, const Structurization &s,
             const std::vector<std::uint32_t> &samples,
             std::size_t half_width, std::size_t k)
{
    const std::size_t total = points.size();
    const std::size_t n = samples.size();
    InterpolationPlan plan;
    plan.k = std::min(k, n);
    plan.indices.resize(total * plan.k);
    plan.weights.resize(total * plan.k);
    for (std::size_t t = 0; t < total; ++t) {
        const std::size_t q = s.rank[t] * n / total;
        const std::size_t lo = q >= half_width ? q - half_width : 0;
        const std::size_t hi = std::min(n - 1, q + half_width);
        std::vector<Candidate> best;
        for (std::size_t slot = lo; slot <= hi; ++slot) {
            oracleInsert(best, plan.k,
                         squaredDistance(points[t], points[samples[slot]]),
                         static_cast<std::uint32_t>(slot));
        }
        oracleWriteRow(plan, t, best);
    }
    return plan;
}

void
expectSamePlan(const InterpolationPlan &got, const InterpolationPlan &want)
{
    ASSERT_EQ(got.k, want.k);
    ASSERT_EQ(got.indices, want.indices);
    ASSERT_EQ(got.weights.size(), want.weights.size());
    for (std::size_t i = 0; i < got.weights.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.weights[i]),
                  std::bit_cast<std::uint32_t>(want.weights[i]))
            << "weight " << i;
    }
}

/** Integer-grid points: every target between them is equidistant from
    several sources, so ties decide the plan. */
std::vector<Vec3>
gridCloud(int side, float offset)
{
    std::vector<Vec3> pts;
    for (int x = 0; x < side; ++x) {
        for (int y = 0; y < side; ++y) {
            for (int z = 0; z < side; ++z) {
                pts.push_back({x + offset, y + offset, z + offset});
            }
        }
    }
    return pts;
}

TEST(InterpolationPlanOracle, ExactMatchesPairHeapScan)
{
    std::vector<Vec3> dup = randomCloud(40, 50);
    dup.insert(dup.end(), dup.begin(), dup.end()); // every point twice
    const std::vector<Vec3> grid = gridCloud(4, 0.0f);
    const std::vector<Vec3> half = gridCloud(4, 0.5f);
    struct Case
    {
        const char *name;
        std::vector<Vec3> targets;
        std::vector<Vec3> sources;
        std::size_t k;
    };
    const Case cases[] = {
        {"distance ties", half, grid, 3},
        {"targets on sources", grid, grid, 3},
        {"duplicate sources", randomCloud(70, 51), dup, 3},
        {"k > sources", randomCloud(20, 52), randomCloud(2, 53), 3},
        {"one source", randomCloud(9, 54), randomCloud(1, 55), 3},
        {"lane multiple + 1", randomCloud(33, 56), randomCloud(9, 57), 3},
        {"mask chunk + 1", randomCloud(300, 58), randomCloud(257, 59), 3},
        {"wide k", randomCloud(65, 60), randomCloud(513, 61), 16},
    };
    for (const KernelBuild build : {KernelBuild::Scalar, KernelBuild::Auto}) {
        const test::BuildGuard guard(KernelFamily::Distance, build);
        for (const Case &c : cases) {
            SCOPED_TRACE(c.name);
            expectSamePlan(exactInterpolation(c.targets, c.sources, c.k),
                           oracleExact(c.targets, c.sources, c.k));
        }
    }
}

TEST(InterpolationPlanOracle, MortonMatchesPairHeapScan)
{
    std::vector<Vec3> dup = randomCloud(100, 62);
    dup.insert(dup.end(), dup.begin(), dup.end());
    const struct
    {
        std::vector<Vec3> points;
        std::size_t samples;
        std::size_t halfWidth;
        std::size_t k;
    } cases[] = {
        {gridCloud(5, 0.0f), 25, 2, 3},   // ties on the grid
        {dup, 50, 2, 3},                  // duplicate points
        {randomCloud(257, 63), 33, 2, 3}, // lane multiple + 1
        {randomCloud(129, 64), 17, 1, 3}, // windows narrower than k
        {randomCloud(40, 65), 2, 2, 3},   // k > samples
    };
    for (const auto &c : cases) {
        MortonSampler sampler(32);
        const Structurization s = sampler.structurize(c.points);
        const std::vector<std::uint32_t> samples =
            sampler.sampleStructurized(s, c.samples);
        const MortonUpsampler upsampler(static_cast<int>(c.halfWidth), c.k);
        expectSamePlan(upsampler.plan(c.points, s, samples),
                       oracleMorton(c.points, s, samples, c.halfWidth, c.k));
    }
}

} // namespace
} // namespace edgepc
