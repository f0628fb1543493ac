/**
 * @file Property-based (parameterized) tests over random clouds.
 *
 * Each property is swept across cloud sizes / seeds / parameters with
 * INSTANTIATE_TEST_SUITE_P, asserting the invariants the EdgePC design
 * relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/metrics.hpp"
#include "neighbor/morton_window.hpp"
#include "pointcloud/metrics.hpp"
#include "sampling/fps.hpp"
#include "sampling/interpolation.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {
namespace {

std::vector<Vec3>
randomCloud(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> pts(n);
    for (auto &p : pts) {
        p = {rng.uniform(-2, 3), rng.uniform(0, 5), rng.uniform(-1, 1)};
    }
    return pts;
}

// ---------------------------------------------------------------------
// Morton order properties over (size, seed).
// ---------------------------------------------------------------------

class MortonOrderProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(MortonOrderProperty, OrderIsAPermutation)
{
    const auto [n, seed] = GetParam();
    const auto pts = randomCloud(n, seed);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    std::vector<std::uint32_t> sorted(s.order.begin(), s.order.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sorted[i], i);
    }
}

TEST_P(MortonOrderProperty, CodesAscendAlongOrder)
{
    const auto [n, seed] = GetParam();
    const auto pts = randomCloud(n, seed);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    for (std::size_t i = 1; i < n; ++i) {
        ASSERT_LE(s.codes[s.order[i - 1]], s.codes[s.order[i]]);
    }
}

TEST_P(MortonOrderProperty, MoreStructuredThanInsertionOrder)
{
    const auto [n, seed] = GetParam();
    const auto pts = randomCloud(n, seed);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    std::vector<std::uint32_t> identity(n);
    std::iota(identity.begin(), identity.end(), 0u);
    EXPECT_LT(orderingLocality(pts, s.order),
              orderingLocality(pts, identity));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MortonOrderProperty,
    ::testing::Combine(::testing::Values(std::size_t{64},
                                         std::size_t{500},
                                         std::size_t{2048}),
                       ::testing::Values(1, 2, 3, 4)));

// ---------------------------------------------------------------------
// Sampler properties over (size, fraction).
// ---------------------------------------------------------------------

class SamplerProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(SamplerProperty, MortonSampleDistinctAndComplete)
{
    const auto [n, divisor] = GetParam();
    const auto pts = randomCloud(n, 77);
    const std::size_t want = std::max<std::size_t>(1, n / divisor);
    MortonSampler sampler(32);
    const auto sel = sampler.sample(pts, want);
    ASSERT_EQ(sel.size(), want);
    const std::set<std::uint32_t> unique(sel.begin(), sel.end());
    EXPECT_EQ(unique.size(), want);
}

TEST_P(SamplerProperty, MortonCoverageBeatsWorstCase)
{
    const auto [n, divisor] = GetParam();
    const auto pts = randomCloud(n, 78);
    const std::size_t want = std::max<std::size_t>(2, n / divisor);
    MortonSampler sampler(32);
    FarthestPointSampler fps;

    auto gather = [&](const std::vector<std::uint32_t> &idx) {
        std::vector<Vec3> out;
        for (const auto i : idx) {
            out.push_back(pts[i]);
        }
        return out;
    };
    const double mc =
        meanCoverageDistance(pts, gather(sampler.sample(pts, want)));
    const double exact =
        meanCoverageDistance(pts, gather(fps.sample(pts, want)));
    // Approximation stays within a modest factor of the optimum.
    EXPECT_LT(mc, exact * 3.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerProperty,
    ::testing::Combine(::testing::Values(std::size_t{256},
                                         std::size_t{1024}),
                       ::testing::Values(2, 4, 8)));

// ---------------------------------------------------------------------
// Window-search properties over window multiplier.
// ---------------------------------------------------------------------

class WindowProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(WindowProperty, EveryRowHasKDistinctInRangeEntries)
{
    const int mult = GetParam();
    const auto pts = randomCloud(1024, 79);
    const std::size_t k = 8;
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(k * mult);
    const auto lists = searcher.searchAll(pts, s, k);
    ASSERT_EQ(lists.queries(), pts.size());
    for (std::size_t q = 0; q < lists.queries(); ++q) {
        for (const auto idx : lists.row(q)) {
            ASSERT_LT(idx, pts.size());
        }
    }
}

TEST_P(WindowProperty, NeighborsAreSpatiallyCloserThanRandom)
{
    const int mult = GetParam();
    const auto pts = randomCloud(1024, 80);
    const std::size_t k = 8;
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(k * mult);
    const auto lists = searcher.searchAll(pts, s, k);

    // Mean neighbor distance must beat the mean random-pair distance.
    Rng rng(81);
    double neighbor_sum = 0.0;
    std::size_t count = 0;
    double random_sum = 0.0;
    for (std::size_t q = 0; q < lists.queries(); q += 16) {
        for (const auto idx : lists.row(q)) {
            neighbor_sum += distance(pts[q], pts[idx]);
            random_sum +=
                distance(pts[q], pts[rng.nextBelow(pts.size())]);
            ++count;
        }
    }
    EXPECT_LT(neighbor_sum / count, 0.6 * random_sum / count);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------
// Code-width sensitivity: more bits -> no worse neighbor recall.
// ---------------------------------------------------------------------

class CodeBitsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CodeBitsProperty, StructurizationStaysPermutation)
{
    const int bits = GetParam();
    const auto pts = randomCloud(512, 82);
    MortonSampler sampler(bits);
    const auto s = sampler.structurize(pts);
    std::vector<std::uint32_t> sorted(s.order.begin(), s.order.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        ASSERT_EQ(sorted[i], i);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodeBitsProperty,
                         ::testing::Values(6, 12, 24, 32, 48, 63));

// ---------------------------------------------------------------------
// Interpolation plan properties.
// ---------------------------------------------------------------------

class InterpolationProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(InterpolationProperty, PlansAreWellFormed)
{
    const int divisor = GetParam();
    const auto pts = randomCloud(768, 83);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const auto samples = sampler.sampleStructurized(
        s, std::max<std::size_t>(4, pts.size() / divisor));

    const MortonUpsampler upsampler;
    const auto plan = upsampler.plan(pts, s, samples);
    ASSERT_EQ(plan.targets(), pts.size());
    for (std::size_t t = 0; t < plan.targets(); ++t) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < plan.k; ++j) {
            ASSERT_LT(plan.indices[t * plan.k + j], samples.size());
            const float w = plan.weights[t * plan.k + j];
            ASSERT_GE(w, 0.0f);
            sum += w;
        }
        ASSERT_NEAR(sum, 1.0f, 1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InterpolationProperty,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------
// Sampler-family coverage ordering over cloud sizes.
// ---------------------------------------------------------------------

class SamplerFamilyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SamplerFamilyProperty, StratifiedSamplersBeatWorstBaseline)
{
    const int seed = GetParam();
    const auto pts = randomCloud(1500, 90 + seed);
    const std::size_t n = 100;

    auto coverage = [&](Sampler &s) {
        const auto sel = s.sample(pts, n);
        std::vector<Vec3> gathered;
        for (const auto idx : sel) {
            gathered.push_back(pts[idx]);
        }
        return meanCoverageDistance(pts, gathered);
    };

    FarthestPointSampler fps;
    MortonSampler morton(32);

    const double fps_cov = coverage(fps);
    const double mc_cov = coverage(morton);

    // FPS is the optimum; the stratified one-pass Morton sampler must
    // stay within a modest factor of it.
    EXPECT_LT(mc_cov, fps_cov * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SamplerFamilyProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace edgepc
