/** @file Unit tests for all samplers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "datasets/bunny.hpp"
#include "pointcloud/metrics.hpp"
#include "sampling/fps.hpp"
#include "sampling/morton_sampler.hpp"
#include "sampling/random_sampler.hpp"
#include "sampling/uniform_index_sampler.hpp"

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

void
expectDistinct(const std::vector<std::uint32_t> &indices, std::size_t n)
{
    const std::set<std::uint32_t> unique(indices.begin(), indices.end());
    EXPECT_EQ(unique.size(), indices.size());
    for (const auto idx : indices) {
        EXPECT_LT(idx, n);
    }
}

TEST(Fps, SelectsRequestedCount)
{
    const auto pts = randomCloud(200, 31);
    FarthestPointSampler fps;
    const auto sel = fps.sample(pts, 50);
    ASSERT_EQ(sel.size(), 50u);
    expectDistinct(sel, pts.size());
}

TEST(Fps, FirstPointIsStartIndex)
{
    const auto pts = randomCloud(50, 32);
    FarthestPointSampler fps(17);
    const auto sel = fps.sample(pts, 5);
    EXPECT_EQ(sel[0], 17u);
}

TEST(Fps, SecondPointIsFarthestFromFirst)
{
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 0, 0}, {5, 0, 0}, {2, 0, 0}};
    FarthestPointSampler fps(0);
    const auto sel = fps.sample(pts, 2);
    EXPECT_EQ(sel[1], 2u); // (5,0,0) is farthest from (0,0,0).
}

TEST(Fps, PaperFigure8aExample)
{
    // Fig 8a: 5 points, sample 3 starting at P0; squared distances
    // after P0 are {0, 14, 10, 49, 33} -> pick P3; then {0, 11, 10, 0,
    // 26} -> pick P4.
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 2, 3}, {3, 1, 0}, {0, 7, 0}, {4, 4, 1}};
    FarthestPointSampler fps(0);
    const auto sel = fps.sample(pts, 3);
    ASSERT_EQ(sel.size(), 3u);
    EXPECT_EQ(sel[0], 0u);
    EXPECT_EQ(sel[1], 3u);
    EXPECT_EQ(sel[2], 4u);
}

TEST(Fps, ClampsOversizedRequest)
{
    const auto pts = randomCloud(10, 33);
    FarthestPointSampler fps;
    EXPECT_EQ(fps.sample(pts, 100).size(), 10u);
}

/** The oracle: FPS as a plain loop over squared distances (mul + add
    in x, y, z order, as the distance kernels compute them) with a
    first-occurrence argmax. */
std::vector<std::uint32_t>
naiveFps(const std::vector<Vec3> &pts, std::size_t n)
{
    std::vector<float> dist(pts.size(), std::numeric_limits<float>::max());
    std::vector<std::uint32_t> selected = {0};
    while (selected.size() < n) {
        const Vec3 last = pts[selected.back()];
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const float dx = pts[i].x - last.x;
            const float dy = pts[i].y - last.y;
            const float dz = pts[i].z - last.z;
            dist[i] = std::min(dist[i], dx * dx + dy * dy + dz * dz);
        }
        std::size_t best = 0;
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (dist[i] > dist[best]) {
                best = i;
            }
        }
        selected.push_back(static_cast<std::uint32_t>(best));
    }
    return selected;
}

TEST(Fps, MatchesNaiveFpsOnLargeCloud)
{
    const auto pts = randomCloud(8192, 34);
    FarthestPointSampler fps(0);
    EXPECT_EQ(fps.sample(pts, 1024), naiveFps(pts, 1024));
}

TEST(RandomSampler, DistinctAndDeterministic)
{
    const auto pts = randomCloud(100, 35);
    RandomSampler a(99), b(99);
    const auto sel_a = a.sample(pts, 30);
    const auto sel_b = b.sample(pts, 30);
    EXPECT_EQ(sel_a, sel_b);
    expectDistinct(sel_a, pts.size());
}

TEST(UniformIndexSampler, StrideArithmetic)
{
    const auto picks = UniformIndexSampler::stridePositions(10, 5);
    EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
    const auto all = UniformIndexSampler::stridePositions(4, 4);
    EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(MortonSampler, Figure8bStyleFineGrid)
{
    // Fig 8b replayed with this library's bit convention (x at the
    // LSB; the paper's figure uses the opposite significance, so the
    // concrete code values differ while the mechanism is identical):
    // 5 points, grid r=1, mins {0,0,0}.
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 2, 3}, {3, 1, 0}, {0, 7, 0}, {4, 4, 1}};
    MortonSampler sampler({0, 0, 0}, 1.0f, 3);
    const auto s = sampler.structurize(pts);
    // Codes: P0=0, P1=53, P2=11, P3=146, P4=196.
    EXPECT_EQ(s.codes,
              (std::vector<std::uint64_t>{0, 53, 11, 146, 196}));
    EXPECT_EQ(s.order, (std::vector<std::uint32_t>{0, 2, 1, 3, 4}));
    // Stride-sampling 3 of 5 picks sorted positions {0, 1, 3}.
    const auto sel = sampler.sampleStructurized(s, 3);
    EXPECT_EQ(sel, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(MortonSampler, CoarseGridChangesResult)
{
    // Fig 8b second half: with r=4 the codes collapse and the sampled
    // set differs from the FPS result — the approximation errs.
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 2, 3}, {3, 1, 0}, {0, 7, 0}, {4, 4, 1}};
    MortonSampler fine({0, 0, 0}, 1.0f, 3);
    MortonSampler coarse({0, 0, 0}, 4.0f, 3);
    EXPECT_NE(fine.sample(pts, 3), coarse.sample(pts, 3));
}

TEST(MortonSampler, RankIsInverseOfOrder)
{
    const auto pts = randomCloud(300, 36);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    for (std::size_t pos = 0; pos < s.order.size(); ++pos) {
        EXPECT_EQ(s.rank[s.order[pos]], pos);
    }
}

TEST(MortonSampler, SampleIsSubsetAndDistinct)
{
    const auto pts = randomCloud(512, 37);
    MortonSampler sampler(32);
    const auto sel = sampler.sample(pts, 128);
    ASSERT_EQ(sel.size(), 128u);
    expectDistinct(sel, pts.size());
}

TEST(MortonSampler, CoverageComparableToFps)
{
    // The headline quality claim behind Fig 5: Morton-uniform coverage
    // is close to FPS and much better than raw-order uniform.
    const PointCloud bunny = bunnyLike(8000, 3);
    const auto &pts = bunny.positions();
    const std::size_t n = 256;

    FarthestPointSampler fps;
    MortonSampler morton(32);
    UniformIndexSampler raw;

    const auto fps_sel = fps.sample(pts, n);
    const auto mc_sel = morton.sample(pts, n);
    const auto raw_sel = raw.sample(pts, n);

    auto gather = [&](const std::vector<std::uint32_t> &idx) {
        std::vector<Vec3> out;
        for (auto i : idx) {
            out.push_back(pts[i]);
        }
        return out;
    };

    const double fps_cov = meanCoverageDistance(pts, gather(fps_sel));
    const double mc_cov = meanCoverageDistance(pts, gather(mc_sel));
    const double raw_cov = meanCoverageDistance(pts, gather(raw_sel));

    EXPECT_LT(mc_cov, raw_cov);       // Morton beats raw order.
    EXPECT_LT(mc_cov, fps_cov * 2.5); // And is in FPS's ballpark.
}

} // namespace
} // namespace edgepc
