/** @file Unit tests for all neighbor searchers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "nn/gemm.hpp"
#include "neighbor/morton_window.hpp"
#include "neighbor/metrics.hpp"
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

/** Exact k-NN by full sort, used as an oracle. */
std::vector<std::uint32_t>
oracleKnn(const Vec3 &query, std::span<const Vec3> pts, std::size_t k)
{
    std::vector<std::pair<float, std::uint32_t>> all;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        all.emplace_back(squaredDistance(query, pts[i]),
                         static_cast<std::uint32_t>(i));
    }
    std::sort(all.begin(), all.end());
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < k; ++i) {
        out.push_back(all[i].second);
    }
    return out;
}

TEST(BruteForceKnn, MatchesOracle)
{
    const auto pts = randomCloud(300, 51);
    const auto queries = randomCloud(20, 52);
    BruteForceKnn knn;
    const auto lists = knn.search(queries, pts, 8);
    ASSERT_EQ(lists.queries(), 20u);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto expected = oracleKnn(queries[q], pts, 8);
        const auto row = lists.row(q);
        EXPECT_TRUE(std::equal(row.begin(), row.end(),
                               expected.begin()))
            << "query " << q;
    }
}

TEST(BruteForceKnn, ResultsSortedByDistance)
{
    const auto pts = randomCloud(100, 53);
    BruteForceKnn knn;
    const auto lists = knn.search({pts.data(), 5}, pts, 10);
    for (std::size_t q = 0; q < 5; ++q) {
        const auto row = lists.row(q);
        float prev = -1.0f;
        for (const auto idx : row) {
            const float d = squaredDistance(pts[q], pts[idx]);
            EXPECT_GE(d, prev);
            prev = d;
        }
    }
}

TEST(BruteForceKnn, FeatureSpaceSearch)
{
    // 4 points in a 2-D feature space.
    const std::vector<float> feats = {0, 0, 1, 0, 0, 1, 10, 10};
    const auto lists = BruteForceKnn::searchFeatureSpace(
        feats, feats, 2, 2, nn::GemmEngine::shared(nn::GemmMode::Scalar));
    ASSERT_EQ(lists.queries(), 4u);
    // Point 0's 2 nearest are itself and point 1 or 2.
    EXPECT_EQ(lists.row(0)[0], 0u);
    EXPECT_NE(lists.row(0)[1], 3u);
}

TEST(BallQuery, FindsPointsInsideRadius)
{
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {0.5f, 0, 0}, {0.9f, 0, 0}, {3, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 3);
    const auto row = lists.row(0);
    const std::set<std::uint32_t> found(row.begin(), row.end());
    EXPECT_TRUE(found.count(0));
    EXPECT_TRUE(found.count(1));
    EXPECT_TRUE(found.count(2));
    EXPECT_FALSE(found.count(3));
}

TEST(BallQuery, PadsWithFirstInBall)
{
    const std::vector<Vec3> pts = {{0, 0, 0}, {10, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0.1f, 0, 0}};
    const auto lists = bq.search(queries, pts, 2);
    EXPECT_EQ(lists.row(0)[0], 0u);
    EXPECT_EQ(lists.row(0)[1], 0u); // padded
}

TEST(BallQuery, EmptyBallFallsBackToNearest)
{
    const std::vector<Vec3> pts = {{5, 0, 0}, {9, 0, 0}};
    BallQuery bq(1.0f);
    const std::vector<Vec3> queries = {{0, 0, 0}};
    const auto lists = bq.search(queries, pts, 2);
    EXPECT_EQ(lists.row(0)[0], 0u); // nearest despite outside ball
}

TEST(BallQuery, PaperFigure10aExample)
{
    // Fig 10a: same 5-point cloud, R^2 = 11, search 3 neighbors of P2.
    const std::vector<Vec3> pts = {
        {0, 0, 0}, {1, 2, 3}, {3, 1, 0}, {0, 7, 0}, {4, 4, 1}};
    BallQuery bq(std::sqrt(11.0f));
    const std::vector<Vec3> queries = {pts[2]};
    const auto lists = bq.search(queries, pts, 3);
    const auto row = lists.row(0);
    const std::set<std::uint32_t> found(row.begin(), row.end());
    // d2(P2,P0)=10, d2(P2,P1)=14 > 11... compute: (3-1)^2+(1-2)^2+(0-3)^2
    // = 4+1+9 = 14; d2(P2,P4)=1+9+1=11 <= 11; d2(P2,P3)=9+36=45.
    EXPECT_TRUE(found.count(0));
    EXPECT_TRUE(found.count(2)); // itself
    EXPECT_TRUE(found.count(4));
}

TEST(MortonWindow, PureIndexSelectionReturnsWindowPoints)
{
    const auto pts = randomCloud(100, 59);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(0); // W = k mode
    const std::vector<std::uint32_t> queries = {s.order[50]};
    const auto lists = searcher.search(pts, s, queries, 4);
    ASSERT_EQ(lists.k, 4u);
    // All neighbors must come from sorted positions near 50 (the
    // query itself is a legal neighbor, as in Sec 4.3's formula).
    for (const auto idx : lists.row(0)) {
        const std::size_t pos = s.rank[idx];
        EXPECT_GE(pos, 47u);
        EXPECT_LE(pos, 53u);
    }
}

TEST(MortonWindow, LargerWindowImprovesRecall)
{
    const auto pts = randomCloud(2000, 60);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    BruteForceKnn exact;

    const std::size_t k = 8;
    std::vector<std::uint32_t> queries;
    for (std::uint32_t i = 0; i < 200; ++i) {
        queries.push_back(i * 10);
    }
    std::vector<Vec3> query_pos;
    for (const auto idx : queries) {
        query_pos.push_back(pts[idx]);
    }
    const auto truth = exact.search(query_pos, pts, k);

    double prev_fnr = 1.1;
    for (const std::size_t w : {k, 4 * k, 16 * k}) {
        const MortonWindowSearch searcher(w);
        const auto approx = searcher.search(pts, s, queries, k);
        const double fnr = falseNeighborRatio(approx, truth);
        EXPECT_LE(fnr, prev_fnr + 0.02)
            << "window " << w << " should not be worse";
        prev_fnr = fnr;
    }
    // With a 16k window the FNR should be small (paper reaches ~5%).
    EXPECT_LT(prev_fnr, 0.35);
}

TEST(MortonWindow, SearchAllCoversEveryPoint)
{
    const auto pts = randomCloud(128, 61);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(16);
    const auto lists = searcher.searchAll(pts, s, 4);
    EXPECT_EQ(lists.queries(), pts.size());
}

TEST(MortonWindowKnn, AdapterApproximatesExactSearch)
{
    const auto pts = randomCloud(1000, 62);
    MortonWindowKnn approx(64);
    BruteForceKnn exact;
    const auto a = approx.search(pts, pts, 8);
    const auto b = exact.search(pts, pts, 8);
    const double fnr = falseNeighborRatio(a, b);
    // Should recover a solid majority of true neighbors.
    EXPECT_LT(fnr, 0.6);
    EXPECT_GT(neighborRecall(a, b), 0.4);
}

TEST(MortonWindow, WindowAtCloudEdges)
{
    const auto pts = randomCloud(32, 63);
    MortonSampler sampler(32);
    const auto s = sampler.structurize(pts);
    const MortonWindowSearch searcher(8);
    // First and last sorted points must still get k neighbors.
    const std::vector<std::uint32_t> queries = {s.order[0],
                                                s.order[31]};
    const auto lists = searcher.search(pts, s, queries, 5);
    EXPECT_EQ(lists.row(0).size(), 5u);
    EXPECT_EQ(lists.row(1).size(), 5u);
}

} // namespace
} // namespace edgepc
