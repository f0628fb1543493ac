/**
 * @file
 * Differential tests of the approximate neighbor kernels against
 * brute-force ground truth on seeded random clouds.
 *
 * Coverage: for N in {1, 2, 100, 4096} assert that
 *  - the reference BallQuery is set-equivalent to the exact
 *    in-radius ground truth (fallback-to-nearest convention),
 *  - MortonWindowSearch recall vs brute-force k-NN stays within the
 *    paper's reported bounds and improves monotonically with the
 *    window size (Fig 7 shape), reaching exact recall once the window
 *    spans the whole cloud.
 *
 * The DispatchEquivalence suite additionally runs every SIMD-backed
 * kernel under forced-scalar and forced-AVX2 dispatch and asserts the
 * returned indices are identical — not merely set-equivalent. The
 * vector kernels keep the scalar operation order and never fuse
 * multiply-adds (simd_distance.cpp is built with -ffp-contract=off),
 * so both paths compute identical distance bits and therefore identical
 * neighbor/sample selections, including remainder lanes (sizes that are
 * not a multiple of 8 and clouds smaller than one vector).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "geometry/simd_distance.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/metrics.hpp"
#include "neighbor/morton_window.hpp"
#include "sampling/fps.hpp"
#include "sampling/morton_sampler.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace {

constexpr std::size_t kCloudSizes[] = {1, 2, 100, 4096};

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

/** Exact in-radius index set for one query. */
std::set<std::uint32_t>
trueBall(const Vec3 &query, std::span<const Vec3> pts, float radius)
{
    std::set<std::uint32_t> ball;
    const float r2 = radius * radius;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (squaredDistance(query, pts[i]) <= r2) {
            ball.insert(static_cast<std::uint32_t>(i));
        }
    }
    return ball;
}

std::uint32_t
nearestIndex(const Vec3 &query, std::span<const Vec3> pts)
{
    std::uint32_t best = 0;
    float best_d = std::numeric_limits<float>::max();
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const float d = squaredDistance(query, pts[i]);
        if (d < best_d) {
            best_d = d;
            best = static_cast<std::uint32_t>(i);
        }
    }
    return best;
}

/**
 * A ball-query result is correct iff every row is drawn from the true
 * in-radius set (first-k subset semantics), covers it fully when it
 * has fewer than k members, and degrades to the nearest candidate
 * when the ball is empty.
 */
void
expectBallEquivalent(const NeighborLists &lists,
                     std::span<const Vec3> queries,
                     std::span<const Vec3> pts, float radius,
                     std::size_t k)
{
    const std::size_t kk = std::min(k, pts.size());
    ASSERT_EQ(lists.k, kk);
    ASSERT_EQ(lists.queries(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto ball = trueBall(queries[q], pts, radius);
        const auto row = lists.row(q);
        std::set<std::uint32_t> distinct(row.begin(), row.end());
        if (ball.empty()) {
            ASSERT_EQ(distinct.size(), 1u) << "query " << q;
            EXPECT_EQ(*distinct.begin(), nearestIndex(queries[q], pts))
                << "query " << q;
            continue;
        }
        for (const auto idx : distinct) {
            EXPECT_TRUE(ball.contains(idx))
                << "query " << q << " returned out-of-ball index "
                << idx;
        }
        EXPECT_EQ(distinct.size(), std::min(kk, ball.size()))
            << "query " << q;
    }
}

double
mortonRecall(std::span<const Vec3> pts, std::size_t window,
             std::size_t k, const NeighborLists &truth)
{
    MortonSampler sampler(32);
    const Structurization s = sampler.structurize(pts);
    const MortonWindowSearch search(window);
    const auto approx = search.searchAll(pts, s, k);
    return neighborRecall(approx, truth);
}

TEST(KernelEquivalence, ReferenceBallQueryMatchesGroundTruth)
{
    const float radius = 0.25f;
    for (const std::size_t n : kCloudSizes) {
        const auto pts = randomCloud(n, 7000 + n);
        const auto queries = randomCloud(std::min<std::size_t>(n, 64),
                                         8000 + n);
        const std::size_t k = 8;
        BallQuery ball(radius);
        const auto got = ball.search(queries, pts, k);
        expectBallEquivalent(got, queries, pts, radius, k);
    }
}

TEST(KernelEquivalence, MortonWindowRecallWithinPaperBounds)
{
    // Measured on these seeds: recall 0.93 (N=100, W=64), 0.75
    // (N=4096, W=64); the paper reports usable accuracy from
    // small windows upward, so the bounds below are generous.
    for (const std::size_t n : kCloudSizes) {
        const auto pts = randomCloud(n, 123);
        const std::size_t k = std::min<std::size_t>(8, n);
        BruteForceKnn brute;
        const auto truth = brute.search(pts, pts, k);

        if (n <= 2) {
            // Degenerate clouds: any window covers everything.
            EXPECT_DOUBLE_EQ(mortonRecall(pts, 0, k, truth), 1.0)
                << "N=" << n;
            continue;
        }
        const double recall_w64 = mortonRecall(pts, 64, k, truth);
        EXPECT_GT(recall_w64, 0.6) << "N=" << n;

        // A window spanning the whole cloud must be exact.
        const double recall_full = mortonRecall(pts, n, k, truth);
        EXPECT_DOUBLE_EQ(recall_full, 1.0) << "N=" << n;
    }
}

TEST(KernelEquivalence, MortonWindowRecallMonotonicInWindow)
{
    const auto pts = randomCloud(4096, 123);
    const std::size_t k = 8;
    BruteForceKnn brute;
    const auto truth = brute.search(pts, pts, k);

    double prev = -1.0;
    for (const std::size_t w : {0, 16, 64, 256}) {
        const double recall = mortonRecall(pts, w, k, truth);
        EXPECT_GE(recall, prev) << "window " << w;
        prev = recall;
    }
    // The paper's W=k configuration already recovers a usable
    // fraction of true neighbors (Fig 6: FNR can be as low as ~23%).
    EXPECT_GT(mortonRecall(pts, 0, k, truth), 0.3);
}

TEST(KernelEquivalence, MortonWindowKnnTracksWindowSearch)
{
    const auto pts = randomCloud(4096, 123);
    const std::size_t k = 8;
    BruteForceKnn brute;
    const auto truth = brute.search(pts, pts, k);

    MortonWindowKnn knn(64);
    const auto approx = knn.search(pts, pts, k);
    ASSERT_EQ(approx.queries(), pts.size());
    ASSERT_EQ(approx.k, k);
    // Self-queries land in their own Morton run, so the adapter must
    // match the recall of the index-based path (0.75 measured).
    EXPECT_GT(neighborRecall(approx, truth), 0.6);
}

/** Cloud sizes stressing remainder lanes: below one 8-float vector,
 *  exactly one vector, one-past, and not-multiple-of-8 larger sizes
 *  (257 also straddles a 64-lane mask word boundary). */
constexpr std::size_t kLaneSizes[] = {1, 2, 7, 8, 9, 100, 257, 1000};

/** Run @p kernel under both forced paths and require identical rows. */
template <typename Kernel>
void
expectPathsIdentical(Kernel &&kernel, const char *what)
{
    if (!simd::simdAvailable()) {
        GTEST_SKIP() << "host has no AVX2+FMA; nothing to diff";
    }
    std::vector<std::uint32_t> scalar, vectorized;
    {
        const test::BuildGuard forced(KernelFamily::Distance,
                                      KernelBuild::Scalar);
        scalar = kernel();
    }
    {
        const test::BuildGuard forced(KernelFamily::Distance,
                                      KernelBuild::Avx2);
        vectorized = kernel();
    }
    EXPECT_EQ(scalar, vectorized) << what;
}

TEST(DispatchEquivalence, BruteForceIdenticalAcrossPaths)
{
    for (const std::size_t n : kLaneSizes) {
        const auto pts = randomCloud(n, 9000 + n);
        const auto queries =
            randomCloud(std::min<std::size_t>(n, 32), 9100 + n);
        const std::size_t k = std::min<std::size_t>(8, n);
        expectPathsIdentical(
            [&] {
                BruteForceKnn knn;
                return knn.search(queries, pts, k).indices;
            },
            "brute-force");
    }
}

TEST(DispatchEquivalence, BallQueryIdenticalAcrossPaths)
{
    for (const std::size_t n : kLaneSizes) {
        const auto pts = randomCloud(n, 9200 + n);
        const auto queries =
            randomCloud(std::min<std::size_t>(n, 32), 9300 + n);
        expectPathsIdentical(
            [&] {
                BallQuery ball(0.25f);
                return ball.search(queries, pts, 8).indices;
            },
            "ball-query");
    }
}

TEST(DispatchEquivalence, MortonWindowIdenticalAcrossPaths)
{
    for (const std::size_t n : kLaneSizes) {
        const auto pts = randomCloud(n, 9600 + n);
        MortonSampler sampler(32);
        const Structurization s = sampler.structurize(pts);
        // W > k exercises the distance-ranked SIMD path (W <= k+1 is
        // pure index selection and never touches the kernels).
        expectPathsIdentical(
            [&] {
                const MortonWindowSearch search(64);
                return search.searchAll(pts, s, std::min<std::size_t>(8, n))
                    .indices;
            },
            "morton-window");
    }
}

TEST(DispatchEquivalence, FpsIdenticalAcrossPaths)
{
    for (const std::size_t n : kLaneSizes) {
        const auto pts = randomCloud(n, 9700 + n);
        expectPathsIdentical(
            [&] {
                FarthestPointSampler fps;
                return fps.sample(pts, std::max<std::size_t>(1, n / 2));
            },
            "fps");
    }
}

} // namespace
} // namespace edgepc
