/**
 * @file
 * Property tests shared by every Sampler implementation.
 *
 * For FPS, Morton, random and uniform-index sampling the
 * same contract must hold (ISSUE 3):
 *  - exactly min(k, N) indices are returned,
 *  - all indices are unique and in [0, N),
 *  - a fresh instance with the same seed reproduces the selection,
 *  - edge cases k == N (permutation), k == 1, k > N (clamp) and
 *    N == 0 (empty result, never fatal()) follow the error taxonomy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sampling/fps.hpp"
#include "sampling/morton_sampler.hpp"
#include "sampling/random_sampler.hpp"
#include "sampling/sampler.hpp"
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

struct SamplerCase
{
    const char *name;
    /** Factory: each call returns a FRESH instance (same seed), so
     *  determinism is tested across instances, not per-object state. */
    std::function<std::unique_ptr<Sampler>()> make;
};

const std::vector<SamplerCase> &
samplerCases()
{
    static const std::vector<SamplerCase> cases = {
        {"fps",
         [] { return std::make_unique<FarthestPointSampler>(); }},
        {"morton", [] { return std::make_unique<MortonSampler>(32); }},
        {"random", [] { return std::make_unique<RandomSampler>(77); }},
        {"uniform-index",
         [] { return std::make_unique<UniformIndexSampler>(); }},
    };
    return cases;
}

void
expectValidSelection(const std::vector<std::uint32_t> &sel,
                     std::size_t n, std::size_t expected,
                     const std::string &context)
{
    EXPECT_EQ(sel.size(), expected) << context;
    const std::set<std::uint32_t> unique(sel.begin(), sel.end());
    EXPECT_EQ(unique.size(), sel.size()) << context << " (duplicates)";
    for (const auto idx : sel) {
        EXPECT_LT(idx, n) << context << " (out of range)";
    }
}

TEST(SamplerProperties, UniqueInRangeExactCount)
{
    const auto pts = randomCloud(257, 11);
    for (const SamplerCase &c : samplerCases()) {
        for (const std::size_t k : {1, 2, 63, 128, 257}) {
            const auto sel = c.make()->sample(pts, k);
            expectValidSelection(sel, pts.size(), k,
                                 std::string(c.name) + " k=" +
                                     std::to_string(k));
        }
    }
}

TEST(SamplerProperties, DeterministicUnderFixedSeed)
{
    const auto pts = randomCloud(500, 13);
    for (const SamplerCase &c : samplerCases()) {
        const auto first = c.make()->sample(pts, 100);
        const auto second = c.make()->sample(pts, 100);
        EXPECT_EQ(first, second) << c.name;
    }
}

TEST(SamplerProperties, FullSelectionIsPermutation)
{
    const auto pts = randomCloud(128, 17);
    for (const SamplerCase &c : samplerCases()) {
        auto sel = c.make()->sample(pts, pts.size());
        expectValidSelection(sel, pts.size(), pts.size(), c.name);
        std::sort(sel.begin(), sel.end());
        std::vector<std::uint32_t> identity(pts.size());
        std::iota(identity.begin(), identity.end(), 0u);
        EXPECT_EQ(sel, identity) << c.name;
    }
}

TEST(SamplerProperties, OversizedRequestClampsToCloud)
{
    const auto pts = randomCloud(10, 19);
    for (const SamplerCase &c : samplerCases()) {
        const auto sel = c.make()->sample(pts, 1000);
        expectValidSelection(sel, pts.size(), pts.size(), c.name);
    }
}

TEST(SamplerProperties, SinglePointCloud)
{
    const auto pts = randomCloud(1, 23);
    for (const SamplerCase &c : samplerCases()) {
        const auto sel = c.make()->sample(pts, 5);
        ASSERT_EQ(sel.size(), 1u) << c.name;
        EXPECT_EQ(sel[0], 0u) << c.name;
    }
}

TEST(SamplerProperties, EmptyCloudNeverFatal)
{
    // Per the error taxonomy an empty cloud is data-dependent input:
    // samplers must return an empty selection or raise a typed
    // EdgePcException — reaching fatal()/panic() would abort the test
    // binary, so surviving this loop is itself the assertion.
    const std::vector<Vec3> empty;
    for (const SamplerCase &c : samplerCases()) {
        for (const std::size_t k : {0, 1, 16}) {
            try {
                const auto sel = c.make()->sample(empty, k);
                EXPECT_TRUE(sel.empty()) << c.name << " k=" << k;
            } catch (const EdgePcException &e) {
                SUCCEED() << c.name << " raised typed error: "
                          << e.what();
            }
        }
    }
}

TEST(SamplerProperties, ZeroRequestedReturnsEmpty)
{
    const auto pts = randomCloud(64, 29);
    for (const SamplerCase &c : samplerCases()) {
        const auto sel = c.make()->sample(pts, 0);
        EXPECT_TRUE(sel.empty()) << c.name;
    }
}

} // namespace
} // namespace edgepc
