/** @file Unit tests for grouping, edge features and the traffic model. */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/grouping.hpp"

namespace edgepc {
namespace nn {
namespace {

/** fp32 on the scalar engine, whatever the environment says. */
const GemmRoute kFp32{GemmEngine::shared(GemmMode::Scalar)};

TEST(Grouping, GatherRows)
{
    Matrix feats(3, 2, {1, 2, 3, 4, 5, 6});
    const std::vector<std::uint32_t> idx = {2, 0, 2};
    const Matrix out = gatherRows(feats, idx);
    ASSERT_EQ(out.rows(), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);
    EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);
}

TEST(Grouping, GatherLinearMatchesGatherThenLinear)
{
    Rng rng(17);
    Matrix feats(32, 6);
    feats.fillNormal(rng, 1.0f);
    Matrix weight(6, 5);
    weight.fillNormal(rng, 1.0f);
    Matrix bias(1, 5);
    bias.fillNormal(rng, 1.0f);
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < 40; ++i) {
        idx.push_back(static_cast<std::uint32_t>(rng.nextBelow(32)));
    }

    GemmEngine engine(GemmMode::Fast);
    const Matrix direct = gatherLinear(feats, idx, weight, bias, engine);
    const Matrix gathered = gatherRows(feats, idx);
    Matrix want = engine.multiply(gathered, weight);
    for (std::size_t r = 0; r < want.rows(); ++r) {
        for (std::size_t c = 0; c < want.cols(); ++c) {
            want.at(r, c) += bias.at(0, c);
        }
    }
    ASSERT_EQ(direct.rows(), want.rows());
    ASSERT_EQ(direct.cols(), want.cols());
    for (std::size_t i = 0; i < want.numel(); ++i) {
        EXPECT_FLOAT_EQ(direct.data()[i], want.data()[i])
            << "element " << i;
    }
}

TEST(Grouping, IntoVariantsMatchAllocatingVariants)
{
    Rng rng(18);
    Matrix feats(8, 3);
    feats.fillNormal(rng, 1.0f);
    NeighborLists lists;
    lists.k = 2;
    lists.indices = {1, 2, 3, 0, 5, 7, 4, 6, 0, 1, 2, 3, 6, 5, 7, 4};

    const Matrix want = edgeFeatures(feats, lists);
    std::vector<float> buf(want.numel());
    edgeFeaturesInto(feats, lists, buf);
    for (std::size_t i = 0; i < want.numel(); ++i) {
        EXPECT_FLOAT_EQ(buf[i], want.data()[i]) << "element " << i;
    }

    const std::vector<std::uint32_t> idx = {3, 1, 4};
    const Matrix gathered = gatherRows(feats, idx);
    std::vector<float> gbuf(gathered.numel());
    gatherRowsInto(feats, idx, gbuf);
    for (std::size_t i = 0; i < gathered.numel(); ++i) {
        EXPECT_FLOAT_EQ(gbuf[i], gathered.data()[i]) << "element " << i;
    }
}

TEST(Grouping, RelativeCoordsGrouping)
{
    const std::vector<Vec3> pos = {{0, 0, 0}, {1, 0, 0}, {0, 2, 0}};
    Matrix feats(3, 1, {10, 20, 30});
    const std::vector<std::uint32_t> samples = {0};
    NeighborLists lists;
    lists.k = 2;
    lists.indices = {1, 2};
    const Matrix out =
        groupWithRelativeCoords(pos, feats, samples, lists);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);  // rel x of neighbor 1
    EXPECT_FLOAT_EQ(out.at(0, 3), 20.0f); // feature of neighbor 1
    EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);  // rel y of neighbor 2
    EXPECT_FLOAT_EQ(out.at(1, 3), 30.0f);
}

TEST(Grouping, RelativeCoordsWithoutFeatures)
{
    const std::vector<Vec3> pos = {{0, 0, 0}, {1, 1, 1}};
    Matrix empty;
    const std::vector<std::uint32_t> samples = {1};
    NeighborLists lists;
    lists.k = 1;
    lists.indices = {0};
    const Matrix out =
        groupWithRelativeCoords(pos, empty, samples, lists);
    ASSERT_EQ(out.cols(), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 0), -1.0f);
}

TEST(Grouping, EdgeFeatures)
{
    Matrix feats(2, 2, {1, 2, 5, 7});
    NeighborLists lists;
    lists.k = 1;
    lists.indices = {1, 0}; // point 0 -> neighbor 1; point 1 -> 0.
    const Matrix out = edgeFeatures(feats, lists);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    // Row 0: [f0 | f1 - f0] = [1, 2, 4, 5].
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 4.0f);
    // Row 1: [f1 | f0 - f1] = [5, 7, -4, -5].
    EXPECT_FLOAT_EQ(out.at(1, 1), 7.0f);
    EXPECT_FLOAT_EQ(out.at(1, 3), -5.0f);
}

TEST(Grouping, GroupingLayerBackwardScatters)
{
    GroupingLayer layer;
    Matrix feats(3, 1, {1, 2, 3});
    const std::vector<std::uint32_t> idx = {0, 0, 2};
    layer.setIndices(idx);
    layer.forward(feats, kFp32, true);
    Matrix dy(3, 1, {10, 20, 30});
    const Matrix dx = layer.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 30.0f); // 10 + 20
    EXPECT_FLOAT_EQ(dx.at(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(2, 0), 30.0f);
}

TEST(Grouping, EdgeFeatureLayerBackward)
{
    EdgeFeatureLayer layer;
    NeighborLists lists;
    lists.k = 1;
    lists.indices = {1, 0};
    layer.setNeighbors(lists);

    Matrix feats(2, 1, {3, 5});
    layer.forward(feats, kFp32, true);
    // dy rows: [d_self | d_edge].
    Matrix dy(2, 2, {1, 2, 4, 8});
    const Matrix dx = layer.backward(dy);
    // f0: self grad (1-2) from row 0, edge grad +8 from row 1 = 7.
    EXPECT_FLOAT_EQ(dx.at(0, 0), (1.0f - 2.0f) + 8.0f);
    // f1: self grad (4-8) from row 1, edge grad +2 from row 0 = -2.
    EXPECT_FLOAT_EQ(dx.at(1, 0), (4.0f - 8.0f) + 2.0f);
}

TEST(Grouping, SortNeighborRows)
{
    NeighborLists lists;
    lists.k = 3;
    lists.indices = {5, 1, 3, 9, 2, 2};
    const NeighborLists sorted = sortNeighborRows(lists);
    EXPECT_EQ(sorted.indices,
              (std::vector<std::uint32_t>{1, 3, 5, 2, 2, 9}));
}

TEST(Grouping, SortedGatherReducesTraffic)
{
    // The Sec 5.4.2 claim: row-sorting the neighbor-index matrix cuts
    // L2/DRAM traffic. The effect relies on spatial neighbors having
    // nearby indexes, which the Morton reordering of the cloud
    // guarantees — build lists whose rows contain clustered indexes
    // in random order, as ball query on a Morton-ordered cloud does.
    Rng rng(91);
    NeighborLists lists;
    lists.k = 16;
    const std::size_t queries = 512;
    for (std::size_t q = 0; q < queries; ++q) {
        const auto center =
            static_cast<std::uint32_t>(rng.nextBelow(4096 - 64));
        for (std::size_t j = 0; j < lists.k; ++j) {
            lists.indices.push_back(
                center + static_cast<std::uint32_t>(
                             rng.nextBelow(48)));
        }
    }
    const NeighborLists sorted = sortNeighborRows(lists);
    const auto raw =
        estimateGatherTraffic(lists.indices, 64, 64, 1024);
    const auto opt =
        estimateGatherTraffic(sorted.indices, 64, 64, 1024);
    // Sorting coalesces the clustered indexes into segment bursts.
    EXPECT_LT(opt.l2Lines, raw.l2Lines);
    EXPECT_LE(opt.dramLines, raw.dramLines);
}

TEST(Grouping, WarpTrafficClusteredBeatsScattered)
{
    // Warps whose step-wise reads cluster in a narrow address range
    // coalesce into far fewer transactions than scattered reads.
    Rng rng(93);
    NeighborLists clustered, scattered;
    clustered.k = scattered.k = 16;
    for (std::size_t q = 0; q < 256; ++q) {
        for (std::size_t j = 0; j < 16; ++j) {
            clustered.indices.push_back(
                static_cast<std::uint32_t>(q / 32 * 8 +
                                           rng.nextBelow(8)));
            scattered.indices.push_back(static_cast<std::uint32_t>(
                rng.nextBelow(1u << 18)));
        }
    }
    const auto tight =
        estimateWarpGatherTraffic(clustered, 32, 32, 256);
    const auto wide =
        estimateWarpGatherTraffic(scattered, 32, 32, 256);
    EXPECT_LT(tight.l2Lines, wide.l2Lines / 4);
    EXPECT_LT(tight.dramLines, wide.dramLines / 4);
}

TEST(Grouping, WarpTrafficIdenticalRowsCoalescePerfectly)
{
    // All threads of the warp reading the same row is one segment
    // per step.
    NeighborLists lists;
    lists.k = 2;
    for (std::size_t q = 0; q < 32; ++q) {
        lists.indices.push_back(5);
        lists.indices.push_back(6);
    }
    const auto t = estimateWarpGatherTraffic(lists, 32, 32, 256);
    // 2 steps, each coalescing to a single 128-B segment (rows 5 and
    // 6 at 32 B/row share segment 1) -> 2 transactions total.
    EXPECT_EQ(t.l2Lines, 2u);
}

TEST(Grouping, TrafficSequentialBeatsRandom)
{
    std::vector<std::uint32_t> sequential, random;
    Rng rng(92);
    for (std::uint32_t i = 0; i < 2048; ++i) {
        sequential.push_back(i);
        random.push_back(
            static_cast<std::uint32_t>(rng.nextBelow(1u << 20)));
    }
    const auto seq = estimateGatherTraffic(sequential, 16, 64, 1024);
    const auto rnd = estimateGatherTraffic(random, 16, 64, 1024);
    EXPECT_LT(seq.dramLines, rnd.dramLines);
}

TEST(Grouping, ApplyInterpolationWeightsSum)
{
    InterpolationPlan plan;
    plan.k = 3;
    plan.indices = {0, 1, 2};
    plan.weights = {0.2f, 0.3f, 0.5f};
    Matrix src(3, 1, {1, 1, 1});
    const Matrix out = applyInterpolation(plan, src);
    EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-6f);
}

} // namespace
} // namespace nn
} // namespace edgepc
