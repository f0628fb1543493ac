/**
 * @file Failure-path tests for the two error tiers.
 *
 * Data-dependent, recoverable failures (empty clouds, bad radii,
 * degenerate geometry, feature-dim mismatch) throw EdgePcException
 * with a taxonomy code so a serving layer can catch and degrade —
 * they must NOT terminate the process. True invariant violations
 * (matrix shape bugs, impossible configuration) still fail fast with
 * a fatal diagnostic.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "geometry/morton.hpp"
#include "geometry/voxel_grid.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"
#include "models/pointnetpp.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "pointcloud/point_cloud.hpp"
#include "sampling/interpolation.hpp"
#include "train/trainer.hpp"

namespace edgepc {
namespace {

/** EXPECT that @p expr throws EdgePcException with @p code. */
#define EXPECT_RAISES(expr, expected_code)                                \
    do {                                                                  \
        try {                                                             \
            (void)(expr);                                                 \
            FAIL() << "expected EdgePcException";                         \
        } catch (const EdgePcException &e) {                              \
            EXPECT_EQ(e.code(), (expected_code)) << e.what();             \
        }                                                                 \
    } while (0)

// --- Recoverable: data-dependent failures throw --------------------

TEST(RecoverablePaths, MortonEncoderRejectsDegenerateGrid)
{
    EXPECT_RAISES(MortonEncoder({0, 0, 0}, 0.0f, 8),
                  ErrorCode::DegenerateGeometry);
    EXPECT_RAISES(MortonEncoder({0, 0, 0}, -1.0f, 8),
                  ErrorCode::DegenerateGeometry);
}

TEST(RecoverablePaths, VoxelGridRejectsDegenerateCell)
{
    const std::vector<Vec3> pts = {{0, 0, 0}};
    EXPECT_RAISES(VoxelGrid(pts, 0.0f), ErrorCode::DegenerateGeometry);
}

TEST(RecoverablePaths, BallQueryRejectsBadInputs)
{
    EXPECT_RAISES(BallQuery(-0.5f), ErrorCode::InvalidArgument);
    BallQuery bq(1.0f);
    const std::vector<Vec3> pts = {{0, 0, 0}};
    EXPECT_RAISES(bq.search(pts, {}, 4), ErrorCode::EmptyCloud);
    EXPECT_RAISES(bq.search(pts, pts, 0), ErrorCode::EmptyCloud);
}

TEST(RecoverablePaths, BruteForceRejectsEmptyCandidates)
{
    BruteForceKnn knn;
    const std::vector<Vec3> pts = {{0, 0, 0}};
    EXPECT_RAISES(knn.search(pts, {}, 2), ErrorCode::EmptyCloud);
}

TEST(RecoverablePaths, MortonWindowRejectsEmptyCandidates)
{
    MortonWindowKnn knn(8);
    const std::vector<Vec3> pts = {{0, 0, 0}};
    EXPECT_RAISES(knn.search(pts, {}, 2), ErrorCode::EmptyCloud);
}

TEST(RecoverablePaths, InterpolationRejectsEmptySources)
{
    const std::vector<Vec3> targets = {{0, 0, 0}};
    EXPECT_RAISES(exactInterpolation(targets, {}, 3),
                  ErrorCode::EmptyCloud);
}

TEST(RecoverablePaths, ModelsRejectEmptyAndMismatchedClouds)
{
    PointNetPP pnpp(PointNetPPConfig::liteClassification(32, 4), 1);
    const PointCloud empty;
    EXPECT_RAISES(pnpp.infer(empty, EdgePcConfig::baseline()),
                  ErrorCode::EmptyCloud);

    // Feature-dim mismatch: model expects 0 extra channels.
    PointCloud featured({{0, 0, 0}, {1, 1, 1}});
    featured.setFeatures({1.0f, 2.0f}, 1);
    EXPECT_RAISES(pnpp.infer(featured, EdgePcConfig::baseline()),
                  ErrorCode::ShapeMismatch);

    Dgcnn dgcnn(DgcnnConfig::liteClassification(4), 1);
    EXPECT_RAISES(dgcnn.infer(empty, EdgePcConfig::baseline()),
                  ErrorCode::EmptyCloud);

    PointNet pn(PointNetConfig::classification(4), 1);
    EXPECT_RAISES(pn.infer(empty, EdgePcConfig::baseline()),
                  ErrorCode::EmptyCloud);
}

/** The acceptance check: a converted call site must not exit(). If the
    exception were still a fatal(), this test binary would die here. */
TEST(RecoverablePaths, ProcessSurvivesAndContinues)
{
    BallQuery bq(1.0f);
    const std::vector<Vec3> pts = {{0, 0, 0}};
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(bq.search(pts, {}, 4), EdgePcException);
    }
    // Still alive and functional after repeated failures.
    const NeighborLists lists = bq.search(pts, pts, 1);
    EXPECT_EQ(lists.queries(), 1u);
}

// --- Still fatal: invariant violations and impossible configs ------

TEST(FatalPathsDeathTest, MortonEncoderRejectsBadBits)
{
    EXPECT_DEATH(MortonEncoder({0, 0, 0}, 1.0f, 0), "bits_per_axis");
    EXPECT_DEATH(MortonEncoder({0, 0, 0}, 1.0f, 22), "bits_per_axis");
}

TEST(FatalPathsDeathTest, MatrixShapeChecks)
{
    EXPECT_DEATH(nn::Matrix(2, 2, {1.0f, 2.0f, 3.0f}), "data size");
    nn::Matrix m(2, 3);
    EXPECT_DEATH(m.reshape(4, 4), "reshape");
    nn::Matrix a(1, 2), b(1, 3);
    EXPECT_DEATH(a.add(b), "shape mismatch");
    EXPECT_DEATH(nn::concatCols(nn::Matrix(1, 1), nn::Matrix(2, 1)),
                 "row mismatch");
    EXPECT_DEATH(nn::splitCols(nn::Matrix(1, 2), 5), "left_cols");
}

TEST(FatalPathsDeathTest, PointCloudConsistencyChecks)
{
    PointCloud cloud({{0, 0, 0}, {1, 1, 1}});
    EXPECT_DEATH(cloud.setFeatures({1.0f}, 2), "setFeatures");
    EXPECT_DEATH(cloud.setLabels({1}), "setLabels");
    const std::vector<std::uint32_t> bad_perm = {0};
    EXPECT_DEATH(cloud.permute(bad_perm), "permutation size");
}

TEST(FatalPathsDeathTest, MaxPoolRejectsBadGroups)
{
    EXPECT_DEATH(nn::MaxPoolNeighbors(0), "group size");
    nn::MaxPoolNeighbors pool(3);
    nn::Matrix x(4, 1);
    const nn::GemmRoute route{nn::GemmEngine::shared(nn::GemmMode::Scalar)};
    EXPECT_DEATH(pool.forward(x, route, false), "multiple");
}

TEST(FatalPathsDeathTest, TrainerRejectsEmptyDataset)
{
    Trainer trainer;
    PointNetPP model(PointNetPPConfig::liteClassification(32, 4), 1);
    Dataset empty;
    EXPECT_DEATH(trainer.trainClassifier(model, empty,
                                         EdgePcConfig::baseline()),
                 "empty training");
}

} // namespace
} // namespace edgepc
