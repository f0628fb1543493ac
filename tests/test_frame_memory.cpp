/**
 * @file Frame memory (DESIGN.md §17): matrices built with
 * Matrix::forOverwrite start as whatever the heap holds, so a kernel
 * that skips an element would leak stale bytes into the logits; and the
 * library keeps freed frame memory in the heap, so warm frames do not
 * fault their pages back in.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "datasets/scenes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"
#include "models/pointnetpp.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EDGEPC_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EDGEPC_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace edgepc {
namespace {

/**
 * glibc's M_PERTURB for the guard's scope: every block malloc hands
 * out starts as 0x7f bytes, each float 3.4e38, and every freed block
 * is overwritten. Restores the default (off) on exit. Allocators that
 * ignore it (the sanitizers') leave active() false.
 */
class PerturbGuard
{
  public:
    PerturbGuard() : on(set(0x80)) {}
    ~PerturbGuard() { set(0); }
    PerturbGuard(const PerturbGuard &) = delete;
    PerturbGuard &operator=(const PerturbGuard &) = delete;

    bool active() const { return on; }

  private:
    static bool set(int byte)
    {
#ifdef __GLIBC__
        return mallopt(M_PERTURB, byte) == 1;
#else
        (void)byte;
        return false;
#endif
    }

    bool on;
};

std::vector<PointCloud>
sceneClouds(std::size_t frames, std::size_t points, std::uint64_t seed)
{
    std::vector<PointCloud> clouds;
    for (std::size_t i = 0; i < frames; ++i) {
        Rng rng(seed + i);
        SceneOptions options;
        options.points = points;
        clouds.push_back(makeScene(options, rng));
    }
    return clouds;
}

/** Every inference route of @p model over @p clouds: per-cloud infer
    and one inferBatch of all clouds. */
std::vector<nn::Matrix>
allRoutes(PointCloudModel &model, const std::vector<PointCloud> &clouds,
          const EdgePcConfig &cfg)
{
    std::vector<nn::Matrix> out;
    for (const PointCloud &cloud : clouds) {
        out.push_back(model.infer(cloud, cfg));
    }
    for (nn::Matrix &m : model.inferBatch(clouds, cfg)) {
        out.push_back(std::move(m));
    }
    return out;
}

bool
sameBits(const nn::Matrix &a, const nn::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/** The model's routes run plain and under PerturbGuard must agree bit
    for bit, on the exact and the S+N+F configuration, each with the
    int8 and delayed routes of @p routes. */
void
expectPerturbationInvisible(PointCloudModel &model,
                            const std::vector<PointCloud> &clouds,
                            const std::string &label,
                            const EdgePcConfig &routes = EdgePcConfig{})
{
    std::pair<const char *, EdgePcConfig> configs[] = {
        {"baseline", EdgePcConfig::baseline()},
        {"S+N+F", EdgePcConfig::snf()}};
    for (auto &[name, cfg] : configs) {
        cfg.int8Gemm = routes.int8Gemm;
        cfg.delayedAggregation = routes.delayedAggregation;
        const std::vector<nn::Matrix> plain = allRoutes(model, clouds, cfg);
        std::vector<nn::Matrix> dirty;
        {
            const PerturbGuard perturb;
            ASSERT_TRUE(perturb.active());
            dirty = allRoutes(model, clouds, cfg);
        }
        ASSERT_EQ(dirty.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_TRUE(sameBits(dirty[i], plain[i]))
                << label << ", " << name << ", route output " << i;
        }
    }
}

TEST(FrameMemory, DirtyAllocationsDoNotReachLogits)
{
    if (!PerturbGuard().active()) {
        GTEST_SKIP() << "the allocator ignores M_PERTURB";
    }
    const std::vector<PointCloud> clouds = sceneClouds(3, 384, 2501);
    for (const Route delayed : {Route::Off, Route::On}) {
        for (const Route int8 : {Route::Off, Route::On}) {
            const std::string label = std::string("delayed ") +
                                      routeName(delayed) + ", int8 " +
                                      routeName(int8);
            EdgePcConfig routes;
            routes.delayedAggregation = delayed;
            routes.int8Gemm = int8;
            for (bool classify : {false, true}) {
                PointNetPP model(
                    classify ? PointNetPPConfig::liteClassification(384, 5)
                             : PointNetPPConfig::liteSegmentation(384, 5),
                    2601);
                expectPerturbationInvisible(
                    model, clouds,
                    (classify ? "PointNet++ cls, " : "PointNet++ seg, ") +
                        label,
                    routes);
            }
            Dgcnn dgcnn(DgcnnConfig::liteSegmentation(5), 2602);
            expectPerturbationInvisible(dgcnn, clouds, "DGCNN, " + label,
                                        routes);
        }
    }
    PointNet pointnet(PointNetConfig::segmentationConfig(5), 2603);
    expectPerturbationInvisible(pointnet, clouds, "PointNet");
}

long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

/**
 * Warm frames of the paper-scale segmentation model (W1 at a quarter
 * of its points) through InferencePipeline reuse the heap the previous
 * frame freed. Without the retention policy each such frame faults in
 * 992 pages (glibc 2.36); with it, none.
 */
TEST(FrameMemory, WarmFramesDoNotFault)
{
#ifdef EDGEPC_SANITIZED_ALLOCATOR
    GTEST_SKIP() << "the sanitizer's allocator ignores mallopt";
#endif
    constexpr std::size_t kPointScale = 4;
    constexpr long kWarmFrames = 3;
    constexpr long kFrames = 4;
    constexpr long kMaxFaultsPerFrame = 50;
    const WorkloadSpec &w1 = workload("W1");
    const std::unique_ptr<PointCloudModel> model =
        makeWorkloadModel(w1, kPointScale);
    const PointCloud cloud = makeWorkloadCloud(w1, kPointScale);
    InferencePipeline pipeline(*model, EdgePcConfig::snf());
    for (long i = 0; i < kWarmFrames; ++i) {
        (void)pipeline.run(cloud);
    }
    const long before = minorFaults();
    for (long i = 0; i < kFrames; ++i) {
        (void)pipeline.run(cloud);
    }
    const long per_frame = (minorFaults() - before) / kFrames;
    EXPECT_LT(per_frame, kMaxFaultsPerFrame);
}

} // namespace
} // namespace edgepc
