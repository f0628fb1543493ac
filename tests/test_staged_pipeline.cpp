/** @file Tests for the inter-frame staged-dataflow executor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "core/robust_pipeline.hpp"
#include "core/staged_pipeline.hpp"
#include "datasets/scenes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnetpp.hpp"
#include "nn/delayed_agg.hpp"
#include "obs/metrics.hpp"
#include "serve/serving_engine.hpp"

namespace edgepc {
namespace {

PointCloud
sceneCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    SceneOptions options;
    options.points = points;
    return makeScene(options, rng);
}

std::vector<PointCloud>
sceneClouds(std::size_t frames, std::size_t points, std::uint64_t seed)
{
    std::vector<PointCloud> clouds;
    clouds.reserve(frames);
    for (std::size_t i = 0; i < frames; ++i) {
        clouds.push_back(sceneCloud(points, seed + i));
    }
    return clouds;
}

/** @p cfg with the staged-executor route set to @p pipeline. */
EdgePcConfig
withPipeline(EdgePcConfig cfg, Route pipeline)
{
    cfg.pipeline = pipeline;
    return cfg;
}

void
expectSameLogits(const nn::Matrix &staged, const nn::Matrix &sequential,
                 const char *what)
{
    ASSERT_EQ(staged.rows(), sequential.rows()) << what;
    ASSERT_EQ(staged.cols(), sequential.cols()) << what;
    for (std::size_t i = 0; i < staged.rows() * staged.cols(); ++i) {
        ASSERT_FLOAT_EQ(staged.data()[i], sequential.data()[i])
            << what << " diverges at flat index " << i;
    }
}

/**
 * Forwards to a lite PointNet++ and raises a typed error from its
 * second stagedFeature call, so exactly one frame fails on the staged
 * executor while infer() (the sequential retry route) keeps working.
 */
class SecondFeatureFailsModel : public PointCloudModel
{
  public:
    SecondFeatureFailsModel()
        : inner(PointNetPPConfig::liteSegmentation(128, 5), 7)
    {
    }

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer) override
    {
        return inner.infer(cloud, cfg, timer);
    }
    bool supportsStagedInfer() const override { return true; }
    std::unique_ptr<StagedFrame> makeStagedFrame() override
    {
        return inner.makeStagedFrame();
    }
    void stagedSample(StagedFrame &frame, const PointCloud &cloud,
                      const EdgePcConfig &cfg, StageTimer *timer) override
    {
        inner.stagedSample(frame, cloud, cfg, timer);
    }
    void stagedNeighbor(StagedFrame &frame, const EdgePcConfig &cfg,
                        StageTimer *timer) override
    {
        inner.stagedNeighbor(frame, cfg, timer);
    }
    nn::Matrix stagedFeature(StagedFrame &frame, const EdgePcConfig &cfg,
                             StageTimer *timer) override
    {
        if (featureCalls.fetch_add(1) + 1 == 2) {
            raise(ErrorCode::Internal, "injected feature-stage failure");
        }
        return inner.stagedFeature(frame, cfg, timer);
    }
    std::string name() const override { return inner.name(); }
    std::size_t numClasses() const override { return inner.numClasses(); }
    void collectParameters(std::vector<nn::Parameter *> &out) override
    {
        inner.collectParameters(out);
    }

  private:
    PointNetPP inner;
    std::atomic<int> featureCalls{0};
};

TEST(StagedPipeline, ResolveRespectsMode)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    Dgcnn unsplit(DgcnnConfig::liteClassification(8), 7);

    const EdgePcConfig off = withPipeline(EdgePcConfig::sn(), Route::Off);
    EXPECT_FALSE(resolvePipeline(model, off, 8));

    const EdgePcConfig on = withPipeline(EdgePcConfig::sn(), Route::On);
    EXPECT_TRUE(resolvePipeline(model, on, 2));
    EXPECT_FALSE(resolvePipeline(model, on, 1))
        << "a single frame has nothing to overlap";
    EXPECT_FALSE(resolvePipeline(unsplit, on, 8))
        << "a model without a stage split never takes the staged route";

    const EdgePcConfig automatic =
        withPipeline(EdgePcConfig::sn(), Route::Auto);
    const bool wide_host = ThreadPool::globalPool().concurrency() >= 4;
    EXPECT_EQ(resolvePipeline(model, automatic, 8), wide_host)
        << "Auto must engage exactly on hosts with cores to overlap on";
    EXPECT_FALSE(resolvePipeline(model, automatic, 1));
}

/**
 * Pipelined and sequential execution must produce bit-identical
 * logits across the config variants (scalar vs fused-GEMM) and every
 * delayed-aggregation route. The EDGEPC_SIMD axis of the matrix is
 * covered by the CI leg that re-runs this whole suite under
 * EDGEPC_SIMD=scalar (the distance build is fixed per process).
 */
TEST(StagedPipeline, LogitParityAcrossConfigMatrix)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    const std::vector<PointCloud> clouds = sceneClouds(3, 256, 11);

    const struct
    {
        const char *name;
        EdgePcConfig cfg;
    } variants[] = {
        {"baseline", EdgePcConfig::baseline()},
        {"sn", EdgePcConfig::sn()},
        {"snf", EdgePcConfig::snf()},
    };
    for (const auto &variant : variants) {
        InferencePipeline pipeline(model, variant.cfg);
        for (const Route agg : {Route::Off, Route::On, Route::Auto}) {
            EdgePcConfig cfg = variant.cfg;
            cfg.delayedAggregation = agg;

            pipeline.setConfig(withPipeline(cfg, Route::Off));
            const PipelineResult sequential = pipeline.runBatch(clouds);
            EXPECT_FALSE(sequential.pipelined);

            pipeline.setConfig(withPipeline(cfg, Route::On));
            const PipelineResult staged = pipeline.runBatch(clouds);
            EXPECT_TRUE(staged.pipelined);

            std::string what = std::string(variant.name) +
                               " / delayed_agg=" + routeName(agg);
            expectSameLogits(staged.logits, sequential.logits,
                             what.c_str());
        }
    }
}

TEST(StagedPipeline, ClassifierLogitParity)
{
    PointNetPP model(PointNetPPConfig::liteClassification(128, 4), 3);
    InferencePipeline pipeline(model, EdgePcConfig::sn());
    const std::vector<PointCloud> clouds = sceneClouds(3, 128, 21);

    pipeline.setConfig(withPipeline(EdgePcConfig::sn(), Route::Off));
    const PipelineResult sequential = pipeline.runBatch(clouds);
    pipeline.setConfig(withPipeline(EdgePcConfig::sn(), Route::On));
    const PipelineResult staged = pipeline.runBatch(clouds);
    expectSameLogits(staged.logits, sequential.logits, "classifier");
}

TEST(StagedPipeline, UnsplitModelRunsSequentiallyUnderOn)
{
    // Dgcnn has no staged split, so forced On keeps it sequential.
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    EXPECT_FALSE(model.supportsStagedInfer());
    InferencePipeline pipeline(
        model, withPipeline(EdgePcConfig::baseline(), Route::Off));
    const std::vector<PointCloud> clouds = sceneClouds(3, 96, 31);

    const PipelineResult sequential = pipeline.runBatch(clouds);
    pipeline.setConfig(withPipeline(EdgePcConfig::baseline(), Route::On));
    const PipelineResult forced = pipeline.runBatch(clouds);
    EXPECT_FALSE(forced.pipelined);
    expectSameLogits(forced.logits, sequential.logits, "dgcnn under on");
}

TEST(StagedPipeline, UnsplitModelFailsTypedOnTheExecutor)
{
    // Driven straight into the executor, a model without a split fails
    // each frame with InvalidArgument instead of running it whole.
    Dgcnn model(DgcnnConfig::liteClassification(8), 7);
    StagedPipeline exec(model);
    const EdgePcConfig cfg = EdgePcConfig::baseline();
    ASSERT_TRUE(exec.trySubmit(sceneCloud(96, 32), cfg));
    ASSERT_TRUE(exec.trySubmit(sceneCloud(96, 33), cfg));
    for (int i = 0; i < 2; ++i) {
        const StagedFrameResult r = exec.collect();
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.error.code, ErrorCode::InvalidArgument);
        EXPECT_TRUE(r.logits.empty());
    }
    EXPECT_EQ(exec.inFlight(), 0u);
}

TEST(StagedPipeline, ExecutorDeliversFramesInOrderExactlyOnce)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    StagedPipeline exec(model);
    const EdgePcConfig cfg = EdgePcConfig::sn();
    const std::vector<PointCloud> clouds = sceneClouds(6, 128, 41);

    std::vector<StagedFrameResult> results;
    std::size_t next = 0;
    while (next < clouds.size()) {
        if (exec.trySubmit(clouds[next], cfg)) {
            ++next;
            continue;
        }
        results.push_back(exec.collect());
    }
    while (exec.inFlight() > 0) {
        results.push_back(exec.collect());
    }

    ASSERT_EQ(results.size(), clouds.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].id, i) << "submission order broken";
        EXPECT_FALSE(results[i].failed);
        EXPECT_EQ(results[i].logits.rows(), clouds[i].size());
        EXPECT_GT(results[i].wallMs, 0.0);
        EXPECT_GT(results[i].stages.grandTotal(), 0.0);
    }
}

TEST(StagedPipeline, FailedFrameFlowsThroughWithoutDisruptingOthers)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    StagedPipeline exec(model);
    const EdgePcConfig cfg = EdgePcConfig::sn();

    ASSERT_TRUE(exec.trySubmit(sceneCloud(128, 51), cfg));
    ASSERT_TRUE(exec.trySubmit(PointCloud(), cfg)); // Raises EmptyCloud.
    ASSERT_TRUE(exec.trySubmit(sceneCloud(128, 52), cfg));

    const StagedFrameResult first = exec.collect();
    const StagedFrameResult second = exec.collect();
    const StagedFrameResult third = exec.collect();
    EXPECT_EQ(exec.inFlight(), 0u);

    EXPECT_FALSE(first.failed);
    EXPECT_TRUE(second.failed);
    EXPECT_EQ(second.error.code, ErrorCode::EmptyCloud);
    EXPECT_FALSE(third.failed);
    EXPECT_EQ(third.logits.rows(), 128u);
}

TEST(StagedPipeline, RunBatchThrowsAfterDrainAndStaysUsable)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    InferencePipeline pipeline(model, staged_cfg);

    std::vector<PointCloud> clouds = sceneClouds(3, 128, 61);
    clouds[1] = PointCloud();
    EXPECT_THROW(static_cast<void>(pipeline.runBatch(clouds)),
                 EdgePcException);

    // The executor must be fully drained: the next batch works.
    const PipelineResult ok =
        pipeline.runBatch(sceneClouds(3, 128, 62));
    EXPECT_TRUE(ok.pipelined);
    EXPECT_EQ(ok.logits.rows(), 128u);
}

TEST(StagedPipeline, ReportsBusyAndWallTimeSeparately)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    InferencePipeline pipeline(model,
                               withPipeline(EdgePcConfig::sn(), Route::On));
    const std::vector<PointCloud> clouds = sceneClouds(4, 256, 71);

    const PipelineResult staged = pipeline.runBatch(clouds);
    EXPECT_TRUE(staged.pipelined);
    EXPECT_GT(staged.busyMs, 0.0);
    EXPECT_GT(staged.wallMs, 0.0);
    EXPECT_DOUBLE_EQ(staged.endToEndMs, staged.wallMs)
        << "pipelined end-to-end must be wall time, not summed busy";
    EXPECT_DOUBLE_EQ(staged.busyMs, staged.stages.grandTotal());
    EXPECT_LE(staged.sampleNeighborMs, staged.busyMs);

    pipeline.setConfig(withPipeline(EdgePcConfig::sn(), Route::Off));
    const PipelineResult sequential = pipeline.runBatch(clouds);
    EXPECT_FALSE(sequential.pipelined);
    EXPECT_GT(sequential.wallMs, 0.0);
    EXPECT_DOUBLE_EQ(sequential.endToEndMs, sequential.busyMs)
        << "sequential keeps the legacy summed-busy semantics";

    // All frames were collected, so nothing is left in flight.
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("pipeline.frames_in_flight")
                  .value(),
              0);
}

TEST(StagedPipeline, RobustProcessStreamResolvesEveryFrameExactlyOnce)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    RobustPipeline robust(model, staged_cfg);

    std::vector<PointCloud> clouds = sceneClouds(6, 128, 81);
    clouds[2] = PointCloud(); // Sanitizer drops this one at submit.

    std::vector<int> resolved(clouds.size(), 0);
    std::vector<RobustFrameResult> outcomes(clouds.size());
    const std::size_t served = robust.processStream(
        clouds, [&](std::size_t index, RobustFrameResult &&r) {
            ASSERT_LT(index, resolved.size());
            ++resolved[index];
            outcomes[index] = std::move(r);
        });

    for (std::size_t i = 0; i < resolved.size(); ++i) {
        EXPECT_EQ(resolved[i], 1)
            << "frame " << i << " must resolve exactly once";
    }
    EXPECT_EQ(served, clouds.size() - 1);
    EXPECT_EQ(outcomes[2].status, FrameStatus::Dropped);
    for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
        EXPECT_TRUE(outcomes[i].hasLogits()) << "frame " << i;
        EXPECT_TRUE(outcomes[i].result.pipelined) << "frame " << i;
        EXPECT_EQ(outcomes[i].result.logits.rows(), 128u);
        EXPECT_GT(outcomes[i].frameMs, 0.0);
    }

    const StreamHealth health = robust.health();
    EXPECT_EQ(health.frames, clouds.size());
    EXPECT_EQ(health.ok, clouds.size() - 1);
    EXPECT_EQ(health.dropped, 1u);
}

TEST(StagedPipeline, RobustStreamDeadlineEscalatesLadder)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(256, 5), 7);
    RobustPipelineOptions opts;
    opts.deadlineMs = 1e-6; // Every in-flight frame misses.
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::baseline(), Route::On);
    RobustPipeline robust(model, staged_cfg, opts);

    const std::vector<PointCloud> clouds = sceneClouds(4, 256, 91);
    std::size_t missed = 0;
    robust.processStream(clouds,
                         [&](std::size_t, RobustFrameResult &&r) {
                             missed += r.deadlineMissed ? 1 : 0;
                         });
    EXPECT_EQ(missed, clouds.size())
        << "submit-to-completion wall time must police the deadline";
    EXPECT_GT(robust.ladderLevel(), 0)
        << "misses on the staged path must escalate the ladder";
    EXPECT_EQ(robust.health().deadlineMisses, clouds.size());
}

/**
 * A frame that fails on the executor is retried down the ladder at its
 * collect: it resolves once, with logits from the sequential route,
 * before the frames submitted after it. At depth 3 the retry's infer
 * runs while two later frames are in flight on the stage workers.
 */
TEST(StagedPipeline, RobustProcessStreamRetriesFailedFrameAtCollect)
{
    SecondFeatureFailsModel model;
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    RobustPipeline robust(model, staged_cfg);
    const std::vector<PointCloud> clouds = sceneClouds(6, 128, 85);
    constexpr std::size_t kFailed = 1; // The second feature-stage call.

    std::vector<int> resolved(clouds.size(), 0);
    std::vector<std::size_t> sink_order;
    std::vector<RobustFrameResult> outcomes(clouds.size());
    const std::size_t served = robust.processStream(
        clouds, [&](std::size_t index, RobustFrameResult &&r) {
            ASSERT_LT(index, resolved.size());
            ++resolved[index];
            sink_order.push_back(index);
            outcomes[index] = std::move(r);
        });

    for (std::size_t i = 0; i < resolved.size(); ++i) {
        EXPECT_EQ(resolved[i], 1)
            << "frame " << i << " must resolve exactly once";
    }
    EXPECT_EQ(served, clouds.size());
    const RobustFrameResult &failed = outcomes[kFailed];
    EXPECT_TRUE(failed.hasLogits());
    EXPECT_EQ(failed.result.logits.rows(), 128u);
    EXPECT_FALSE(failed.result.pipelined)
        << "the retry runs the sequential ladder";
    EXPECT_EQ(robust.health().retries, 1u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i != kFailed) {
            EXPECT_TRUE(outcomes[i].result.pipelined) << "frame " << i;
        }
    }

    const auto position = [&](std::size_t index) {
        return std::find(sink_order.begin(), sink_order.end(), index) -
               sink_order.begin();
    };
    EXPECT_LT(position(kFailed), position(clouds.size() - 1))
        << "the retried frame resolves at its collect, not last";
}

TEST(StagedPipeline, ServingEnginePipelinedDispatch)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    serve::ServingEngine engine(model, staged_cfg);

    constexpr std::size_t kStreams = 3;
    constexpr std::size_t kFramesPerStream = 6;
    std::vector<serve::StreamId> ids;
    for (std::size_t s = 0; s < kStreams; ++s) {
        ids.push_back(engine.openStream());
    }
    std::vector<std::future<serve::FrameResponse>> futures;
    for (std::size_t round = 0; round < kFramesPerStream; ++round) {
        for (std::size_t s = 0; s < kStreams; ++s) {
            auto ticket = engine.submit(
                ids[s], sceneCloud(128, 100 + round * kStreams + s));
            ASSERT_TRUE(ticket.accepted());
            futures.push_back(std::move(ticket.response));
        }
    }

    std::size_t with_logits = 0;
    std::size_t pipelined = 0;
    for (auto &future : futures) {
        const serve::FrameResponse resp = future.get();
        with_logits += resp.hasLogits() ? 1 : 0;
        pipelined += resp.pipelined ? 1 : 0;
    }
    EXPECT_EQ(with_logits, futures.size());
    EXPECT_GT(pipelined, 0u)
        << "queued heads of distinct streams must take the staged path";

    const auto reports = engine.drain();
    std::size_t served = 0;
    std::size_t pipelined_frames = 0;
    for (const auto &report : reports) {
        served += report.serve.served;
        pipelined_frames += report.serve.pipelinedFrames;
    }
    EXPECT_EQ(served, kStreams * kFramesPerStream);
    EXPECT_EQ(pipelined_frames, pipelined);
}

/**
 * A staged dispatch round in which one frame fails on the executor:
 * that frame is answered by its stream's per-frame fallback, and only
 * the frames the executor served count as pipelined.
 */
TEST(StagedPipeline, ServingEngineFailedFrameFallsBackPerFrame)
{
    SecondFeatureFailsModel model;
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    serve::ServingEngine engine(model, staged_cfg);

    // The first frame of stream 0 holds the dispatcher in its prolog
    // until one frame per stream is queued behind it, so the three
    // heads dispatch as one staged round.
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<int> prolog_calls{0};
    serve::StreamOptions gated;
    gated.robust.inferenceProlog = [&] {
        if (prolog_calls.fetch_add(1) != 0) {
            return;
        }
        entered.store(true);
        while (!release.load()) {
            std::this_thread::yield();
        }
    };
    const std::vector<serve::StreamId> ids = {
        engine.openStream(gated), engine.openStream(),
        engine.openStream()};

    std::vector<std::future<serve::FrameResponse>> futures;
    auto submit = [&](serve::StreamId id, std::uint64_t seed) {
        auto ticket = engine.submit(id, sceneCloud(128, seed));
        ASSERT_TRUE(ticket.accepted());
        futures.push_back(std::move(ticket.response));
    };
    submit(ids[0], 400);
    Timer wait;
    while (!entered.load()) {
        ASSERT_LT(wait.elapsedMs(), 60000.0) << "dispatcher never ran";
        std::this_thread::yield();
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
        submit(ids[s], 401 + s);
    }
    release.store(true);

    std::vector<serve::FrameResponse> responses;
    for (auto &future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready);
        responses.push_back(future.get());
    }
    for (const serve::FrameResponse &resp : responses) {
        EXPECT_TRUE(resp.hasLogits()) << "stream " << resp.stream;
        EXPECT_EQ(resp.logits.rows(), 128u);
        EXPECT_FALSE(resp.batched);
    }
    EXPECT_FALSE(responses[0].pipelined) << "the gate frame ran alone";
    std::size_t pipelined = 0;
    for (std::size_t i = 1; i < responses.size(); ++i) {
        pipelined += responses[i].pipelined ? 1 : 0;
    }
    EXPECT_EQ(pipelined, 2u)
        << "the failed head is answered by the per-frame fallback";

    const auto reports = engine.drain();
    std::size_t pipelined_frames = 0;
    std::size_t served = 0;
    for (const auto &report : reports) {
        pipelined_frames += report.serve.pipelinedFrames;
        served += report.serve.served;
    }
    EXPECT_EQ(pipelined_frames, 2u);
    EXPECT_EQ(served, futures.size());
}

/** TSan-gate stress: keeps the three stage workers, the caller, and
    the metrics/trace side channels busy across executor lifetimes. */
TEST(StagedPipelineStress, RepeatedBatchesAcrossExecutorLifetimes)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(96, 5), 7);
    const std::vector<PointCloud> clouds = sceneClouds(8, 96, 201);

    for (int round = 0; round < 3; ++round) {
        // Fresh pipeline each round: exercises executor construction,
        // drain-on-destruction, and slot recycling within a round.
        const EdgePcConfig staged_cfg =
            withPipeline(EdgePcConfig::sn(), Route::On);
        InferencePipeline pipeline(model, staged_cfg);
        const PipelineResult result = pipeline.runBatch(clouds);
        EXPECT_TRUE(result.pipelined);
        EXPECT_EQ(result.logits.rows(), 96u);
    }
}

TEST(StagedPipelineStress, ConcurrentHealthPollingDuringStream)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(96, 5), 7);
    const EdgePcConfig staged_cfg =
        withPipeline(EdgePcConfig::sn(), Route::On);
    RobustPipeline robust(model, staged_cfg);
    const std::vector<PointCloud> clouds = sceneClouds(8, 96, 301);

    std::atomic<bool> stop{false};
    std::thread monitor([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const StreamHealth health = robust.health();
            EXPECT_LE(health.dropped, health.frames);
            static_cast<void>(robust.ladderLevel());
        }
    });
    std::size_t resolved = 0;
    robust.processStream(
        clouds, [&](std::size_t, RobustFrameResult &&) { ++resolved; });
    stop.store(true, std::memory_order_relaxed);
    monitor.join();
    EXPECT_EQ(resolved, clouds.size());
}

} // namespace
} // namespace edgepc
