#include "core/staged_pipeline.hpp"

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {

bool
resolvePipeline(const PointCloudModel &model, const EdgePcConfig &cfg,
                std::size_t frames)
{
    if (frames < 2 || !model.supportsStagedInfer()) {
        return false;
    }
    switch (cfg.pipeline) {
    case Route::Off:
        return false;
    case Route::On:
        return true;
    case Route::Auto:
        break;
    }
    return ThreadPool::globalPool().concurrency() >= 4;
}

namespace {

/** Process-global staged-executor gauges/counters. Function-local
    statics so registration order can't race static init. */
struct StagedMetrics
{
    obs::Gauge &inFlight;
    obs::Gauge &sampleDepth;
    obs::Gauge &neighborDepth;
    obs::Gauge &featureDepth;
    obs::Counter &framesTotal;
    obs::Counter &framesFailed;

    static StagedMetrics &get()
    {
        static StagedMetrics m{
            obs::MetricsRegistry::global().gauge(
                "pipeline.frames_in_flight"),
            obs::MetricsRegistry::global().gauge(
                "pipeline.queue_depth.sample"),
            obs::MetricsRegistry::global().gauge(
                "pipeline.queue_depth.neighbor"),
            obs::MetricsRegistry::global().gauge(
                "pipeline.queue_depth.feature"),
            obs::MetricsRegistry::global().counter(
                "pipeline.staged_frames"),
            obs::MetricsRegistry::global().counter(
                "pipeline.staged_frames_failed"),
        };
        return m;
    }
};

} // namespace

StagedPipeline::StagedPipeline(PointCloudModel &model_, std::size_t depth_)
    : model(model_), freeQ(depth_ == 0 ? 1 : depth_),
      sampleQ(depth_ == 0 ? 1 : depth_), neighborQ(depth_ == 0 ? 1 : depth_),
      featureQ(depth_ == 0 ? 1 : depth_), doneQ(depth_ == 0 ? 1 : depth_)
{
    const std::size_t n = depth_ == 0 ? 1 : depth_;
    slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        slots.push_back(std::make_unique<Slot>());
        const bool ok = freeQ.tryPush(slots.back().get());
        (void)ok; // Capacity == slot count; cannot fail.
    }
    sampleThread = std::thread([this] { sampleWorker(); });
    neighborThread = std::thread([this] { neighborWorker(); });
    featureThread = std::thread([this] { featureWorker(); });
}

StagedPipeline::~StagedPipeline()
{
    // Contract: the caller collected everything it submitted, so the
    // stage queues drain trivially; close() wakes each worker's pop.
    sampleQ.close();
    sampleThread.join();
    neighborThread.join();
    featureThread.join();
}

bool
StagedPipeline::trySubmit(const PointCloud &cloud, const EdgePcConfig &cfg)
{
    callerRole.assertHeld();
    Slot *slot = nullptr;
    if (!freeQ.tryPop(slot)) {
        return false; // Every slot in flight: collect() first.
    }
    slot->id = nextId++;
    slot->cloud = cloud;
    slot->cfg = cfg;
    slot->stages = StageTimer{};
    slot->submitTime = std::chrono::steady_clock::now();
    slot->logits = nn::Matrix{};
    slot->failed = false;
    if (slot->state == nullptr) {
        slot->state = model.makeStagedFrame();
    }
    StagedMetrics &m = StagedMetrics::get();
    m.framesTotal.add(1);
    m.inFlight.set(static_cast<std::int64_t>(
        inFlightCount.fetch_add(1, std::memory_order_relaxed) + 1));
    const bool pushed = sampleQ.push(slot);
    (void)pushed; // Queues close only in ~StagedPipeline.
    m.sampleDepth.set(static_cast<std::int64_t>(sampleQ.depth()));
    return true;
}

StagedFrameResult
StagedPipeline::collect()
{
    callerRole.assertHeld();
    Slot *slot = nullptr;
    const bool got = doneQ.pop(slot);
    if (!got) {
        // Only reachable by calling collect() during/after teardown.
        raise(ErrorCode::InvalidArgument,
              "StagedPipeline::collect: executor shut down");
    }
    StagedFrameResult result;
    result.id = slot->id;
    result.logits = std::move(slot->logits);
    result.stages = slot->stages;
    result.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - slot->submitTime)
            .count();
    result.failed = slot->failed;
    result.error = slot->error;
    StagedMetrics &m = StagedMetrics::get();
    if (slot->failed) {
        m.framesFailed.add(1);
    }
    m.inFlight.set(static_cast<std::int64_t>(
        inFlightCount.fetch_sub(1, std::memory_order_relaxed) - 1));
    const bool recycled = freeQ.tryPush(std::move(slot));
    (void)recycled; // freeQ capacity == slot count; cannot fail.
    return result;
}

void
StagedPipeline::sampleWorker()
{
    obs::Tracer::global().nameCurrentThread("pipe.sample");
    StagedMetrics &m = StagedMetrics::get();
    Slot *slot = nullptr;
    while (sampleQ.pop(slot)) {
        m.sampleDepth.set(static_cast<std::int64_t>(sampleQ.depth()));
        {
            EDGEPC_TRACE_SCOPE("staged.sample", "pipeline");
            try {
                model.stagedSample(*slot->state, slot->cloud, slot->cfg,
                                   &slot->stages);
            } catch (const EdgePcException &e) {
                slot->failed = true;
                slot->error = e.error();
            }
        }
        const bool pushed = neighborQ.push(slot);
        (void)pushed;
        m.neighborDepth.set(
            static_cast<std::int64_t>(neighborQ.depth()));
    }
    neighborQ.close();
}

void
StagedPipeline::neighborWorker()
{
    obs::Tracer::global().nameCurrentThread("pipe.neighbor");
    StagedMetrics &m = StagedMetrics::get();
    Slot *slot = nullptr;
    while (neighborQ.pop(slot)) {
        m.neighborDepth.set(
            static_cast<std::int64_t>(neighborQ.depth()));
        if (!slot->failed) {
            EDGEPC_TRACE_SCOPE("staged.neighbor", "pipeline");
            try {
                model.stagedNeighbor(*slot->state, slot->cfg,
                                     &slot->stages);
            } catch (const EdgePcException &e) {
                slot->failed = true;
                slot->error = e.error();
            }
        }
        const bool pushed = featureQ.push(slot);
        (void)pushed;
        m.featureDepth.set(static_cast<std::int64_t>(featureQ.depth()));
    }
    featureQ.close();
}

void
StagedPipeline::featureWorker()
{
    obs::Tracer::global().nameCurrentThread("pipe.feature");
    StagedMetrics &m = StagedMetrics::get();
    Slot *slot = nullptr;
    while (featureQ.pop(slot)) {
        m.featureDepth.set(static_cast<std::int64_t>(featureQ.depth()));
        if (!slot->failed) {
            EDGEPC_TRACE_SCOPE("staged.feature", "pipeline");
            try {
                slot->logits = model.stagedFeature(*slot->state,
                                                   slot->cfg,
                                                   &slot->stages);
            } catch (const EdgePcException &e) {
                slot->failed = true;
                slot->error = e.error();
            }
        }
        const bool pushed = doneQ.push(slot);
        (void)pushed;
    }
    doneQ.close();
}

} // namespace edgepc
