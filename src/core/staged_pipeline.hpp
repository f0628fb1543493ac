/**
 * @file
 * Inter-frame staged-dataflow executor (DESIGN.md §14).
 *
 * Frame processing splits at the existing stage seams — kStageSample
 * (structurize + sample), kStageNeighbor (window/ball search),
 * kStageGroup + kStageFeature (gather + GEMM) — and each stage gets a
 * dedicated worker thread. Bounded queues (common/bounded_queue.hpp)
 * hand a recycled per-frame context from stage to stage, so frame
 * t+1's structurization overlaps frame t's neighbor search and GEMM:
 * the HgPCN heterogeneous pipeline mapped onto CPU thread groups. The
 * win is end-to-end frames/sec, not per-stage latency — a single
 * frame still crosses every stage serially.
 *
 * Dispatch: the run's EdgePcConfig::pipeline route (default Auto =
 * staged when the host has cores to overlap on; EDGEPC_PIPELINE=on|
 * off|auto sets the default), echoed as config.pipeline in the BENCH
 * json. Only a model with a real stage split takes the staged route,
 * in every mode. InferencePipeline::runBatch,
 * RobustPipeline::processStream and the ServingEngine dispatch path
 * all route through resolvePipeline().
 */

#ifndef EDGEPC_CORE_STAGED_PIPELINE_HPP
#define EDGEPC_CORE_STAGED_PIPELINE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "models/model.hpp"

namespace edgepc {

/**
 * Should a @p frames -frame run of @p model under @p cfg take the
 * staged executor? Never for a single frame or for a model without a
 * real stage split (supportsStagedInfer()). Otherwise cfg.pipeline
 * decides — Off: never. On: always. Auto: only with >= 4 pool threads
 * (3 stage workers + kernel parallelism) — on smaller hosts the stage
 * hops cost more than the overlap returns.
 */
bool resolvePipeline(const PointCloudModel &model, const EdgePcConfig &cfg,
                     std::size_t frames);

/** One completed frame out of the staged executor. */
struct StagedFrameResult
{
    /** Submission ordinal (results arrive in submission order). */
    std::uint64_t id = 0;

    nn::Matrix logits;

    /** Per-stage busy time of this frame (ms). */
    StageTimer stages;

    /** Submit-to-completion wall time (ms) — includes queue waits. */
    double wallMs = 0.0;

    /** True when a stage raised; error holds the cause and logits are
        empty. Failed frames still flow through the remaining queues so
        ordering and exactly-once accounting hold. */
    bool failed = false;
    EdgePcError error;
};

/**
 * The staged executor: three dedicated stage workers connected by
 * bounded queues over a fixed pool of recycled frame slots.
 *
 * Threading contract: trySubmit() and collect() must be called by one
 * logical caller (callerRole); the stage workers are internal. The
 * model is driven through its staged* entry points, which by contract
 * touch frame-local state, so the caller may run the model's infer()
 * while frames are in flight. A model without a stage split fails
 * every frame with InvalidArgument. Destroying the executor drains
 * in-flight frames.
 */
class StagedPipeline
{
  public:
    /** Default frames-in-flight bound (= frame-slot pool size). */
    static constexpr std::size_t kDefaultDepth = 3;

    StagedPipeline(PointCloudModel &model,
                   std::size_t depth = kDefaultDepth);
    ~StagedPipeline();

    StagedPipeline(const StagedPipeline &) = delete;
    StagedPipeline &operator=(const StagedPipeline &) = delete;

    /**
     * Submit one frame under @p cfg. Returns false when every slot is
     * in flight — collect() a result first (this is the backpressure
     * that bounds memory with slow consumers).
     */
    [[nodiscard]] bool trySubmit(const PointCloud &cloud,
                                 const EdgePcConfig &cfg);

    /**
     * Block for the next completed frame, in submission order. Must
     * not be called with nothing in flight (caller owns both ends, so
     * it would deadlock); inFlight() tells.
     */
    StagedFrameResult collect();

    /** Frames submitted and not yet collected. */
    std::size_t inFlight() const
    {
        return inFlightCount.load(std::memory_order_relaxed);
    }

    /** Frames-in-flight bound. */
    std::size_t depth() const { return slots.size(); }

    /** Single-caller contract for trySubmit()/collect(). */
    ThreadRole callerRole;

  private:
    struct Slot
    {
        std::uint64_t id = 0;
        PointCloud cloud;
        EdgePcConfig cfg;
        std::unique_ptr<StagedFrame> state;
        StageTimer stages;
        std::chrono::steady_clock::time_point submitTime;
        nn::Matrix logits;
        bool failed = false;
        EdgePcError error;
    };

    void sampleWorker();
    void neighborWorker();
    void featureWorker();

    PointCloudModel &model;
    std::vector<std::unique_ptr<Slot>> slots;

    // Stage graph: free -> sample -> neighbor -> feature -> done ->
    // (recycled to free). Every queue holds bare slot pointers; the
    // queue mutex hand-off is the happens-before edge between stage
    // workers, so slots carry no atomics.
    BoundedQueue<Slot *> freeQ;
    BoundedQueue<Slot *> sampleQ;
    BoundedQueue<Slot *> neighborQ;
    BoundedQueue<Slot *> featureQ;
    BoundedQueue<Slot *> doneQ;

    std::atomic<std::size_t> inFlightCount{0};
    std::uint64_t nextId EDGEPC_GUARDED_BY(callerRole) = 0;

    std::thread sampleThread;
    std::thread neighborThread;
    std::thread featureThread;
};

} // namespace edgepc

#endif // EDGEPC_CORE_STAGED_PIPELINE_HPP
