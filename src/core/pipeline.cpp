#include "core/pipeline.hpp"

#include <mutex>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {

namespace {

/**
 * Keep freed frame memory in the heap (DESIGN.md §17). A frame frees
 * its matrices when it ends and the next frame asks for the same sizes
 * again; under glibc's defaults the large blocks go back to the kernel
 * and fault in again, page by page. Raising the mmap threshold to its
 * maximum and the trim threshold far above any frame keeps them.
 * Process-wide and set once; allocators that ignore mallopt, such as
 * the sanitizers', keep their own policy.
 */
void
retainFreedFrameMemory()
{
#ifdef __GLIBC__
    static std::once_flag once;
    std::call_once(once, [] {
        (void)mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
        (void)mallopt(M_TRIM_THRESHOLD, 1024 * 1024 * 1024);
    });
#endif
}

} // namespace

InferencePipeline::InferencePipeline(PointCloudModel &model_,
                                     EdgePcConfig cfg_, EnergyModel energy)
    : model(model_), cfg(cfg_), energyModel(energy)
{
    retainFreedFrameMemory();
}

PipelineResult
InferencePipeline::run(const PointCloud &cloud)
{
    return runBatch({&cloud, 1});
}

Result<PipelineResult>
InferencePipeline::tryRun(const PointCloud &cloud)
{
    try {
        return runBatch({&cloud, 1});
    } catch (const EdgePcException &e) {
        return e.error();
    }
}

PipelineResult
InferencePipeline::runBatch(std::span<const PointCloud> clouds)
{
    EDGEPC_TRACE_SCOPE("pipeline", "pipeline");
    static obs::Counter &frames =
        obs::MetricsRegistry::global().counter("pipeline.frames");
    frames.add(clouds.size());

    if (resolvePipeline(model, cfg, clouds.size())) {
        return runStaged(clouds);
    }
    return runSequential(clouds);
}

PipelineResult
InferencePipeline::runSequential(std::span<const PointCloud> clouds)
{
    Timer wall;
    PipelineResult result;
    for (const PointCloud &cloud : clouds) {
        EDGEPC_TRACE_SCOPE("frame", "pipeline");
        result.logits = model.infer(cloud, cfg, &result.stages);
    }
    result.busyMs = result.stages.grandTotal();
    result.wallMs = wall.elapsedMs();
    // Legacy semantics: sequential end-to-end is the summed stage
    // busy time (excludes harness overhead between frames).
    result.endToEndMs = result.busyMs;
    result.sampleNeighborMs = result.stages.total(kStageSample) +
                              result.stages.total(kStageNeighbor);
    result.energyMj =
        energyModel.inferenceEnergyMj(result.stages, cfg);
    return result;
}

PipelineResult
InferencePipeline::runStaged(std::span<const PointCloud> clouds)
{
    if (staged == nullptr) {
        staged = std::make_unique<StagedPipeline>(model);
    }

    Timer wall;
    PipelineResult result;
    result.pipelined = true;
    bool have_error = false;
    EdgePcError first_error;

    // Windowed submit/collect: keep the executor full until the input
    // runs out, then drain. Results come back in submission order.
    std::size_t next = 0;
    auto take = [&](StagedFrameResult &&r) {
        result.stages.merge(r.stages);
        if (r.failed) {
            if (!have_error) {
                have_error = true;
                first_error = r.error;
            }
        } else {
            result.logits = std::move(r.logits);
        }
    };
    while (next < clouds.size()) {
        if (staged->trySubmit(clouds[next], cfg)) {
            ++next;
            continue;
        }
        take(staged->collect());
    }
    while (staged->inFlight() > 0) {
        take(staged->collect());
    }

    result.busyMs = result.stages.grandTotal();
    result.wallMs = wall.elapsedMs();
    // Pipelined end-to-end is honest wall time: stages overlap, so
    // summed busy time no longer bounds the stream latency.
    result.endToEndMs = result.wallMs;
    result.sampleNeighborMs = result.stages.total(kStageSample) +
                              result.stages.total(kStageNeighbor);
    result.energyMj =
        energyModel.inferenceEnergyMj(result.stages, cfg);
    if (have_error) {
        // Match the sequential contract: recoverable data errors
        // surface as EdgePcException (after the drain above, so no
        // frame is left in flight).
        throw EdgePcException(first_error);
    }
    return result;
}

} // namespace edgepc
