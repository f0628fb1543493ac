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
    EDGEPC_TRACE_SCOPE("pipeline", "pipeline");
    static obs::Counter &frames =
        obs::MetricsRegistry::global().counter("pipeline.frames");
    frames.add();

    PipelineResult result;
    {
        EDGEPC_TRACE_SCOPE("frame", "pipeline");
        result.logits = model.infer(cloud, cfg, &result.stages);
    }
    result.endToEndMs = result.stages.grandTotal();
    result.sampleNeighborMs = result.stages.total(kStageSample) +
                              result.stages.total(kStageNeighbor);
    result.energyMj = energyModel.inferenceEnergyMj(result.stages, cfg);
    return result;
}

Result<PipelineResult>
InferencePipeline::tryRun(const PointCloud &cloud)
{
    try {
        return run(cloud);
    } catch (const EdgePcException &e) {
        return e.error();
    }
}

} // namespace edgepc
