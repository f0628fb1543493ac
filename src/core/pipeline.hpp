/**
 * @file
 * The EdgePC inference pipeline: runs a model under a configuration,
 * measures per-stage latency, and reports energy via the EnergyModel.
 * This is the top-level public API — see examples/quickstart.cpp.
 */

#ifndef EDGEPC_CORE_PIPELINE_HPP
#define EDGEPC_CORE_PIPELINE_HPP

#include <memory>
#include <span>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "core/staged_pipeline.hpp"
#include "energy/energy_model.hpp"
#include "models/model.hpp"

namespace edgepc {

/** Result of one pipeline run. */
struct PipelineResult
{
    /** Per-stage latency totals (ms) across the processed frames.
        These are per-stage BUSY times: under the staged executor the
        stages overlap across frames, so their sum legitimately
        exceeds endToEndMs. */
    StageTimer stages;

    /** End-to-end latency in ms. Sequential runs: the summed stage
        busy time (legacy semantics). Pipelined runs: measured wall
        time of the whole stream — the number frames/sec divides. */
    double endToEndMs = 0.0;

    /** Summed per-stage busy time in ms (== stages.grandTotal()). */
    double busyMs = 0.0;

    /** Measured wall time of the whole run in ms (sequential runs
        measure it too, so the two accountings are comparable). */
    double wallMs = 0.0;

    /** Sample + neighbor-search BUSY time in ms (the paper's SMP+NS).
        Not a wall-time share once stages overlap — compare against
        busyMs, not endToEndMs, in pipelined runs. */
    double sampleNeighborMs = 0.0;

    /** Modeled energy in millijoules. */
    double energyMj = 0.0;

    /** True when the frames ran on the staged executor. */
    bool pipelined = false;

    /** Logits of the last processed frame. */
    nn::Matrix logits;
};

/** Runs a model under an EdgePcConfig with full instrumentation. */
class InferencePipeline
{
  public:
    /**
     * @param model Model to drive (not owned; must outlive the
     *        pipeline).
     * @param cfg Pipeline configuration.
     * @param energy Energy model (defaults to the Jetson profile).
     */
    InferencePipeline(PointCloudModel &model, EdgePcConfig cfg,
                      EnergyModel energy = EnergyModel());

    /** Process one frame. Recoverable data errors propagate as
        EdgePcException (see common/error.hpp). */
    PipelineResult run(const PointCloud &cloud);

    /**
     * Process one frame, returning recoverable failures (empty frame,
     * degenerate geometry, shape mismatch, …) as an error value
     * instead of an exception. The fault-tolerant serving layer
     * (RobustPipeline) is built on this entry point.
     */
    [[nodiscard]] Result<PipelineResult> tryRun(const PointCloud &cloud);

    /**
     * Process a batch of frames (totals accumulate). Multi-frame
     * batches route through the staged executor when
     * resolvePipeline() says so (the config's pipeline route); single
     * frames are always sequential.
     */
    PipelineResult runBatch(std::span<const PointCloud> clouds);

    const EdgePcConfig &config() const { return cfg; }

    /** Swap the configuration between runs. */
    void setConfig(const EdgePcConfig &config) { cfg = config; }

  private:
    PipelineResult runSequential(std::span<const PointCloud> clouds);
    PipelineResult runStaged(std::span<const PointCloud> clouds);

    PointCloudModel &model;
    EdgePcConfig cfg;
    EnergyModel energyModel;
    /** Lazily created staged executor (kept across runs so its stage
        workers and frame slots are reused). */
    std::unique_ptr<StagedPipeline> staged;
};

} // namespace edgepc

#endif // EDGEPC_CORE_PIPELINE_HPP
