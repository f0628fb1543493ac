/**
 * @file
 * The EdgePC inference pipeline: runs a model under a configuration,
 * measures per-stage latency, and reports energy via the EnergyModel.
 * This is the top-level public API — see examples/quickstart.cpp.
 */

#ifndef EDGEPC_CORE_PIPELINE_HPP
#define EDGEPC_CORE_PIPELINE_HPP

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "energy/energy_model.hpp"
#include "models/model.hpp"

namespace edgepc {

/** Result of one pipeline run. */
struct PipelineResult
{
    /** Per-stage latency of the frame (ms). */
    StageTimer stages;

    /** End-to-end latency in ms: the summed stage time
        (== stages.grandTotal()). */
    double endToEndMs = 0.0;

    /** Sample + neighbor-search time in ms (the paper's SMP+NS). */
    double sampleNeighborMs = 0.0;

    /** Modeled energy in millijoules. */
    double energyMj = 0.0;

    /** Logits of the frame. */
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

    const EdgePcConfig &config() const { return cfg; }

    /** Swap the configuration between runs. */
    void setConfig(const EdgePcConfig &config) { cfg = config; }

  private:
    PointCloudModel &model;
    EdgePcConfig cfg;
    EnergyModel energyModel;
};

} // namespace edgepc

#endif // EDGEPC_CORE_PIPELINE_HPP
