/**
 * @file
 * Common interface for point-cloud CNN models (PointNet++ and DGCNN
 * families). A model runs a full inference pipeline — sample, neighbor
 * search, grouping, feature compute — honoring an EdgePcConfig that
 * selects baseline or approximate kernels, and reports per-stage
 * latency through a StageTimer.
 */

#ifndef EDGEPC_MODELS_MODEL_HPP
#define EDGEPC_MODELS_MODEL_HPP

#include <span>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/config.hpp"
#include "nn/tensor.hpp"
#include "pointcloud/point_cloud.hpp"

namespace edgepc {

/** Abstract point-cloud CNN. */
class PointCloudModel
{
  public:
    virtual ~PointCloudModel() = default;

    /**
     * Run inference on one cloud.
     *
     * @param cloud Input frame.
     * @param cfg Pipeline configuration (baseline / S+N / S+N+F).
     * @param timer Optional per-stage latency sink.
     * @return Logits: per-point rows for segmentation models, one row
     *         for classification models.
     */
    virtual nn::Matrix infer(const PointCloud &cloud,
                             const EdgePcConfig &cfg,
                             StageTimer *timer = nullptr) = 0;

    /**
     * Run inference on a batch of independent clouds under one
     * configuration, returning one logits matrix per cloud (in input
     * order; none for an empty batch). The default implementation
     * loops infer(); models may override it to stack the
     * feature-compute stage across clouds so the GEMM runs at large M
     * (the serving engine's cross-stream micro-batching hook), as
     * PointNetPP does by executing all the clouds' plans at once. An
     * override must return each cloud's infer() logits bit for bit,
     * whatever else is in the batch.
     */
    virtual std::vector<nn::Matrix>
    inferBatch(std::span<const PointCloud> clouds, const EdgePcConfig &cfg,
               StageTimer *timer = nullptr)
    {
        std::vector<nn::Matrix> out;
        out.reserve(clouds.size());
        for (const PointCloud &cloud : clouds) {
            out.push_back(infer(cloud, cfg, timer));
        }
        return out;
    }

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /** Number of output classes. */
    virtual std::size_t numClasses() const = 0;

    /** Gather all learnable parameters (for optimizers/serialization). */
    virtual void collectParameters(std::vector<nn::Parameter *> &out) = 0;

    /**
     * Gather all non-learnable state buffers (batch-norm running
     * statistics) for full-model serialization.
     */
    virtual void collectBuffers(std::vector<std::vector<float> *> &out)
    {
        (void)out;
    }
};

/**
 * A model that additionally supports training: forward with
 * intermediate retention and backward from the logit gradient.
 */
class TrainableModel : public PointCloudModel
{
  public:
    /** Forward pass, keeping intermediates when @p train is true. */
    virtual nn::Matrix forward(const PointCloud &cloud,
                               const EdgePcConfig &cfg, StageTimer *timer,
                               bool train) = 0;

    /** Backward from dLoss/dLogits (after forward(train=true)). */
    virtual void backward(const nn::Matrix &grad_logits) = 0;
};

} // namespace edgepc

#endif // EDGEPC_MODELS_MODEL_HPP
