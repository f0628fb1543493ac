/**
 * @file
 * Vanilla PointNet (Qi et al., CVPR 2017) — the first network to
 * consume raw point sets, cited by the EdgePC paper as the root of
 * the model family.
 *
 * PointNet has no sampling and no neighbor-search stage (each point
 * is embedded independently and aggregated by one global max-pool),
 * which makes it the control workload in this repository: EdgePC's
 * optimizations target the SMP/NS stages that PointNet lacks, and the
 * pipeline measurements show its breakdown is feature-compute-bound.
 * The price PointNet pays is the loss of local structure, which is
 * exactly what the SA/EdgeConv modules of its successors (and their
 * SMP/NS bottlenecks) reintroduce.
 */

#ifndef EDGEPC_MODELS_POINTNET_HPP
#define EDGEPC_MODELS_POINTNET_HPP

#include "models/model.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/layers.hpp"

namespace edgepc {

/** PointNet hyper-parameters. */
struct PointNetConfig
{
    /** Per-point MLP widths (the last is the global feature size). */
    std::vector<std::size_t> mlp = {64, 128, 256};

    /** Head hidden widths (classes appended internally). */
    std::vector<std::size_t> headMlp = {128};

    /** Output classes. */
    std::size_t numClasses = 0;

    /** Per-point outputs (segmentation) instead of one per cloud. */
    bool segmentation = false;

    /** Classification config sized like the original (scaled down). */
    static PointNetConfig classification(std::size_t num_classes);

    /** Segmentation config: per-point head over [local | global]. */
    static PointNetConfig segmentationConfig(std::size_t num_classes);
};

/**
 * Vanilla PointNet. Inference writes no model member, so two threads
 * may infer on one model at once, and infer() may run between a
 * training forward and its backward. Its GEMMs run on the engine and
 * int8 route of the EdgePcConfig a call passes.
 */
class PointNet : public TrainableModel
{
  public:
    PointNet(PointNetConfig config, std::uint64_t seed = 42);

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer = nullptr) override;

    nn::Matrix forward(const PointCloud &cloud, const EdgePcConfig &cfg,
                       StageTimer *timer, bool train) override;

    void backward(const nn::Matrix &grad_logits) override;

    std::string name() const override { return "pointnet"; }
    std::size_t numClasses() const override { return cfg.numClasses; }
    void collectParameters(std::vector<nn::Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    const PointNetConfig &config() const { return cfg; }

  private:
    PointNetConfig cfg;
    nn::Sequential pointMlp;
    nn::Sequential head;
    /** head's first layer: a segmentation head runs it split over
        [local | 1 global] (DESIGN.md §13). */
    nn::Linear *headFirstLinear = nullptr;

    // Training caches (written by forward(train=true) only).
    nn::GlobalMaxPool globalPool;
    nn::BroadcastLinearCache headCache;
    std::size_t savedPoints = 0;
    /** The engine of the last training forward (null before one). */
    nn::GemmEngine *trainEngine = nullptr;
};

} // namespace edgepc

#endif // EDGEPC_MODELS_POINTNET_HPP
