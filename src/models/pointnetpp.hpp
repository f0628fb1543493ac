/**
 * @file
 * PointNet++ (Qi et al., NeurIPS 2017) with the EdgePC approximations
 * integrated (Fig 2a of the EdgePC paper).
 *
 * The semantic-segmentation variant stacks SetAbstraction (SA) modules
 * — sample, neighbor search, group, shared MLP, max-pool — followed by
 * FeaturePropagation (FP) modules — interpolate/up-sample, concat skip
 * features, shared MLP — and a per-point head. A classification
 * variant (empty FP list) global-pools the deepest features instead.
 *
 * Every stage honors the EdgePcConfig: baseline runs FPS + ball query
 * + exact 3-NN interpolation; S+N swaps the configured leading layers
 * for the Morton sampler / window searcher / stride up-sampler,
 * reusing one structurization across the sample and neighbor-search
 * stages of the same module (Sec 5.2.3).
 *
 * Full manual backprop is implemented so the network can be retrained
 * with the approximations in the training loop (Sec 5.3).
 */

#ifndef EDGEPC_MODELS_POINTNETPP_HPP
#define EDGEPC_MODELS_POINTNETPP_HPP

#include <memory>

#include "models/model.hpp"
#include "neighbor/neighbor_search.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/grouping.hpp"
#include "nn/layers.hpp"
#include "sampling/interpolation.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {

/** How an SA module searches neighbors in the baseline. */
enum class NeighborMode
{
    BallQuery,
    Knn,
};

/** One SetAbstraction module's hyper-parameters. */
struct SaConfig
{
    /** Points sampled by this module (n). */
    std::size_t points;
    /** Neighbors per sampled point (k). */
    std::size_t k;
    /** Ball-query radius (ignored in Knn mode). */
    float radius;
    /** Baseline neighbor searcher. */
    NeighborMode mode = NeighborMode::BallQuery;
    /** Shared-MLP channel widths. */
    std::vector<std::size_t> mlp;
};

/** One FeaturePropagation module's hyper-parameters. */
struct FpConfig
{
    /** Shared-MLP channel widths (at least one). */
    std::vector<std::size_t> mlp;
};

/** Whole-network hyper-parameters. */
struct PointNetPPConfig
{
    /** Extra per-point input features beyond xyz (0 = coords only). */
    std::size_t inputFeatureDim = 0;

    /** Output classes. */
    std::size_t numClasses = 0;

    /** SA modules, shallowest first. */
    std::vector<SaConfig> sa;

    /**
     * FP modules, deepest first (fp[0] propagates from the deepest
     * level). Must match sa.size() for segmentation; empty makes the
     * network a classifier (global pool + head).
     */
    std::vector<FpConfig> fp;

    /** Hidden widths of the final head (classes appended internally). */
    std::vector<std::size_t> headMlp;

    /**
     * The paper's PointNet++(s) for semantic segmentation: 4 SA + 4 FP
     * with the reference SSG widths, module point counts scaled from
     * @p num_points (N/8, N/32, N/128, N/512).
     */
    static PointNetPPConfig semanticSegmentation(std::size_t num_points,
                                                 std::size_t num_classes);

    /** Small trainable segmentation variant (2 SA + 2 FP). */
    static PointNetPPConfig liteSegmentation(std::size_t num_points,
                                             std::size_t num_classes);

    /** Small trainable classification variant (2 SA, global pool). */
    static PointNetPPConfig liteClassification(std::size_t num_points,
                                               std::size_t num_classes);
};

/**
 * PointNet++ with selectable baseline / EdgePC kernels.
 *
 * Inference is one route in two steps (DESIGN.md §14). Planning reads
 * positions only: its sample half runs the whole sampling chain and
 * every FP module's up-sampling plan, its neighbor half every SA
 * module's neighbor search and delayed-aggregation decision. Execution
 * then runs the feature compute of one plan or of a row-stacked batch
 * of plans. infer() plans and executes one cloud, inferBatch() many.
 * Inference writes no model member, so two threads may infer on one
 * model, and infer() may run between a training forward and its
 * backward. Every route comes from the EdgePcConfig a call passes:
 * int8 search and delayed aggregation when planning, the variant's
 * GEMM engine and the int8 GEMM route when executing.
 */
class PointNetPP : public TrainableModel
{
  public:
    /**
     * @param config Network hyper-parameters.
     * @param seed Weight-initialization seed.
     */
    PointNetPP(PointNetPPConfig config, std::uint64_t seed = 42);

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer = nullptr) override;

    /**
     * Plans every cloud, then executes the plans together: each
     * shared-MLP stage runs once over the row-stacked batch via
     * Sequential::forwardSegmented, so the packed GEMM sees a tall M
     * instead of B skinny calls. BatchNorm keeps per-cloud statistics
     * and int8-capable layers run per cloud, so each cloud's logits
     * equal its infer() logits bit for bit.
     */
    std::vector<nn::Matrix> inferBatch(std::span<const PointCloud> clouds,
                                       const EdgePcConfig &cfg,
                                       StageTimer *timer = nullptr) override;

    /**
     * Forward pass. With @p train it plans like infer() and runs the
     * same feature compute, keeping the layer caches backward() needs
     * (a single-stage block takes the eager route, the only one with a
     * backward); without, it is infer(). Returns per-point logits
     * (N x classes) for segmentation or a single-row logit matrix for
     * classification.
     */
    nn::Matrix forward(const PointCloud &cloud, const EdgePcConfig &cfg,
                       StageTimer *timer, bool train);

    /**
     * Backward pass from dLoss/dLogits; accumulates parameter
     * gradients. Must follow a forward(..., train=true).
     */
    void backward(const nn::Matrix &grad_logits);

    std::string name() const override { return "pointnet++"; }
    std::size_t numClasses() const override { return cfg.numClasses; }
    void collectParameters(std::vector<nn::Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    const PointNetPPConfig &config() const { return cfg; }

    /** True when the network is a classifier (no FP modules). */
    bool isClassifier() const { return cfg.fp.empty(); }

  private:
    struct SaBlock
    {
        SaConfig conf;
        /** Feature channels C_i of the level the block groups. */
        std::size_t featDim = 0;
        nn::Sequential mlp;
        /** mlp's first layer when it is a plain Linear, which the
            delayed route runs itself (over the unique points). */
        nn::Linear *firstLinear = nullptr;
        /** mlp's first layer when it is a fused LinearRelu: the block
            is single-stage and its delayed route also pools first. */
        nn::LinearRelu *singleStage = nullptr;
        // Training caches (written by forward(train=true) only).
        nn::GroupingLayer gather;
        std::unique_ptr<nn::MaxPoolNeighbors> pool;
        bool delayedActive = false;
        nn::DelayedSaCache delayedCache;
    };

    struct FpBlock
    {
        FpConfig conf;
        nn::Sequential mlp;
        /** mlp's first layer, which runs split over [interp(F) | S]
            (DESIGN.md §13). */
        nn::Linear *firstLinear = nullptr;
        nn::InterpolatedLinearCache cache; ///< Training cache.
    };

    /** One frame's plan (defined in the .cpp). */
    struct FramePlan;

    /** Plan, sample half (kStageSample): validate @p cloud, take its
        positions and features, run the sampling chain and the FP
        up-sampling plans. */
    void planSample(FramePlan &plan, const PointCloud &cloud,
                    const EdgePcConfig &config, StageTimer *timer) const;

    /** Plan, neighbor half (kStageNeighbor): every SA module's
        neighbor lists and delayed-aggregation decision. */
    void planNeighbors(FramePlan &plan, const EdgePcConfig &config,
                       StageTimer *timer) const;

    /** The feature compute of @p plans, row-stacked, on @p route; one
        logits matrix per plan. Consumes each plan's input features. */
    std::vector<nn::Matrix> execute(std::span<FramePlan *const> plans,
                                    const nn::GemmRoute &route,
                                    StageTimer *timer);

    PointNetPPConfig cfg;
    std::vector<SaBlock> saBlocks;
    std::vector<FpBlock> fpBlocks;
    nn::Sequential head;
    nn::GlobalMaxPool globalPool; ///< Training cache (classifier).
    /** The engine of the last training forward (null before one). */
    nn::GemmEngine *trainEngine = nullptr;
};

} // namespace edgepc

#endif // EDGEPC_MODELS_POINTNETPP_HPP
