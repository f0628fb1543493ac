/**
 * @file
 * DGCNN (dynamic graph CNN, Wang et al.) with the EdgePC
 * approximations integrated (Fig 2b of the EdgePC paper).
 *
 * The network stacks EdgeConv (EC) modules: k-NN search, edge-feature
 * construction [f_i | f_j - f_i], shared MLP and max-pool over the k
 * neighbors. The point count is constant through the network (no
 * sampling stage). Module 1 searches neighbors in coordinate space;
 * later modules search in feature space, which Morton codes cannot
 * index — there EdgePC interleaves "reuse" and "compute" with a
 * configurable reuse distance (Sec 5.2.3).
 *
 * Variants: classification (global pool + head), part/semantic
 * segmentation (per-point head over the concatenated EC outputs plus
 * the broadcast global feature).
 */

#ifndef EDGEPC_MODELS_DGCNN_HPP
#define EDGEPC_MODELS_DGCNN_HPP

#include <memory>

#include "models/model.hpp"
#include "neighbor/neighbor_cache.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/grouping.hpp"
#include "nn/layers.hpp"

namespace edgepc {

/** DGCNN task variants (the paper's (c), (p) and (s)). */
enum class DgcnnTask
{
    Classification,
    PartSegmentation,
    SemanticSegmentation,
};

/** DGCNN hyper-parameters. */
struct DgcnnConfig
{
    DgcnnTask task = DgcnnTask::Classification;

    /** Output classes. */
    std::size_t numClasses = 0;

    /** Neighbors per point (k). */
    std::size_t k = 20;

    /** Output width of each EdgeConv module. */
    std::vector<std::size_t> ecWidths;

    /** Width of the embedding 1x1 conv after the EC concat. */
    std::size_t embeddingDim = 1024;

    /** Hidden widths of the head (classes appended internally). */
    std::vector<std::size_t> headMlp;

    /** Paper-scale DGCNN(c): 4 ECs, k=20, 1024-d embedding. */
    static DgcnnConfig classification(std::size_t num_classes);

    /** Paper-scale DGCNN(p): 3 ECs for part segmentation. */
    static DgcnnConfig partSegmentation(std::size_t num_classes);

    /** Paper-scale DGCNN(s): 3 ECs for semantic segmentation. */
    static DgcnnConfig semanticSegmentation(std::size_t num_classes);

    /** Small trainable classification variant. */
    static DgcnnConfig liteClassification(std::size_t num_classes);

    /** Small trainable segmentation variant. */
    static DgcnnConfig liteSegmentation(std::size_t num_classes);
};

/**
 * DGCNN with selectable baseline / EdgePC kernels.
 *
 * Inference writes no model member: a frame's neighbor lists, pooling
 * and delayed-aggregation decisions live in locals, so two threads may
 * infer on one model at once, and infer() may run between a training
 * forward and its backward. Every route comes from the EdgePcConfig a
 * call passes (delayed aggregation per EdgeConv, int8 GEMM, int8
 * search for module 1, and the variant's GEMM engine, which also
 * packs the feature-space k-NN).
 */
class Dgcnn : public TrainableModel
{
  public:
    Dgcnn(DgcnnConfig config, std::uint64_t seed = 42);

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer = nullptr) override;

    /** Forward; with @p train it runs infer()'s route and keeps the
        layer caches backward() needs (and the GEMM engine, which
        backward() reuses), without it is infer(). */
    nn::Matrix forward(const PointCloud &cloud, const EdgePcConfig &cfg,
                       StageTimer *timer, bool train);

    /** Backward from dLoss/dLogits (after forward(train=true)). */
    void backward(const nn::Matrix &grad_logits);

    std::string name() const override;
    std::size_t numClasses() const override { return cfg.numClasses; }
    void collectParameters(std::vector<nn::Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    const DgcnnConfig &config() const { return cfg; }

    bool isClassifier() const
    {
        return cfg.task == DgcnnTask::Classification;
    }

  private:
    struct EcBlock
    {
        nn::Sequential mlp;
        /** mlp's first layer, which the delayed route runs itself. */
        nn::Linear *firstLinear = nullptr;
        // Training caches (written by forward(train=true) only).
        nn::EdgeFeatureLayer edge;
        std::unique_ptr<nn::MaxPoolNeighbors> pool;
        /** Route taken by the last training forward (backward follows
            the same route over the same parameters). */
        bool delayedActive = false;
        nn::DelayedEdgeCache delayedCache;
    };

    /** Run the neighbor-search stage of EC module @p module. */
    NeighborLists searchNeighbors(std::size_t module,
                                  const EdgePcConfig &config,
                                  std::span<const Vec3> positions,
                                  const nn::Matrix &features,
                                  const nn::GemmEngine &engine,
                                  NeighborCache &cache) const;

    DgcnnConfig cfg;
    std::vector<EcBlock> ecBlocks;
    nn::Sequential embedding;
    nn::Sequential head;
    /** head's first layer: a segmentation head runs it split over
        [concat | 1 pooled] (DESIGN.md §13). */
    nn::Linear *headFirstLinear = nullptr;

    // Training caches (written by forward(train=true) only).
    nn::GlobalMaxPool globalPool;
    nn::BroadcastLinearCache headCache;
    std::size_t savedPoints = 0;
    /** The engine of the last training forward (null before one). */
    nn::GemmEngine *trainEngine = nullptr;
};

} // namespace edgepc

#endif // EDGEPC_MODELS_DGCNN_HPP
