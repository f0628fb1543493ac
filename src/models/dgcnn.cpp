#include "models/dgcnn.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "sampling/morton_sampler.hpp"

namespace edgepc {

DgcnnConfig
DgcnnConfig::classification(std::size_t num_classes)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::Classification;
    cfg.numClasses = num_classes;
    cfg.k = 20;
    cfg.ecWidths = {64, 64, 128, 256};
    cfg.embeddingDim = 1024;
    cfg.headMlp = {512, 256};
    return cfg;
}

DgcnnConfig
DgcnnConfig::partSegmentation(std::size_t num_classes)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::PartSegmentation;
    cfg.numClasses = num_classes;
    cfg.k = 20;
    cfg.ecWidths = {64, 64, 64};
    cfg.embeddingDim = 1024;
    cfg.headMlp = {256, 128};
    return cfg;
}

DgcnnConfig
DgcnnConfig::semanticSegmentation(std::size_t num_classes)
{
    DgcnnConfig cfg = partSegmentation(num_classes);
    cfg.task = DgcnnTask::SemanticSegmentation;
    return cfg;
}

DgcnnConfig
DgcnnConfig::liteClassification(std::size_t num_classes)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::Classification;
    cfg.numClasses = num_classes;
    cfg.k = 10;
    cfg.ecWidths = {32, 64};
    cfg.embeddingDim = 128;
    cfg.headMlp = {64};
    return cfg;
}

DgcnnConfig
DgcnnConfig::liteSegmentation(std::size_t num_classes)
{
    DgcnnConfig cfg;
    cfg.task = DgcnnTask::SemanticSegmentation;
    cfg.numClasses = num_classes;
    cfg.k = 8;
    cfg.ecWidths = {16, 32};
    cfg.embeddingDim = 64;
    cfg.headMlp = {32};
    return cfg;
}

Dgcnn::Dgcnn(DgcnnConfig config, std::uint64_t seed) : cfg(std::move(config))
{
    if (cfg.ecWidths.empty()) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("Dgcnn: at least one EdgeConv module is required");
    }
    Rng rng(seed);

    std::size_t feat_dim = 3; // EC1 consumes coordinates.
    std::size_t concat_dim = 0;
    for (const std::size_t width : cfg.ecWidths) {
        // Linear + BN + LeakyReLU(0.2), as in the reference DGCNN.
        EcBlock block;
        auto first = std::make_unique<nn::Linear>(2 * feat_dim, width, rng);
        block.firstLinear = first.get();
        block.mlp.add(std::move(first));
        block.mlp.add(std::make_unique<nn::BatchNorm>(width));
        block.mlp.add(std::make_unique<nn::LeakyReLU>());
        ecBlocks.push_back(std::move(block));
        feat_dim = width;
        concat_dim += width;
    }

    // No batch norm here: this runs per cloud, and normalizing right
    // before the global max-pool would standardize every cloud's
    // feature distribution, collapsing the pooled statistic to a
    // near-constant (the reference implementation normalizes across a
    // large multi-cloud batch, where this effect does not arise).
    embedding.add(
        std::make_unique<nn::Linear>(concat_dim, cfg.embeddingDim, rng));
    embedding.add(std::make_unique<nn::LeakyReLU>());

    std::size_t head_in = isClassifier()
                              ? cfg.embeddingDim
                              : concat_dim + cfg.embeddingDim;
    for (const std::size_t width : cfg.headMlp) {
        head.addLinearBnRelu(head_in, width, rng);
        head_in = width;
    }
    head.add(std::make_unique<nn::Linear>(head_in, cfg.numClasses, rng));
    headFirstLinear = static_cast<nn::Linear *>(head.layerAt(0));
}

std::string
Dgcnn::name() const
{
    switch (cfg.task) {
      case DgcnnTask::Classification:
        return "dgcnn(c)";
      case DgcnnTask::PartSegmentation:
        return "dgcnn(p)";
      case DgcnnTask::SemanticSegmentation:
        return "dgcnn(s)";
    }
    return "dgcnn";
}

NeighborLists
Dgcnn::searchNeighbors(std::size_t module, const EdgePcConfig &config,
                       std::span<const Vec3> positions,
                       const nn::Matrix &features,
                       const nn::GemmEngine &engine,
                       NeighborCache &cache) const
{
    const std::size_t k = cfg.k;
    const int layer = static_cast<int>(module);

    if (module == 0) {
        // Geometric search: EdgePC replaces it with the Morton window.
        if (config.approximate() && config.optimizedNeighborLayers > 0) {
            const MortonSampler sampler(config.codeBits);
            const Structurization s = sampler.structurize(positions);
            const MortonWindowSearch searcher(config.searchWindow);
            NeighborLists lists = searcher.searchAll(positions, s, k);
            if (config.reuseDistance > 0) {
                cache.store(layer, lists);
            }
            return lists;
        }
        BruteForceKnn searcher(config.int8Search);
        NeighborLists lists = searcher.search(positions, positions, k);
        if (config.approximate() && config.reuseDistance > 0) {
            cache.store(layer, lists);
        }
        return lists;
    }

    // Feature-space search (modules >= 2): Morton codes cannot index
    // high-dimensional features, so EdgePC interleaves reuse/compute.
    if (config.approximate() && config.reuseDistance > 0 &&
        !cache.shouldCompute(layer)) {
        return cache.lookup(layer);
    }
    NeighborLists lists = BruteForceKnn::searchFeatureSpace(
        {features.data(), features.numel()},
        {features.data(), features.numel()}, features.cols(), k, engine);
    if (config.approximate() && config.reuseDistance > 0) {
        cache.store(layer, lists);
    }
    return lists;
}

nn::Matrix
Dgcnn::forward(const PointCloud &cloud, const EdgePcConfig &config,
               StageTimer *timer, bool train)
{
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud, "Dgcnn::forward: empty cloud");
    }
    const std::size_t n = cloud.size();
    const nn::GemmRoute route = config.gemmRoute();
    nn::GemmEngine &engine = route.engine;
    if (train) {
        trainEngine = &engine;
        savedPoints = n;
    }
    NeighborCache cache(config.reuseDistance);

    // Initial features: the coordinates.
    nn::Matrix features(n, 3);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 &p = cloud.position(i);
        features.at(i, 0) = p.x;
        features.at(i, 1) = p.y;
        features.at(i, 2) = p.z;
    }

    // Every EdgeConv output lands in its column range of one
    // n x sum(ecWidths) matrix: the embedding's input, and the
    // per-point half of a segmentation head's.
    const std::size_t concat_dim = std::accumulate(
        cfg.ecWidths.begin(), cfg.ecWidths.end(), std::size_t{0});
    nn::Matrix concat = nn::Matrix::forOverwrite(n, concat_dim);
    std::size_t concat_offset = 0;
    const auto append = [&](const nn::Matrix &out) {
        for (std::size_t i = 0; i < n; ++i) {
            const float *src = out.data() + i * out.cols();
            std::copy(src, src + out.cols(),
                      concat.data() + i * concat_dim + concat_offset);
        }
        concat_offset += out.cols();
    };
    StageTimer dummy;
    StageTimer &t = timer ? *timer : dummy;

    for (std::size_t m = 0; m < ecBlocks.size(); ++m) {
        EcBlock &block = ecBlocks[m];
        NeighborLists neighbors;
        {
            StageTimer::ScopedStage scope(t, kStageNeighbor);
            neighbors = searchNeighbors(m, config, cloud.positions(),
                                        features, engine, cache);
        }
        // The searchers clamp k for tiny clouds; pool with the
        // effective group size.
        const std::size_t k_eff = neighbors.k;

        // Delayed aggregation (DESIGN.md §13): the first Linear splits
        // into per-point x_i and x_j − x_i terms, so it runs once per
        // unique point and the per-edge work is a gather + add.
        const bool delayed = nn::resolveDelayedAgg(
            config.delayedAggregation, nn::edgeDelayedFlopRatio(k_eff));
        nn::Matrix activated;
        if (delayed) {
            StageTimer::ScopedStage scope(t, kStageFeature);
            activated = block.mlp.forwardFrom(
                1,
                nn::delayedEdgeFirstLinear(
                    features, neighbors, block.firstLinear->weights().value,
                    block.firstLinear->biases().value, engine,
                    train ? &block.delayedCache : nullptr),
                route, train);
        } else {
            nn::Matrix edges;
            {
                StageTimer::ScopedStage scope(t, kStageGroup);
                if (train) {
                    block.edge.setNeighbors(std::move(neighbors));
                    edges = block.edge.forward(features, route, true);
                } else {
                    edges = nn::edgeFeatures(features, neighbors);
                }
            }
            StageTimer::ScopedStage scope(t, kStageFeature);
            activated = block.mlp.forward(edges, route, train);
        }
        StageTimer::ScopedStage scope(t, kStageFeature);
        if (train) {
            block.delayedActive = delayed;
            block.pool = std::make_unique<nn::MaxPoolNeighbors>(k_eff);
            features = block.pool->forward(activated, route, true);
        } else {
            features = nn::maxPoolRows(activated, 0, activated.rows(), k_eff);
        }
        append(features);
    }

    StageTimer::ScopedStage scope(t, kStageFeature);
    const nn::Matrix embedded = embedding.forward(concat, route, train);
    const nn::Matrix pooled = globalPool.forward(embedded, route, train);

    if (isClassifier()) {
        return head.forward(pooled, route, train);
    }
    // The head reads [concat | 1 pooled] without building it: its
    // first Linear runs split (DESIGN.md §13).
    return head.forwardFrom(
        1,
        nn::broadcastFirstLinear(concat, pooled,
                                 headFirstLinear->weights().value,
                                 headFirstLinear->biases().value, engine,
                                 train ? &headCache : nullptr),
        route, train);
}

nn::Matrix
Dgcnn::infer(const PointCloud &cloud, const EdgePcConfig &config,
             StageTimer *timer)
{
    return forward(cloud, config, timer, false);
}

void
Dgcnn::backward(const nn::Matrix &grad_logits)
{
    if (trainEngine == nullptr) {
        // NOLINTNEXTLINE(edgepc-R1): caller protocol violation, not data
        panic("Dgcnn::backward without forward(train=true)");
    }
    nn::GemmEngine &engine = *trainEngine;
    const std::size_t num_ec = ecBlocks.size();
    const std::size_t concat_dim = std::accumulate(
        cfg.ecWidths.begin(), cfg.ecWidths.end(), std::size_t{0});

    nn::Matrix grad_concat;
    nn::Matrix grad_pooled;
    if (isClassifier()) {
        grad_pooled = head.backward(grad_logits);
        grad_concat = nn::Matrix(savedPoints, concat_dim);
    } else {
        auto [d_concat, d_pooled] = nn::broadcastFirstLinearBackward(
            headCache, head.backwardFrom(1, grad_logits),
            headFirstLinear->weights(), headFirstLinear->biases(), engine);
        grad_concat = std::move(d_concat);
        grad_pooled = std::move(d_pooled);
    }

    const nn::Matrix grad_embedded = globalPool.backward(grad_pooled);
    grad_concat.add(embedding.backward(grad_embedded));

    // Split the concat gradient into per-EC contributions.
    std::vector<nn::Matrix> grad_ec(num_ec);
    std::size_t offset = 0;
    for (std::size_t m = 0; m < num_ec; ++m) {
        const std::size_t width = cfg.ecWidths[m];
        grad_ec[m] = nn::Matrix(savedPoints, width);
        for (std::size_t r = 0; r < savedPoints; ++r) {
            const float *src =
                grad_concat.data() + r * concat_dim + offset;
            std::copy(src, src + width,
                      grad_ec[m].data() + r * width);
        }
        offset += width;
    }

    // EC backward, deepest first; each module adds its input gradient
    // to the previous module's output gradient.
    for (std::size_t m = num_ec; m-- > 0;) {
        EcBlock &block = ecBlocks[m];
        nn::Matrix gg = block.pool->backward(grad_ec[m]);
        if (block.delayedActive) {
            // Delayed route: tail stops at layer 1 and the first
            // Linear's gradients come from the segment-sum / scatter
            // formulation (which also folds in the edge layer's
            // endpoint scatter).
            gg = block.mlp.backwardFrom(1, gg);
            gg = nn::delayedEdgeFirstLinearBackward(
                block.delayedCache, gg, block.firstLinear->weights(),
                block.firstLinear->biases(), engine);
        } else {
            gg = block.mlp.backward(gg);
            gg = block.edge.backward(gg);
        }
        if (m > 0) {
            grad_ec[m - 1].add(gg);
        }
        // m == 0: gradient w.r.t. the coordinates is discarded.
    }
}

void
Dgcnn::collectParameters(std::vector<nn::Parameter *> &out)
{
    for (auto &block : ecBlocks) {
        block.mlp.collectParameters(out);
    }
    embedding.collectParameters(out);
    head.collectParameters(out);
}

void
Dgcnn::collectBuffers(std::vector<std::vector<float> *> &out)
{
    for (auto &block : ecBlocks) {
        block.mlp.collectBuffers(out);
    }
    embedding.collectBuffers(out);
    head.collectBuffers(out);
}

} // namespace edgepc
