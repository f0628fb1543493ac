#include "models/pointnetpp.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "sampling/fps.hpp"

namespace edgepc {

namespace {

/** Accumulate @p g into @p acc, allocating @p acc on first use. */
void
accumulate(nn::Matrix &acc, const nn::Matrix &g)
{
    if (acc.numel() == 0 && acc.rows() == 0) {
        acc = g;
    } else {
        acc.add(g);
    }
}

} // namespace

PointNetPPConfig
PointNetPPConfig::semanticSegmentation(std::size_t num_points,
                                       std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 8), 32, 0.1f, NeighborMode::BallQuery,
         {32, 32, 64}},
        {at_least_one(num_points / 32), 32, 0.2f, NeighborMode::BallQuery,
         {64, 64, 128}},
        {at_least_one(num_points / 128), 32, 0.4f,
         NeighborMode::BallQuery, {128, 128, 256}},
        {at_least_one(num_points / 512), 32, 0.8f,
         NeighborMode::BallQuery, {256, 256, 512}},
    };
    cfg.fp = {
        {{256, 256}},
        {{256, 256}},
        {{256, 128}},
        {{128, 128, 128}},
    };
    cfg.headMlp = {128};
    return cfg;
}

PointNetPPConfig
PointNetPPConfig::liteSegmentation(std::size_t num_points,
                                   std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 4), 16, 0.2f, NeighborMode::BallQuery,
         {16, 32}},
        {at_least_one(num_points / 16), 8, 0.4f, NeighborMode::BallQuery,
         {32, 64}},
    };
    cfg.fp = {
        {{64}},
        {{64, 32}},
    };
    cfg.headMlp = {32};
    return cfg;
}

PointNetPPConfig
PointNetPPConfig::liteClassification(std::size_t num_points,
                                     std::size_t num_classes)
{
    auto at_least_one = [](std::size_t v) {
        return std::max<std::size_t>(1, v);
    };
    PointNetPPConfig cfg;
    cfg.numClasses = num_classes;
    cfg.sa = {
        {at_least_one(num_points / 4), 16, 0.25f,
         NeighborMode::BallQuery, {16, 32}},
        {at_least_one(num_points / 16), 8, 0.5f, NeighborMode::BallQuery,
         {32, 64}},
    };
    cfg.headMlp = {64};
    return cfg;
}

PointNetPP::PointNetPP(PointNetPPConfig config, std::uint64_t seed)
    : cfg(std::move(config))
{
    if (cfg.sa.empty()) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("PointNetPP: at least one SA module is required");
    }
    if (!cfg.fp.empty() && cfg.fp.size() != cfg.sa.size()) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("PointNetPP: fp modules (%zu) must match sa modules (%zu) "
              "or be empty",
              cfg.fp.size(), cfg.sa.size());
    }
    Rng rng(seed);

    // SA blocks: channel chain C_0 -> ... -> C_L.
    std::vector<std::size_t> level_dims;
    level_dims.push_back(cfg.inputFeatureDim);
    for (std::size_t si = 0; si < cfg.sa.size(); ++si) {
        const SaConfig &sa = cfg.sa[si];
        SaBlock block;
        block.conf = sa;
        std::size_t in_dim = 3 + level_dims.back();
        for (std::size_t wi = 0; wi < sa.mlp.size(); ++wi) {
            const std::size_t width = sa.mlp[wi];
            // Classifier: the deepest SA output feeds a global
            // max-pool; per-cloud batch norm right before it would
            // standardize away the cloud's identity, so the final
            // stage is Linear + ReLU only (see the matching note in
            // dgcnn.cpp). The pair fuses into one GEMM with a
            // BiasRelu epilogue; the parameter stream is identical
            // to a separate Linear + ReLU, so checkpoints interop.
            const bool last_stage_before_global_pool =
                cfg.fp.empty() && si + 1 == cfg.sa.size() &&
                wi + 1 == sa.mlp.size();
            if (last_stage_before_global_pool) {
                block.mlp.addLinearRelu(in_dim, width, rng);
            } else {
                block.mlp.addLinearBnRelu(in_dim, width, rng);
            }
            in_dim = width;
        }
        block.pool = std::make_unique<nn::MaxPoolNeighbors>(sa.k);
        level_dims.push_back(in_dim);
        saBlocks.push_back(std::move(block));
    }

    // FP blocks (deepest first).
    std::size_t carried = level_dims.back();
    const std::size_t num_levels = level_dims.size();
    for (std::size_t m = 0; m < cfg.fp.size(); ++m) {
        FpBlock block;
        block.conf = cfg.fp[m];
        const std::size_t fine_level = num_levels - 2 - m;
        std::size_t in_dim = carried + level_dims[fine_level];
        for (const std::size_t width : cfg.fp[m].mlp) {
            block.mlp.addLinearBnRelu(in_dim, width, rng);
            in_dim = width;
        }
        carried = in_dim;
        fpBlocks.push_back(std::move(block));
    }

    // Head: hidden blocks plus a bare final Linear to the classes.
    std::size_t head_in = cfg.fp.empty() ? level_dims.back() : carried;
    for (const std::size_t width : cfg.headMlp) {
        head.addLinearBnRelu(head_in, width, rng);
        head_in = width;
    }
    head.add(std::make_unique<nn::Linear>(head_in, cfg.numClasses, rng));

    // Propagate the int8-inference config to every Linear layer; the
    // per-call resolve (env > config > shape heuristic) happens inside
    // the layers.
    for (auto &block : saBlocks) {
        block.mlp.setQuantMode(cfg.quantizedInference);
    }
    for (auto &block : fpBlocks) {
        block.mlp.setQuantMode(cfg.quantizedInference);
    }
    head.setQuantMode(cfg.quantizedInference);
}

void
PointNetPP::saSampleStage(std::size_t module, const EdgePcConfig &config,
                          StageTimer *timer, LevelState &cur) const
{
    const SaBlock &block = saBlocks[module];
    const std::size_t num_points = cur.positions.size();
    const std::size_t n = std::min(block.conf.points, num_points);

    const bool morton_sample =
        config.approximate() &&
        static_cast<int>(module) < config.optimizedSampleLayers;
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageSample);
        if (morton_sample) {
            const MortonSampler sampler(config.codeBits);
            cur.structur = sampler.structurize(cur.positions);
            cur.mortonSampled = true;
            cur.sampleIndices =
                sampler.sampleStructurized(cur.structur, n);
        } else {
            FarthestPointSampler sampler;
            cur.sampleIndices = sampler.sample(cur.positions, n);
        }
    }
}

NeighborLists
PointNetPP::saNeighborStage(std::size_t module,
                            const EdgePcConfig &config,
                            StageTimer *timer, LevelState &cur) const
{
    const SaBlock &block = saBlocks[module];
    const std::size_t k = block.conf.k;

    NeighborLists neighbors;
    const bool morton_ns =
        config.approximate() &&
        static_cast<int>(module) < config.optimizedNeighborLayers;
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageNeighbor);
        if (morton_ns) {
            if (!cur.mortonSampled) {
                // No structurization to reuse from the sampler: build
                // one here (its cost counts against this stage).
                const MortonSampler sampler(config.codeBits);
                cur.structur = sampler.structurize(cur.positions);
                cur.mortonSampled = true;
            }
            const MortonWindowSearch searcher(config.searchWindow);
            neighbors = searcher.search(cur.positions, cur.structur,
                                        cur.sampleIndices, k);
        } else {
            std::vector<Vec3> queries(cur.sampleIndices.size());
            for (std::size_t i = 0; i < queries.size(); ++i) {
                queries[i] = cur.positions[cur.sampleIndices[i]];
            }
            if (block.conf.mode == NeighborMode::BallQuery) {
                BallQuery searcher(block.conf.radius,
                                   cfg.fixedPointSearch);
                neighbors = searcher.search(queries, cur.positions, k);
            } else {
                BruteForceKnn searcher(cfg.fixedPointSearch);
                neighbors = searcher.search(queries, cur.positions, k);
            }
        }
    }
    return neighbors;
}

NeighborLists
PointNetPP::saSampleAndSearch(std::size_t module,
                              const EdgePcConfig &config,
                              StageTimer *timer, LevelState &cur)
{
    saSampleStage(module, config, timer, cur);
    return saNeighborStage(module, config, timer, cur);
}

void
PointNetPP::runSaModule(std::size_t module, const EdgePcConfig &config,
                        StageTimer *timer, bool train)
{
    SaBlock &block = saBlocks[module];
    LevelState &cur = levels[module];
    LevelState &next = levels[module + 1];

    const NeighborLists neighbors =
        saSampleAndSearch(module, config, timer, cur);

    // The searchers clamp k when the candidate set is smaller than
    // the configured neighbor count; everything downstream must use
    // the effective k.
    const std::size_t k_eff = neighbors.k;
    const std::size_t feat_dim = cur.saFeatures.cols();

    // Delayed aggregation (DESIGN.md §13): run the first Linear over
    // the level's unique rows before the gather. A single-stage
    // LinearRelu block (the classifier's deepest) has no eager-tail
    // state to cache, so its delayed route is inference-only.
    auto *lin0 = block.mlp.size() == 0
                     ? nullptr
                     : dynamic_cast<nn::Linear *>(block.mlp.layerAt(0));
    auto *linrelu0 =
        block.mlp.size() == 0
            ? nullptr
            : dynamic_cast<nn::LinearRelu *>(block.mlp.layerAt(0));
    const double flop_ratio = nn::saDelayedFlopRatio(
        cur.positions.size(), cur.sampleIndices.size(), k_eff, feat_dim);
    block.delayedActive =
        nn::resolveDelayedAgg(cfg.delayedAggregation, flop_ratio) &&
        (lin0 != nullptr || (linrelu0 != nullptr && !train));

    if (block.delayedActive) {
        // The gather no longer feeds a GEMM, so the whole block counts
        // as feature compute; the grouping stage is what this route
        // deletes.
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        cur.groupedFeatureDim = feat_dim;
        nn::GemmEngine &engine = nn::GemmEngine::globalEngine();
        if (linrelu0 != nullptr) {
            next.saFeatures = nn::delayedSaSingleStageInfer(
                cur.positions, cur.saFeatures, cur.sampleIndices,
                neighbors, linrelu0->weights().value,
                linrelu0->biases().value, engine);
        } else {
            nn::Matrix pre = nn::delayedSaFirstLinear(
                cur.positions, cur.saFeatures, cur.sampleIndices,
                neighbors, lin0->weights().value, lin0->biases().value,
                engine, train ? &block.delayedCache : nullptr);
            const nn::Matrix activated =
                block.mlp.forwardFrom(1, std::move(pre), train);
            block.pool = std::make_unique<nn::MaxPoolNeighbors>(k_eff);
            next.saFeatures = block.pool->forward(activated, train);
        }
        next.positions.resize(cur.sampleIndices.size());
        for (std::size_t i = 0; i < cur.sampleIndices.size(); ++i) {
            next.positions[i] = cur.positions[cur.sampleIndices[i]];
        }
        return;
    }

    // --- Grouping stage -------------------------------------------
    nn::Matrix grouped;
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageGroup);
        cur.groupedFeatureDim = feat_dim;

        // Relative coordinates (constant w.r.t. learnable activations).
        const std::size_t rows = cur.sampleIndices.size() * k_eff;
        nn::Matrix rel(rows, 3);
        parallelFor(0, cur.sampleIndices.size(), [&](std::size_t i) {
            const Vec3 center = cur.positions[cur.sampleIndices[i]];
            const auto row = neighbors.row(i);
            for (std::size_t j = 0; j < k_eff; ++j) {
                float *dst = rel.data() + (i * k_eff + j) * 3;
                const Vec3 d = cur.positions[row[j]] - center;
                dst[0] = d.x;
                dst[1] = d.y;
                dst[2] = d.z;
            }
        });

        if (feat_dim > 0) {
            block.gather.setIndices(neighbors.indices);
            const nn::Matrix gathered =
                block.gather.forward(cur.saFeatures, train);
            grouped = nn::concatCols(rel, gathered);
        } else {
            grouped = std::move(rel);
        }
    }

    // --- Feature compute stage ------------------------------------
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        const nn::Matrix activated = block.mlp.forward(grouped, train);
        block.pool = std::make_unique<nn::MaxPoolNeighbors>(k_eff);
        next.saFeatures = block.pool->forward(activated, train);
    }

    next.positions.resize(cur.sampleIndices.size());
    for (std::size_t i = 0; i < cur.sampleIndices.size(); ++i) {
        next.positions[i] = cur.positions[cur.sampleIndices[i]];
    }
}

InterpolationPlan
PointNetPP::fpUpsamplePlan(std::size_t fine_index,
                           const EdgePcConfig &config, StageTimer *timer,
                           const LevelState &fine_level,
                           const LevelState &coarse_level) const
{
    // --- Up-sampling search (counted as sample stage) --------------
    InterpolationPlan plan;
    const bool morton_up =
        config.approximate() &&
        static_cast<int>(fine_index) < config.optimizedSampleLayers &&
        fine_level.mortonSampled;
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageSample);
        if (morton_up) {
            const MortonUpsampler upsampler;
            plan = upsampler.plan(fine_level.positions,
                                  fine_level.structur,
                                  fine_level.sampleIndices);
        } else {
            plan = exactInterpolation(fine_level.positions,
                                      coarse_level.positions, 3);
        }
    }
    return plan;
}

void
PointNetPP::runFpModule(std::size_t module, const EdgePcConfig &config,
                        StageTimer *timer, bool train)
{
    FpBlock &block = fpBlocks[module];
    const std::size_t num_levels = levels.size();
    const std::size_t coarse = num_levels - 1 - module;
    const std::size_t fine = coarse - 1;
    LevelState &fine_level = levels[fine];

    InterpolationPlan plan =
        fpUpsamplePlan(fine, config, timer, fine_level, levels[coarse]);

    // --- Interpolation apply + skip concat (grouping stage) --------
    nn::Matrix concat;
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageGroup);
        block.interp.setPlan(std::move(plan));
        const nn::Matrix up =
            block.interp.forward(fpFeatures[coarse], train);
        if (fine_level.saFeatures.cols() > 0) {
            concat = nn::concatCols(up, fine_level.saFeatures);
        } else {
            concat = up;
        }
    }

    // --- Feature compute -------------------------------------------
    {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        fpFeatures[fine] = block.mlp.forward(concat, train);
    }
}

nn::Matrix
PointNetPP::forward(const PointCloud &cloud, const EdgePcConfig &config,
                    StageTimer *timer, bool train)
{
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud, "PointNetPP::forward: empty cloud");
    }
    if (cloud.featureDim() != cfg.inputFeatureDim) {
        raise(ErrorCode::ShapeMismatch, "PointNetPP::forward: cloud feature dim %zu != model %zu",
              cloud.featureDim(), cfg.inputFeatureDim);
    }
    trainMode = train;

    levels.assign(cfg.sa.size() + 1, LevelState{});
    levels[0].positions = cloud.positions();
    levels[0].saFeatures =
        nn::Matrix(cloud.size(), cfg.inputFeatureDim,
                   std::vector<float>(cloud.features()));

    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        runSaModule(i, config, timer, train);
    }

    if (isClassifier()) {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        const nn::Matrix pooled =
            globalPool.forward(levels.back().saFeatures, train);
        return head.forward(pooled, train);
    }

    fpFeatures.assign(levels.size(), nn::Matrix{});
    fpFeatures.back() = levels.back().saFeatures;
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        runFpModule(m, config, timer, train);
    }

    StageTimer dummy;
    StageTimer::ScopedStage scope(timer ? *timer : dummy, kStageFeature);
    return head.forward(fpFeatures[0], train);
}

nn::Matrix
PointNetPP::infer(const PointCloud &cloud, const EdgePcConfig &config,
                  StageTimer *timer)
{
    return forward(cloud, config, timer, false);
}

std::vector<nn::Matrix>
PointNetPP::inferBatch(std::span<const PointCloud> clouds,
                       const EdgePcConfig &config, StageTimer *timer)
{
    if (clouds.size() <= 1) {
        // Stacking a single cloud buys nothing; take the plain path.
        std::vector<nn::Matrix> out;
        for (const PointCloud &cloud : clouds) {
            out.push_back(infer(cloud, config, timer));
        }
        return out;
    }
    for (const PointCloud &cloud : clouds) {
        if (cloud.empty()) {
            raise(ErrorCode::EmptyCloud,
                  "PointNetPP::inferBatch: empty cloud");
        }
        if (cloud.featureDim() != cfg.inputFeatureDim) {
            raise(ErrorCode::ShapeMismatch,
                  "PointNetPP::inferBatch: cloud feature dim %zu != "
                  "model %zu",
                  cloud.featureDim(), cfg.inputFeatureDim);
        }
    }

    const std::size_t batch = clouds.size();
    const std::size_t num_levels = cfg.sa.size() + 1;
    // Per-cloud level states, advanced in lockstep. Geometry stages
    // use the free-function grouping path rather than the
    // GroupingLayer/InterpolateLayer members, so the training caches
    // of the single-cloud path stay untouched.
    std::vector<std::vector<LevelState>> st(
        batch, std::vector<LevelState>(num_levels));
    for (std::size_t b = 0; b < batch; ++b) {
        st[b][0].positions = clouds[b].positions();
        st[b][0].saFeatures =
            nn::Matrix(clouds[b].size(), cfg.inputFeatureDim,
                       std::vector<float>(clouds[b].features()));
    }

    std::vector<nn::Matrix> parts(batch);
    std::vector<std::size_t> seg_rows(batch);
    std::vector<std::size_t> k_eff(batch);
    std::vector<NeighborLists> neigh(batch);

    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        SaBlock &block = saBlocks[i];
        auto *lin0 = block.mlp.size() == 0
                         ? nullptr
                         : dynamic_cast<nn::Linear *>(block.mlp.layerAt(0));
        auto *linrelu0 =
            block.mlp.size() == 0
                ? nullptr
                : dynamic_cast<nn::LinearRelu *>(block.mlp.layerAt(0));
        std::size_t total_rows = 0;
        // The delayed-aggregation decision is per cloud with exactly
        // the single-cloud formula, so each cloud's logits keep
        // matching infer() whatever the batch composition.
        std::vector<char> delayed(batch, 0);
        bool any_delayed = false;
        for (std::size_t b = 0; b < batch; ++b) {
            LevelState &cur = st[b][i];
            neigh[b] = saSampleAndSearch(i, config, timer, cur);
            k_eff[b] = neigh[b].k;
            seg_rows[b] = cur.sampleIndices.size() * neigh[b].k;
            total_rows += seg_rows[b];
            const double flop_ratio = nn::saDelayedFlopRatio(
                cur.positions.size(), cur.sampleIndices.size(), k_eff[b],
                cur.saFeatures.cols());
            delayed[b] =
                nn::resolveDelayedAgg(cfg.delayedAggregation,
                                      flop_ratio) &&
                        (lin0 != nullptr || linrelu0 != nullptr)
                    ? 1
                    : 0;
            any_delayed = any_delayed || delayed[b] != 0;
        }
        if (any_delayed && linrelu0 != nullptr) {
            // Single-stage BN-free block (classifier deepest): the
            // fully delayed route never materializes a stacked matrix,
            // so there is nothing to batch — run per cloud.
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            for (std::size_t b = 0; b < batch; ++b) {
                LevelState &cur = st[b][i];
                if (delayed[b] != 0) {
                    st[b][i + 1].saFeatures =
                        nn::delayedSaSingleStageInfer(
                            cur.positions, cur.saFeatures,
                            cur.sampleIndices, neigh[b],
                            linrelu0->weights().value,
                            linrelu0->biases().value,
                            nn::GemmEngine::globalEngine());
                    continue;
                }
                const nn::Matrix grouped = nn::groupWithRelativeCoords(
                    cur.positions, cur.saFeatures, cur.sampleIndices,
                    neigh[b]);
                const nn::Matrix activated =
                    block.mlp.forward(grouped, false);
                st[b][i + 1].saFeatures = nn::maxPoolRows(
                    activated, 0, seg_rows[b], k_eff[b]);
            }
        } else if (any_delayed) {
            // Tier-B mixed batch: every cloud's first-Linear output
            // lands in its row range (delayed clouds via the
            // unique-row GEMMs, eager ones via grouped rows — the
            // packed GEMM is row-independent, so each row is bit-exact
            // with the cloud's single-cloud route), then the BN+ReLU
            // tail runs segmented from layer 1.
            nn::Matrix stacked(total_rows, lin0->outDim());
            {
                StageTimer dummy;
                StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                              kStageFeature);
                std::size_t offset = 0;
                for (std::size_t b = 0; b < batch; ++b) {
                    LevelState &cur = st[b][i];
                    nn::Matrix pre;
                    if (delayed[b] != 0) {
                        pre = nn::delayedSaFirstLinear(
                            cur.positions, cur.saFeatures,
                            cur.sampleIndices, neigh[b],
                            lin0->weights().value, lin0->biases().value,
                            nn::GemmEngine::globalEngine(), nullptr);
                    } else {
                        const nn::Matrix grouped =
                            nn::groupWithRelativeCoords(
                                cur.positions, cur.saFeatures,
                                cur.sampleIndices, neigh[b]);
                        pre = lin0->forward(grouped, false);
                    }
                    std::copy(pre.data(), pre.data() + pre.numel(),
                              stacked.data() + offset * stacked.cols());
                    offset += seg_rows[b];
                }
            }
            {
                StageTimer dummy;
                StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                              kStageFeature);
                const nn::Matrix activated = block.mlp.forwardSegmented(
                    std::move(stacked), seg_rows, 1);
                std::size_t offset = 0;
                for (std::size_t b = 0; b < batch; ++b) {
                    st[b][i + 1].saFeatures = nn::maxPoolRows(
                        activated, offset, seg_rows[b], k_eff[b]);
                    offset += seg_rows[b];
                }
            }
        } else {
        // Group every cloud straight into its row range of the
        // stacked batch: the stacking itself costs no extra pass.
        nn::Matrix stacked(total_rows,
                           3 + st[0][i].saFeatures.cols());
        {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageGroup);
            std::size_t offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                LevelState &cur = st[b][i];
                nn::groupWithRelativeCoordsInto(
                    cur.positions, cur.saFeatures, cur.sampleIndices,
                    neigh[b],
                    std::span<float>(stacked.data() +
                                         offset * stacked.cols(),
                                     seg_rows[b] * stacked.cols()));
                offset += seg_rows[b];
            }
        }
        {
            // The batched payoff: one tall GEMM per MLP stage instead
            // of `batch` skinny ones, and the per-cloud max-pool reads
            // its row range of the stacked activation in place.
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            const nn::Matrix activated =
                block.mlp.forwardSegmented(std::move(stacked), seg_rows);
            std::size_t offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                st[b][i + 1].saFeatures = nn::maxPoolRows(
                    activated, offset, seg_rows[b], k_eff[b]);
                offset += seg_rows[b];
            }
        }
        }
        for (std::size_t b = 0; b < batch; ++b) {
            const LevelState &cur = st[b][i];
            LevelState &next = st[b][i + 1];
            next.positions.resize(cur.sampleIndices.size());
            for (std::size_t j = 0; j < cur.sampleIndices.size(); ++j) {
                next.positions[j] = cur.positions[cur.sampleIndices[j]];
            }
        }
    }

    std::vector<nn::Matrix> logits(batch);
    if (isClassifier()) {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        for (std::size_t b = 0; b < batch; ++b) {
            nn::GlobalMaxPool pool;
            parts[b] = pool.forward(st[b].back().saFeatures, false);
            seg_rows[b] = 1;
        }
        const nn::Matrix out =
            head.forwardSegmented(nn::concatRows(parts), seg_rows);
        for (std::size_t b = 0; b < batch; ++b) {
            logits[b] = nn::sliceRows(out, b, b + 1);
        }
        return logits;
    }

    std::vector<std::vector<nn::Matrix>> fp_feat(
        batch, std::vector<nn::Matrix>(num_levels));
    for (std::size_t b = 0; b < batch; ++b) {
        fp_feat[b].back() = st[b].back().saFeatures;
    }
    std::vector<InterpolationPlan> plans(batch);
    // Stacked output of the last (finest) FP module: it feeds the
    // segmentation head still stacked, skipping a slice + re-concat.
    nn::Matrix fp0_stacked;
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        FpBlock &block = fpBlocks[m];
        const std::size_t coarse = num_levels - 1 - m;
        const std::size_t fine = coarse - 1;
        std::size_t total_rows = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            plans[b] = fpUpsamplePlan(fine, config, timer, st[b][fine],
                                      st[b][coarse]);
            seg_rows[b] = plans[b].targets();
            total_rows += seg_rows[b];
        }
        const std::size_t up_cols = fp_feat[0][coarse].cols();
        const std::size_t sa_cols = st[0][fine].saFeatures.cols();
        // Upsample into the left columns and the skip features into
        // the right columns of the stacked batch directly, replacing
        // the per-cloud concatCols + concatRows passes.
        nn::Matrix stacked(total_rows, up_cols + sa_cols);
        {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageGroup);
            std::size_t offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                float *base =
                    stacked.data() + offset * stacked.cols();
                nn::applyInterpolationInto(
                    plans[b], fp_feat[b][coarse],
                    std::span<float>(base,
                                     seg_rows[b] * stacked.cols()),
                    stacked.cols());
                if (sa_cols > 0) {
                    const nn::Matrix &skip = st[b][fine].saFeatures;
                    for (std::size_t r = 0; r < seg_rows[b]; ++r) {
                        const float *src = skip.data() + r * sa_cols;
                        std::copy(src, src + sa_cols,
                                  base + r * stacked.cols() + up_cols);
                    }
                }
                offset += seg_rows[b];
            }
        }
        {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            nn::Matrix out =
                block.mlp.forwardSegmented(std::move(stacked), seg_rows);
            if (fine == 0) {
                fp0_stacked = std::move(out);
                continue;
            }
            std::size_t offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                fp_feat[b][fine] = nn::sliceRows(out, offset,
                                                 offset + seg_rows[b]);
                offset += seg_rows[b];
            }
        }
    }

    StageTimer dummy;
    StageTimer::ScopedStage scope(timer ? *timer : dummy, kStageFeature);
    if (fp0_stacked.rows() == 0) {
        // No FP module produced the finest level stacked (e.g. a
        // headless FP configuration): stack the per-cloud features.
        for (std::size_t b = 0; b < batch; ++b) {
            parts[b] = std::move(fp_feat[b][0]);
            seg_rows[b] = parts[b].rows();
        }
        fp0_stacked = nn::concatRows(parts);
    }
    const nn::Matrix out =
        head.forwardSegmented(std::move(fp0_stacked), seg_rows);
    std::size_t offset = 0;
    for (std::size_t b = 0; b < batch; ++b) {
        logits[b] = nn::sliceRows(out, offset, offset + seg_rows[b]);
        offset += seg_rows[b];
    }
    return logits;
}

/**
 * Per-frame context handed between the staged executor's workers. All
 * members are frame-local heap state (no arena views, no references
 * into the model), so a frame may sit in a queue or run on any stage
 * worker while other frames occupy the other stages.
 */
struct PointNetPP::StagedState : StagedFrame
{
    std::vector<LevelState> levels;
    std::vector<NeighborLists> neighbors;
    std::vector<InterpolationPlan> plans;

    void reset() override
    {
        StagedFrame::reset();
        levels.clear();
        neighbors.clear();
        plans.clear();
    }
};

std::unique_ptr<StagedFrame>
PointNetPP::makeStagedFrame()
{
    return std::make_unique<StagedState>();
}

void
PointNetPP::stagedSample(StagedFrame &frame, const PointCloud &cloud,
                         const EdgePcConfig &config, StageTimer *timer)
{
    auto &st = static_cast<StagedState &>(frame);
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud,
              "PointNetPP::stagedSample: empty cloud");
    }
    if (cloud.featureDim() != cfg.inputFeatureDim) {
        raise(ErrorCode::ShapeMismatch,
              "PointNetPP::stagedSample: cloud feature dim %zu != "
              "model %zu",
              cloud.featureDim(), cfg.inputFeatureDim);
    }
    const std::size_t num_levels = cfg.sa.size() + 1;
    st.levels.assign(num_levels, LevelState{});
    st.neighbors.assign(cfg.sa.size(), NeighborLists{});
    st.plans.assign(cfg.fp.size(), InterpolationPlan{});
    st.levels[0].positions = cloud.positions();
    st.levels[0].saFeatures =
        nn::Matrix(cloud.size(), cfg.inputFeatureDim,
                   std::vector<float>(cloud.features()));

    // The whole sampling chain runs here: level i+1's positions are a
    // pure gather of level i's sample indices, so no neighbor or
    // feature result is ever needed to keep sampling.
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        LevelState &cur = st.levels[i];
        saSampleStage(i, config, timer, cur);
        LevelState &next = st.levels[i + 1];
        next.positions.resize(cur.sampleIndices.size());
        for (std::size_t j = 0; j < cur.sampleIndices.size(); ++j) {
            next.positions[j] = cur.positions[cur.sampleIndices[j]];
        }
    }

    // FP up-sample plans read only positions / structurizations; the
    // morton_up reuse condition (fine level under optimizedSampleLayers)
    // implies the sampler above already built that structurization, so
    // planning here is exactly the plan the sequential path computes.
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        const std::size_t coarse = num_levels - 1 - m;
        const std::size_t fine = coarse - 1;
        st.plans[m] = fpUpsamplePlan(fine, config, timer,
                                     st.levels[fine], st.levels[coarse]);
    }
}

void
PointNetPP::stagedNeighbor(StagedFrame &frame, const EdgePcConfig &config,
                           StageTimer *timer)
{
    auto &st = static_cast<StagedState &>(frame);
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        st.neighbors[i] = saNeighborStage(i, config, timer, st.levels[i]);
    }
}

nn::Matrix
PointNetPP::stagedFeature(StagedFrame &frame, const EdgePcConfig &config,
                          StageTimer *timer)
{
    (void)config;
    auto &st = static_cast<StagedState &>(frame);
    const std::size_t num_levels = st.levels.size();

    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        SaBlock &block = saBlocks[i];
        LevelState &cur = st.levels[i];
        LevelState &next = st.levels[i + 1];
        const NeighborLists &neighbors = st.neighbors[i];
        const std::size_t k_eff = neighbors.k;
        const std::size_t feat_dim = cur.saFeatures.cols();
        const std::size_t rows = cur.sampleIndices.size() * k_eff;

        // Same per-frame delayed-aggregation decision as runSaModule
        // (inference mode), but without touching block.delayedActive:
        // the training route must not observe serving traffic.
        auto *lin0 =
            block.mlp.size() == 0
                ? nullptr
                : dynamic_cast<nn::Linear *>(block.mlp.layerAt(0));
        auto *linrelu0 =
            block.mlp.size() == 0
                ? nullptr
                : dynamic_cast<nn::LinearRelu *>(block.mlp.layerAt(0));
        const double flop_ratio = nn::saDelayedFlopRatio(
            cur.positions.size(), cur.sampleIndices.size(), k_eff,
            feat_dim);
        const bool delayed =
            nn::resolveDelayedAgg(cfg.delayedAggregation, flop_ratio) &&
            (lin0 != nullptr || linrelu0 != nullptr);

        if (delayed && linrelu0 != nullptr) {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            next.saFeatures = nn::delayedSaSingleStageInfer(
                cur.positions, cur.saFeatures, cur.sampleIndices,
                neighbors, linrelu0->weights().value,
                linrelu0->biases().value,
                nn::GemmEngine::globalEngine());
        } else if (delayed) {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            nn::Matrix pre = nn::delayedSaFirstLinear(
                cur.positions, cur.saFeatures, cur.sampleIndices,
                neighbors, lin0->weights().value, lin0->biases().value,
                nn::GemmEngine::globalEngine(), nullptr);
            const nn::Matrix activated =
                block.mlp.forwardFrom(1, std::move(pre), false);
            next.saFeatures =
                nn::maxPoolRows(activated, 0, rows, k_eff);
        } else {
            nn::Matrix grouped;
            {
                StageTimer dummy;
                StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                              kStageGroup);
                grouped = nn::groupWithRelativeCoords(
                    cur.positions, cur.saFeatures, cur.sampleIndices,
                    neighbors);
            }
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageFeature);
            const nn::Matrix activated =
                block.mlp.forward(grouped, false);
            next.saFeatures =
                nn::maxPoolRows(activated, 0, rows, k_eff);
        }
        if (isClassifier()) {
            // No skip connections ahead: free the consumed level now —
            // with several frames in flight, peak footprint matters.
            cur.saFeatures = nn::Matrix{};
        }
    }

    if (isClassifier()) {
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        nn::GlobalMaxPool pool;
        const nn::Matrix pooled =
            pool.forward(st.levels.back().saFeatures, false);
        return head.forward(pooled, false);
    }

    std::vector<nn::Matrix> fp_feat(num_levels);
    fp_feat.back() = std::move(st.levels.back().saFeatures);
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        FpBlock &block = fpBlocks[m];
        const std::size_t coarse = num_levels - 1 - m;
        const std::size_t fine = coarse - 1;
        const LevelState &fine_level = st.levels[fine];
        nn::Matrix concat;
        {
            StageTimer dummy;
            StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                          kStageGroup);
            const nn::Matrix up =
                nn::applyInterpolation(st.plans[m], fp_feat[coarse]);
            if (fine_level.saFeatures.cols() > 0) {
                concat = nn::concatCols(up, fine_level.saFeatures);
            } else {
                concat = up;
            }
        }
        StageTimer dummy;
        StageTimer::ScopedStage scope(timer ? *timer : dummy,
                                      kStageFeature);
        fp_feat[fine] = block.mlp.forward(concat, false);
    }

    StageTimer dummy;
    StageTimer::ScopedStage scope(timer ? *timer : dummy, kStageFeature);
    return head.forward(fp_feat[0], false);
}

void
PointNetPP::backward(const nn::Matrix &grad_logits)
{
    if (!trainMode) {
        // NOLINTNEXTLINE(edgepc-R1): caller protocol violation, not data
        panic("PointNetPP::backward without forward(train=true)");
    }
    const std::size_t num_levels = levels.size();

    // Gradients w.r.t. each level's SA-output features.
    std::vector<nn::Matrix> grad_sa(num_levels);

    nn::Matrix g = head.backward(grad_logits);

    if (isClassifier()) {
        accumulate(grad_sa[num_levels - 1], globalPool.backward(g));
    } else {
        // FP backward: module m maps fine = L-1-m; iterate so dG[fine]
        // is available (shallowest module first).
        std::vector<nn::Matrix> grad_fp(num_levels);
        grad_fp[0] = std::move(g);
        for (std::size_t idx = 0; idx < fpBlocks.size(); ++idx) {
            const std::size_t m = fpBlocks.size() - 1 - idx;
            const std::size_t coarse = num_levels - 1 - m;
            const std::size_t fine = coarse - 1;
            FpBlock &block = fpBlocks[m];

            nn::Matrix grad_concat =
                block.mlp.backward(grad_fp[fine]);
            const std::size_t up_cols =
                grad_concat.cols() - levels[fine].saFeatures.cols();
            auto [up_grad, skip_grad] =
                nn::splitCols(grad_concat, up_cols);

            const nn::Matrix coarse_grad =
                block.interp.backward(up_grad);
            if (coarse == num_levels - 1) {
                accumulate(grad_sa[coarse], coarse_grad);
            } else {
                accumulate(grad_fp[coarse], coarse_grad);
            }
            if (skip_grad.cols() > 0) {
                accumulate(grad_sa[fine], skip_grad);
            }
        }
    }

    // SA backward, deepest first.
    for (std::size_t i = saBlocks.size(); i-- > 0;) {
        SaBlock &block = saBlocks[i];
        nn::Matrix pooled_grad = std::move(grad_sa[i + 1]);
        if (pooled_grad.numel() == 0 && pooled_grad.rows() == 0) {
            // No gradient reached this level (possible in ablations).
            continue;
        }
        nn::Matrix act_grad = block.pool->backward(pooled_grad);
        if (block.delayedActive) {
            // Delayed route: the tail stops at layer 1 and the first
            // Linear's gradients come from the scatter/segment-sum
            // formulation. Training never delays a LinearRelu-first
            // block, so layer 0 is a plain Linear here.
            nn::Matrix pre_grad = block.mlp.backwardFrom(1, act_grad);
            auto *lin0 =
                static_cast<nn::Linear *>(block.mlp.layerAt(0));
            nn::Matrix feat_grad = nn::delayedSaFirstLinearBackward(
                block.delayedCache, pre_grad, lin0->weights(),
                lin0->biases(), nn::GemmEngine::globalEngine());
            if (levels[i].groupedFeatureDim > 0) {
                accumulate(grad_sa[i], feat_grad);
            }
            continue;
        }
        nn::Matrix grouped_grad = block.mlp.backward(act_grad);
        if (levels[i].groupedFeatureDim > 0) {
            auto [rel_grad, feat_grad] = nn::splitCols(grouped_grad, 3);
            (void)rel_grad; // Coordinates carry no learnable gradient.
            accumulate(grad_sa[i], block.gather.backward(feat_grad));
        }
    }
}

void
PointNetPP::collectParameters(std::vector<nn::Parameter *> &out)
{
    for (auto &block : saBlocks) {
        block.mlp.collectParameters(out);
    }
    for (auto &block : fpBlocks) {
        block.mlp.collectParameters(out);
    }
    head.collectParameters(out);
}

void
PointNetPP::collectBuffers(std::vector<std::vector<float> *> &out)
{
    for (auto &block : saBlocks) {
        block.mlp.collectBuffers(out);
    }
    for (auto &block : fpBlocks) {
        block.mlp.collectBuffers(out);
    }
    head.collectBuffers(out);
}

} // namespace edgepc
