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

/** Times its scope against @p timer's @p stage (or no timer). */
class StageScope
{
  public:
    StageScope(StageTimer *timer, const char *stage)
        : scope(timer != nullptr ? *timer : unused, stage)
    {
    }

  private:
    StageTimer unused;
    StageTimer::ScopedStage scope;
};

/**
 * Put one cloud's @p part at row @p offset of a batch's @p stacked
 * matrix of @p total rows, allocating the stack on first use. A part
 * that holds every row is the stack itself: moved, not copied.
 */
void
stackRows(nn::Matrix &stacked, std::size_t total, std::size_t offset,
          nn::Matrix part)
{
    if (part.rows() == total) {
        stacked = std::move(part);
        return;
    }
    if (stacked.rows() != total) {
        stacked = nn::Matrix::forOverwrite(total, part.cols());
    }
    std::copy(part.data(), part.data() + part.numel(),
              stacked.data() + offset * stacked.cols());
}

/** Rows [offset, offset + rows) of a batch's @p stacked matrix; the
    whole stack is moved out, not copied. */
nn::Matrix
unstackRows(nn::Matrix &stacked, std::size_t offset, std::size_t rows)
{
    if (rows == stacked.rows()) {
        return std::move(stacked);
    }
    return nn::sliceRows(stacked, offset, offset + rows);
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
        block.featDim = level_dims.back();
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
        if (!sa.mlp.empty()) {
            nn::Layer *first = block.mlp.layerAt(0);
            block.firstLinear = dynamic_cast<nn::Linear *>(first);
            block.singleStage = dynamic_cast<nn::LinearRelu *>(first);
        }
        level_dims.push_back(in_dim);
        saBlocks.push_back(std::move(block));
    }

    // FP blocks (deepest first).
    std::size_t carried = level_dims.back();
    const std::size_t num_levels = level_dims.size();
    for (std::size_t m = 0; m < cfg.fp.size(); ++m) {
        if (cfg.fp[m].mlp.empty()) {
            // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
            fatal("PointNetPP: fp module %zu has an empty mlp", m);
        }
        FpBlock block;
        block.conf = cfg.fp[m];
        const std::size_t fine_level = num_levels - 2 - m;
        std::size_t in_dim = carried + level_dims[fine_level];
        for (const std::size_t width : cfg.fp[m].mlp) {
            block.mlp.addLinearBnRelu(in_dim, width, rng);
            in_dim = width;
        }
        block.firstLinear = static_cast<nn::Linear *>(block.mlp.layerAt(0));
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
}

/**
 * Everything a frame's inference reads besides the weights: the
 * geometry, planned from positions only, and the input features.
 * Frame-local heap state only (no arena views, no references into the
 * model), so a plan outlives the kernels' scratch and may be executed
 * in a batch with other frames' plans.
 */
struct PointNetPP::FramePlan
{
    /** One level of the frame's geometry. */
    struct Level
    {
        std::vector<Vec3> positions;
        // SA module i's plan on level i (empty on the deepest level).
        std::vector<std::uint32_t> sampleIndices;
        Structurization structur;
        bool structurized = false; ///< structur is built.
        NeighborLists neighbors;
        bool delayed = false; ///< Delayed aggregation (DESIGN.md §13).
    };

    std::vector<Level> levels;               ///< sa.size() + 1.
    std::vector<InterpolationPlan> upsample; ///< One per FP module.
    nn::Matrix input;                        ///< N x C_0.
};

void
PointNetPP::planSample(FramePlan &plan, const PointCloud &cloud,
                       const EdgePcConfig &config, StageTimer *timer) const
{
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud, "PointNetPP: empty cloud");
    }
    if (cloud.featureDim() != cfg.inputFeatureDim) {
        raise(ErrorCode::ShapeMismatch,
              "PointNetPP: cloud feature dim %zu != model %zu",
              cloud.featureDim(), cfg.inputFeatureDim);
    }
    StageScope scope(timer, kStageSample);
    plan.levels.assign(saBlocks.size() + 1, FramePlan::Level{});
    plan.levels[0].positions = cloud.positions();
    plan.input = nn::Matrix(cloud.size(), cfg.inputFeatureDim,
                            cloud.features());

    // The whole sampling chain runs here: level i+1's positions are a
    // pure gather of level i's samples, so sampling never waits for a
    // neighbor or feature result.
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        FramePlan::Level &cur = plan.levels[i];
        const std::size_t n =
            std::min(saBlocks[i].conf.points, cur.positions.size());
        cur.structurized = config.approximate() &&
                           static_cast<int>(i) < config.optimizedSampleLayers;
        if (cur.structurized) {
            const MortonSampler sampler(config.codeBits);
            cur.structur = sampler.structurize(cur.positions);
            cur.sampleIndices = sampler.sampleStructurized(cur.structur, n);
        } else {
            cur.sampleIndices =
                FarthestPointSampler().sample(cur.positions, n);
        }
        std::vector<Vec3> &next = plan.levels[i + 1].positions;
        next.resize(cur.sampleIndices.size());
        for (std::size_t j = 0; j < next.size(); ++j) {
            next[j] = cur.positions[cur.sampleIndices[j]];
        }
    }

    // FP module m up-samples level fine + 1 to fine. Its plan reads
    // positions only, and reuses fine's structurization exactly when
    // the sampler above built one.
    plan.upsample.resize(fpBlocks.size());
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        const std::size_t fine = saBlocks.size() - 1 - m;
        const FramePlan::Level &level = plan.levels[fine];
        plan.upsample[m] =
            level.structurized
                ? MortonUpsampler().plan(level.positions, level.structur,
                                         level.sampleIndices)
                : exactInterpolation(level.positions,
                                     plan.levels[fine + 1].positions, 3);
    }
}

void
PointNetPP::planNeighbors(FramePlan &plan, const EdgePcConfig &config,
                          StageTimer *timer) const
{
    StageScope scope(timer, kStageNeighbor);
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        const SaBlock &block = saBlocks[i];
        FramePlan::Level &cur = plan.levels[i];
        // The sampled centers are the next level's points.
        const std::vector<Vec3> &queries = plan.levels[i + 1].positions;
        const std::size_t k = block.conf.k;
        if (config.approximate() &&
            static_cast<int>(i) < config.optimizedNeighborLayers) {
            if (!cur.structurized) {
                // No structurization to reuse from the sampler: build
                // one here (its cost counts against this stage).
                cur.structur =
                    MortonSampler(config.codeBits).structurize(cur.positions);
                cur.structurized = true;
            }
            cur.neighbors = MortonWindowSearch(config.searchWindow)
                                .search(cur.positions, cur.structur,
                                        cur.sampleIndices, k);
        } else if (block.conf.mode == NeighborMode::BallQuery) {
            cur.neighbors =
                BallQuery(block.conf.radius, config.int8Search)
                    .search(queries, cur.positions, k);
        } else {
            cur.neighbors = BruteForceKnn(config.int8Search)
                                .search(queries, cur.positions, k);
        }
        // The one delayed-aggregation decision per (cloud, block). The
        // searchers clamp k to the candidate count, so it and every
        // later step use the effective k.
        cur.delayed = !block.conf.mlp.empty() &&
                      nn::resolveDelayedAgg(
                          config.delayedAggregation,
                          nn::saDelayedFlopRatio(
                              cur.positions.size(), cur.sampleIndices.size(),
                              cur.neighbors.k, block.featDim));
    }
}

std::vector<nn::Matrix>
PointNetPP::execute(std::span<FramePlan *const> plans,
                    const nn::GemmRoute &route, StageTimer *timer)
{
    const std::size_t batch = plans.size();
    std::vector<nn::Matrix> logits(batch);
    if (batch == 0) {
        return logits;
    }
    nn::GemmEngine &engine = route.engine;
    // feat[b][l]: cloud b's features on level l. The SA modules fill
    // the levels downward; each FP module replaces its fine level's
    // skip features with its output on the way back up.
    std::vector<std::vector<nn::Matrix>> feat(
        batch, std::vector<nn::Matrix>(saBlocks.size() + 1));
    for (std::size_t b = 0; b < batch; ++b) {
        feat[b][0] = std::move(plans[b]->input);
    }
    // Each cloud's rows in the current stacked stage.
    std::vector<std::size_t> rows(batch);

    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        SaBlock &block = saBlocks[i];
        std::size_t total = 0;
        bool any_delayed = false;
        for (std::size_t b = 0; b < batch; ++b) {
            const FramePlan::Level &level = plans[b]->levels[i];
            rows[b] = level.sampleIndices.size() * level.neighbors.k;
            total += rows[b];
            any_delayed = any_delayed || level.delayed;
        }
        if (any_delayed && block.singleStage != nullptr) {
            // Tier A: a delayed single-stage block pools before its one
            // GEMM's (n*k) rows ever exist, so there is nothing to
            // stack; every cloud runs alone.
            StageScope scope(timer, kStageFeature);
            for (std::size_t b = 0; b < batch; ++b) {
                const FramePlan::Level &level = plans[b]->levels[i];
                if (level.delayed) {
                    feat[b][i + 1] = nn::delayedSaSingleStageInfer(
                        level.positions, feat[b][i], level.sampleIndices,
                        level.neighbors, block.singleStage->weights().value,
                        block.singleStage->biases().value, engine);
                    continue;
                }
                const nn::Matrix activated = block.mlp.forward(
                    nn::groupWithRelativeCoords(level.positions, feat[b][i],
                                                level.sampleIndices,
                                                level.neighbors),
                    route, false);
                feat[b][i + 1] = nn::maxPoolRows(activated, 0, rows[b],
                                                 level.neighbors.k);
            }
        } else {
            nn::Matrix stacked;
            std::size_t first_layer = 0;
            std::size_t offset = 0;
            if (any_delayed) {
                // Tier B: every cloud's first-Linear output lands in its
                // row range (delayed clouds via the unique-row GEMMs,
                // eager ones via their grouped rows; the packed GEMM is
                // row-independent), and the tail runs from layer 1.
                StageScope scope(timer, kStageFeature);
                for (std::size_t b = 0; b < batch; ++b) {
                    const FramePlan::Level &level = plans[b]->levels[i];
                    stackRows(
                        stacked, total, offset,
                        level.delayed
                            ? nn::delayedSaFirstLinear(
                                  level.positions, feat[b][i],
                                  level.sampleIndices, level.neighbors,
                                  block.firstLinear->weights().value,
                                  block.firstLinear->biases().value, engine,
                                  nullptr)
                            : block.firstLinear->forward(
                                  nn::groupWithRelativeCoords(
                                      level.positions, feat[b][i],
                                      level.sampleIndices, level.neighbors),
                                  route, false));
                    offset += rows[b];
                }
                first_layer = 1;
            } else {
                // Eager: group every cloud straight into its row range
                // of the stack, so stacking costs no extra pass.
                StageScope scope(timer, kStageGroup);
                stacked = nn::Matrix::forOverwrite(total, 3 + block.featDim);
                for (std::size_t b = 0; b < batch; ++b) {
                    const FramePlan::Level &level = plans[b]->levels[i];
                    nn::groupWithRelativeCoordsInto(
                        level.positions, feat[b][i], level.sampleIndices,
                        level.neighbors,
                        std::span<float>(
                            stacked.data() + offset * stacked.cols(),
                            rows[b] * stacked.cols()));
                    offset += rows[b];
                }
            }
            // The batched payoff: one tall GEMM per MLP stage, and each
            // cloud's max-pool reads its row range in place.
            StageScope scope(timer, kStageFeature);
            const nn::Matrix activated = block.mlp.forwardSegmented(
                std::move(stacked), rows, route, first_layer);
            offset = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                feat[b][i + 1] = nn::maxPoolRows(
                    activated, offset, rows[b],
                    plans[b]->levels[i].neighbors.k);
                offset += rows[b];
            }
        }
        if (isClassifier()) {
            // No skip connections ahead: free the consumed level now —
            // with several frames in flight, peak footprint matters.
            for (std::size_t b = 0; b < batch; ++b) {
                feat[b][i] = nn::Matrix{};
            }
        }
    }

    // FP modules: the level being up-sampled stays row-stacked from one
    // module to the next. Each module's first Linear runs split over
    // [interp(F) | S] (DESIGN.md §13): the up-product once over every
    // cloud's coarse rows, the skip product over the fine rows, and
    // each cloud's plan adds its own interpolated rows.
    nn::Matrix stacked;
    std::vector<std::size_t> coarse_rows(batch);
    if (!isClassifier()) {
        const std::size_t deepest = saBlocks.size();
        std::size_t total = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            coarse_rows[b] = feat[b][deepest].rows();
            total += coarse_rows[b];
        }
        std::size_t offset = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            stackRows(stacked, total, offset, std::move(feat[b][deepest]));
            offset += coarse_rows[b];
        }
    }
    std::vector<const InterpolationPlan *> upsample(batch);
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        FpBlock &block = fpBlocks[m];
        const std::size_t fine = saBlocks.size() - 1 - m;
        std::size_t total = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            upsample[b] = &plans[b]->upsample[m];
            rows[b] = upsample[b]->targets();
            total += rows[b];
        }
        StageScope scope(timer, kStageFeature);
        nn::Matrix skip;
        std::size_t offset = 0;
        for (std::size_t b = 0; b < batch; ++b) {
            stackRows(skip, total, offset, std::move(feat[b][fine]));
            offset += rows[b];
        }
        nn::Matrix pre = nn::interpolatedFirstLinear(
            stacked, coarse_rows, upsample, skip,
            block.firstLinear->weights().value,
            block.firstLinear->biases().value, engine, nullptr);
        stacked = block.mlp.forwardSegmented(std::move(pre), rows, route, 1);
        coarse_rows = rows;
    }

    // The head reads the finest FP output still stacked, or (for a
    // classifier) each cloud's global max-pool.
    StageScope scope(timer, kStageFeature);
    if (isClassifier()) {
        for (std::size_t b = 0; b < batch; ++b) {
            const nn::Matrix &deepest = feat[b].back();
            stackRows(stacked, batch, b,
                      nn::maxPoolRows(deepest, 0, deepest.rows(),
                                      deepest.rows()));
            rows[b] = 1;
        }
    }
    stacked = head.forwardSegmented(std::move(stacked), rows, route);
    std::size_t offset = 0;
    for (std::size_t b = 0; b < batch; ++b) {
        logits[b] = unstackRows(stacked, offset, rows[b]);
        offset += rows[b];
    }
    return logits;
}

nn::Matrix
PointNetPP::infer(const PointCloud &cloud, const EdgePcConfig &config,
                  StageTimer *timer)
{
    FramePlan plan;
    planSample(plan, cloud, config, timer);
    planNeighbors(plan, config, timer);
    FramePlan *const one[] = {&plan};
    return std::move(execute(one, config.gemmRoute(), timer)[0]);
}

std::vector<nn::Matrix>
PointNetPP::inferBatch(std::span<const PointCloud> clouds,
                       const EdgePcConfig &config, StageTimer *timer)
{
    std::vector<FramePlan> plans(clouds.size());
    std::vector<FramePlan *> views(clouds.size());
    for (std::size_t b = 0; b < clouds.size(); ++b) {
        planSample(plans[b], clouds[b], config, timer);
        planNeighbors(plans[b], config, timer);
        views[b] = &plans[b];
    }
    return execute(views, config.gemmRoute(), timer);
}

nn::Matrix
PointNetPP::forward(const PointCloud &cloud, const EdgePcConfig &config,
                    StageTimer *timer, bool train)
{
    if (!train) {
        return infer(cloud, config, timer);
    }
    FramePlan plan;
    planSample(plan, cloud, config, timer);
    planNeighbors(plan, config, timer);
    const nn::GemmRoute route = config.gemmRoute();
    trainEngine = &route.engine;

    // execute()'s compute for one plan, through the layers' training
    // forwards so that backward() finds their caches.
    std::vector<nn::Matrix> feat(plan.levels.size());
    feat[0] = std::move(plan.input);
    for (std::size_t i = 0; i < saBlocks.size(); ++i) {
        SaBlock &block = saBlocks[i];
        const FramePlan::Level &cur = plan.levels[i];
        // A single-stage block's delayed route keeps nothing for
        // backward, so training runs that block eager.
        block.delayedActive = cur.delayed && block.firstLinear != nullptr;
        block.pool = std::make_unique<nn::MaxPoolNeighbors>(cur.neighbors.k);
        nn::Matrix activated;
        if (block.delayedActive) {
            StageScope scope(timer, kStageFeature);
            activated = block.mlp.forwardFrom(
                1,
                nn::delayedSaFirstLinear(
                    cur.positions, feat[i], cur.sampleIndices,
                    cur.neighbors, block.firstLinear->weights().value,
                    block.firstLinear->biases().value, route.engine,
                    &block.delayedCache),
                route, true);
        } else {
            nn::Matrix grouped;
            {
                StageScope scope(timer, kStageGroup);
                grouped = nn::groupWithRelativeCoords(
                    cur.positions, nn::Matrix{}, cur.sampleIndices,
                    cur.neighbors);
                if (block.featDim > 0) {
                    // The feature half goes through the gather layer,
                    // whose backward scatters the gradient back.
                    block.gather.setIndices(cur.neighbors.indices);
                    grouped = nn::concatCols(
                        grouped, block.gather.forward(feat[i], route, true));
                }
            }
            StageScope scope(timer, kStageFeature);
            activated = block.mlp.forward(grouped, route, true);
        }
        StageScope scope(timer, kStageFeature);
        feat[i + 1] = block.pool->forward(activated, route, true);
    }

    if (isClassifier()) {
        StageScope scope(timer, kStageFeature);
        return head.forward(globalPool.forward(feat.back(), route, true),
                            route, true);
    }
    for (std::size_t m = 0; m < fpBlocks.size(); ++m) {
        FpBlock &block = fpBlocks[m];
        const std::size_t fine = saBlocks.size() - 1 - m;
        const std::size_t coarse_rows[] = {feat[fine + 1].rows()};
        const InterpolationPlan *const upsample[] = {&plan.upsample[m]};
        StageScope scope(timer, kStageFeature);
        feat[fine] = block.mlp.forwardFrom(
            1,
            nn::interpolatedFirstLinear(
                feat[fine + 1], coarse_rows, upsample, feat[fine],
                block.firstLinear->weights().value,
                block.firstLinear->biases().value, route.engine,
                &block.cache),
            route, true);
    }
    StageScope scope(timer, kStageFeature);
    return head.forward(feat[0], route, true);
}

void
PointNetPP::backward(const nn::Matrix &grad_logits)
{
    if (trainEngine == nullptr) {
        // NOLINTNEXTLINE(edgepc-R1): caller protocol violation, not data
        panic("PointNetPP::backward without forward(train=true)");
    }
    nn::GemmEngine &engine = *trainEngine;
    const std::size_t num_levels = saBlocks.size() + 1;

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

            auto [coarse_grad, skip_grad] =
                nn::interpolatedFirstLinearBackward(
                    block.cache, block.mlp.backwardFrom(1, grad_fp[fine]),
                    block.firstLinear->weights(),
                    block.firstLinear->biases(), engine);
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
            // formulation.
            nn::Matrix pre_grad = block.mlp.backwardFrom(1, act_grad);
            nn::Matrix feat_grad = nn::delayedSaFirstLinearBackward(
                block.delayedCache, pre_grad, block.firstLinear->weights(),
                block.firstLinear->biases(), engine);
            if (block.featDim > 0) {
                accumulate(grad_sa[i], feat_grad);
            }
            continue;
        }
        nn::Matrix grouped_grad = block.mlp.backward(act_grad);
        if (block.featDim > 0) {
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
