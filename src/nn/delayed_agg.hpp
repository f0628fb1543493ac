/**
 * @file
 * Delayed aggregation (Mesorasi): run the first Linear of an
 * aggregation block over the N unique points *before* the neighborhood
 * gather, instead of pushing the (n*k)-row gathered matrix through the
 * GEMM.
 *
 * The reordering is exact in real arithmetic because the grouped input
 * rows are affine combinations of per-point rows:
 *
 *  - PointNet++ SetAbstraction groups [p_j - p_i | f_j], so
 *      [p_j - p_i | f_j] W + b  =  ([p_j | f_j] W + b) - p_i W_pos
 *    with W_pos the first three rows of W. The first term (phi) is one
 *    GEMM over the N unique points, the second (psi) one GEMM over the
 *    n sampled centers; the (n*k)-row combine is a gather + subtract.
 *
 *  - DGCNN EdgeConv groups [f_i | f_j - f_i], so with W = [Ws; Wd]
 *      [f_i | f_j - f_i] W + b  =  f_i (Ws - Wd) + f_j Wd + b
 *    — two N-row GEMMs (psi and phi) and a gather + add combine.
 *
 * GEMM FLOPs of the first layer drop by ~k (the neighbor count): the
 * eager path multiplies every neighbor row, the delayed path each
 * unique row once. Only the *first* Linear commutes: BatchNorm
 * normalizes with per-cloud statistics over its input rows, and the
 * statistics over n*k gathered rows differ from those over N unique
 * rows, so the BN-and-later tail always runs eagerly on the combined
 * rows — which is also what keeps the delayed route numerically within
 * reassociation distance of the eager one. A single-stage BN-free
 * block (the classifier's deepest Linear+ReLU before the global pool)
 * additionally commutes with the max-pool itself — max_j(x_j + c) =
 * (max_j x_j) + c and ReLU is monotone — so inference can skip the
 * (n*k)-row matrix entirely via gatherMaxPoolInto.
 *
 * The same reorder applies to the two gathers that feed a Linear with
 * no BatchNorm in between, and there it is the only route:
 *
 *  - A segmentation head reads [C | 1 p]: per-point features next to
 *    the broadcast global row p. With W = [W_top; W_bot]
 *      [C | 1 p] W + b  =  C W_top + (p W_bot + b)
 *    — one 1-row product that becomes the bias row of an n-row GEMM
 *    over C alone, so the n x (|C| + |p|) input never exists.
 *
 *  - A PointNet++ FP module reads [interp(F) | S]: the coarse level's
 *    features F interpolated to the fine rows, next to the skip
 *    features S. Interpolation is a weighted sum of source rows, so
 *    with W = [W_up; W_skip]
 *      [interp(F) | S] W + b  =  interp(F W_up) + S W_skip + b
 *    and the up-product runs on the coarse level's rows.
 *
 * Both split products always run on the fp32 GEMM (as the delayed
 * first Linears do), so they are row-independent and run once over a
 * row-stacked batch; the layers after them keep their own int8
 * decision.
 *
 * The delayed variants are checkpoint-compatible by construction: they
 * are alternative execution routes over the same Linear parameters, so
 * collectParameters order, shapes and serialized streams are identical
 * to the eager Linear + gather composition.
 *
 * Dispatch: the run's EdgePcConfig::delayedAggregation route
 * (default Auto; EDGEPC_DELAYED_AGG=on|off|auto sets the default).
 * On and Off decide; under Auto a block is delayed iff its first-layer
 * GEMM FLOP ratio (eager / delayed) reaches kDelayedAggFlopRatio.
 */

#ifndef EDGEPC_NN_DELAYED_AGG_HPP
#define EDGEPC_NN_DELAYED_AGG_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/vec3.hpp"
#include "neighbor/neighbor_search.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "sampling/interpolation.hpp"

namespace edgepc {
namespace nn {

/** Minimum eager/delayed first-layer FLOP ratio for Auto to delay. */
inline constexpr double kDelayedAggFlopRatio = 2.0;

/**
 * Resolve the route of one block: On and Off decide, and Auto delays
 * iff @p flop_ratio (eager / delayed first-layer GEMM FLOPs) >=
 * kDelayedAggFlopRatio.
 */
bool resolveDelayedAgg(Route route, double flop_ratio);

/**
 * First-layer GEMM FLOP ratio of a PointNet++ SA block: eager runs the
 * Linear on n*k grouped (3+C)-wide rows, delayed on the N unique
 * [p | f] rows plus the n 3-wide centers.
 */
double saDelayedFlopRatio(std::size_t unique_points,
                          std::size_t samples, std::size_t k,
                          std::size_t feat_dim);

/**
 * First-layer GEMM FLOP ratio of a DGCNN EdgeConv block: eager runs
 * the Linear on N*k 2C-wide edge rows, delayed on two N-row C-wide
 * GEMMs — the ratio is exactly k.
 */
double edgeDelayedFlopRatio(std::size_t k);

/** Forward state the delayed-SA backward pass needs (train only). */
struct DelayedSaCache
{
    Matrix unified;  ///< N x (3+C): the [p | f] rows phi ran on.
    Matrix centers;  ///< n x 3: sampled center coordinates psi ran on.
    std::vector<std::uint32_t> neighborIdx; ///< n*k flattened.
    std::size_t k = 0;
    std::size_t featDim = 0;
};

/**
 * Delayed first Linear of a PointNet++ SA block: computes exactly what
 * Linear::forward would return on the groupWithRelativeCoords matrix
 * (up to float reassociation), but with GEMMs over the N unique points
 * and the n centers instead of the n*k grouped rows.
 *
 * @param positions All point positions of the level (N).
 * @param features Level features (N x C) or empty (first module).
 * @param sample_indices The n sampled centers.
 * @param neighbors Neighbor lists of the samples (n x k).
 * @param weight (3+C) x C_out first-layer weight.
 * @param bias 1 x C_out first-layer bias.
 * @param engine GEMM engine.
 * @param cache When non-null, filled for the backward pass.
 * @return (n*k) x C_out pre-activation rows (the eager layer-0 output).
 */
Matrix delayedSaFirstLinear(std::span<const Vec3> positions,
                            const Matrix &features,
                            std::span<const std::uint32_t> sample_indices,
                            const NeighborLists &neighbors,
                            const Matrix &weight, const Matrix &bias,
                            GemmEngine &engine, DelayedSaCache *cache);

/**
 * Backward of delayedSaFirstLinear: accumulates dW/db into @p weight /
 * @p bias and returns dLoss/dFeatures (N x C; zero-column matrix when
 * the block grouped coordinates only). Matches the eager
 * Linear::backward + GroupingLayer::backward composition (coordinates
 * carry no learnable gradient there either).
 */
Matrix delayedSaFirstLinearBackward(const DelayedSaCache &cache,
                                    const Matrix &grad_pre,
                                    Parameter &weight, Parameter &bias,
                                    GemmEngine &engine);

/**
 * Fully delayed inference of a single-stage BN-free SA block
 * (Linear+ReLU then neighbor max-pool): out = relu(gatherMaxPool(phi)
 * - psi), never materializing any (n*k)-row matrix. Valid because the
 * per-group term -p_i W_pos is constant across the group's k rows and
 * ReLU is monotone.
 *
 * @return n x C_out pooled activations (the MaxPoolNeighbors output).
 */
Matrix delayedSaSingleStageInfer(std::span<const Vec3> positions,
                                 const Matrix &features,
                                 std::span<const std::uint32_t> sample_indices,
                                 const NeighborLists &neighbors,
                                 const Matrix &weight, const Matrix &bias,
                                 GemmEngine &engine);

/** Forward state the delayed-EdgeConv backward pass needs. */
struct DelayedEdgeCache
{
    Matrix features; ///< N x C input rows.
    NeighborLists neighbors;
};

/**
 * Delayed first Linear of a DGCNN EdgeConv block: computes what
 * Linear::forward would return on the edgeFeatures matrix
 * [f_i | f_j - f_i] (up to float reassociation) via two N-row GEMMs
 * psi = F (Ws - Wd) + b and phi = F Wd, combined per edge as
 * psi[i] + phi[j].
 *
 * @param weight 2C x C_out first-layer weight ([Ws; Wd]).
 * @return (N*k) x C_out pre-activation rows.
 */
Matrix delayedEdgeFirstLinear(const Matrix &features,
                              const NeighborLists &neighbors,
                              const Matrix &weight, const Matrix &bias,
                              GemmEngine &engine, DelayedEdgeCache *cache);

/**
 * Backward of delayedEdgeFirstLinear: accumulates dW/db into
 * @p weight / @p bias and returns dLoss/dFeatures (N x C). Matches the
 * eager Linear::backward + EdgeFeatureLayer::backward composition.
 */
Matrix delayedEdgeFirstLinearBackward(const DelayedEdgeCache &cache,
                                      const Matrix &grad_pre,
                                      Parameter &weight, Parameter &bias,
                                      GemmEngine &engine);

/** Forward state the broadcast-head backward pass needs (train only). */
struct BroadcastLinearCache
{
    Matrix local;  ///< n x |C|: the per-point rows.
    Matrix global; ///< 1 x |p|: the broadcast row.
};

/**
 * First Linear of a segmentation head over [C | 1 p], without building
 * that matrix: the row product p W_bot + b is the bias of the n-row
 * GEMM C W_top. W_top and W_bot are the first |C| and last |p| rows of
 * @p weight, used in place. Equals Linear::forward on the
 * concatenation up to float reassociation; always fp32.
 *
 * @param local n x |C| per-point features.
 * @param global_row 1 x |p| broadcast row.
 * @param weight (|C| + |p|) x C_out first-layer weight.
 * @param bias 1 x C_out first-layer bias.
 * @param cache When non-null, filled for the backward pass.
 * @return n x C_out pre-activation rows.
 */
Matrix broadcastFirstLinear(const Matrix &local, const Matrix &global_row,
                            const Matrix &weight, const Matrix &bias,
                            GemmEngine &engine, BroadcastLinearCache *cache);

/**
 * Backward of broadcastFirstLinear. With s = colsum(dY) it accumulates
 * dW_top += C^T dY, dW_bot += p^T s and db += s, and returns
 * {dC = dY W_top^T, dp = s W_bot^T}.
 */
std::pair<Matrix, Matrix>
broadcastFirstLinearBackward(const BroadcastLinearCache &cache,
                             const Matrix &grad_pre, Parameter &weight,
                             Parameter &bias, GemmEngine &engine);

/** Forward state the FP first-Linear backward pass needs (train only). */
struct InterpolatedLinearCache
{
    Matrix coarse; ///< n_c x |F|: the coarse features F.
    Matrix skip;   ///< n x |S| skip features (|S| may be 0).
    InterpolationPlan plan;
};

/**
 * First Linear of a PointNet++ FP module over [interp(F) | S] for a
 * row-stacked batch of clouds, without building that matrix: U = F W_up
 * runs once over every cloud's coarse rows, S W_skip + b once over the
 * fine rows, and each cloud's plan adds its interpolated rows of U
 * onto its fine rows. W_up and W_skip are the first |F| and last |S|
 * rows of @p weight, used in place. Equals Linear::forward on the
 * concatenation up to float reassociation; always fp32, and each
 * cloud's rows are the same whatever else is in the batch.
 *
 * @param coarse The clouds' coarse features, stacked (n_c rows).
 * @param coarse_rows Each cloud's coarse row count (sums to n_c).
 * @param plans Each cloud's up-sampling plan; its indices count from
 *        the cloud's first coarse row.
 * @param skip The clouds' skip features, stacked: one row per target
 *        of the plans, |S| = weight.rows() - |F| columns (may be 0).
 * @param cache When non-null (one cloud only), filled for backward.
 * @return Stacked pre-activation rows, one per target.
 */
Matrix interpolatedFirstLinear(const Matrix &coarse,
                               std::span<const std::size_t> coarse_rows,
                               std::span<const InterpolationPlan *const> plans,
                               const Matrix &skip, const Matrix &weight,
                               const Matrix &bias, GemmEngine &engine,
                               InterpolatedLinearCache *cache);

/**
 * Backward of interpolatedFirstLinear. It scatters dY back through the
 * plan, dG = interp^T(dY), then accumulates dW_up += F^T dG,
 * dW_skip += S^T dY and db += colsum(dY), and returns
 * {dF = dG W_up^T, dS = dY W_skip^T} (dS has |S| columns).
 */
std::pair<Matrix, Matrix>
interpolatedFirstLinearBackward(const InterpolatedLinearCache &cache,
                                const Matrix &grad_pre, Parameter &weight,
                                Parameter &bias, GemmEngine &engine);

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_DELAYED_AGG_HPP
