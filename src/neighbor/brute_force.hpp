/**
 * @file
 * Exact brute-force k-nearest-neighbor search: the k-NN baseline of
 * Sec 5.2.1. O(N) distance evaluations per query, O(QN) total.
 */

#ifndef EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP
#define EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP

#include "geometry/simd_distance.hpp"
#include "neighbor/neighbor_search.hpp"

namespace edgepc {

namespace nn {
class GemmEngine; // nn/gemm.hpp
} // namespace nn

/** Exact k-NN by exhaustive distance computation. */
class BruteForceKnn : public NeighborSearch
{
  public:
    /**
     * @param int8_search Fixed-point distance route (DESIGN.md
     *     §15). Off keeps exact fp32 distances; On ranks neighbors by
     *     s16 grid distance when the cloud quantizes. Auto stays Off
     *     for k-NN — snap error reorders near-ties — so the
     *     approximation is strictly opt-in. Defaults to the
     *     environment's EdgePcConfig::int8Search default.
     *     Coordinate-space search() only; searchFeatureSpace has its
     *     own fp32 GEMM route.
     */
    explicit BruteForceKnn(Route int8_search = dispatchEnv().int8Search)
        : fixedRoute(int8_search)
    {
    }

    [[nodiscard]]
    NeighborLists search(std::span<const Vec3> queries,
                         std::span<const Vec3> candidates,
                         std::size_t k) override;

    std::string name() const override { return "knn"; }

    /**
     * k-NN in an arbitrary-dimension feature space (row-major points
     * of dimension dim). Used by DGCNN's later EdgeConv modules, which
     * search neighbors by feature distance (Sec 5.2.3).
     *
     * One GEMM-formulated route (DESIGN.md §16): queries and
     * candidates are centered on the candidates' mean, and each tile
     * of query rows gets ‖q‖² − 2q·c + ‖c‖² from the packed GEMM
     * kernel — always fp32, in the build @p engine's policy picks
     * (the run's GEMM engine) but outside the layer GEMMs'
     * accounting — clamped at +0 and
     * selected with KHeap. Near-ties within the expansion's forward
     * error may order differently from a direct Σ(q − c)² scan;
     * exact ties keep the first-encountered index. The lists depend
     * only on the inputs, not on the thread count.
     *
     * Raises EmptyCloud for no candidates, dim == 0 or k == 0,
     * ShapeMismatch when a span is not whole rows of @p dim, and
     * NonFiniteData for NaN or infinite features or norms too large
     * for fp32 distances. k clamps to the candidate count.
     */
    [[nodiscard]]
    static NeighborLists searchFeatureSpace(std::span<const float> queries,
                                            std::span<const float> candidates,
                                            std::size_t dim, std::size_t k,
                                            const nn::GemmEngine &engine);

  private:
    Route fixedRoute;
};

} // namespace edgepc

#endif // EDGEPC_NEIGHBOR_BRUTE_FORCE_HPP
