/**
 * @file
 * Ball query: the PointNet++ neighbor searcher (Sec 5.2.1, Fig 10a).
 * Returns the first k candidates within radius R of each query; when
 * fewer than k are inside the ball, the first found index is repeated
 * (the reference implementation's padding convention). When none are
 * inside, the nearest candidate is used.
 */

#ifndef EDGEPC_NEIGHBOR_BALL_QUERY_HPP
#define EDGEPC_NEIGHBOR_BALL_QUERY_HPP

#include "geometry/simd_distance.hpp"
#include "neighbor/neighbor_search.hpp"

namespace edgepc {

/** Fixed-radius neighbor searcher with k-padding. */
class BallQuery : public NeighborSearch
{
  public:
    /**
     * @param radius Ball radius R.
     * @param int8_search Fixed-point distance route (DESIGN.md §15):
     *     Off keeps the exact fp32 kernels (bit-identical to the
     *     reference scan); On snaps candidates to the per-cloud s16
     *     grid when the cloud quantizes; Auto engages only when the
     *     grid step is much finer than the radius. Defaults to the
     *     environment's EdgePcConfig::int8Search default.
     */
    explicit BallQuery(float radius,
                       Route int8_search = dispatchEnv().int8Search);

    [[nodiscard]]
    NeighborLists search(std::span<const Vec3> queries,
                         std::span<const Vec3> candidates,
                         std::size_t k) override;

    std::string name() const override { return "ball-query"; }

    float radius() const { return r; }

  private:
    float r;
    Route fixedRoute;
};

} // namespace edgepc

#endif // EDGEPC_NEIGHBOR_BALL_QUERY_HPP
