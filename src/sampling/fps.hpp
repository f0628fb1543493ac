/**
 * @file
 * Farthest point sampling — the state-of-the-art exact sampler the
 * paper uses as its baseline (Sec 5.1.1, Figs 7 & 8a).
 *
 * Iteratively selects the point farthest from the already-selected set.
 * Each selection updates a running nearest-selected-distance array in
 * O(N); sampling n points costs O(nN) ~ O(N^2), and the selections are
 * inherently sequential — exactly the inefficiency EdgePC removes.
 */

#ifndef EDGEPC_SAMPLING_FPS_HPP
#define EDGEPC_SAMPLING_FPS_HPP

#include "sampling/sampler.hpp"

namespace edgepc {

/** Exact farthest point sampler. */
class FarthestPointSampler : public Sampler
{
  public:
    /**
     * @param start_index Index of the first selected point. The paper
     *        picks it randomly; common implementations use 0. Defaults
     *        to 0 for determinism.
     */
    explicit FarthestPointSampler(std::uint32_t start_index = 0);

    std::vector<std::uint32_t> sample(std::span<const Vec3> points,
                                      std::size_t n) override;

    std::string name() const override { return "fps"; }

  private:
    std::uint32_t startIndex;
};

} // namespace edgepc

#endif // EDGEPC_SAMPLING_FPS_HPP
