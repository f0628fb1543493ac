/**
 * @file
 * Runtime-dispatched batch distance kernels over SoA point data.
 *
 * These are the 8-lane AVX2 workhorses behind FPS, brute-force k-NN,
 * ball query and the Morton window search. Dispatch
 * follows the GemmEngine pattern: a single __builtin_cpu_supports
 * check picks the AVX2+FMA build at runtime, with a scalar fallback
 * compiled for the baseline ISA. The build can be forced per process
 * (EDGEPC_SIMD=scalar|simd, common/dispatch.hpp) so CI can A/B both
 * builds and the equivalence tests can diff them.
 *
 * Bit-exactness contract: the vector kernels evaluate squared
 * distances as fl(fl(fl(dx*dx) + fl(dy*dy)) + fl(dz*dz)) — the exact
 * operation order of the scalar squaredDistance() — and never use
 * fused multiply-add (simd_distance.cpp is built with
 * -ffp-contract=off). Both dispatch paths therefore return identical
 * bits, which is what lets test_kernel_equivalence assert identical
 * neighbor indices under forced-scalar and forced-SIMD runs.
 */

#ifndef EDGEPC_GEOMETRY_SIMD_DISTANCE_HPP
#define EDGEPC_GEOMETRY_SIMD_DISTANCE_HPP

#include <cstddef>
#include <cstdint>

#include "common/dispatch.hpp"
#include "geometry/vec3.hpp"

namespace edgepc {
namespace simd {

/** Vector lanes per batch step (AVX2: 8 floats). */
inline constexpr std::size_t kLanes = 8;

/** @p n rounded up to a whole number of vector lanes. */
constexpr std::size_t
paddedSize(std::size_t n)
{
    return (n + kLanes - 1) / kLanes * kLanes;
}

/** True when the host CPU supports the AVX2+FMA build. */
bool simdAvailable();

/** Resolved decision: true when batch kernels run the AVX2 build. */
bool usingSimd();

/** "avx2-fma" or "scalar" — echoed into BENCH_*.json metadata. */
const char *activePathName();

/**
 * Bump the simd.fast_calls / simd.scalar_calls dispatch counters by
 * @p calls for the currently resolved path. Kernels call this once
 * per public entry point (not per batch) to keep the hot path clean.
 */
void recordDispatch(std::uint64_t calls = 1);

/**
 * out[i] = |p_i - q|^2 for i in [0, n), where p_i is read from the
 * parallel coordinate arrays. Exactly n results are written; inputs
 * need no particular alignment (32-byte-aligned SoA is fastest).
 */
void batchSqDist(const float *xs, const float *ys, const float *zs,
                 std::size_t n, const Vec3 &q, float *out);

/**
 * dist[i] = min(dist[i], |p_i - q|^2) for i in [0, n) — the FPS
 * min-distance relaxation pass.
 */
void batchMinUpdate(const float *xs, const float *ys, const float *zs,
                    std::size_t n, const Vec3 &q, float *dist);

/**
 * Fold the strict minimum of dist[0, n) into (best, best_idx), with
 * the scalar scan's first-occurrence tie behavior. Indexes reported
 * are base + i.
 */
void batchArgminUpdate(const float *dist, std::size_t n,
                       std::uint32_t base, float &best,
                       std::uint32_t &best_idx);

/**
 * Index of the first maximum of dist[0, n) (the FPS selection scan).
 * @p n must be non-zero.
 */
std::size_t batchArgmax(const float *dist, std::size_t n);

/** Number of 64-bit words covering an @p n-lane packed mask. */
constexpr std::size_t
maskWords(std::size_t n)
{
    return (n + 63) / 64;
}

/**
 * Packed mask: bit (i % 64) of mask[i / 64] = (dist[i] <= r2) for i in
 * [0, n); returns the number of set bits. Unused tail bits of the last
 * word are zero, so callers can iterate set lanes with countr_zero in
 * O(hits) instead of scanning a byte per lane — the in-ball test of
 * ball query.
 */
std::size_t batchRadiusMask(const float *dist, std::size_t n, float r2,
                            std::uint64_t *mask);

/**
 * Packed mask of (dist[i] < limit) with the same layout as
 * batchRadiusMask; returns the number of set bits. The strict k-NN
 * heap-admission prefilter.
 */
std::size_t batchBelowMask(const float *dist, std::size_t n, float limit,
                           std::uint64_t *mask);

// --------------------------------------------------------- fixed point
//
// s16 fixed-point companion kernels (DESIGN.md §15): candidate
// coordinates quantize to a per-cloud uniform grid and squared
// distances are evaluated with _mm256_madd_epi16 — exact integer
// arithmetic, so the scalar and AVX2 builds are bit-identical by
// construction. Enabling the path trades boundary-exact neighbor sets
// for roughly half the coordinate bandwidth; the run's int8-search
// route (EdgePcConfig::int8Search, default Off) gates it, so default
// numerics stay fp32.

/** Candidate coordinates quantize to [-kFixedMaxQ, kFixedMaxQ]. */
inline constexpr std::int32_t kFixedMaxQ = 4095;

/**
 * Query coordinates clamp to the wider [-kFixedMaxQueryQ,
 * kFixedMaxQueryQ] so queries slightly outside the candidate bounding
 * box keep correct (saturated) distances instead of wrapping.
 */
inline constexpr std::int32_t kFixedMaxQueryQ = 8191;

/**
 * Quantized coordinate stored in padding lanes. Chosen so the i16
 * difference against any clamped query stays exact (kFixedPadQ +
 * kFixedMaxQueryQ < 2^15) — pad lanes never surface in results anyway
 * because the kernels write exactly n outputs, but they must not wrap.
 */
inline constexpr std::int16_t kFixedPadQ = 23168;

/**
 * Auto heuristic (ball query only): the fixed path engages when the
 * quantization step is at least this many times finer than the search
 * radius, bounding the worst-case per-axis snap error to
 * radius / kFixedAutoFactor.
 */
inline constexpr float kFixedAutoFactor = 64.0f;

/**
 * Resolve the ball-query gate: On and Off decide, Auto engages when
 * the grid step is fine against the radius (scale * kFixedAutoFactor
 * <= radius). The caller must still fall back to fp32 when the cloud
 * fails to quantize (PointsFixed::valid() is false).
 */
bool resolveFixedPointBall(Route route, float scale, float radius);

/**
 * Resolve the k-NN gate. Auto means Off for k-NN — nearest-neighbor
 * ordering is more sensitive to snap error than in-ball membership,
 * so the approximation is opt-in.
 */
bool resolveFixedPointKnn(Route route);

/** Bump the simd.fixed_calls counter (fixed-point entry points). */
void recordFixedDispatch(std::uint64_t calls = 1);

/**
 * Fixed-point squared distances: out[i] = dx^2 + dy^2 + dz^2 in
 * quantized units^2, converted exactly to float. @p qxy interleaves
 * [x0,y0, x1,y1, ...] and @p qzw interleaves [z0,0, z1,0, ...] (the
 * PointsFixed layout); exactly n results are written. Both dispatch
 * builds compute identical integer sums (max |coord diff| < 2^15, sum
 * < 2^31), so results are bit-identical across paths.
 */
void batchSqDistFixed(const std::int16_t *qxy, const std::int16_t *qzw,
                      std::size_t n, std::int16_t qx, std::int16_t qy,
                      std::int16_t qz, float *out);

} // namespace simd
} // namespace edgepc

#endif // EDGEPC_GEOMETRY_SIMD_DISTANCE_HPP
