#include "geometry/simd_distance.hpp"

#include <bit>
#include <cstring>
#include <immintrin.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace edgepc {
namespace simd {

// ------------------------------------------------------------ dispatch

bool
simdAvailable()
{
    return cpuHasAvx2Fma();
}

bool
usingSimd()
{
    switch (kernelBuild(KernelFamily::Distance)) {
      case KernelBuild::Scalar:
        return false;
      case KernelBuild::Avx2:
        return true;
      case KernelBuild::Auto:
        break;
    }
    return simdAvailable();
}

const char *
activePathName()
{
    return usingSimd() ? "avx2-fma" : "scalar";
}

void
recordDispatch(std::uint64_t calls)
{
    static obs::Counter &fast =
        obs::MetricsRegistry::global().counter("simd.fast_calls");
    static obs::Counter &scalar =
        obs::MetricsRegistry::global().counter("simd.scalar_calls");
    (usingSimd() ? fast : scalar).add(calls);
}

bool
resolveFixedPointBall(Route route, float scale, float radius)
{
    switch (route) {
      case Route::On:
        return true;
      case Route::Off:
        return false;
      case Route::Auto:
        break;
    }
    return scale > 0.0f && scale * kFixedAutoFactor <= radius;
}

bool
resolveFixedPointKnn(Route route)
{
    // Auto is Off for k-NN: snap error reorders near-ties, so the
    // approximation is opt-in per run.
    return route == Route::On;
}

void
recordFixedDispatch(std::uint64_t calls)
{
    static obs::Counter &fixed =
        obs::MetricsRegistry::global().counter("simd.fixed_calls");
    fixed.add(calls);
}

// ------------------------------------------------------- scalar builds

namespace {

void
scalarSqDist(const float *xs, const float *ys, const float *zs,
             std::size_t n, const Vec3 &q, float *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = squaredDistance({xs[i], ys[i], zs[i]}, q);
    }
}

void
scalarMinUpdate(const float *xs, const float *ys, const float *zs,
                std::size_t n, const Vec3 &q, float *dist)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float d = squaredDistance({xs[i], ys[i], zs[i]}, q);
        if (d < dist[i]) {
            dist[i] = d;
        }
    }
}

void
scalarArgminUpdate(const float *dist, std::size_t n, std::uint32_t base,
                   float &best, std::uint32_t &best_idx)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (dist[i] < best) {
            best = dist[i];
            best_idx = base + static_cast<std::uint32_t>(i);
        }
    }
}

std::size_t
scalarArgmax(const float *dist, std::size_t n)
{
    std::size_t best_idx = 0;
    float best = dist[0];
    for (std::size_t i = 1; i < n; ++i) {
        if (dist[i] > best) {
            best = dist[i];
            best_idx = i;
        }
    }
    return best_idx;
}

std::size_t
scalarRadiusMask(const float *dist, std::size_t n, float r2,
                 std::uint64_t *mask)
{
    std::size_t count = 0;
    for (std::size_t w = 0; w * 64 < n; ++w) {
        const std::size_t hi = std::min(n, w * 64 + 64);
        std::uint64_t bits = 0;
        for (std::size_t i = w * 64; i < hi; ++i) {
            bits |= static_cast<std::uint64_t>(dist[i] <= r2) << (i % 64);
        }
        mask[w] = bits;
        count += static_cast<std::size_t>(std::popcount(bits));
    }
    return count;
}

void
scalarSqDistFixed(const std::int16_t *qxy, const std::int16_t *qzw,
                  std::size_t n, std::int16_t qx, std::int16_t qy,
                  std::int16_t qz, float *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t dx = std::int32_t{qxy[2 * i]} - qx;
        const std::int32_t dy = std::int32_t{qxy[2 * i + 1]} - qy;
        const std::int32_t dz = std::int32_t{qzw[2 * i]} - qz;
        // Exact: |d| < 2^15 per axis, so the sum stays below 2^31 and
        // the float conversion rounds identically to cvtepi32_ps.
        out[i] = static_cast<float>(dx * dx + dy * dy + dz * dz);
    }
}

std::size_t
scalarBelowMask(const float *dist, std::size_t n, float limit,
                std::uint64_t *mask)
{
    std::size_t count = 0;
    for (std::size_t w = 0; w * 64 < n; ++w) {
        const std::size_t hi = std::min(n, w * 64 + 64);
        std::uint64_t bits = 0;
        for (std::size_t i = w * 64; i < hi; ++i) {
            bits |= static_cast<std::uint64_t>(dist[i] < limit) << (i % 64);
        }
        mask[w] = bits;
        count += static_cast<std::size_t>(std::popcount(bits));
    }
    return count;
}

// --------------------------------------------------------- AVX2 builds
//
// Same arithmetic in the same order as the scalar builds (mul + add,
// never FMA; this file is compiled with -ffp-contract=off), so both
// dispatch paths produce bit-identical results.

__attribute__((target("avx2,fma"))) inline __m256
sqDist8(__m256 px, __m256 py, __m256 pz, __m256 qx, __m256 qy, __m256 qz)
{
    const __m256 dx = _mm256_sub_ps(px, qx);
    const __m256 dy = _mm256_sub_ps(py, qy);
    const __m256 dz = _mm256_sub_ps(pz, qz);
    return _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
}

__attribute__((target("avx2,fma"))) void
avx2SqDist(const float *xs, const float *ys, const float *zs,
           std::size_t n, const Vec3 &q, float *out)
{
    const __m256 qx = _mm256_set1_ps(q.x);
    const __m256 qy = _mm256_set1_ps(q.y);
    const __m256 qz = _mm256_set1_ps(q.z);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256 d =
            sqDist8(_mm256_loadu_ps(xs + i), _mm256_loadu_ps(ys + i),
                    _mm256_loadu_ps(zs + i), qx, qy, qz);
        _mm256_storeu_ps(out + i, d);
    }
    scalarSqDist(xs + i, ys + i, zs + i, n - i, q, out + i);
}

__attribute__((target("avx2,fma"))) void
avx2MinUpdate(const float *xs, const float *ys, const float *zs,
              std::size_t n, const Vec3 &q, float *dist)
{
    const __m256 qx = _mm256_set1_ps(q.x);
    const __m256 qy = _mm256_set1_ps(q.y);
    const __m256 qz = _mm256_set1_ps(q.z);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256 d =
            sqDist8(_mm256_loadu_ps(xs + i), _mm256_loadu_ps(ys + i),
                    _mm256_loadu_ps(zs + i), qx, qy, qz);
        const __m256 cur = _mm256_loadu_ps(dist + i);
        _mm256_storeu_ps(dist + i, _mm256_min_ps(d, cur));
    }
    scalarMinUpdate(xs + i, ys + i, zs + i, n - i, q, dist + i);
}

/** Horizontal max of 8 lanes. */
__attribute__((target("avx2,fma"))) inline float
hmax8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_max_ps(lo, hi);
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
}

/** Horizontal min of 8 lanes. */
__attribute__((target("avx2,fma"))) inline float
hmin8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_min_ps(lo, hi);
    lo = _mm_min_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_min_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
}

__attribute__((target("avx2,fma"))) void
avx2ArgminUpdate(const float *dist, std::size_t n, std::uint32_t base,
                 float &best, std::uint32_t &best_idx)
{
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256 v = _mm256_loadu_ps(dist + i);
        const float block_min = hmin8(v);
        if (block_min < best) {
            // First lane holding the block minimum — matches the
            // scalar scan's first-occurrence tie behavior.
            const int eq = _mm256_movemask_ps(
                _mm256_cmp_ps(v, _mm256_set1_ps(block_min), _CMP_EQ_OQ));
            best = block_min;
            best_idx = base + static_cast<std::uint32_t>(i) +
                       static_cast<std::uint32_t>(
                           std::countr_zero(static_cast<unsigned>(eq)));
        }
    }
    scalarArgminUpdate(dist + i, n - i,
                       base + static_cast<std::uint32_t>(i), best,
                       best_idx);
}

__attribute__((target("avx2,fma"))) std::size_t
avx2Argmax(const float *dist, std::size_t n)
{
    std::size_t best_idx = 0;
    float best = dist[0];
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256 v = _mm256_loadu_ps(dist + i);
        const float block_max = hmax8(v);
        if (block_max > best) {
            const int eq = _mm256_movemask_ps(
                _mm256_cmp_ps(v, _mm256_set1_ps(block_max), _CMP_EQ_OQ));
            best = block_max;
            best_idx = i + static_cast<std::size_t>(std::countr_zero(
                               static_cast<unsigned>(eq)));
        }
    }
    for (; i < n; ++i) {
        if (dist[i] > best) {
            best = dist[i];
            best_idx = i;
        }
    }
    return best_idx;
}

/**
 * Pack one 64-lane word of comparison bits; @p cmp is the AVX2
 * predicate (_CMP_LE_OQ / _CMP_LT_OQ).
 */
template <int cmp>
__attribute__((target("avx2,fma"))) inline std::uint64_t
maskWord64(const float *dist, __m256 limit)
{
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < 64 / kLanes; ++j) {
        const unsigned m =
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_loadu_ps(dist + j * kLanes), limit, cmp)));
        bits |= static_cast<std::uint64_t>(m) << (j * kLanes);
    }
    return bits;
}

__attribute__((target("avx2,fma"))) std::size_t
avx2RadiusMask(const float *dist, std::size_t n, float r2,
               std::uint64_t *mask)
{
    const __m256 limit = _mm256_set1_ps(r2);
    std::size_t count = 0;
    std::size_t i = 0;
    std::size_t w = 0;
    for (; i + 64 <= n; i += 64, ++w) {
        const std::uint64_t bits = maskWord64<_CMP_LE_OQ>(dist + i, limit);
        mask[w] = bits;
        count += static_cast<std::size_t>(std::popcount(bits));
    }
    return count + scalarRadiusMask(dist + i, n - i, r2, mask + w);
}

__attribute__((target("avx2"))) void
avx2SqDistFixed(const std::int16_t *qxy, const std::int16_t *qzw,
                std::size_t n, std::int16_t qx, std::int16_t qy,
                std::int16_t qz, float *out)
{
    // Broadcast the query as interleaved i16 pairs matching the
    // candidate layout: [qx,qy] x8 and [qz,0] x8.
    const std::uint32_t xy_bits =
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(qy))
         << 16) |
        static_cast<std::uint16_t>(qx);
    const __m256i qv_xy =
        _mm256_set1_epi32(static_cast<std::int32_t>(xy_bits));
    const __m256i qv_zw = _mm256_set1_epi32(
        static_cast<std::int32_t>(static_cast<std::uint16_t>(qz)));
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256i pxy = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(qxy + 2 * i));
        const __m256i pzw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(qzw + 2 * i));
        // |diff| <= kFixedPadQ + kFixedMaxQueryQ < 2^15: no i16 wrap.
        const __m256i dxy = _mm256_sub_epi16(pxy, qv_xy);
        const __m256i dzw = _mm256_sub_epi16(pzw, qv_zw);
        // madd pairs up dx*dx + dy*dy (and dz*dz + 0) per i32 lane.
        const __m256i d = _mm256_add_epi32(_mm256_madd_epi16(dxy, dxy),
                                           _mm256_madd_epi16(dzw, dzw));
        _mm256_storeu_ps(out + i, _mm256_cvtepi32_ps(d));
    }
    scalarSqDistFixed(qxy + 2 * i, qzw + 2 * i, n - i, qx, qy, qz,
                      out + i);
}

__attribute__((target("avx2,fma"))) std::size_t
avx2BelowMask(const float *dist, std::size_t n, float limit,
              std::uint64_t *mask)
{
    const __m256 lim = _mm256_set1_ps(limit);
    std::size_t count = 0;
    std::size_t i = 0;
    std::size_t w = 0;
    for (; i + 64 <= n; i += 64, ++w) {
        const std::uint64_t bits = maskWord64<_CMP_LT_OQ>(dist + i, lim);
        mask[w] = bits;
        count += static_cast<std::size_t>(std::popcount(bits));
    }
    return count + scalarBelowMask(dist + i, n - i, limit, mask + w);
}

} // namespace

// ------------------------------------------------------ public entry

void
batchSqDist(const float *xs, const float *ys, const float *zs,
            std::size_t n, const Vec3 &q, float *out)
{
    if (usingSimd()) {
        avx2SqDist(xs, ys, zs, n, q, out);
    } else {
        scalarSqDist(xs, ys, zs, n, q, out);
    }
}

void
batchMinUpdate(const float *xs, const float *ys, const float *zs,
               std::size_t n, const Vec3 &q, float *dist)
{
    if (usingSimd()) {
        avx2MinUpdate(xs, ys, zs, n, q, dist);
    } else {
        scalarMinUpdate(xs, ys, zs, n, q, dist);
    }
}

void
batchArgminUpdate(const float *dist, std::size_t n, std::uint32_t base,
                  float &best, std::uint32_t &best_idx)
{
    if (usingSimd()) {
        avx2ArgminUpdate(dist, n, base, best, best_idx);
    } else {
        scalarArgminUpdate(dist, n, base, best, best_idx);
    }
}

std::size_t
batchArgmax(const float *dist, std::size_t n)
{
    if (n == 0) {
        raise(ErrorCode::InvalidArgument, "batchArgmax: empty input");
    }
    return usingSimd() ? avx2Argmax(dist, n) : scalarArgmax(dist, n);
}

std::size_t
batchRadiusMask(const float *dist, std::size_t n, float r2,
                std::uint64_t *mask)
{
    return usingSimd() ? avx2RadiusMask(dist, n, r2, mask)
                       : scalarRadiusMask(dist, n, r2, mask);
}

std::size_t
batchBelowMask(const float *dist, std::size_t n, float limit,
               std::uint64_t *mask)
{
    return usingSimd() ? avx2BelowMask(dist, n, limit, mask)
                       : scalarBelowMask(dist, n, limit, mask);
}

void
batchSqDistFixed(const std::int16_t *qxy, const std::int16_t *qzw,
                 std::size_t n, std::int16_t qx, std::int16_t qy,
                 std::int16_t qz, float *out)
{
    if (usingSimd()) {
        avx2SqDistFixed(qxy, qzw, n, qx, qy, qz, out);
    } else {
        scalarSqDistFixed(qxy, qzw, n, qx, qy, qz, out);
    }
}

} // namespace simd
} // namespace edgepc
