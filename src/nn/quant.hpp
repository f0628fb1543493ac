/**
 * @file
 * Int8 quantization support for the inference GEMM path (DESIGN.md
 * §15): per-channel symmetric weight quantization, dynamic per-tensor
 * activation quantization, and the per-layer quantized-panel cache the
 * int8 microkernel in gemm.cpp consumes.
 *
 * Scheme. Weights are quantized per output channel to s8 with a
 * symmetric scale s_w[j] = max_k |W[k][j]| / 127; activations are
 * quantized per GEMM call to *7-bit* unsigned [0, 127] with an
 * asymmetric (scale, zero-point) pair computed from the tensor's
 * min/max. The 7-bit range is what makes the AVX2 kernel exact: the
 * `maddubs` instruction saturates its adjacent-pair i16 sums, and
 * 127 * 127 * 2 = 32258 <= 32767 guarantees no pair can saturate, so
 * the int32 accumulators hold the exact integer dot product. The
 * dequant epilogue recovers fp32 as
 *
 *   C[i][j] = s_a * s_w[j] * (acc[i][j] - z_a * colsum[j]) + bias[j]
 *
 * with colsum[j] = sum_k wq[k][j] precomputed at panel build, so
 * layer outputs (and checkpoints) stay fp32 end to end.
 *
 * Panel cache. Weight panels are quantized once and reused across
 * calls; Parameter has no mutation hook, so validity is keyed on a
 * 64-bit content hash of the weight bytes, recomputed per quantized
 * call (O(k*n), cheap next to the O(m*k*n) GEMM at the shapes that
 * take this path) — optimizer steps, deserialization and direct
 * data() writes all invalidate naturally.
 *
 * Dispatch: the run's EdgePcConfig::int8Gemm route (default Off;
 * EDGEPC_GEMM=int8 defaults it On) reaches each Linear by argument
 * (GemmRoute). On quantizes every inference call, Off none, and Auto
 * the shapes with m >= kQuantMinRows and k >= kQuantMinK. Training
 * forwards and every backward pass always run fp32 regardless.
 */

#ifndef EDGEPC_NN_QUANT_HPP
#define EDGEPC_NN_QUANT_HPP

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/dispatch.hpp"
#include "common/thread_annotations.hpp"
#include "nn/tensor.hpp"

namespace edgepc {
namespace nn {

enum class GemmEpilogue; // nn/gemm.hpp

/** Auto-heuristic floor: rows below this stay fp32 (the per-call
    activation-quantization pass would dominate skinny GEMMs). */
inline constexpr std::size_t kQuantMinRows = 32;

/** Auto-heuristic floor on the reduction dimension. */
inline constexpr std::size_t kQuantMinK = 64;

/**
 * Resolve the route of one inference GEMM of @p m rows and reduction
 * @p k: On and Off decide, Auto quantizes iff the shape clears the
 * kQuantMinRows/kQuantMinK floors.
 */
bool resolveQuantGemm(Route route, std::size_t m, std::size_t k);

// ---- packed-panel layout constants (shared with gemm.cpp) ----

/** Columns per quantized B panel (matches the fp32 kernel's NR). */
inline constexpr std::size_t kQuantNR = 16;

/** Reduction steps folded per maddubs quad. */
inline constexpr std::size_t kQuantKQ = 4;

/** Upper end of the 7-bit activation range. */
inline constexpr std::int32_t kQuantActMax = 127;

/** @p k rounded up to a whole number of maddubs quads. */
constexpr std::size_t
quantPaddedK(std::size_t k)
{
    return (k + kQuantKQ - 1) / kQuantKQ * kQuantKQ;
}

/**
 * Dynamic per-tensor activation quantization: a ~ (q - zeroPoint) *
 * scale with q in [0, 127]. invScale is the precomputed reciprocal
 * both the packing kernels and the scalar reference multiply by, so
 * every path rounds identically.
 */
struct ActQuant
{
    float scale = 1.0f;
    float invScale = 1.0f;
    std::int32_t zeroPoint = 0;
};

/**
 * Min/max pass over @p x[0, n) producing the 7-bit asymmetric
 * parameters. Constant tensors (max == min, including all-zero) get a
 * range wide enough to represent the constant exactly at some lattice
 * point. n == 0 returns the identity parameters.
 */
ActQuant computeActQuant(const float *x, std::size_t n);

/**
 * Derive the 7-bit parameters from an already-reduced [lo, hi] range
 * (min/max is exact and order-independent, so a vectorized reduction
 * feeding this matches computeActQuant bit for bit on finite inputs).
 */
ActQuant actQuantFromRange(float lo, float hi);

/** Quantize one activation: clamp(round(v * invScale) + z, 0, 127). */
inline std::uint8_t
quantizeAct(float v, const ActQuant &q)
{
    std::int32_t r =
        static_cast<std::int32_t>(std::lrintf(v * q.invScale)) +
        q.zeroPoint;
    r = r < 0 ? 0 : (r > kQuantActMax ? kQuantActMax : r);
    return static_cast<std::uint8_t>(r);
}

/**
 * One weight matrix quantized into the maddubs panel layout, immutable
 * after build. Panels are kQuantNR columns wide; within a panel,
 * reduction quad q occupies 64 bytes: columns j0..j0+7 each contribute
 * kQuantKQ consecutive k bytes (32 bytes, one vector load), then
 * columns j0+8..j0+15 (the second load). k is zero-padded to a whole
 * number of quads and n to a whole number of panels, so the kernel
 * never branches on remainders; padded weights are zero and padded
 * columns carry zero scale/colsum.
 */
struct QuantizedWeights
{
    std::size_t k = 0;       ///< Real reduction dimension.
    std::size_t n = 0;       ///< Real output channels.
    std::size_t kPadded = 0; ///< k rounded up to quads.
    std::size_t panels = 0;  ///< ceil(n / kQuantNR).
    /** panels * kPadded * kQuantNR bytes, 64-byte quad granules. */
    std::vector<std::int8_t> panelData;
    /** Per-channel symmetric scales, padded to panels * kQuantNR. */
    std::vector<float> colScale;
    /** Per-channel sums of quantized weights (zero-point correction). */
    std::vector<std::int32_t> colSum;
    /** Content hash of the fp32 weights this build came from. */
    std::uint64_t contentHash = 0;

    /** Byte offset of panel @p p in panelData. */
    std::size_t panelOffset(std::size_t p) const
    {
        return p * kPadded * kQuantNR;
    }
};

/** 64-bit content hash over the weight storage (8-byte block mix). */
std::uint64_t weightContentHash(const Matrix &w);

/**
 * Quantize @p w (k x n, output channels in columns) into the panel
 * layout. All-zero channels get scale 0 (every quantized weight and
 * the dequant product are exactly zero).
 */
std::shared_ptr<const QuantizedWeights>
buildQuantizedWeights(const Matrix &w);

/**
 * Per-layer cache of one QuantizedWeights build. get() rebuilds when
 * the weight content hash changes and is safe to call from concurrent
 * inference threads; the returned shared_ptr stays valid across a
 * concurrent rebuild.
 */
class QuantPanelCache
{
  public:
    /** The current panels for @p weight, (re)built as needed. */
    std::shared_ptr<const QuantizedWeights> get(const Matrix &weight)
        EDGEPC_EXCLUDES(mu);

    /** Panel builds performed (cache-invalidation observability). */
    std::uint64_t rebuilds() const EDGEPC_EXCLUDES(mu);

  private:
    // EDGEPC_LOCK_RANK(5): per-layer quantized-panel cache lock —
    // innermost leaf; taken under no other lock and holds none.
    mutable Mutex mu;
    std::shared_ptr<const QuantizedWeights> cached EDGEPC_GUARDED_BY(mu);
    std::uint64_t rebuildCount EDGEPC_GUARDED_BY(mu) = 0;
};

/**
 * Scalar integer reference for the whole quantized route: quantizes
 * @p a (m x wq.k) with @p aq, runs the plain triple loop over the
 * quantized operands and applies the dequant epilogue in the kernel's
 * float operation order. The AVX2 and tiled-scalar builds in gemm.cpp
 * are bit-exact against this on every shape; tests diff all three.
 * @p c is m x wq.n, overwritten.
 */
void quantizedGemmRef(const float *a, std::size_t m, const ActQuant &aq,
                      const QuantizedWeights &wq, float *c,
                      GemmEpilogue epilogue, const float *bias);

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_QUANT_HPP
