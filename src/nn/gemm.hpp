/**
 * @file
 * Packed, register-blocked GEMM engine with fused epilogues,
 * modelling the CUDA-core vs Tensor-core split of the Jetson board
 * (Sec 5.4.1 / the S+N+F configuration of the paper).
 *
 * Both execution paths run the same packed algorithm: B is packed
 * once per call into cache-resident column panels (NR = 16 floats
 * wide, allocated from the thread-local ScratchArena so steady state
 * is zero-allocation), A is packed per 6-row block, and a 6x16
 * register-blocked microkernel accumulates the full K reduction in
 * registers before storing each tile exactly once. The "scalar" path
 * (the CUDA-core stand-in) runs a structured scalar microkernel that
 * is bit-exact with the classic in-order loop nest; the "fast" path
 * (the Tensor-core stand-in) runs the AVX2+FMA build of the same
 * tiling. Auto dispatch engages the fast path only when the reduction
 * (channel) dimension K reaches a threshold, reproducing the paper's
 * observation that thin channel dimensions leave the tensor cores
 * idle; utilization counters expose which path ran.
 *
 * Transpose-free variants (A*B^T and A^T*B) pack straight from the
 * transposed operand instead of materializing a transposed copy, so
 * the backward passes allocate nothing beyond their result. Fused
 * epilogues (bias add, bias+ReLU) are applied while each tile is
 * still in registers, collapsing Linear + activation into one pass
 * over C.
 *
 * An engine's policy (the CUDA-core vs Tensor-core model) is fixed
 * when it is constructed; each run picks the engine of its variant
 * and hands it down by argument (GemmRoute, DESIGN.md §9). Which
 * microkernel build executes the policy's choice is a per-process
 * setting (EDGEPC_GEMM=scalar|fast, common/dispatch.hpp), so A/B runs
 * and the bit-exactness tests can force either build without touching
 * any engine's policy.
 */

#ifndef EDGEPC_NN_GEMM_HPP
#define EDGEPC_NN_GEMM_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/dispatch.hpp"
#include "nn/tensor.hpp"

namespace edgepc {

class ScratchArena; // common/scratch_arena.hpp

namespace nn {

struct QuantizedWeights; // nn/quant.hpp

/** GEMM dispatch policy (the device model: which units run it). */
enum class GemmMode
{
    Scalar, ///< Always the generic-ISA path (CUDA-core model).
    Fast,   ///< Always the wide-MAC path (forced Tensor-core model).
    Auto,   ///< Fast path only when K >= the channel threshold.
};

/** Epilogue fused into the tile store of a GEMM call. */
enum class GemmEpilogue
{
    None,     ///< C = A * B.
    Bias,     ///< C = A * B + bias (bias broadcast over rows).
    BiasRelu, ///< C = max(0, A * B + bias).
};

/** Packed two-path GEMM with fused epilogues and dispatch statistics. */
class GemmEngine
{
  public:
    /**
     * Minimum reduction dimension for the fast path in Auto mode. On
     * the Jetson the tensor cores stay idle for thin channel dims; 16
     * (one tensor-core tile) models the observed cutoff.
     */
    static constexpr std::size_t kDefaultChannelThreshold = 16;

    explicit GemmEngine(GemmMode mode = GemmMode::Scalar,
                        std::size_t channel_threshold =
                            kDefaultChannelThreshold);

    /**
     * C = A * B with A: M x K, B: K x N, C: M x N (C overwritten).
     * Parallel over a 2-D (row-block x column-panel) tile grid.
     */
    void gemm(const float *a, const float *b, float *c, std::size_t m,
              std::size_t k, std::size_t n);

    /**
     * C = A * B with a fused epilogue: @p bias (length N, may be null
     * for GemmEpilogue::None) is added — and ReLU applied — while each
     * tile is still in registers, so Linear + activation is one pass
     * over C instead of three.
     */
    void gemm(const float *a, const float *b, float *c, std::size_t m,
              std::size_t k, std::size_t n, GemmEpilogue epilogue,
              const float *bias);

    /** C = A * B over Matrix operands; shapes validated. */
    Matrix multiply(const Matrix &a, const Matrix &b);

    /** C = A * B + epilogue; @p bias is 1 x N (ignored for None). */
    Matrix multiply(const Matrix &a, const Matrix &b,
                    GemmEpilogue epilogue, const Matrix &bias);

    /**
     * C = A * B^T with A: M x K, B: N x K (used by backward passes).
     * Transpose-free: packs straight from B's rows, no materialized
     * transpose.
     */
    Matrix multiplyTransposed(const Matrix &a, const Matrix &b);

    /**
     * C = A^T * B with A: K x M, B: K x N (weight gradients).
     * Transpose-free: packs straight from A's columns.
     */
    Matrix multiplyLeftTransposed(const Matrix &a, const Matrix &b);

    /**
     * out += A^T * B without any temporary: the weight-gradient
     * accumulation of Linear::backward in one pass.
     */
    void multiplyLeftTransposedAdd(const Matrix &a, const Matrix &b,
                                   Matrix &out);

    /**
     * C = dequant(quant(A) * Wq) — the int8 inference route
     * (DESIGN.md §15). A (M x Wq.k) is quantized per call with
     * dynamic 7-bit per-tensor parameters; @p wq comes from a
     * QuantPanelCache build. The dequant(+Bias/BiasRelu) epilogue is
     * always fused into the tile store (the int32 accumulators have
     * to be rescaled while hot anyway), so the output is fp32 and
     * bit-exact across the AVX2 and scalar-int builds.
     */
    Matrix multiplyQuantized(const Matrix &a, const QuantizedWeights &wq,
                             GemmEpilogue epilogue, const Matrix &bias);

    /** Raw-pointer flavour of multiplyQuantized; @p c is m x wq.n. */
    void gemmQuantized(const float *a, std::size_t m,
                       const QuantizedWeights &wq, float *c,
                       GemmEpilogue epilogue, const float *bias);

    GemmMode mode() const { return policy; }

    /** Calls dispatched to the fast (tensor-core) path. */
    std::uint64_t fastPathCalls() const
    {
        return fastCalls.load(std::memory_order_relaxed);
    }

    /** Calls dispatched to the scalar (CUDA-core) path. */
    std::uint64_t scalarPathCalls() const
    {
        return scalarCalls.load(std::memory_order_relaxed);
    }

    /** Fraction of calls that used the fast path (utilization proxy). */
    double fastPathUtilization() const;

    /** Reset the dispatch counters. */
    void resetStats();

    /**
     * The process's engine for @p mode: one per policy, so the runs of
     * one variant share its fast/scalar call counts. Runs pick theirs
     * through EdgePcConfig::gemmRoute().
     */
    static GemmEngine &shared(GemmMode mode);

    /** True when the host CPU supports the AVX2+FMA microkernel. */
    static bool fastKernelAvailable();

    /** True when the host CPU supports the AVX2 maddubs microkernel
        (AVX2 only — the int8 path needs no FMA). */
    static bool int8KernelAvailable();

    /**
     * "avx2-fma" or "scalar": the build the fast path resolves to under
     * the process's GEMM build — echoed as config.gemm_path.
     */
    static const char *activeKernelName();

    /**
     * "avx2-int8" or "scalar-int8": the build gemmQuantized resolves
     * to under the process's GEMM build — echoed as
     * config.gemm_int8_kernel.
     */
    static const char *int8KernelName();

  private:
    /**
     * Shared core: policy resolution, counters, then the packed
     * kernel over (possibly transposed) operands.
     */
    void run(const float *a, bool a_transposed, const float *b,
             bool b_transposed, float *c, std::size_t m, std::size_t k,
             std::size_t n, GemmEpilogue epilogue, const float *bias,
             bool accumulate);

    friend class PackedTransposedB;

    /** The policy's fast/scalar decision for reduction @p k. */
    bool policyFast(std::size_t k) const;

    GemmMode policy;
    std::size_t channelThreshold;
    // Relaxed atomics: threads inferring at once share an engine, and
    // the counts order nothing.
    std::atomic<std::uint64_t> fastCalls{0};
    std::atomic<std::uint64_t> scalarCalls{0};
};

/**
 * The GEMM half of a run's routes (DESIGN.md §9), handed down by
 * argument from each model entry point: the engine whose policy the
 * run's variant picked, and the run's int8 route. Only inference reads
 * int8; training forwards and every backward pass run fp32.
 */
struct GemmRoute
{
    GemmEngine &engine;
    Route int8 = Route::Off;
};

/**
 * The right operand of C = A * B^T packed once into the microkernel's
 * column panels, for many row tiles multiplied against the same B: the
 * feature-space k-NN's distance GEMM (DESIGN.md §16). Row j of B is
 * packed as b_j − shift, so a caller can center B without a copy of
 * its own. The panels live in the given ScratchArena's current Frame.
 *
 * A product runs the packed microkernel on its calling thread (no pool
 * launch), so pool workers may multiply their own row tiles against one
 * shared packing. The build is the one @p engine picks for reduction K
 * (policy, threshold and the process's GEMM build), always fp32, but
 * outside the layer-GEMM accounting: no nn/gemm span, no gemm.*
 * counters, no fast/scalar call counts.
 */
class PackedTransposedB
{
  public:
    /** Pack B (@p n x @p k, row-major) minus @p shift (length @p k)
        into @p arena. */
    PackedTransposedB(const GemmEngine &engine, const float *b,
                      std::size_t n, std::size_t k, const float *shift,
                      ScratchArena &arena);

    /** out[j] = ‖b_j − shift‖² for every row, each summed in k order
        over the packed values the products read. */
    void rowSquaredNorms(float *out) const;

    /**
     * C (@p m x n, row stride n) = A (@p m x k, row-major) * B^T +
     * @p bias (length n), on the calling thread.
     */
    void multiply(const float *a, std::size_t m, const float *bias,
                  float *c) const;

  private:
    const float *panels;
    std::size_t rows;
    std::size_t depth;
    bool useFma;
};

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_GEMM_HPP
