/**
 * @file
 * Inference epilogue kernels: the element-wise work between GEMMs.
 *
 * A feature-compute stage is Linear -> BatchNorm -> activation ->
 * max-pool. The GEMM is packed and vectorized (gemm.hpp); everything
 * after it is memory-bound element-wise work, and this module is the
 * one place that work lives (DESIGN.md §10):
 *
 * - column mean and variance in the plain serial loop's order,
 *   spread over threads by columns, so the result does not depend on
 *   the thread count;
 * - normalize-and-activate, act(gamma * ((x - mean) * inv_std) + beta),
 *   in place or out of place;
 * - branchless ReLU / LeakyReLU;
 * - neighbor max-pool over groups of consecutive rows.
 *
 * Every body is written once and compiled twice: for the baseline ISA
 * and for AVX2 without FMA. Neither build contracts a multiply-add, so
 * the two give bit-identical results; the AVX2 build runs when the CPU
 * has it.
 */

#ifndef EDGEPC_NN_EPILOGUE_HPP
#define EDGEPC_NN_EPILOGUE_HPP

#include <cstddef>

namespace edgepc {
namespace nn {

/** The element-wise function an epilogue applies last. */
struct Activation
{
    enum class Kind
    {
        Identity,
        Relu,
        LeakyRelu,
    };

    Kind kind = Kind::Identity;
    /** Negative slope of LeakyRelu (ignored otherwise). */
    float slope = 0.0f;

    static Activation relu() { return {Kind::Relu, 0.0f}; }
    static Activation leakyRelu(float s) { return {Kind::LeakyRelu, s}; }
};

/**
 * Column mean and biased variance of a rows x cols row-major matrix,
 * with the arithmetic of the plain serial loop: each column summed in
 * row order from 0 and scaled by 1 / rows, then the same over squared
 * deviations from the mean. Columns are spread over the pool threads
 * in 16-column stripes, each column summed whole on one thread, so
 * the result does not depend on the thread count. Needs rows > 0.
 */
void columnMeanVar(const float *x, std::size_t rows, std::size_t cols,
                   float *mean, float *var);

/**
 * out = act(gamma * ((in - mean) * inv_std) + beta), per column, over
 * rows x cols; @p out may equal @p in.
 */
void normalizeActivate(const float *in, float *out, std::size_t rows,
                       std::size_t cols, const float *mean,
                       const float *inv_std, const float *gamma,
                       const float *beta, Activation act);

/** out[i] = act(in[i]) for i < n; @p out may equal @p in. */
void activate(const float *in, float *out, std::size_t n, Activation act);

/**
 * out[p] = element-wise max of rows [p * k, (p + 1) * k) of @p in, for
 * p < groups. Each step is `out = row > out ? row : out`, so ties keep
 * the earlier row and a NaN only survives in the first row.
 */
void maxPoolGroups(const float *in, std::size_t groups, std::size_t k,
                   std::size_t cols, float *out);

/**
 * One compiled build of the serial bodies behind the functions above.
 * Exposed so tests can check the two builds against each other.
 */
struct EpilogueKernels
{
    /**
     * columnMeanVar over columns c < width of a rows x width block
     * whose rows are @p stride floats apart, on the calling thread.
     */
    void (*columnMeanVar)(const float *x, std::size_t rows,
                          std::size_t stride, std::size_t width,
                          float *mean, float *var);
    void (*normalizeActivate)(const float *in, float *out,
                              std::size_t rows, std::size_t cols,
                              const float *mean, const float *inv_std,
                              const float *gamma, const float *beta,
                              Activation act);
    void (*activate)(const float *in, float *out, std::size_t n,
                     Activation act);
    void (*maxPoolGroups)(const float *in, std::size_t groups,
                          std::size_t k, std::size_t cols, float *out);
};

/** The baseline-ISA build. */
const EpilogueKernels &baselineEpilogueKernels();

/** The AVX2 build, or nullptr when the CPU lacks AVX2. */
const EpilogueKernels *avx2EpilogueKernels();

/** The build the parallel entry points run: AVX2 when available. */
const EpilogueKernels &epilogueKernels();

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_EPILOGUE_HPP
