#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <immintrin.h>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "nn/quant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace nn {

GemmEngine::GemmEngine(GemmMode mode, std::size_t channel_threshold)
    : policy(mode), channelThreshold(channel_threshold)
{
}

namespace {

/// Microkernel rows: 6 broadcast lanes keep 12 of 16 ymm registers as
/// accumulators with room for two B loads and the A broadcast.
constexpr std::size_t kMR = 6;

/// Microkernel columns: one packed B panel is two ymm vectors wide, so
/// a panel row (64 bytes) is exactly one cache line.
constexpr std::size_t kNR = 16;

/// Rows per tile-grid block: 8 microkernel blocks, sized so the packed
/// A block plus one B panel stay cache resident while C streams.
constexpr std::size_t kMC = 8 * kMR;

/// Column-register blocking of the small-M (GEMV-like) fast kernel.
constexpr std::size_t kSmallMJB = 64;

bool
fmaAvailable()
{
    return cpuHasAvx2Fma();
}

bool
int8Available()
{
    // maddubs/madd are AVX2; the int8 kernel needs no FMA.
    return cpuHasAvx2();
}

/** Whether a call the policy sent to the fast (or scalar) path runs the
 *  AVX2+FMA build under the process's GEMM build. */
bool
fmaBuildForPolicy(bool fast)
{
    switch (kernelBuild(KernelFamily::Gemm)) {
      case KernelBuild::Scalar:
        return false;
      case KernelBuild::Avx2:
        return fmaAvailable();
      case KernelBuild::Auto:
        break;
    }
    return fast && fmaAvailable();
}

/**
 * Pack one B column panel (kNR columns starting at panel * kNR) into
 * panel-major layout: dst[kk * kNR + jj], zero-padded to kNR columns so
 * the microkernel never branches on N remainders. The transposed
 * flavour reads B stored as N x K (operand of A * B^T) straight from
 * its rows — no materialized transpose.
 */
inline void
packBPanel(const float *__restrict b, bool b_transposed, std::size_t k,
           std::size_t n, std::size_t ldb, std::size_t panel,
           float *__restrict dst)
{
    const std::size_t j0 = panel * kNR;
    const std::size_t cols = std::min(kNR, n - j0);
    if (!b_transposed) {
        // EDGEPC_HOT: panel pack, contiguous row copies.
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float *src = b + kk * ldb + j0;
            float *d = dst + kk * kNR;
            for (std::size_t jj = 0; jj < cols; ++jj) {
                d[jj] = src[jj];
            }
            for (std::size_t jj = cols; jj < kNR; ++jj) {
                d[jj] = 0.0f;
            }
        }
        return;
    }
    // EDGEPC_HOT: transposed panel pack, contiguous reads of B's rows.
    for (std::size_t jj = 0; jj < cols; ++jj) {
        const float *src = b + (j0 + jj) * ldb;
        for (std::size_t kk = 0; kk < k; ++kk) {
            dst[kk * kNR + jj] = src[kk];
        }
    }
    for (std::size_t jj = cols; jj < kNR; ++jj) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            dst[kk * kNR + jj] = 0.0f;
        }
    }
}

/**
 * Pack one A row block (kMR rows starting at i0) into k-major layout:
 * dst[kk * kMR + ii], zero-padded to kMR rows. The transposed flavour
 * reads A stored as K x M (operand of A^T * B) straight from its rows.
 */
inline void
packABlock(const float *__restrict a, bool a_transposed, std::size_t k,
           std::size_t lda, std::size_t i0, std::size_t rows,
           float *__restrict dst)
{
    if (!a_transposed) {
        if (rows == kMR) {
            // EDGEPC_HOT: full-height pack, six streaming read
            // cursors and contiguous writes (one kMR group per kk).
            const float *r0 = a + (i0 + 0) * lda;
            const float *r1 = a + (i0 + 1) * lda;
            const float *r2 = a + (i0 + 2) * lda;
            const float *r3 = a + (i0 + 3) * lda;
            const float *r4 = a + (i0 + 4) * lda;
            const float *r5 = a + (i0 + 5) * lda;
            for (std::size_t kk = 0; kk < k; ++kk) {
                float *d = dst + kk * kMR;
                d[0] = r0[kk];
                d[1] = r1[kk];
                d[2] = r2[kk];
                d[3] = r3[kk];
                d[4] = r4[kk];
                d[5] = r5[kk];
            }
            return;
        }
        // EDGEPC_HOT: remainder row-block pack.
        for (std::size_t kk = 0; kk < k; ++kk) {
            float *d = dst + kk * kMR;
            for (std::size_t ii = 0; ii < rows; ++ii) {
                d[ii] = a[(i0 + ii) * lda + kk];
            }
        }
    } else {
        // EDGEPC_HOT: transposed row-block pack, contiguous per kk.
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float *src = a + kk * lda + i0;
            float *d = dst + kk * kMR;
            for (std::size_t ii = 0; ii < rows; ++ii) {
                d[ii] = src[ii];
            }
        }
    }
    for (std::size_t ii = rows; ii < kMR; ++ii) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            dst[kk * kMR + ii] = 0.0f;
        }
    }
}

/**
 * Structured scalar microkernel (the CUDA-core stand-in): one
 * accumulator per C element, k strictly ascending, so with FP
 * contraction off it is bit-exact with the classic in-order loop nest.
 */
inline void
microKernelScalar(const float *__restrict apack,
                  const float *__restrict bpanel, std::size_t k,
                  float *__restrict acc)
{
    for (std::size_t i = 0; i < kMR * kNR; ++i) {
        acc[i] = 0.0f;
    }
    // EDGEPC_HOT: full-K register-tile accumulation. Two rows at a
    // time: 2 x kNR accumulators fit the baseline vector register
    // file, so they stay in registers across the whole K loop and
    // each packed B row is loaded once per pair.
    for (std::size_t ii = 0; ii < kMR; ii += 2) {
        float *acc0 = acc + ii * kNR;
        float *acc1 = acc + (ii + 1) * kNR;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av0 = apack[kk * kMR + ii];
            const float av1 = apack[kk * kMR + ii + 1];
            const float *brow = bpanel + kk * kNR;
            for (std::size_t jj = 0; jj < kNR; ++jj) {
                acc0[jj] += av0 * brow[jj];
                acc1[jj] += av1 * brow[jj];
            }
        }
    }
}

/**
 * 6x16 AVX2+FMA microkernel (the Tensor-core stand-in): 12 ymm
 * accumulators, two B vector loads and one A broadcast per k step; the
 * full K reduction stays in registers.
 */
__attribute__((target("avx2,fma"))) void
microKernelFma(const float *__restrict apack,
               const float *__restrict bpanel, std::size_t k,
               float *__restrict acc)
{
    __m256 c0a = _mm256_setzero_ps();
    __m256 c0b = _mm256_setzero_ps();
    __m256 c1a = _mm256_setzero_ps();
    __m256 c1b = _mm256_setzero_ps();
    __m256 c2a = _mm256_setzero_ps();
    __m256 c2b = _mm256_setzero_ps();
    __m256 c3a = _mm256_setzero_ps();
    __m256 c3b = _mm256_setzero_ps();
    __m256 c4a = _mm256_setzero_ps();
    __m256 c4b = _mm256_setzero_ps();
    __m256 c5a = _mm256_setzero_ps();
    __m256 c5b = _mm256_setzero_ps();
    // EDGEPC_HOT: full-K register-tile accumulation.
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *arow = apack + kk * kMR;
        const __m256 b0 = _mm256_load_ps(bpanel + kk * kNR);
        const __m256 b1 = _mm256_load_ps(bpanel + kk * kNR + 8);
        __m256 av = _mm256_broadcast_ss(arow + 0);
        c0a = _mm256_fmadd_ps(av, b0, c0a);
        c0b = _mm256_fmadd_ps(av, b1, c0b);
        av = _mm256_broadcast_ss(arow + 1);
        c1a = _mm256_fmadd_ps(av, b0, c1a);
        c1b = _mm256_fmadd_ps(av, b1, c1b);
        av = _mm256_broadcast_ss(arow + 2);
        c2a = _mm256_fmadd_ps(av, b0, c2a);
        c2b = _mm256_fmadd_ps(av, b1, c2b);
        av = _mm256_broadcast_ss(arow + 3);
        c3a = _mm256_fmadd_ps(av, b0, c3a);
        c3b = _mm256_fmadd_ps(av, b1, c3b);
        av = _mm256_broadcast_ss(arow + 4);
        c4a = _mm256_fmadd_ps(av, b0, c4a);
        c4b = _mm256_fmadd_ps(av, b1, c4b);
        av = _mm256_broadcast_ss(arow + 5);
        c5a = _mm256_fmadd_ps(av, b0, c5a);
        c5b = _mm256_fmadd_ps(av, b1, c5b);
    }
    _mm256_store_ps(acc + 0 * kNR, c0a);
    _mm256_store_ps(acc + 0 * kNR + 8, c0b);
    _mm256_store_ps(acc + 1 * kNR, c1a);
    _mm256_store_ps(acc + 1 * kNR + 8, c1b);
    _mm256_store_ps(acc + 2 * kNR, c2a);
    _mm256_store_ps(acc + 2 * kNR + 8, c2b);
    _mm256_store_ps(acc + 3 * kNR, c3a);
    _mm256_store_ps(acc + 3 * kNR + 8, c3b);
    _mm256_store_ps(acc + 4 * kNR, c4a);
    _mm256_store_ps(acc + 4 * kNR + 8, c4b);
    _mm256_store_ps(acc + 5 * kNR, c5a);
    _mm256_store_ps(acc + 5 * kNR + 8, c5b);
}

/**
 * Full-tile FMA microkernel: same 6x16 register tile, but the
 * epilogue is applied and the result stored straight from the
 * accumulator registers — no scratch round trip. Used whenever the
 * tile has no M or N remainder (the overwhelmingly common case).
 */
__attribute__((target("avx2,fma"))) void
microKernelFmaFull(const float *__restrict apack,
                   const float *__restrict bpanel, std::size_t k,
                   float *__restrict c, std::size_t ldc,
                   const float *__restrict bias, GemmEpilogue epilogue,
                   bool accumulate)
{
    __m256 c0a = _mm256_setzero_ps();
    __m256 c0b = _mm256_setzero_ps();
    __m256 c1a = _mm256_setzero_ps();
    __m256 c1b = _mm256_setzero_ps();
    __m256 c2a = _mm256_setzero_ps();
    __m256 c2b = _mm256_setzero_ps();
    __m256 c3a = _mm256_setzero_ps();
    __m256 c3b = _mm256_setzero_ps();
    __m256 c4a = _mm256_setzero_ps();
    __m256 c4b = _mm256_setzero_ps();
    __m256 c5a = _mm256_setzero_ps();
    __m256 c5b = _mm256_setzero_ps();
    // EDGEPC_HOT: full-K register-tile accumulation.
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *arow = apack + kk * kMR;
        const __m256 b0 = _mm256_load_ps(bpanel + kk * kNR);
        const __m256 b1 = _mm256_load_ps(bpanel + kk * kNR + 8);
        __m256 av = _mm256_broadcast_ss(arow + 0);
        c0a = _mm256_fmadd_ps(av, b0, c0a);
        c0b = _mm256_fmadd_ps(av, b1, c0b);
        av = _mm256_broadcast_ss(arow + 1);
        c1a = _mm256_fmadd_ps(av, b0, c1a);
        c1b = _mm256_fmadd_ps(av, b1, c1b);
        av = _mm256_broadcast_ss(arow + 2);
        c2a = _mm256_fmadd_ps(av, b0, c2a);
        c2b = _mm256_fmadd_ps(av, b1, c2b);
        av = _mm256_broadcast_ss(arow + 3);
        c3a = _mm256_fmadd_ps(av, b0, c3a);
        c3b = _mm256_fmadd_ps(av, b1, c3b);
        av = _mm256_broadcast_ss(arow + 4);
        c4a = _mm256_fmadd_ps(av, b0, c4a);
        c4b = _mm256_fmadd_ps(av, b1, c4b);
        av = _mm256_broadcast_ss(arow + 5);
        c5a = _mm256_fmadd_ps(av, b0, c5a);
        c5b = _mm256_fmadd_ps(av, b1, c5b);
    }
    const __m256 zero = _mm256_setzero_ps();
    __m256 bias0 = zero;
    __m256 bias1 = zero;
    if (epilogue != GemmEpilogue::None) {
        bias0 = _mm256_loadu_ps(bias);
        bias1 = _mm256_loadu_ps(bias + 8);
    }
    float *crow = c;
    __m256 va = c0a;
    __m256 vb = c0b;
    // EDGEPC_HOT: register-direct tile store + fused epilogue.
    for (std::size_t ii = 0; ii < kMR; ++ii) {
        switch (ii) {
          case 0:
            va = c0a;
            vb = c0b;
            break;
          case 1:
            va = c1a;
            vb = c1b;
            break;
          case 2:
            va = c2a;
            vb = c2b;
            break;
          case 3:
            va = c3a;
            vb = c3b;
            break;
          case 4:
            va = c4a;
            vb = c4b;
            break;
          default:
            va = c5a;
            vb = c5b;
            break;
        }
        if (accumulate) {
            va = _mm256_add_ps(va, _mm256_loadu_ps(crow));
            vb = _mm256_add_ps(vb, _mm256_loadu_ps(crow + 8));
        }
        if (epilogue != GemmEpilogue::None) {
            va = _mm256_add_ps(va, bias0);
            vb = _mm256_add_ps(vb, bias1);
            if (epilogue == GemmEpilogue::BiasRelu) {
                va = _mm256_max_ps(va, zero);
                vb = _mm256_max_ps(vb, zero);
            }
        }
        _mm256_storeu_ps(crow, va);
        _mm256_storeu_ps(crow + 8, vb);
        crow += ldc;
    }
}

/**
 * Store one accumulated tile into C with the fused epilogue applied
 * while the tile is still hot. Baseline-ISA build, also the remainder
 * path of the vectorized store below. The bias add is a single plain
 * add per element — identical arithmetic to a separate bias pass.
 */
inline void
storeTileScalar(const float *__restrict acc, float *__restrict c,
                std::size_t n, std::size_t i0, std::size_t j0,
                std::size_t rows, std::size_t cols,
                const float *__restrict bias, GemmEpilogue epilogue,
                bool accumulate)
{
    // EDGEPC_HOT: tile store + fused epilogue.
    for (std::size_t ii = 0; ii < rows; ++ii) {
        float *crow = c + (i0 + ii) * n + j0;
        const float *accrow = acc + ii * kNR;
        for (std::size_t jj = 0; jj < cols; ++jj) {
            float v = accrow[jj];
            if (accumulate) {
                v += crow[jj];
            }
            if (epilogue != GemmEpilogue::None) {
                v += bias[jj];
                if (epilogue == GemmEpilogue::BiasRelu) {
                    v = v > 0.0f ? v : 0.0f;
                }
            }
            crow[jj] = v;
        }
    }
}

/** Vectorized tile store for the FMA path (full-width panels). */
__attribute__((target("avx2,fma"))) void
storeTileFma(const float *__restrict acc, float *__restrict c,
             std::size_t n, std::size_t i0, std::size_t j0,
             std::size_t rows, std::size_t cols,
             const float *__restrict bias, GemmEpilogue epilogue,
             bool accumulate)
{
    if (cols != kNR) {
        storeTileScalar(acc, c, n, i0, j0, rows, cols, bias, epilogue,
                        accumulate);
        return;
    }
    const __m256 zero = _mm256_setzero_ps();
    __m256 bias0 = zero;
    __m256 bias1 = zero;
    if (epilogue != GemmEpilogue::None) {
        bias0 = _mm256_loadu_ps(bias);
        bias1 = _mm256_loadu_ps(bias + 8);
    }
    // EDGEPC_HOT: tile store + fused epilogue.
    for (std::size_t ii = 0; ii < rows; ++ii) {
        float *crow = c + (i0 + ii) * n + j0;
        __m256 v0 = _mm256_load_ps(acc + ii * kNR);
        __m256 v1 = _mm256_load_ps(acc + ii * kNR + 8);
        if (accumulate) {
            v0 = _mm256_add_ps(v0, _mm256_loadu_ps(crow));
            v1 = _mm256_add_ps(v1, _mm256_loadu_ps(crow + 8));
        }
        if (epilogue != GemmEpilogue::None) {
            v0 = _mm256_add_ps(v0, bias0);
            v1 = _mm256_add_ps(v1, bias1);
            if (epilogue == GemmEpilogue::BiasRelu) {
                v0 = _mm256_max_ps(v0, zero);
                v1 = _mm256_max_ps(v1, zero);
            }
        }
        _mm256_storeu_ps(crow, v0);
        _mm256_storeu_ps(crow + 8, v1);
    }
}

/** Everything one tile-grid worker needs; captured as one reference so
 *  the parallelFor closure stays inside std::function's inline buffer
 *  (no heap allocation per call). */
struct PackedGemmCtx
{
    const float *a;
    bool aTransposed;
    std::size_t lda;
    const float *bpack;
    float *c;
    std::size_t m;
    std::size_t k;
    std::size_t n;
    std::size_t panels;
    std::size_t groups;
    std::size_t panelsPerGroup;
    GemmEpilogue epilogue;
    const float *bias;
    bool accumulate;
    bool useFma;
};

/** One chunk of the 2-D (row-block x column-panel-group) tile grid. */
void
runTileChunk(const PackedGemmCtx &ctx, std::size_t lo, std::size_t hi)
{
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    float *apack = arena.alloc<float>(kMR * ctx.k).data();
    alignas(32) float acc[kMR * kNR];
    std::size_t packedBlock = ctx.m; // row block currently in apack
    for (std::size_t t = lo; t < hi; ++t) {
        const std::size_t ib = t / ctx.groups;
        const std::size_t g = t % ctx.groups;
        const std::size_t row_lo = ib * kMC;
        const std::size_t row_hi = std::min(ctx.m, row_lo + kMC);
        const std::size_t p_lo = g * ctx.panelsPerGroup;
        const std::size_t p_hi =
            std::min(ctx.panels, p_lo + ctx.panelsPerGroup);
        if (p_lo >= p_hi) {
            continue;
        }
        for (std::size_t i0 = row_lo; i0 < row_hi; i0 += kMR) {
            const std::size_t rows = std::min(kMR, row_hi - i0);
            if (packedBlock != i0) {
                packABlock(ctx.a, ctx.aTransposed, ctx.k, ctx.lda, i0,
                           rows, apack);
                packedBlock = i0;
            }
            for (std::size_t p = p_lo; p < p_hi; ++p) {
                const float *bpanel = ctx.bpack + p * ctx.k * kNR;
                const std::size_t j0 = p * kNR;
                const std::size_t cols = std::min(kNR, ctx.n - j0);
                const float *bias =
                    ctx.bias != nullptr ? ctx.bias + j0 : nullptr;
                if (ctx.useFma) {
                    if (rows == kMR && cols == kNR) {
                        microKernelFmaFull(apack, bpanel, ctx.k,
                                           ctx.c + i0 * ctx.n + j0,
                                           ctx.n, bias, ctx.epilogue,
                                           ctx.accumulate);
                        continue;
                    }
                    microKernelFma(apack, bpanel, ctx.k, acc);
                    storeTileFma(acc, ctx.c, ctx.n, i0, j0, rows, cols,
                                 bias, ctx.epilogue, ctx.accumulate);
                } else {
                    microKernelScalar(apack, bpanel, ctx.k, acc);
                    storeTileScalar(acc, ctx.c, ctx.n, i0, j0, rows, cols,
                                    bias, ctx.epilogue, ctx.accumulate);
                }
            }
        }
    }
}

/**
 * Streaming small-M kernel, scalar build: for M below the microkernel
 * height, packing B would touch every element of B for almost no
 * reuse, so stream the operands instead. Accumulation order per C
 * element is k-ascending with one accumulator — bit-exact with the
 * classic nest.
 */
void
smallMScalar(const float *__restrict a, bool a_transposed,
             std::size_t lda, const float *__restrict b,
             bool b_transposed, std::size_t ldb, float *__restrict c,
             std::size_t m, std::size_t k, std::size_t n,
             GemmEpilogue epilogue, const float *__restrict bias,
             bool accumulate)
{
    if (!b_transposed) {
        // The classic cache-tiled nest, accumulating straight into C:
        // the k tiling keeps B access confined to a 64-row band at a
        // time (prefetcher-friendly), and per C element the k order
        // is strictly ascending, so the result is bit-exact with the
        // packed scalar microkernel.
        constexpr std::size_t tile_k = 64;
        constexpr std::size_t tile_n = 64;
        if (!accumulate) {
            for (std::size_t i = 0; i < m; ++i) {
                std::memset(c + i * n, 0, n * sizeof(float));
            }
        }
        // EDGEPC_HOT: cache-tiled streaming accumulation.
        for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
            const std::size_t kend = std::min(k, k0 + tile_k);
            for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
                const std::size_t jend = std::min(n, j0 + tile_n);
                for (std::size_t i = 0; i < m; ++i) {
                    float *crow = c + i * n;
                    for (std::size_t kk = k0; kk < kend; ++kk) {
                        const float av = a_transposed ? a[kk * lda + i]
                                                      : a[i * lda + kk];
                        const float *brow = b + kk * ldb;
                        for (std::size_t j = j0; j < jend; ++j) {
                            crow[j] += av * brow[j];
                        }
                    }
                }
            }
        }
    } else {
        // B stored N x K: contiguous dot products per column.
        // EDGEPC_HOT: streaming dot-product accumulation.
        for (std::size_t i = 0; i < m; ++i) {
            float *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j) {
                const float *brow = b + j * ldb;
                float s = 0.0f;
                for (std::size_t kk = 0; kk < k; ++kk) {
                    const float av =
                        a_transposed ? a[kk * lda + i] : a[i * lda + kk];
                    s += av * brow[kk];
                }
                crow[j] = accumulate ? crow[j] + s : s;
            }
        }
    }
    if (epilogue != GemmEpilogue::None) {
        for (std::size_t i = 0; i < m; ++i) {
            float *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j) {
                float v = crow[j] + bias[j];
                if (epilogue == GemmEpilogue::BiasRelu) {
                    v = v > 0.0f ? v : 0.0f;
                }
                crow[j] = v;
            }
        }
    }
}

/**
 * Streaming small-M kernel, FMA build (B not transposed): register-
 * blocks 64 output columns in 8 ymm accumulators per row, so B is
 * streamed once per row with no intermediate C traffic — the M = 1
 * classifier head runs at load-port speed instead of store speed.
 */
__attribute__((target("avx2,fma"))) void
smallMFma(const float *__restrict a, bool a_transposed, std::size_t lda,
          const float *__restrict b, float *__restrict c, std::size_t m,
          std::size_t k, std::size_t n, GemmEpilogue epilogue,
          const float *__restrict bias, bool accumulate)
{
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        const float *acol = a_transposed ? a + i : a + i * lda;
        const std::size_t astride = a_transposed ? lda : 1;
        std::size_t j0 = 0;
        // EDGEPC_HOT: column-register-blocked streaming accumulation.
        for (; j0 + kSmallMJB <= n; j0 += kSmallMJB) {
            __m256 s0 = zero;
            __m256 s1 = zero;
            __m256 s2 = zero;
            __m256 s3 = zero;
            __m256 s4 = zero;
            __m256 s5 = zero;
            __m256 s6 = zero;
            __m256 s7 = zero;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const __m256 av = _mm256_broadcast_ss(acol + kk * astride);
                const float *brow = b + kk * n + j0;
                s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), s0);
                s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), s1);
                s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), s2);
                s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), s3);
                s4 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 32), s4);
                s5 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 40), s5);
                s6 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 48), s6);
                s7 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 56), s7);
            }
            alignas(32) float tile[kSmallMJB];
            _mm256_store_ps(tile, s0);
            _mm256_store_ps(tile + 8, s1);
            _mm256_store_ps(tile + 16, s2);
            _mm256_store_ps(tile + 24, s3);
            _mm256_store_ps(tile + 32, s4);
            _mm256_store_ps(tile + 40, s5);
            _mm256_store_ps(tile + 48, s6);
            _mm256_store_ps(tile + 56, s7);
            for (std::size_t jj = 0; jj < kSmallMJB; ++jj) {
                float v = tile[jj];
                if (accumulate) {
                    v += crow[j0 + jj];
                }
                if (epilogue != GemmEpilogue::None) {
                    v += bias[j0 + jj];
                    if (epilogue == GemmEpilogue::BiasRelu) {
                        v = v > 0.0f ? v : 0.0f;
                    }
                }
                crow[j0 + jj] = v;
            }
        }
        for (; j0 < n; ++j0) {
            float s = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                s += acol[kk * astride] * b[kk * n + j0];
            }
            if (accumulate) {
                s += crow[j0];
            }
            if (epilogue != GemmEpilogue::None) {
                s += bias[j0];
                if (epilogue == GemmEpilogue::BiasRelu) {
                    s = s > 0.0f ? s : 0.0f;
                }
            }
            crow[j0] = s;
        }
    }
}

/**
 * The packed GEMM driver: pack B once into cache-resident column
 * panels (thread-local arena, reused across all row blocks), then walk
 * a 2-D (row-block x column-panel-group) tile grid in parallel. Column
 * groups only split off when there are too few row blocks to feed the
 * pool, so results never depend on the thread count (each C tile has
 * exactly one writer).
 */
void
gemmPacked(const float *a, bool a_transposed, const float *b,
           bool b_transposed, float *c, std::size_t m, std::size_t k,
           std::size_t n, GemmEpilogue epilogue, const float *bias,
           bool accumulate, bool use_fma)
{
    const std::size_t lda = a_transposed ? m : k;
    const std::size_t ldb = b_transposed ? k : n;
    if (m < kMR) {
        // Packing B would touch all of B for < kMR rows of reuse.
        if (use_fma && !b_transposed) {
            smallMFma(a, a_transposed, lda, b, c, m, k, n, epilogue, bias,
                      accumulate);
        } else {
            smallMScalar(a, a_transposed, lda, b, b_transposed, ldb, c, m,
                         k, n, epilogue, bias, accumulate);
        }
        return;
    }

    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    const std::size_t panels = (n + kNR - 1) / kNR;
    float *bpack = arena.alloc<float>(panels * k * kNR).data();
    for (std::size_t p = 0; p < panels; ++p) {
        packBPanel(b, b_transposed, k, n, ldb, p, bpack + p * k * kNR);
    }

    const std::size_t mblocks = (m + kMC - 1) / kMC;
    const std::size_t conc = ThreadPool::globalPool().concurrency();
    std::size_t groups = 1;
    if (mblocks < conc * 2) {
        groups = std::min(panels, (conc * 2 + mblocks - 1) / mblocks);
    }
    const std::size_t panelsPerGroup = (panels + groups - 1) / groups;

    const PackedGemmCtx ctx{a,      a_transposed, lda,
                            bpack,  c,            m,
                            k,      n,            panels,
                            groups, panelsPerGroup, epilogue,
                            bias,   accumulate,   use_fma};
    ThreadPool::globalPool().parallelForChunked(
        0, mblocks * groups,
        [&ctx](std::size_t lo, std::size_t hi) {
            runTileChunk(ctx, lo, hi);
        },
        0);
}

// ---- int8 quantized inference route (layout in nn/quant.hpp) ----

/**
 * Quantize the activation matrix straight into the packed quad-major
 * block layout the microkernel reads: row block b (kMR rows) starts at
 * dst + b * k_padded * kMR; within a block, reduction quad q occupies
 * kMR * kQuantKQ bytes with row ii's four consecutive k bytes at
 * dst[q * 24 + ii * 4]. One pass over A replaces the former
 * quantize-buffer-then-pack-per-tile double pass, which gated the
 * whole quantized call on large M. Rows past m and ks past the real
 * reduction are zero: zero activations against zero-padded weights
 * contribute exactly zero, and colSum covers real k only, so padding
 * cancels out of the zero-point correction too. Baseline-ISA build.
 */
inline void
quantizePackAScalar(const float *__restrict a, std::size_t m,
                    std::size_t k, std::size_t k_padded,
                    const ActQuant &q, std::uint8_t *__restrict dst)
{
    const std::size_t quads = k_padded / kQuantKQ;
    const std::size_t blocks = (m + kMR - 1) / kMR;
    const std::size_t row_stride = kMR * kQuantKQ;
    // EDGEPC_HOT: streaming activation quantization + pack.
    for (std::size_t i = 0; i < blocks * kMR; ++i) {
        std::uint8_t *drow =
            dst + (i / kMR) * (k_padded * kMR) + (i % kMR) * kQuantKQ;
        if (i >= m) {
            for (std::size_t qq = 0; qq < quads; ++qq) {
                std::memset(drow + qq * row_stride, 0, kQuantKQ);
            }
            continue;
        }
        const float *src = a + i * k;
        for (std::size_t qq = 0; qq < quads; ++qq) {
            std::uint8_t *dq = drow + qq * row_stride;
            const std::size_t k0 = qq * kQuantKQ;
            for (std::size_t t = 0; t < kQuantKQ; ++t) {
                dq[t] = k0 + t < k ? quantizeAct(src[k0 + t], q) : 0;
            }
        }
    }
}

/**
 * AVX2 build of quantizePackAScalar: the same multiply, nearest-even
 * round (cvtps_epi32 matches lrintf in the default rounding mode) and
 * clamp as quantizeAct, 32 values (8 quads) per iteration. The
 * i32 -> u8 narrowing packs interleave lanes; the permute restores
 * source order before the quads scatter into the block layout.
 */
__attribute__((target("avx2"))) void
quantizePackAAvx2(const float *__restrict a, std::size_t m,
                  std::size_t k, std::size_t k_padded, const ActQuant &q,
                  std::uint8_t *__restrict dst)
{
    const __m256 inv = _mm256_set1_ps(q.invScale);
    const __m256i zp = _mm256_set1_epi32(q.zeroPoint);
    const __m256i lowq = _mm256_setzero_si256();
    const __m256i highq = _mm256_set1_epi32(kQuantActMax);
    const __m256i lanefix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const std::size_t quads = k_padded / kQuantKQ;
    const std::size_t blocks = (m + kMR - 1) / kMR;
    const std::size_t row_stride = kMR * kQuantKQ;
    alignas(32) std::uint8_t tmp[32];
    for (std::size_t i = 0; i < blocks * kMR; ++i) {
        std::uint8_t *drow =
            dst + (i / kMR) * (k_padded * kMR) + (i % kMR) * kQuantKQ;
        if (i >= m) {
            for (std::size_t qq = 0; qq < quads; ++qq) {
                std::memset(drow + qq * row_stride, 0, kQuantKQ);
            }
            continue;
        }
        const float *src = a + i * k;
        std::size_t kk = 0;
        // EDGEPC_HOT: vector activation quantization + quad scatter.
        for (; kk + 32 <= k; kk += 32) {
            __m256i r0 = _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + kk), inv));
            __m256i r1 = _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + kk + 8), inv));
            __m256i r2 = _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + kk + 16), inv));
            __m256i r3 = _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + kk + 24), inv));
            r0 = _mm256_max_epi32(
                lowq, _mm256_min_epi32(highq, _mm256_add_epi32(r0, zp)));
            r1 = _mm256_max_epi32(
                lowq, _mm256_min_epi32(highq, _mm256_add_epi32(r1, zp)));
            r2 = _mm256_max_epi32(
                lowq, _mm256_min_epi32(highq, _mm256_add_epi32(r2, zp)));
            r3 = _mm256_max_epi32(
                lowq, _mm256_min_epi32(highq, _mm256_add_epi32(r3, zp)));
            const __m256i ab = _mm256_packs_epi32(r0, r1);
            const __m256i cd = _mm256_packs_epi32(r2, r3);
            __m256i bytes = _mm256_packus_epi16(ab, cd);
            bytes = _mm256_permutevar8x32_epi32(bytes, lanefix);
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), bytes);
            std::uint8_t *dq = drow + (kk / kQuantKQ) * row_stride;
            for (std::size_t t = 0; t < 8; ++t) {
                std::memcpy(dq + t * row_stride, tmp + t * kQuantKQ,
                            kQuantKQ);
            }
        }
        for (std::size_t qq = kk / kQuantKQ; qq < quads; ++qq) {
            std::uint8_t *dq = drow + qq * row_stride;
            const std::size_t k0 = qq * kQuantKQ;
            for (std::size_t t = 0; t < kQuantKQ; ++t) {
                dq[t] = k0 + t < k ? quantizeAct(src[k0 + t], q) : 0;
            }
        }
    }
}

/**
 * AVX2 activation range scan. Min/max is exact and order-independent,
 * so this matches the scalar computeActQuant bit for bit on finite
 * inputs (the only ones the route sees — NaN activations already
 * misbehave on the fp32 path). Four accumulator pairs hide the
 * min/max latency; the serial scan otherwise gates the whole
 * quantized call on large M.
 */
__attribute__((target("avx2"))) ActQuant
computeActQuantAvx2(const float *__restrict a, std::size_t count)
{
    if (count < 32) {
        return computeActQuant(a, count);
    }
    const __m256 seed = _mm256_set1_ps(a[0]);
    __m256 lo0 = seed;
    __m256 lo1 = seed;
    __m256 lo2 = seed;
    __m256 lo3 = seed;
    __m256 hi0 = seed;
    __m256 hi1 = seed;
    __m256 hi2 = seed;
    __m256 hi3 = seed;
    std::size_t i = 0;
    // EDGEPC_HOT: vector min/max range scan.
    for (; i + 32 <= count; i += 32) {
        const __m256 v0 = _mm256_loadu_ps(a + i);
        const __m256 v1 = _mm256_loadu_ps(a + i + 8);
        const __m256 v2 = _mm256_loadu_ps(a + i + 16);
        const __m256 v3 = _mm256_loadu_ps(a + i + 24);
        lo0 = _mm256_min_ps(lo0, v0);
        hi0 = _mm256_max_ps(hi0, v0);
        lo1 = _mm256_min_ps(lo1, v1);
        hi1 = _mm256_max_ps(hi1, v1);
        lo2 = _mm256_min_ps(lo2, v2);
        hi2 = _mm256_max_ps(hi2, v2);
        lo3 = _mm256_min_ps(lo3, v3);
        hi3 = _mm256_max_ps(hi3, v3);
    }
    lo0 = _mm256_min_ps(_mm256_min_ps(lo0, lo1),
                        _mm256_min_ps(lo2, lo3));
    hi0 = _mm256_max_ps(_mm256_max_ps(hi0, hi1),
                        _mm256_max_ps(hi2, hi3));
    alignas(32) float lo8[8];
    alignas(32) float hi8[8];
    _mm256_store_ps(lo8, lo0);
    _mm256_store_ps(hi8, hi0);
    float lo = lo8[0];
    float hi = hi8[0];
    for (int t = 1; t < 8; ++t) {
        lo = lo8[t] < lo ? lo8[t] : lo;
        hi = hi8[t] > hi ? hi8[t] : hi;
    }
    for (; i < count; ++i) {
        const float v = a[i];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    return actQuantFromRange(lo, hi);
}

/**
 * 6x16 AVX2 int8 microkernel: per reduction quad, two 32-byte panel
 * loads feed maddubs (u8*s8 adjacent pairs -> i16) then madd against
 * ones (i16 pairs -> i32), accumulated into 12 ymm int32 registers.
 * The 7-bit activation range guarantees the intermediate i16 sums
 * never saturate (127 * 127 * 2 <= 32767, see nn/quant.hpp), so the
 * accumulators hold the exact integer dot products.
 */
__attribute__((target("avx2"))) void
microKernelInt8Avx2(const std::uint8_t *__restrict apack,
                    const std::int8_t *__restrict bpanel,
                    std::size_t quads, std::int32_t *__restrict acc)
{
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i c0a = _mm256_setzero_si256();
    __m256i c0b = _mm256_setzero_si256();
    __m256i c1a = _mm256_setzero_si256();
    __m256i c1b = _mm256_setzero_si256();
    __m256i c2a = _mm256_setzero_si256();
    __m256i c2b = _mm256_setzero_si256();
    __m256i c3a = _mm256_setzero_si256();
    __m256i c3b = _mm256_setzero_si256();
    __m256i c4a = _mm256_setzero_si256();
    __m256i c4b = _mm256_setzero_si256();
    __m256i c5a = _mm256_setzero_si256();
    __m256i c5b = _mm256_setzero_si256();
    // EDGEPC_HOT: full-K quad accumulation in integer registers.
    for (std::size_t q = 0; q < quads; ++q) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bpanel + q * 64));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bpanel + q * 64 + 32));
        const std::uint8_t *arow = apack + q * (kMR * kQuantKQ);
        std::int32_t aw;
        std::memcpy(&aw, arow, 4);
        __m256i av = _mm256_set1_epi32(aw);
        c0a = _mm256_add_epi32(
            c0a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c0b = _mm256_add_epi32(
            c0b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        std::memcpy(&aw, arow + 4, 4);
        av = _mm256_set1_epi32(aw);
        c1a = _mm256_add_epi32(
            c1a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c1b = _mm256_add_epi32(
            c1b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        std::memcpy(&aw, arow + 8, 4);
        av = _mm256_set1_epi32(aw);
        c2a = _mm256_add_epi32(
            c2a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c2b = _mm256_add_epi32(
            c2b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        std::memcpy(&aw, arow + 12, 4);
        av = _mm256_set1_epi32(aw);
        c3a = _mm256_add_epi32(
            c3a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c3b = _mm256_add_epi32(
            c3b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        std::memcpy(&aw, arow + 16, 4);
        av = _mm256_set1_epi32(aw);
        c4a = _mm256_add_epi32(
            c4a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c4b = _mm256_add_epi32(
            c4b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        std::memcpy(&aw, arow + 20, 4);
        av = _mm256_set1_epi32(aw);
        c5a = _mm256_add_epi32(
            c5a, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        c5b = _mm256_add_epi32(
            c5b, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
    }
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 0 * kNR), c0a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 0 * kNR + 8),
                       c0b);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 1 * kNR), c1a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 1 * kNR + 8),
                       c1b);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 2 * kNR), c2a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 2 * kNR + 8),
                       c2b);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 3 * kNR), c3a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 3 * kNR + 8),
                       c3b);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 4 * kNR), c4a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 4 * kNR + 8),
                       c4b);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 5 * kNR), c5a);
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc + 5 * kNR + 8),
                       c5b);
}

/**
 * Scalar-int build of the same microkernel: integer arithmetic is
 * order-independent, so this is bit-exact with the AVX2 build (and
 * with quantizedGemmRef) by construction.
 */
inline void
microKernelInt8Scalar(const std::uint8_t *__restrict apack,
                      const std::int8_t *__restrict bpanel,
                      std::size_t quads, std::int32_t *__restrict acc)
{
    for (std::size_t i = 0; i < kMR * kNR; ++i) {
        acc[i] = 0;
    }
    // EDGEPC_HOT: integer quad accumulation.
    for (std::size_t q = 0; q < quads; ++q) {
        const std::int8_t *quad = bpanel + q * kQuantNR * kQuantKQ;
        const std::uint8_t *arow = apack + q * (kMR * kQuantKQ);
        for (std::size_t ii = 0; ii < kMR; ++ii) {
            const std::uint8_t *av = arow + ii * kQuantKQ;
            std::int32_t *accrow = acc + ii * kNR;
            for (std::size_t jj = 0; jj < kQuantNR; ++jj) {
                const std::int8_t *wb =
                    quad + (jj < 8 ? jj * kQuantKQ
                                   : 32 + (jj - 8) * kQuantKQ);
                std::int32_t s = 0;
                for (std::size_t t = 0; t < kQuantKQ; ++t) {
                    s += static_cast<std::int32_t>(av[t]) *
                         static_cast<std::int32_t>(wb[t]);
                }
                accrow[jj] += s;
            }
        }
    }
}

/**
 * Dequant tile store: v = combined[j] * float(acc - corr[j]), then
 * bias and ReLU. The float operation order matches quantizedGemmRef
 * and the AVX2 store exactly; this file is built with
 * -ffp-contract=off so no step fuses.
 */
inline void
storeTileInt8Scalar(const std::int32_t *__restrict acc,
                    float *__restrict c, std::size_t n, std::size_t i0,
                    std::size_t j0, std::size_t rows, std::size_t cols,
                    const float *__restrict combined,
                    const std::int32_t *__restrict corr,
                    const float *__restrict bias, GemmEpilogue epilogue)
{
    // EDGEPC_HOT: dequant tile store + fused epilogue.
    for (std::size_t ii = 0; ii < rows; ++ii) {
        float *crow = c + (i0 + ii) * n + j0;
        const std::int32_t *accrow = acc + ii * kNR;
        for (std::size_t jj = 0; jj < cols; ++jj) {
            float v = combined[jj] *
                      static_cast<float>(accrow[jj] - corr[jj]);
            if (epilogue != GemmEpilogue::None) {
                v = v + bias[jj];
                if (epilogue == GemmEpilogue::BiasRelu) {
                    v = v > 0.0f ? v : 0.0f;
                }
            }
            crow[jj] = v;
        }
    }
}

/** Vectorized dequant tile store (full-width panels); cvtepi32_ps and
    static_cast<float> both round nearest-even, so the builds agree
    bit for bit even for accumulators beyond 2^24. */
__attribute__((target("avx2"))) void
storeTileInt8Avx2(const std::int32_t *__restrict acc,
                  float *__restrict c, std::size_t n, std::size_t i0,
                  std::size_t j0, std::size_t rows, std::size_t cols,
                  const float *__restrict combined,
                  const std::int32_t *__restrict corr,
                  const float *__restrict bias, GemmEpilogue epilogue)
{
    if (cols != kNR) {
        storeTileInt8Scalar(acc, c, n, i0, j0, rows, cols, combined,
                            corr, bias, epilogue);
        return;
    }
    const __m256 zero = _mm256_setzero_ps();
    const __m256 comb0 = _mm256_loadu_ps(combined);
    const __m256 comb1 = _mm256_loadu_ps(combined + 8);
    const __m256i corr0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(corr));
    const __m256i corr1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(corr + 8));
    __m256 bias0 = zero;
    __m256 bias1 = zero;
    if (epilogue != GemmEpilogue::None) {
        bias0 = _mm256_loadu_ps(bias);
        bias1 = _mm256_loadu_ps(bias + 8);
    }
    // EDGEPC_HOT: dequant tile store + fused epilogue.
    for (std::size_t ii = 0; ii < rows; ++ii) {
        float *crow = c + (i0 + ii) * n + j0;
        const __m256i a0 = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(acc + ii * kNR));
        const __m256i a1 = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(acc + ii * kNR + 8));
        __m256 v0 = _mm256_cvtepi32_ps(_mm256_sub_epi32(a0, corr0));
        __m256 v1 = _mm256_cvtepi32_ps(_mm256_sub_epi32(a1, corr1));
        v0 = _mm256_mul_ps(comb0, v0);
        v1 = _mm256_mul_ps(comb1, v1);
        if (epilogue != GemmEpilogue::None) {
            v0 = _mm256_add_ps(v0, bias0);
            v1 = _mm256_add_ps(v1, bias1);
            if (epilogue == GemmEpilogue::BiasRelu) {
                v0 = _mm256_max_ps(v0, zero);
                v1 = _mm256_max_ps(v1, zero);
            }
        }
        _mm256_storeu_ps(crow, v0);
        _mm256_storeu_ps(crow + 8, v1);
    }
}

/** Worker context of the quantized tile grid (same shape as
 *  PackedGemmCtx; B panels come from the layer cache instead of a
 *  per-call pack). */
struct QuantGemmCtx
{
    const std::uint8_t *apacked; ///< Quantized A in block layout.
    std::size_t m;
    std::size_t k;
    const QuantizedWeights *wq;
    float *c;
    std::size_t n;
    const float *combined;    ///< s_a * s_w[j], padded width.
    const std::int32_t *corr; ///< z_a * colSum[j], padded width.
    const float *bias;
    GemmEpilogue epilogue;
    std::size_t groups;
    std::size_t panelsPerGroup;
    bool useAvx2;
};

/** One chunk of the quantized 2-D tile grid. */
void
runTileChunkInt8(const QuantGemmCtx &ctx, std::size_t lo, std::size_t hi)
{
    const std::size_t kp = ctx.wq->kPadded;
    const std::size_t quads = kp / kQuantKQ;
    alignas(32) std::int32_t acc[kMR * kNR];
    for (std::size_t t = lo; t < hi; ++t) {
        const std::size_t ib = t / ctx.groups;
        const std::size_t g = t % ctx.groups;
        const std::size_t row_lo = ib * kMC;
        const std::size_t row_hi = std::min(ctx.m, row_lo + kMC);
        const std::size_t p_lo = g * ctx.panelsPerGroup;
        const std::size_t p_hi =
            std::min(ctx.wq->panels, p_lo + ctx.panelsPerGroup);
        if (p_lo >= p_hi) {
            continue;
        }
        for (std::size_t i0 = row_lo; i0 < row_hi; i0 += kMR) {
            const std::size_t rows = std::min(kMR, row_hi - i0);
            // A was quantize-packed once up front; kMC is a multiple
            // of kMR, so i0 always lands on a block boundary.
            const std::uint8_t *apack =
                ctx.apacked + (i0 / kMR) * (kp * kMR);
            for (std::size_t p = p_lo; p < p_hi; ++p) {
                const std::int8_t *bpanel =
                    ctx.wq->panelData.data() + ctx.wq->panelOffset(p);
                const std::size_t j0 = p * kNR;
                const std::size_t cols = std::min(kNR, ctx.n - j0);
                const float *bias =
                    ctx.bias != nullptr ? ctx.bias + j0 : nullptr;
                if (ctx.useAvx2) {
                    microKernelInt8Avx2(apack, bpanel, quads, acc);
                    storeTileInt8Avx2(acc, ctx.c, ctx.n, i0, j0, rows,
                                      cols, ctx.combined + j0,
                                      ctx.corr + j0, bias, ctx.epilogue);
                } else {
                    microKernelInt8Scalar(apack, bpanel, quads, acc);
                    storeTileInt8Scalar(acc, ctx.c, ctx.n, i0, j0, rows,
                                        cols, ctx.combined + j0,
                                        ctx.corr + j0, bias,
                                        ctx.epilogue);
                }
            }
        }
    }
}

/**
 * Quantized-GEMM driver: quantize A once into the arena (the AVX2 and
 * scalar passes round identically), fold the activation scale into
 * per-column combined dequant scales and the zero point into int32
 * correction terms, then walk the same 2-D tile grid as the fp32
 * path. B needs no per-call packing — the quantized panels come from
 * the layer cache — so even small M runs the tile path.
 */
void
gemmQuantizedPacked(const float *a, std::size_t m,
                    const QuantizedWeights &wq, float *c,
                    GemmEpilogue epilogue, const float *bias,
                    bool use_avx2)
{
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    const std::size_t k = wq.k;
    const std::size_t n = wq.n;
    const ActQuant aq = use_avx2 ? computeActQuantAvx2(a, m * k)
                                 : computeActQuant(a, m * k);
    const std::size_t kp = wq.kPadded;
    const std::size_t mblocks6 = (m + kMR - 1) / kMR;
    std::uint8_t *apacked =
        arena.alloc<std::uint8_t>(mblocks6 * kp * kMR).data();
    if (use_avx2) {
        quantizePackAAvx2(a, m, k, kp, aq, apacked);
    } else {
        quantizePackAScalar(a, m, k, kp, aq, apacked);
    }
    const std::size_t padded_n = wq.panels * kQuantNR;
    float *combined = arena.alloc<float>(padded_n).data();
    std::int32_t *corr = arena.alloc<std::int32_t>(padded_n).data();
    for (std::size_t j = 0; j < padded_n; ++j) {
        combined[j] = aq.scale * wq.colScale[j];
        corr[j] = aq.zeroPoint * wq.colSum[j];
    }

    const std::size_t mblocks = (m + kMC - 1) / kMC;
    const std::size_t conc = ThreadPool::globalPool().concurrency();
    std::size_t groups = 1;
    if (mblocks < conc * 2) {
        groups =
            std::min(wq.panels, (conc * 2 + mblocks - 1) / mblocks);
    }
    const std::size_t panelsPerGroup =
        (wq.panels + groups - 1) / groups;

    const QuantGemmCtx ctx{apacked,  m,
                           k,        &wq,
                           c,        n,
                           combined, corr,
                           bias,     epilogue,
                           groups,   panelsPerGroup,
                           use_avx2};
    ThreadPool::globalPool().parallelForChunked(
        0, mblocks * groups,
        [&ctx](std::size_t lo, std::size_t hi) {
            runTileChunkInt8(ctx, lo, hi);
        },
        0);
}

/**
 * C = epilogue(0) for an empty reduction (k == 0): the product is 0, so
 * every element is 0, bias or relu(bias), added exactly as the tile
 * stores add it.
 */
void
storeEmptyProduct(float *c, std::size_t m, std::size_t n,
                  GemmEpilogue epilogue, const float *bias)
{
    // Parallel over rows: a PointNet++ FP module without skip columns
    // stores its bias rows this way at full fine-level height.
    ThreadPool::globalPool().parallelForChunked(
        0, m,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                float *crow = c + i * n;
                for (std::size_t j = 0; j < n; ++j) {
                    float v = 0.0f;
                    if (epilogue != GemmEpilogue::None) {
                        v += bias[j];
                        if (epilogue == GemmEpilogue::BiasRelu) {
                            v = v > 0.0f ? v : 0.0f;
                        }
                    }
                    crow[j] = v;
                }
            }
        },
        0);
}

} // namespace

void
GemmEngine::run(const float *a, bool a_transposed, const float *b,
                bool b_transposed, float *c, std::size_t m, std::size_t k,
                std::size_t n, GemmEpilogue epilogue, const float *bias,
                bool accumulate)
{
    if (m == 0 || n == 0) {
        return;
    }
    if (k == 0) {
        if (!accumulate) {
            storeEmptyProduct(c, m, n, epilogue, bias);
        }
        return;
    }
    EDGEPC_TRACE_SCOPE("gemm", "nn");
    // References cached once: metric objects live for the process.
    static obs::Counter &flops =
        obs::MetricsRegistry::global().counter("gemm.flops");
    static obs::Counter &fastPath =
        obs::MetricsRegistry::global().counter("gemm.fast_path_calls");
    static obs::Counter &scalarPath =
        obs::MetricsRegistry::global().counter("gemm.scalar_path_calls");
    static obs::Counter &fusedCalls =
        obs::MetricsRegistry::global().counter("gemm.fused_epilogue_calls");
    flops.add(2ull * m * k * n);
    if (epilogue != GemmEpilogue::None) {
        fusedCalls.add(1);
    }
    // The counters track the policy decision (the device model); the
    // process's GEMM build only swaps the executed build.
    const bool fast = policyFast(k);
    if (fast) {
        fastCalls.fetch_add(1, std::memory_order_relaxed);
        fastPath.add(1);
    } else {
        scalarCalls.fetch_add(1, std::memory_order_relaxed);
        scalarPath.add(1);
    }
    gemmPacked(a, a_transposed, b, b_transposed, c, m, k, n, epilogue,
               bias, accumulate, fmaBuildForPolicy(fast));
}

bool
GemmEngine::policyFast(std::size_t k) const
{
    switch (mode()) {
      case GemmMode::Scalar:
        return false;
      case GemmMode::Fast:
        return true;
      case GemmMode::Auto:
        // Thin channel dimensions never reach the tensor cores.
        return k >= channelThreshold;
    }
    return false;
}

PackedTransposedB::PackedTransposedB(const GemmEngine &engine,
                                     const float *b, std::size_t n,
                                     std::size_t k, const float *shift,
                                     ScratchArena &arena)
    : rows(n), depth(k), useFma(fmaBuildForPolicy(engine.policyFast(k)))
{
    const std::size_t count = (n + kNR - 1) / kNR;
    float *dst = arena.alloc<float>(count * k * kNR).data();
    for (std::size_t p = 0; p < count; ++p) {
        float *panel = dst + p * k * kNR;
        packBPanel(b, true, k, n, k, p, panel);
        // Shift only the real columns: the zero padding must stay zero.
        const std::size_t cols = std::min(kNR, n - p * kNR);
        // EDGEPC_HOT: in-place shift of one packed panel.
        for (std::size_t kk = 0; kk < k; ++kk) {
            for (std::size_t jj = 0; jj < cols; ++jj) {
                panel[kk * kNR + jj] -= shift[kk];
            }
        }
    }
    panels = dst;
}

void
PackedTransposedB::rowSquaredNorms(float *out) const
{
    const std::size_t count = (rows + kNR - 1) / kNR;
    for (std::size_t p = 0; p < count; ++p) {
        const float *panel = panels + p * depth * kNR;
        float acc[kNR] = {};
        // EDGEPC_HOT: one k-ordered sum per lane, kNR rows at a time.
        for (std::size_t kk = 0; kk < depth; ++kk) {
            for (std::size_t jj = 0; jj < kNR; ++jj) {
                const float v = panel[kk * kNR + jj];
                acc[jj] += v * v;
            }
        }
        const std::size_t cols = std::min(kNR, rows - p * kNR);
        std::copy(acc, acc + cols, out + p * kNR);
    }
}

void
PackedTransposedB::multiply(const float *a, std::size_t m,
                            const float *bias, float *c) const
{
    const std::size_t count = (rows + kNR - 1) / kNR;
    const PackedGemmCtx ctx{a,     false, depth,
                            panels, c,    m,
                            depth, rows,  count,
                            1,     count, GemmEpilogue::Bias,
                            bias,  false, useFma};
    runTileChunk(ctx, 0, (m + kMC - 1) / kMC);
}

void
GemmEngine::gemm(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k, std::size_t n)
{
    run(a, false, b, false, c, m, k, n, GemmEpilogue::None, nullptr,
        false);
}

void
GemmEngine::gemm(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k, std::size_t n, GemmEpilogue epilogue,
                 const float *bias)
{
    if (epilogue != GemmEpilogue::None && bias == nullptr) {
        raise(ErrorCode::InvalidArgument,
              "GemmEngine::gemm: bias epilogue requested without a bias "
              "vector");
    }
    run(a, false, b, false, c, m, k, n, epilogue, bias, false);
}

Matrix
GemmEngine::multiply(const Matrix &a, const Matrix &b)
{
    if (a.cols() != b.rows()) {
        fatal("GemmEngine::multiply: %zux%zu times %zux%zu", a.rows(),
              a.cols(), b.rows(), b.cols());
    }
    Matrix c = Matrix::forOverwrite(a.rows(), b.cols());
    run(a.data(), false, b.data(), false, c.data(), a.rows(), a.cols(),
        b.cols(), GemmEpilogue::None, nullptr, false);
    return c;
}

Matrix
GemmEngine::multiply(const Matrix &a, const Matrix &b,
                     GemmEpilogue epilogue, const Matrix &bias)
{
    if (a.cols() != b.rows()) {
        fatal("GemmEngine::multiply: %zux%zu times %zux%zu", a.rows(),
              a.cols(), b.rows(), b.cols());
    }
    if (epilogue != GemmEpilogue::None &&
        (bias.rows() != 1 || bias.cols() != b.cols())) {
        fatal("GemmEngine::multiply: bias %zux%zu does not match output "
              "width %zu",
              bias.rows(), bias.cols(), b.cols());
    }
    Matrix c = Matrix::forOverwrite(a.rows(), b.cols());
    run(a.data(), false, b.data(), false, c.data(), a.rows(), a.cols(),
        b.cols(), epilogue,
        epilogue != GemmEpilogue::None ? bias.data() : nullptr, false);
    return c;
}

Matrix
GemmEngine::multiplyTransposed(const Matrix &a, const Matrix &b)
{
    if (a.cols() != b.cols()) {
        fatal("GemmEngine::multiplyTransposed: %zux%zu times (%zux%zu)^T",
              a.rows(), a.cols(), b.rows(), b.cols());
    }
    // C = A * B^T: the packing step reads B's rows directly, so no
    // transposed copy is ever materialized.
    Matrix c = Matrix::forOverwrite(a.rows(), b.rows());
    run(a.data(), false, b.data(), true, c.data(), a.rows(), a.cols(),
        b.rows(), GemmEpilogue::None, nullptr, false);
    return c;
}

Matrix
GemmEngine::multiplyLeftTransposed(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows()) {
        fatal("GemmEngine::multiplyLeftTransposed: (%zux%zu)^T times "
              "%zux%zu",
              a.rows(), a.cols(), b.rows(), b.cols());
    }
    // C = A^T * B: the packing step reads A's columns directly.
    Matrix c = Matrix::forOverwrite(a.cols(), b.cols());
    run(a.data(), true, b.data(), false, c.data(), a.cols(), a.rows(),
        b.cols(), GemmEpilogue::None, nullptr, false);
    return c;
}

void
GemmEngine::multiplyLeftTransposedAdd(const Matrix &a, const Matrix &b,
                                      Matrix &out)
{
    if (a.rows() != b.rows()) {
        fatal("GemmEngine::multiplyLeftTransposedAdd: (%zux%zu)^T times "
              "%zux%zu",
              a.rows(), a.cols(), b.rows(), b.cols());
    }
    if (out.rows() != a.cols() || out.cols() != b.cols()) {
        fatal("GemmEngine::multiplyLeftTransposedAdd: output %zux%zu, "
              "want %zux%zu",
              out.rows(), out.cols(), a.cols(), b.cols());
    }
    run(a.data(), true, b.data(), false, out.data(), a.cols(), a.rows(),
        b.cols(), GemmEpilogue::None, nullptr, true);
}

void
GemmEngine::gemmQuantized(const float *a, std::size_t m,
                          const QuantizedWeights &wq, float *c,
                          GemmEpilogue epilogue, const float *bias)
{
    if (m == 0 || wq.n == 0) {
        return;
    }
    if (epilogue != GemmEpilogue::None && bias == nullptr) {
        raise(ErrorCode::InvalidArgument,
              "GemmEngine::gemmQuantized: bias epilogue requested "
              "without a bias vector");
    }
    if (wq.k == 0) {
        storeEmptyProduct(c, m, wq.n, epilogue, bias);
        return;
    }
    EDGEPC_TRACE_SCOPE("gemm-int8", "nn");
    static obs::Counter &flops =
        obs::MetricsRegistry::global().counter("gemm.flops");
    static obs::Counter &int8Calls =
        obs::MetricsRegistry::global().counter("gemm.int8_path_calls");
    static obs::Counter &fusedCalls =
        obs::MetricsRegistry::global().counter("gemm.fused_epilogue_calls");
    flops.add(2ull * m * wq.k * wq.n);
    int8Calls.add(1);
    if (epilogue != GemmEpilogue::None) {
        fusedCalls.add(1);
    }
    // The int8 route models the tensor cores' int8 mode: it does not
    // disturb the fp32 fast/scalar policy counters. The process's GEMM
    // build still picks which build executes.
    const bool use_avx2 =
        kernelBuild(KernelFamily::Gemm) != KernelBuild::Scalar &&
        int8Available();
    gemmQuantizedPacked(a, m, wq, c, epilogue, bias, use_avx2);
}

Matrix
GemmEngine::multiplyQuantized(const Matrix &a, const QuantizedWeights &wq,
                              GemmEpilogue epilogue, const Matrix &bias)
{
    if (a.cols() != wq.k) {
        fatal("GemmEngine::multiplyQuantized: %zux%zu times quantized "
              "%zux%zu",
              a.rows(), a.cols(), wq.k, wq.n);
    }
    if (epilogue != GemmEpilogue::None &&
        (bias.rows() != 1 || bias.cols() != wq.n)) {
        fatal("GemmEngine::multiplyQuantized: bias %zux%zu does not "
              "match output width %zu",
              bias.rows(), bias.cols(), wq.n);
    }
    Matrix c = Matrix::forOverwrite(a.rows(), wq.n);
    gemmQuantized(a.data(), a.rows(), wq, c.data(), epilogue,
                  epilogue != GemmEpilogue::None ? bias.data() : nullptr);
    return c;
}

double
GemmEngine::fastPathUtilization() const
{
    const std::uint64_t fast = fastPathCalls();
    const std::uint64_t total = fast + scalarPathCalls();
    if (total == 0) {
        return 0.0;
    }
    return static_cast<double>(fast) / static_cast<double>(total);
}

void
GemmEngine::resetStats()
{
    fastCalls.store(0, std::memory_order_relaxed);
    scalarCalls.store(0, std::memory_order_relaxed);
}

GemmEngine &
GemmEngine::shared(GemmMode mode)
{
    static GemmEngine scalar(GemmMode::Scalar);
    static GemmEngine fast(GemmMode::Fast);
    static GemmEngine automatic(GemmMode::Auto);
    switch (mode) {
      case GemmMode::Scalar:
        return scalar;
      case GemmMode::Fast:
        return fast;
      case GemmMode::Auto:
        break;
    }
    return automatic;
}

bool
GemmEngine::fastKernelAvailable()
{
    return fmaAvailable();
}

const char *
GemmEngine::activeKernelName()
{
    return fmaBuildForPolicy(true) ? "avx2-fma" : "scalar";
}

bool
GemmEngine::int8KernelAvailable()
{
    return int8Available();
}

const char *
GemmEngine::int8KernelName()
{
    if (kernelBuild(KernelFamily::Gemm) == KernelBuild::Scalar) {
        return "scalar-int8";
    }
    return int8Available() ? "avx2-int8" : "scalar-int8";
}

} // namespace nn
} // namespace edgepc
