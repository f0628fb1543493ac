#include "nn/epilogue.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace edgepc {
namespace nn {

namespace {

// --------------------------------------------------------------- bodies
//
// Written once and force-inlined, down to the activation functors,
// into both builds below, so each build compiles every loop for its
// own ISA. The activations are branchless selects so the loops
// vectorize at either ISA.

struct Identity
{
    [[gnu::always_inline]] float operator()(float v) const { return v; }
};

/** v > 0 ? v : 0 — NaN and -0 map to +0, like the masked form. */
struct Relu
{
    [[gnu::always_inline]] float operator()(float v) const
    {
        return v > 0.0f ? v : 0.0f;
    }
};

/**
 * v > 0 ? v : slope * v, written without the conditional multiply so
 * it vectorizes. std::max / std::min return their first argument on a
 * NaN or a tie of zeros, so NaN and -0 pass through. The one
 * difference: a negative product that underflows gives +0, not -0.
 */
struct LeakyRelu
{
    float slope;
    [[gnu::always_inline]] float operator()(float v) const
    {
        return std::max(v, 0.0f) + slope * std::min(v, 0.0f);
    }
};

/** Run @p body with the functor for @p act. */
template <class Body>
[[gnu::always_inline]] inline void
withActivation(Activation act, Body &&body)
{
    switch (act.kind) {
      case Activation::Kind::Identity:
        body(Identity{});
        return;
      case Activation::Kind::Relu:
        body(Relu{});
        return;
      case Activation::Kind::LeakyRelu:
        body(LeakyRelu{act.slope});
        return;
    }
}

/**
 * Eight floats, one AVX register or two SSE ones. Passed by reference
 * only: by value its ABI differs between the two builds.
 */
typedef float Float8 __attribute__((vector_size(32)));

[[gnu::always_inline]] inline void
load8(Float8 &v, const float *p)
{
    __builtin_memcpy(&v, p, sizeof(v));
}

[[gnu::always_inline]] inline void
store8(float *p, const Float8 &v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

/** Columns a statistics stripe holds in registers. */
constexpr std::size_t kStatsStripe = 16;
/** Rows a stripe runs before its sums go back to memory. */
constexpr std::size_t kStatsTileRows = 64;
/** Columns one statistics call keeps on its stack. */
constexpr std::size_t kStatsSpan = 256;

/**
 * acc[c] = sum over r < rows, in row order from 0, of x[r][c] (or of
 * (x[r][c] - mean[c])^2 when SqDev), for c < width <= kStatsSpan; rows
 * are @p stride floats apart. Full stripes keep their sums in
 * registers for a tile of rows; the order of additions per column is
 * the plain serial loop's either way.
 */
template <bool SqDev>
[[gnu::always_inline]] inline void
columnSumsBody(const float *__restrict x, std::size_t rows,
               std::size_t stride, std::size_t width,
               const float *__restrict mean, float *__restrict acc)
{
    std::fill(acc, acc + width, 0.0f);
    const std::size_t full = width / kStatsStripe * kStatsStripe;
    for (std::size_t r0 = 0; r0 < rows; r0 += kStatsTileRows) {
        const std::size_t r1 = std::min(rows, r0 + kStatsTileRows);
        for (std::size_t c = 0; c < full; c += kStatsStripe) {
            Float8 a0, a1, m0 = {}, m1 = {};
            load8(a0, acc + c);
            load8(a1, acc + c + 8);
            if constexpr (SqDev) {
                load8(m0, mean + c);
                load8(m1, mean + c + 8);
            }
            for (std::size_t r = r0; r < r1; ++r) {
                const float *row = x + r * stride + c;
                Float8 v0, v1;
                load8(v0, row);
                load8(v1, row + 8);
                if constexpr (SqDev) {
                    const Float8 d0 = v0 - m0;
                    const Float8 d1 = v1 - m1;
                    a0 += d0 * d0;
                    a1 += d1 * d1;
                } else {
                    a0 += v0;
                    a1 += v1;
                }
            }
            store8(acc + c, a0);
            store8(acc + c + 8, a1);
        }
        for (std::size_t r = r0; r < r1; ++r) {
            const float *row = x + r * stride;
            for (std::size_t c = full; c < width; ++c) {
                if constexpr (SqDev) {
                    const float d = row[c] - mean[c];
                    acc[c] += d * d;
                } else {
                    acc[c] += row[c];
                }
            }
        }
    }
}

/**
 * Mean and biased variance of columns c < width of a rows x width
 * block whose rows are @p stride floats apart: the arithmetic of the
 * plain serial loop (sum in row order, scale by 1 / rows; the same
 * over squared deviations).
 */
[[gnu::always_inline]] inline void
columnMeanVarBody(const float *x, std::size_t rows, std::size_t stride,
                  std::size_t width, float *mean, float *var)
{
    const float inv_rows = 1.0f / static_cast<float>(rows);
    alignas(32) float m[kStatsSpan];
    alignas(32) float v[kStatsSpan];
    for (std::size_t c0 = 0; c0 < width; c0 += kStatsSpan) {
        const std::size_t w = std::min(kStatsSpan, width - c0);
        columnSumsBody<false>(x + c0, rows, stride, w, nullptr, m);
        for (std::size_t c = 0; c < w; ++c) {
            m[c] *= inv_rows;
        }
        columnSumsBody<true>(x + c0, rows, stride, w, m, v);
        for (std::size_t c = 0; c < w; ++c) {
            v[c] *= inv_rows;
        }
        std::copy(m, m + w, mean + c0);
        std::copy(v, v + w, var + c0);
    }
}

// `out` may equal `in`: each element is read before it is written.
[[gnu::always_inline]] inline void
normalizeActivateBody(const float *in, float *out, std::size_t rows,
                      std::size_t cols, const float *__restrict mean,
                      const float *__restrict inv_std,
                      const float *__restrict gamma,
                      const float *__restrict beta, Activation act)
{
    withActivation(act, [&](auto f) __attribute__((always_inline)) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float *src = in + r * cols;
            float *dst = out + r * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                const float normalized = (src[c] - mean[c]) * inv_std[c];
                dst[c] = f(gamma[c] * normalized + beta[c]);
            }
        }
    });
}

[[gnu::always_inline]] inline void
activateBody(const float *in, float *out, std::size_t n, Activation act)
{
    withActivation(act, [&](auto f) __attribute__((always_inline)) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = f(in[i]);
        }
    });
}

[[gnu::always_inline]] inline void
maxPoolGroupsBody(const float *__restrict in, std::size_t groups,
                  std::size_t k, std::size_t cols, float *__restrict out)
{
    for (std::size_t p = 0; p < groups; ++p) {
        const float *group = in + p * k * cols;
        float *dst = out + p * cols;
        std::copy(group, group + cols, dst);
        for (std::size_t j = 1; j < k; ++j) {
            const float *row = group + j * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                dst[c] = row[c] > dst[c] ? row[c] : dst[c];
            }
        }
    }
}

// --------------------------------------------------------------- builds

#define EDGEPC_EPILOGUE_BUILD(ns, attr)                                     \
    namespace ns {                                                          \
    attr void columnMeanVar(const float *x, std::size_t rows,              \
                            std::size_t stride, std::size_t width,          \
                            float *mean, float *var)                        \
    {                                                                       \
        columnMeanVarBody(x, rows, stride, width, mean, var);               \
    }                                                                       \
    attr void normalizeActivate(const float *in, float *out,               \
                                std::size_t rows, std::size_t cols,         \
                                const float *mean, const float *inv_std,    \
                                const float *gamma, const float *beta,      \
                                Activation act)                             \
    {                                                                       \
        normalizeActivateBody(in, out, rows, cols, mean, inv_std, gamma,    \
                              beta, act);                                   \
    }                                                                       \
    attr void activate(const float *in, float *out, std::size_t n,         \
                       Activation act)                                      \
    {                                                                       \
        activateBody(in, out, n, act);                                      \
    }                                                                       \
    attr void maxPoolGroups(const float *in, std::size_t groups,           \
                            std::size_t k, std::size_t cols, float *out)    \
    {                                                                       \
        maxPoolGroupsBody(in, groups, k, cols, out);                        \
    }                                                                       \
    const EpilogueKernels kernels{columnMeanVar, normalizeActivate,         \
                                  activate, maxPoolGroups};                 \
    }

// No FMA in either build: a contracted multiply-add would round once
// where the other build rounds twice.
EDGEPC_EPILOGUE_BUILD(baseline, )
EDGEPC_EPILOGUE_BUILD(avx2, __attribute__((target("avx2"))))

#undef EDGEPC_EPILOGUE_BUILD

/** Elements per parallel chunk, below which a task costs more than
    the work it carries. */
constexpr std::size_t kMinChunkElems = 16 * 1024;

/** Chunk size for a parallel loop over @p n items of @p width floats. */
std::size_t
grainFor(std::size_t n, std::size_t width)
{
    const std::size_t min_items =
        std::max<std::size_t>(1, kMinChunkElems / std::max<std::size_t>(
                                                      width, 1));
    const std::size_t split =
        n / (ThreadPool::globalPool().concurrency() * 4);
    return std::max(min_items, split);
}

} // namespace

const EpilogueKernels &
baselineEpilogueKernels()
{
    return baseline::kernels;
}

const EpilogueKernels *
avx2EpilogueKernels()
{
    static const bool available = __builtin_cpu_supports("avx2");
    return available ? &avx2::kernels : nullptr;
}

const EpilogueKernels &
epilogueKernels()
{
    static const EpilogueKernels &chosen =
        avx2EpilogueKernels() ? *avx2EpilogueKernels()
                              : baselineEpilogueKernels();
    return chosen;
}

void
columnMeanVar(const float *x, std::size_t rows, std::size_t cols,
              float *mean, float *var)
{
    const EpilogueKernels &k = epilogueKernels();
    // One contiguous run of stripes per thread. Each column is summed
    // whole on one thread, so the split changes no result.
    const std::size_t stripes = (cols + kStatsStripe - 1) / kStatsStripe;
    const std::size_t per_thread =
        (stripes + ThreadPool::globalPool().concurrency() - 1) /
        ThreadPool::globalPool().concurrency();
    ThreadPool::globalPool().parallelForChunked(
        0, stripes,
        [&](std::size_t lo, std::size_t hi) {
            const std::size_t c0 = lo * kStatsStripe;
            const std::size_t c1 = std::min(cols, hi * kStatsStripe);
            k.columnMeanVar(x + c0, rows, cols, c1 - c0, mean + c0,
                            var + c0);
        },
        std::max(per_thread, grainFor(stripes, rows * kStatsStripe)));
}

void
normalizeActivate(const float *in, float *out, std::size_t rows,
                  std::size_t cols, const float *mean,
                  const float *inv_std, const float *gamma,
                  const float *beta, Activation act)
{
    const EpilogueKernels &k = epilogueKernels();
    ThreadPool::globalPool().parallelForChunked(
        0, rows,
        [&](std::size_t lo, std::size_t hi) {
            k.normalizeActivate(in + lo * cols, out + lo * cols, hi - lo,
                                cols, mean, inv_std, gamma, beta, act);
        },
        grainFor(rows, cols));
}

void
activate(const float *in, float *out, std::size_t n, Activation act)
{
    const EpilogueKernels &k = epilogueKernels();
    ThreadPool::globalPool().parallelForChunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
            k.activate(in + lo, out + lo, hi - lo, act);
        },
        grainFor(n, 1));
}

void
maxPoolGroups(const float *in, std::size_t groups, std::size_t k,
              std::size_t cols, float *out)
{
    const EpilogueKernels &kern = epilogueKernels();
    ThreadPool::globalPool().parallelForChunked(
        0, groups,
        [&](std::size_t lo, std::size_t hi) {
            kern.maxPoolGroups(in + lo * k * cols, hi - lo, k, cols,
                               out + lo * cols);
        },
        grainFor(groups, k * cols));
}

} // namespace nn
} // namespace edgepc
