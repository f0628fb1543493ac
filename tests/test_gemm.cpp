/**
 * @file Unit tests for the packed two-path GEMM engine.
 *
 * The bit-exactness suites compare the packed scalar microkernel
 * against a classic in-order loop nest compiled in this file; the
 * tests CMakeLists disables FP contraction for this source so the
 * reference rounds every multiply-add twice, matching the contract of
 * the scalar path (see the matching flag on src/nn/gemm.cpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/scratch_arena.hpp"
#include "nn/gemm.hpp"
#include "nn/quant.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace nn {
namespace {

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    m.fillNormal(rng, 1.0f);
    return m;
}

void
expectClose(const Matrix &a, const Matrix &b, float tol = 1e-3f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "element " << i;
    }
}

TEST(Gemm, KnownSmallProduct)
{
    GemmEngine engine(GemmMode::Scalar);
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 2, {5, 6, 7, 8});
    const Matrix c = engine.multiply(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Gemm, FastPathMatchesScalarPath)
{
    GemmEngine scalar(GemmMode::Scalar);
    GemmEngine fast(GemmMode::Fast);
    const Matrix a = randomMatrix(33, 47, 71);
    const Matrix b = randomMatrix(47, 29, 72);
    expectClose(scalar.multiply(a, b), fast.multiply(a, b));
}

TEST(Gemm, AutoDispatchByChannelDim)
{
    GemmEngine engine(GemmMode::Auto, 16);
    const Matrix thin_a = randomMatrix(8, 8, 73);
    const Matrix thin_b = randomMatrix(8, 8, 74);
    engine.multiply(thin_a, thin_b); // K = 8 < 16 -> scalar.
    EXPECT_EQ(engine.fastPathCalls(), 0u);
    EXPECT_EQ(engine.scalarPathCalls(), 1u);

    const Matrix wide_a = randomMatrix(8, 64, 75);
    const Matrix wide_b = randomMatrix(64, 8, 76);
    engine.multiply(wide_a, wide_b); // K = 64 >= 16 -> fast.
    EXPECT_EQ(engine.fastPathCalls(), 1u);
    EXPECT_DOUBLE_EQ(engine.fastPathUtilization(), 0.5);

    engine.resetStats();
    EXPECT_EQ(engine.fastPathCalls(), 0u);
}

TEST(Gemm, MultiplyTransposed)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(5, 7, 77);
    const Matrix b = randomMatrix(9, 7, 78);
    const Matrix c = engine.multiplyTransposed(a, b); // 5 x 9
    ASSERT_EQ(c.rows(), 5u);
    ASSERT_EQ(c.cols(), 9u);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            float expected = 0.0f;
            for (std::size_t k = 0; k < 7; ++k) {
                expected += a.at(i, k) * b.at(j, k);
            }
            EXPECT_NEAR(c.at(i, j), expected, 1e-3f);
        }
    }
}

TEST(Gemm, MultiplyLeftTransposed)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(7, 4, 79);
    const Matrix b = randomMatrix(7, 3, 80);
    const Matrix c = engine.multiplyLeftTransposed(a, b); // 4 x 3
    ASSERT_EQ(c.rows(), 4u);
    ASSERT_EQ(c.cols(), 3u);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            float expected = 0.0f;
            for (std::size_t k = 0; k < 7; ++k) {
                expected += a.at(k, i) * b.at(k, j);
            }
            EXPECT_NEAR(c.at(i, j), expected, 1e-3f);
        }
    }
}

TEST(Gemm, IdentityMultiplication)
{
    GemmEngine engine(GemmMode::Fast);
    Matrix eye(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        eye.at(i, i) = 1.0f;
    }
    const Matrix a = randomMatrix(4, 4, 81);
    expectClose(engine.multiply(eye, a), a);
    expectClose(engine.multiply(a, eye), a);
}

TEST(Gemm, LargeShapesAgree)
{
    GemmEngine scalar(GemmMode::Scalar);
    GemmEngine fast(GemmMode::Fast);
    const Matrix a = randomMatrix(130, 200, 82);
    const Matrix b = randomMatrix(200, 90, 83);
    expectClose(scalar.multiply(a, b), fast.multiply(a, b), 5e-3f);
}

// ---------------------------------------------------------------------
// Packed-kernel correctness across dispatch paths
// ---------------------------------------------------------------------

/**
 * Classic in-order loop nest: one accumulator per C element, k
 * strictly ascending. With contraction disabled for this file it is
 * the rounding the scalar path promises to reproduce bit-exactly.
 */
Matrix
referenceGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k) {
                acc += a.at(i, k) * b.at(k, j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

void
expectBitExact(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
    }
}

void
expectRelClose(const Matrix &got, const Matrix &want, float rel)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        const float scale =
            std::max({1.0f, std::abs(got.data()[i]),
                      std::abs(want.data()[i])});
        ASSERT_NEAR(got.data()[i], want.data()[i], rel * scale)
            << "element " << i;
    }
}

/** The microkernel edge cases: below/at/above MR=6, NR=16, KC tiles. */
const std::size_t kRemainderDims[] = {1, 2, 5, 6, 7, 16, 17, 63, 64, 65};

TEST(GemmPacked, RemainderShapesForcedScalarBitExact)
{
    const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Scalar);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 1000;
    for (const std::size_t m : kRemainderDims) {
        for (const std::size_t k : kRemainderDims) {
            for (const std::size_t n : kRemainderDims) {
                const Matrix a = randomMatrix(m, k, seed++);
                const Matrix b = randomMatrix(k, n, seed++);
                expectBitExact(engine.multiply(a, b),
                               referenceGemm(a, b));
            }
        }
    }
}

TEST(GemmPacked, RemainderShapesFmaWithinTolerance)
{
    if (!GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Avx2);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 5000;
    for (const std::size_t m : kRemainderDims) {
        for (const std::size_t k : kRemainderDims) {
            for (const std::size_t n : kRemainderDims) {
                const Matrix a = randomMatrix(m, k, seed++);
                const Matrix b = randomMatrix(k, n, seed++);
                // FMA reassociates the K reduction across 2 lanes x 8
                // floats; 1e-4 relative covers K up to the tested 65.
                expectRelClose(engine.multiply(a, b),
                               referenceGemm(a, b), 1e-4f);
            }
        }
    }
}

TEST(GemmPacked, ForcedScalarBitExactOnLargeShape)
{
    const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Scalar);
    GemmEngine engine(GemmMode::Fast);
    const Matrix a = randomMatrix(130, 200, 90);
    const Matrix b = randomMatrix(200, 90, 91);
    expectBitExact(engine.multiply(a, b), referenceGemm(a, b));
}

TEST(GemmPacked, TransposedVariantsBothPaths)
{
    const Matrix a = randomMatrix(37, 53, 92);  // M x K
    const Matrix bt = randomMatrix(29, 53, 93); // N x K (for A * B^T)
    const Matrix at = randomMatrix(53, 37, 94); // K x M (for A^T * B)
    const Matrix b = randomMatrix(53, 29, 95);  // K x N

    Matrix want_abt(37, 29);
    for (std::size_t i = 0; i < 37; ++i) {
        for (std::size_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < 53; ++k) {
                acc += a.at(i, k) * bt.at(j, k);
            }
            want_abt.at(i, j) = acc;
        }
    }
    Matrix want_atb(37, 29);
    for (std::size_t i = 0; i < 37; ++i) {
        for (std::size_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < 53; ++k) {
                acc += at.at(k, i) * b.at(k, j);
            }
            want_atb.at(i, j) = acc;
        }
    }

    GemmEngine engine(GemmMode::Fast);
    {
        const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Scalar);
        expectBitExact(engine.multiplyTransposed(a, bt), want_abt);
        expectBitExact(engine.multiplyLeftTransposed(at, b), want_atb);
    }
    if (GemmEngine::fastKernelAvailable()) {
        const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Avx2);
        expectRelClose(engine.multiplyTransposed(a, bt), want_abt, 1e-4f);
        expectRelClose(engine.multiplyLeftTransposed(at, b), want_atb,
                       1e-4f);
    }
}

/**
 * The packed-once B^T operand (the feature-space k-NN's distance GEMM)
 * computes what a counted multiplyTransposed of the same engine does
 * against the shifted B, plus the bias, bit for bit under either
 * policy — the same kernel and build — without touching the engine's
 * call counts. Its row norms are the serial k-ordered sums.
 */
TEST(GemmPacked, PackedTransposedBMatchesLayerGemm)
{
    const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Auto);
    const std::size_t n = 37, k = 64; // 37 = two full panels + 5
    const Matrix b = randomMatrix(n, k, 96);
    const Matrix shift = randomMatrix(1, k, 97);
    const Matrix bias = randomMatrix(1, n, 98);
    Matrix shifted(n, k);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            shifted.at(j, kk) = b.at(j, kk) - shift.at(0, kk);
        }
    }
    ScratchArena &arena = ScratchArena::local();
    std::vector<Matrix> by_policy;
    for (const GemmMode mode : {GemmMode::Scalar, GemmMode::Auto}) {
        GemmEngine engine(mode);
        const ScratchArena::Frame frame(arena);
        const PackedTransposedB packed(engine, b.data(), n, k,
                                       shift.data(), arena);
        std::vector<float> norms(n);
        packed.rowSquaredNorms(norms.data());
        for (std::size_t j = 0; j < n; ++j) {
            float want = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                want += shifted.at(j, kk) * shifted.at(j, kk);
            }
            ASSERT_EQ(norms[j], want) << "row " << j;
        }
        for (const std::size_t m : {6u, 7u, 50u}) {
            const Matrix a = randomMatrix(m, k, 99 + m);
            Matrix want = engine.multiplyTransposed(a, shifted);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    want.at(i, j) += bias.at(0, j);
                }
            }
            const std::uint64_t fast = engine.fastPathCalls();
            const std::uint64_t scalar = engine.scalarPathCalls();
            Matrix got(m, n);
            packed.multiply(a.data(), m, bias.data(), got.data());
            expectBitExact(got, want);
            EXPECT_EQ(engine.fastPathCalls(), fast);
            EXPECT_EQ(engine.scalarPathCalls(), scalar);
            if (m == 50) {
                by_policy.push_back(got);
            }
        }
    }
    if (GemmEngine::fastKernelAvailable()) {
        // The two policies ran different builds: FMA rounds each
        // multiply-add once.
        EXPECT_NE(by_policy[0].storage(), by_policy[1].storage());
    }
}

TEST(GemmPacked, MultiplyLeftTransposedAddAccumulates)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(15, 6, 96); // K x M
    const Matrix b = randomMatrix(15, 9, 97); // K x N
    Matrix out = randomMatrix(6, 9, 98);
    const Matrix before = out;
    const Matrix product = engine.multiplyLeftTransposed(a, b);
    engine.multiplyLeftTransposedAdd(a, b, out);
    for (std::size_t i = 0; i < out.numel(); ++i) {
        EXPECT_FLOAT_EQ(out.data()[i],
                        before.data()[i] + product.data()[i])
            << "element " << i;
    }
}

TEST(GemmPacked, ForceFastRaisesWithoutFma)
{
    if (GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "host has AVX2+FMA; the raise path is covered "
                        "on non-AVX2 machines";
    }
    EXPECT_THROW(setKernelBuild(KernelFamily::Gemm, KernelBuild::Avx2),
                 EdgePcException);
}

TEST(GemmPacked, ActiveKernelNameReflectsPath)
{
    {
        const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Scalar);
        EXPECT_STREQ(GemmEngine::activeKernelName(), "scalar");
    }
    // The ambient path may itself be forced via EDGEPC_GEMM (CI runs
    // the suite under EDGEPC_GEMM=scalar), so check the Auto mapping
    // under an explicit guard.
    const test::BuildGuard guard(KernelFamily::Gemm, KernelBuild::Auto);
    const char *auto_name = GemmEngine::activeKernelName();
    if (GemmEngine::fastKernelAvailable()) {
        EXPECT_STREQ(auto_name, "avx2-fma");
    } else {
        EXPECT_STREQ(auto_name, "scalar");
    }
}

// ---------------------------------------------------------------------
// Fused epilogues
// ---------------------------------------------------------------------

void
checkEpiloguesOnPath(KernelBuild path)
{
    const test::BuildGuard guard(KernelFamily::Gemm, path);
    GemmEngine engine(GemmMode::Fast);
    std::uint64_t seed = 9000;
    const std::size_t shapes[][3] = {
        {1, 7, 5}, {6, 16, 16}, {7, 17, 33}, {64, 64, 64}, {130, 96, 48},
    };
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[1], seed++);
        const Matrix b = randomMatrix(s[1], s[2], seed++);
        const Matrix bias = randomMatrix(1, s[2], seed++);

        // The fused epilogue adds the bias to the same accumulator
        // value the unfused store writes, so the results match
        // bit-for-bit on either path.
        const Matrix plain = engine.multiply(a, b);
        Matrix want_bias = plain;
        Matrix want_relu = plain;
        for (std::size_t r = 0; r < want_bias.rows(); ++r) {
            for (std::size_t c = 0; c < want_bias.cols(); ++c) {
                const float v = plain.at(r, c) + bias.at(0, c);
                want_bias.at(r, c) = v;
                want_relu.at(r, c) = v > 0.0f ? v : 0.0f;
            }
        }
        expectBitExact(
            engine.multiply(a, b, GemmEpilogue::Bias, bias), want_bias);
        expectBitExact(
            engine.multiply(a, b, GemmEpilogue::BiasRelu, bias),
            want_relu);
    }
}

TEST(GemmEpilogue, FusedMatchesUnfusedScalarPath)
{
    checkEpiloguesOnPath(KernelBuild::Scalar);
}

TEST(GemmEpilogue, FusedMatchesUnfusedFmaPath)
{
    if (!GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    checkEpiloguesOnPath(KernelBuild::Avx2);
}

TEST(GemmEpilogue, MissingBiasRaises)
{
    GemmEngine engine(GemmMode::Scalar);
    const Matrix a = randomMatrix(4, 4, 9900);
    const Matrix b = randomMatrix(4, 4, 9901);
    Matrix c(4, 4);
    EXPECT_THROW(engine.gemm(a.data(), b.data(), c.data(), 4, 4, 4,
                             GemmEpilogue::Bias, nullptr),
                 EdgePcException);
}

// ---------------------------------------------------------------------
// Empty reduction (k == 0)
// ---------------------------------------------------------------------

/** Frees an m x n matrix full of NaNs, so the next allocation of that
    size most likely gets its dirty block back. */
void
dirtyHeap(std::size_t m, std::size_t n)
{
    Matrix dirt = Matrix::forOverwrite(m, n);
    std::fill(dirt.data(), dirt.data() + dirt.numel(),
              std::numeric_limits<float>::quiet_NaN());
}

/** epilogue(0 + bias) per column, as the tile stores compute it. */
Matrix
emptyProduct(std::size_t m, const Matrix &bias, GemmEpilogue epilogue)
{
    Matrix want(m, bias.cols());
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < bias.cols(); ++j) {
            float v = 0.0f;
            if (epilogue != GemmEpilogue::None) {
                v += bias.at(0, j);
                if (epilogue == GemmEpilogue::BiasRelu) {
                    v = v > 0.0f ? v : 0.0f;
                }
            }
            want.at(i, j) = v;
        }
    }
    return want;
}

void
expectSameBits(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
                  std::bit_cast<std::uint32_t>(want.data()[i]))
            << "element " << i;
    }
}

/**
 * A product over an empty reduction is 0, so C must still hold the
 * epilogue of 0 — 0, bias or relu(bias) — on every route, and an
 * accumulating call must leave C alone. Row counts below and above the
 * small-M cutoff, on both microkernel builds.
 */
TEST(GemmEngine, EmptyReductionWritesEpilogue)
{
    const std::size_t n = 19;
    Matrix bias = randomMatrix(1, n, 9950);
    bias.at(0, 0) = -0.0f;
    bias.at(0, 1) = 0.0f;
    const GemmEpilogue epilogues[] = {GemmEpilogue::None, GemmEpilogue::Bias,
                                      GemmEpilogue::BiasRelu};
    const KernelBuild paths[] = {KernelBuild::Scalar,
                                      KernelBuild::Auto};
    const auto wq = buildQuantizedWeights(Matrix(0, n));
    ASSERT_EQ(wq->k, 0u);
    ASSERT_EQ(wq->n, n);
    for (const KernelBuild path : paths) {
        const test::BuildGuard guard(KernelFamily::Gemm, path);
        GemmEngine engine(GemmMode::Fast);
        for (const std::size_t m : {std::size_t{1}, std::size_t{7}}) {
            const Matrix a(m, 0);
            for (const GemmEpilogue epilogue : epilogues) {
                SCOPED_TRACE(testing::Message()
                             << "m " << m << " epilogue "
                             << static_cast<int>(epilogue));
                const Matrix want = emptyProduct(m, bias, epilogue);
                dirtyHeap(m, n);
                expectSameBits(engine.multiply(a, Matrix(0, n), epilogue,
                                               bias),
                               want);
                dirtyHeap(m, n);
                expectSameBits(
                    engine.multiplyQuantized(a, *wq, epilogue, bias), want);
            }
            const Matrix zeros = emptyProduct(m, bias, GemmEpilogue::None);
            dirtyHeap(m, n);
            expectSameBits(engine.multiply(a, Matrix(0, n)), zeros);
            dirtyHeap(m, n);
            expectSameBits(engine.multiplyTransposed(a, Matrix(n, 0)),
                           zeros);
            dirtyHeap(m, n);
            expectSameBits(
                engine.multiplyLeftTransposed(Matrix(0, m), Matrix(0, n)),
                zeros);

            Matrix acc = randomMatrix(m, n, 9951);
            const Matrix before = acc;
            engine.multiplyLeftTransposedAdd(Matrix(0, m), Matrix(0, n),
                                             acc);
            expectSameBits(acc, before);
        }
    }
}

} // namespace
} // namespace nn
} // namespace edgepc
