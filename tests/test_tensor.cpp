/** @file Unit tests for the Matrix type and helpers. */

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/tensor.hpp"

namespace edgepc {
namespace nn {
namespace {

TEST(Matrix, ZeroInitialized)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.numel(), 12u);
    for (std::size_t i = 0; i < m.numel(); ++i) {
        EXPECT_FLOAT_EQ(m.data()[i], 0.0f);
    }
}

TEST(Matrix, AdoptsData)
{
    Matrix m(2, 2, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
}

TEST(Matrix, RowView)
{
    Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
    const auto row = m.row(1);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_FLOAT_EQ(row[0], 4.0f);
}

TEST(Matrix, AddAndScale)
{
    Matrix a(1, 3, {1, 2, 3});
    Matrix b(1, 3, {10, 20, 30});
    a.add(b);
    EXPECT_FLOAT_EQ(a.at(0, 2), 33.0f);
    a.scale(0.5f);
    EXPECT_FLOAT_EQ(a.at(0, 0), 5.5f);
}

TEST(Matrix, Reshape)
{
    Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
    m.reshape(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_FLOAT_EQ(m.at(2, 1), 6.0f);
}

TEST(Matrix, FillNormalIsDeterministic)
{
    Rng a(5), b(5);
    Matrix m1(4, 4), m2(4, 4);
    m1.fillNormal(a, 1.0f);
    m2.fillNormal(b, 1.0f);
    for (std::size_t i = 0; i < m1.numel(); ++i) {
        EXPECT_FLOAT_EQ(m1.data()[i], m2.data()[i]);
    }
}

TEST(Matrix, ConcatAndSplitRoundTrip)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 1, {9, 8});
    const Matrix joined = concatCols(a, b);
    EXPECT_EQ(joined.cols(), 3u);
    EXPECT_FLOAT_EQ(joined.at(0, 2), 9.0f);
    EXPECT_FLOAT_EQ(joined.at(1, 0), 3.0f);

    auto [left, right] = splitCols(joined, 2);
    EXPECT_EQ(left.cols(), 2u);
    EXPECT_EQ(right.cols(), 1u);
    EXPECT_FLOAT_EQ(left.at(1, 1), 4.0f);
    EXPECT_FLOAT_EQ(right.at(1, 0), 8.0f);
}

TEST(Matrix, ZeroFillSurvivesADirtyHeap)
{
    const Matrix raw = Matrix::forOverwrite(4, 3);
    EXPECT_EQ(raw.rows(), 4u);
    EXPECT_EQ(raw.cols(), 3u);
    EXPECT_EQ(raw.numel(), 12u);
    // The block a dirtied matrix frees is the likeliest one for the next
    // allocation of its size; Matrix(rows, cols) must still read zero.
    for (int round = 0; round < 4; ++round) {
        {
            Matrix dirty = Matrix::forOverwrite(64, 64);
            std::fill(dirty.data(), dirty.data() + dirty.numel(), 1.0f);
        }
        const Matrix zeroed(64, 64);
        const float *z = zeroed.data();
        EXPECT_TRUE(std::all_of(z, z + zeroed.numel(),
                                [](float v) { return v == 0.0f; }));
    }
}

TEST(Parameter, InitAllocatesValueAndGrad)
{
    Parameter p;
    p.init(2, 3);
    EXPECT_EQ(p.value.numel(), 6u);
    EXPECT_EQ(p.grad.numel(), 6u);
    p.grad.at(0, 0) = 5.0f;
    p.zeroGrad();
    EXPECT_FLOAT_EQ(p.grad.at(0, 0), 0.0f);
}

} // namespace
} // namespace nn
} // namespace edgepc
