#include "nn/tensor.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edgepc {
namespace nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : nRows(rows), nCols(cols), buf(rows * cols, 0.0f)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols,
               const std::vector<float> &data)
    : nRows(rows), nCols(cols), buf(data.begin(), data.end())
{
    if (buf.size() != rows * cols) {
        fatal("Matrix: data size %zu != %zu x %zu", buf.size(), rows, cols);
    }
}

Matrix
Matrix::forOverwrite(std::size_t rows, std::size_t cols)
{
    Matrix m;
    m.nRows = rows;
    m.nCols = cols;
    m.buf.resize(rows * cols);
    return m;
}

void
Matrix::setZero()
{
    std::fill(buf.begin(), buf.end(), 0.0f);
}

void
Matrix::fillNormal(Rng &rng, float stddev)
{
    for (float &v : buf) {
        v = rng.normal(0.0f, stddev);
    }
}

void
Matrix::reshape(std::size_t rows, std::size_t cols)
{
    if (rows * cols != buf.size()) {
        fatal("Matrix::reshape: %zu x %zu != numel %zu", rows, cols,
              buf.size());
    }
    nRows = rows;
    nCols = cols;
}

void
Matrix::add(const Matrix &other)
{
    if (other.numel() != numel()) {
        fatal("Matrix::add: shape mismatch (%zu vs %zu elements)",
              other.numel(), numel());
    }
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] += other.buf[i];
    }
}

void
Matrix::scale(float factor)
{
    for (float &v : buf) {
        v *= factor;
    }
}

Matrix
concatCols(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows()) {
        fatal("concatCols: row mismatch (%zu vs %zu)", a.rows(), b.rows());
    }
    Matrix out = Matrix::forOverwrite(a.rows(), a.cols() + b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        float *dst = out.data() + r * out.cols();
        const float *ra = a.data() + r * a.cols();
        const float *rb = b.data() + r * b.cols();
        std::copy(ra, ra + a.cols(), dst);
        std::copy(rb, rb + b.cols(), dst + a.cols());
    }
    return out;
}

std::pair<Matrix, Matrix>
splitCols(const Matrix &m, std::size_t left_cols)
{
    if (left_cols > m.cols()) {
        fatal("splitCols: left_cols %zu > cols %zu", left_cols, m.cols());
    }
    Matrix left = Matrix::forOverwrite(m.rows(), left_cols);
    Matrix right = Matrix::forOverwrite(m.rows(), m.cols() - left_cols);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *src = m.data() + r * m.cols();
        std::copy(src, src + left_cols, left.data() + r * left_cols);
        std::copy(src + left_cols, src + m.cols(),
                  right.data() + r * right.cols());
    }
    return {std::move(left), std::move(right)};
}

Matrix
concatRows(std::span<const Matrix> parts)
{
    if (parts.empty()) {
        return Matrix();
    }
    const std::size_t cols = parts.front().cols();
    std::size_t rows = 0;
    for (const Matrix &part : parts) {
        if (part.cols() != cols) {
            fatal("concatRows: column mismatch (%zu vs %zu)",
                  part.cols(), cols);
        }
        rows += part.rows();
    }
    Matrix out = Matrix::forOverwrite(rows, cols);
    float *dst = out.data();
    for (const Matrix &part : parts) {
        std::copy(part.data(), part.data() + part.numel(), dst);
        dst += part.numel();
    }
    return out;
}

Matrix
sliceRows(const Matrix &m, std::size_t begin, std::size_t end)
{
    if (begin > end || end > m.rows()) {
        fatal("sliceRows: bad range [%zu, %zu) for %zu rows", begin, end,
              m.rows());
    }
    Matrix out = Matrix::forOverwrite(end - begin, m.cols());
    const float *src = m.data() + begin * m.cols();
    std::copy(src, src + out.numel(), out.data());
    return out;
}

void
Parameter::init(std::size_t rows, std::size_t cols)
{
    value = Matrix(rows, cols);
    grad = Matrix(rows, cols);
}

} // namespace nn
} // namespace edgepc
