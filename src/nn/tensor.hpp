/**
 * @file
 * Dense row-major float matrix — the tensor type of the NN engine.
 *
 * Point-cloud CNN feature maps are all 2-D after flattening batch and
 * neighbor axes (rows = points or point-neighbor pairs, cols = feature
 * channels), so a matrix suffices for the whole engine.
 */

#ifndef EDGEPC_NN_TENSOR_HPP
#define EDGEPC_NN_TENSOR_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace edgepc {
namespace nn {

/**
 * std::allocator whose value-initialization default-initializes:
 * `resize(n)` leaves new floats as they come from the heap instead of
 * zero-filling them. Explicit fills (`vector(n, 0.0f)`) and copies
 * construct as usual.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {
    }

    template <typename U>
    void construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Row-major dense float matrix. */
class Matrix
{
  public:
    using Storage = std::vector<float, DefaultInitAllocator<float>>;

    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Matrix holding a copy of @p data (size must be rows * cols). */
    Matrix(std::size_t rows, std::size_t cols, const std::vector<float> &data);

    /**
     * A rows x cols matrix whose elements are left as the allocator
     * hands them out: not zeroed, and on a warm heap the bytes of some
     * earlier matrix. Only for an output that its kernel writes in
     * full before anything reads it (DESIGN.md §17); an accumulator
     * or a partially written matrix needs Matrix(rows, cols).
     */
    static Matrix forOverwrite(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }
    std::size_t numel() const { return buf.size(); }
    bool empty() const { return buf.empty(); }

    float *data() { return buf.data(); }
    const float *data() const { return buf.data(); }

    /** Element accessors. */
    float &at(std::size_t r, std::size_t c) { return buf[r * nCols + c]; }
    float at(std::size_t r, std::size_t c) const
    {
        return buf[r * nCols + c];
    }

    /** Row view. */
    std::span<float> row(std::size_t r)
    {
        return {buf.data() + r * nCols, nCols};
    }
    std::span<const float> row(std::size_t r) const
    {
        return {buf.data() + r * nCols, nCols};
    }

    /** Reset every element to zero, keeping the shape. */
    void setZero();

    /** Fill with N(0, stddev) values. */
    void fillNormal(Rng &rng, float stddev);

    /**
     * Reinterpret as a different shape with the same element count
     * (cheap: no data movement).
     */
    void reshape(std::size_t rows, std::size_t cols);

    /** Elementwise in-place addition; shapes must match. */
    void add(const Matrix &other);

    /** Elementwise in-place scaling. */
    void scale(float factor);

    /** Underlying storage. */
    Storage &storage() { return buf; }
    const Storage &storage() const { return buf; }

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    Storage buf;
};

/** Column-wise concatenation: [a | b]; row counts must match. */
Matrix concatCols(const Matrix &a, const Matrix &b);

/**
 * Split @p m into its first @p left_cols columns and the rest
 * (inverse of concatCols).
 */
std::pair<Matrix, Matrix> splitCols(const Matrix &m, std::size_t left_cols);

/**
 * Row-wise concatenation: stack the parts top to bottom; column
 * counts must match (empty parts list yields an empty matrix).
 */
Matrix concatRows(std::span<const Matrix> parts);

/** Copy of rows [begin, end) of @p m. */
Matrix sliceRows(const Matrix &m, std::size_t begin, std::size_t end);

/**
 * A learnable parameter: value plus the gradient accumulated by the
 * backward pass. Optimizers consume (value, grad) pairs.
 */
struct Parameter
{
    Matrix value;
    Matrix grad;

    /** Allocate both value and grad at the given shape. */
    void init(std::size_t rows, std::size_t cols);

    /** Zero the gradient. */
    void zeroGrad() { grad.setZero(); }
};

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_TENSOR_HPP
