/**
 * @file
 * Feature grouping: the gather/scatter stage between neighbor search
 * and feature computation.
 *
 * Grouping gathers the feature rows of each sampled point's neighbors
 * into an (n*k) x C matrix (Sec 2.1.2). In PointNet++ the gathered
 * rows are augmented with neighbor-relative coordinates; in DGCNN they
 * become edge features [f_i, f_j - f_i]. The interpolation apply step
 * of the FP modules lives here too.
 *
 * Sec 5.4.2 of the paper observes that sorting each neighbor-index row
 * before gathering improves locality and cuts L2/DRAM traffic; the
 * cache-traffic model here reproduces that experiment without GPU
 * performance counters.
 */

#ifndef EDGEPC_NN_GROUPING_HPP
#define EDGEPC_NN_GROUPING_HPP

#include <cstdint>
#include <span>

#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "neighbor/neighbor_search.hpp"
#include "sampling/interpolation.hpp"

namespace edgepc {
namespace nn {

/** Gather rows of @p features at @p indices into a new matrix. */
Matrix gatherRows(const Matrix &features,
                  std::span<const std::uint32_t> indices);

/**
 * Gather rows of @p features at @p indices into @p out (row-major,
 * indices.size() x features.cols()). The caller owns the buffer —
 * typically a ScratchArena span, so gather + GEMM stages compose
 * without a heap allocation per call.
 */
void gatherRowsInto(const Matrix &features,
                    std::span<const std::uint32_t> indices,
                    std::span<float> out);

/**
 * Gather + Linear in one step: the neighbor rows are gathered into a
 * thread-local ScratchArena buffer that feeds the packed GEMM
 * directly (with the bias fused into the epilogue), so
 * the gathered activation matrix never exists as a heap allocation.
 *
 * @param features Source feature rows (N x C).
 * @param indices Row indexes to gather (M entries).
 * @param weight C x C_out weight.
 * @param bias 1 x C_out bias, or empty for none.
 * @param engine GEMM engine to run on.
 * @return M x C_out output activations.
 */
Matrix gatherLinear(const Matrix &features,
                    std::span<const std::uint32_t> indices,
                    const Matrix &weight, const Matrix &bias,
                    GemmEngine &engine);

/**
 * Fused gather + neighbor max-pool: out[i] = column-wise max over the
 * rows of @p features named by neighbor row i. Bit-exact with
 * gatherRows followed by MaxPoolNeighbors (first neighbor row copied,
 * then strictly-greater compares), but the (n*k) x C gathered matrix
 * never exists — this is the delayed-aggregation pooling step
 * (DESIGN.md §13), where @p features holds already-transformed rows.
 *
 * @param features Source rows (N x C).
 * @param neighbors Neighbor lists (n x k). k == 0 zero-fills @p out.
 * @param out Caller-owned buffer (n x C row-major, e.g. a ScratchArena
 *        span).
 */
void gatherMaxPoolInto(const Matrix &features,
                       const NeighborLists &neighbors,
                       std::span<float> out);

/** gatherMaxPoolInto returning a fresh n x C matrix. */
Matrix gatherMaxPool(const Matrix &features,
                     const NeighborLists &neighbors);

/**
 * Build the SA-module grouped input: for sampled point i with neighbor
 * j, the row [p_j - p_i | f_j]. Output is (n*k) x (3 + C); C may be 0
 * (first module, coordinates only).
 *
 * @param positions All point positions (N).
 * @param features Point features (N x C) or empty.
 * @param sample_indices The n sampled point indexes.
 * @param neighbors Neighbor lists of the sampled points (n x k, entries
 *        index into @p positions).
 */
Matrix groupWithRelativeCoords(std::span<const Vec3> positions,
                               const Matrix &features,
                               std::span<const std::uint32_t> sample_indices,
                               const NeighborLists &neighbors);

/** groupWithRelativeCoords writing into a caller-owned buffer
 * ((n*k) x (3 + C) row-major, e.g. a ScratchArena span). */
void groupWithRelativeCoordsInto(
    std::span<const Vec3> positions, const Matrix &features,
    std::span<const std::uint32_t> sample_indices,
    const NeighborLists &neighbors, std::span<float> out);

/**
 * Build DGCNN edge features: for point i with neighbor j, the row
 * [f_i | f_j - f_i]. Output is (N*k) x 2C.
 */
Matrix edgeFeatures(const Matrix &features, const NeighborLists &neighbors);

/** edgeFeatures writing into a caller-owned buffer ((N*k) x 2C
 * row-major, e.g. a ScratchArena span). */
void edgeFeaturesInto(const Matrix &features,
                      const NeighborLists &neighbors,
                      std::span<float> out);

/**
 * Apply an interpolation plan: out[t] = sum_j w[t][j] * src[idx[t][j]]
 * (addInterpolation onto a zeroed matrix).
 */
Matrix applyInterpolation(const InterpolationPlan &plan,
                          const Matrix &source_features);

/**
 * The interpolation kernel: out[t] += sum_j w[t][j] * source[idx[t][j]]
 * for every target t, adding the k weighted rows in plan order onto
 * what @p out holds. The FP modules' first Linear (nn/delayed_agg.hpp)
 * adds the interpolated up-product onto its skip product with it, so
 * the up-sampled features never exist as a matrix of their own.
 *
 * @param source Row-major source rows, @p cols floats each.
 * @param out Row-major plan.targets() x @p cols rows.
 */
void addInterpolation(const InterpolationPlan &plan,
                      std::span<const float> source, std::size_t cols,
                      std::span<float> out);

/**
 * Differentiable gather layer. Set the indices, then forward gathers
 * rows and backward scatter-adds gradients to the input rows.
 */
class GroupingLayer : public Layer
{
  public:
    GroupingLayer() = default;

    /** Indices to gather on the next forward (copied). */
    void setIndices(std::span<const std::uint32_t> indices);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    std::vector<std::uint32_t> idx;
    std::size_t savedRows = 0;
};

/**
 * Differentiable DGCNN edge-feature layer: with neighbor lists set,
 * forward builds [f_i | f_j - f_i] rows and backward scatter-adds the
 * gradients back to both endpoints.
 */
class EdgeFeatureLayer : public Layer
{
  public:
    EdgeFeatureLayer() = default;

    /** Neighbor lists to use on the next forward (copied). */
    void setNeighbors(NeighborLists lists);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    NeighborLists neighbors;
    std::size_t savedRows = 0;
};

/**
 * Two-level cache-traffic model for gathers (the Sec 5.4.2
 * experiment). Rows of @p row_bytes bytes are fetched at addresses
 * index * row_bytes; lines are 64 bytes and transactions are 128-byte
 * segments: back-to-back misses that fall into the same segment
 * coalesce into one transaction (the burst-combining behaviour of the
 * GPU memory system). Row-sorting the index matrix places duplicate
 * and spatially-adjacent indexes — which on a Morton-ordered cloud
 * are also address-adjacent — next to each other in time, which is
 * exactly what this coalescing rewards.
 */
struct GatherTraffic
{
    /** Transactions from L2 toward the cores (coalesced L1 misses). */
    std::uint64_t l2Lines = 0;
    /** Transactions from DRAM to L2 (coalesced L2 misses). */
    std::uint64_t dramLines = 0;
};

/**
 * Simulate the gather traffic of reading @p indices sequentially.
 *
 * @param indices Row indexes in gather order.
 * @param row_bytes Bytes per feature row.
 * @param l1_lines L1 capacity in 64-byte lines.
 * @param l2_lines L2 capacity in 64-byte lines.
 */
GatherTraffic estimateGatherTraffic(std::span<const std::uint32_t> indices,
                                    std::size_t row_bytes,
                                    std::size_t l1_lines = 1024,
                                    std::size_t l2_lines = 16384);

/**
 * Copy of @p lists with every row sorted ascending (the Sec 5.4.2
 * locality optimization applied before grouping).
 */
NeighborLists sortNeighborRows(const NeighborLists &lists);

/**
 * GPU-style warp-coalescing traffic model for the grouping gather
 * (the mechanism behind the Sec 5.4.2 measurement).
 *
 * One warp covers @p warp consecutive query rows; the gather kernel
 * iterates the neighbor slot j, and at each step the warp's threads
 * read neighbor j of their respective queries. The memory system
 * coalesces the accesses of one step into unique 128-byte segments
 * (that set is the L2 traffic); an LRU L2 in front of DRAM absorbs
 * re-reads across steps/warps.
 *
 * When each row is sorted ascending AND the queries themselves are in
 * Morton order (as in the EdgePC pipeline), the warp's step-j reads
 * land on nearby addresses and coalesce — exactly the paper's
 * "simply sorting the index matrix" saving.
 *
 * @param lists Neighbor lists (queries x k), entries indexing rows of
 *        @p row_bytes bytes.
 * @param row_bytes Bytes per feature row.
 * @param warp Threads per warp (default 32).
 * @param l2_lines L2 capacity in 64-byte lines.
 */
GatherTraffic
estimateWarpGatherTraffic(const NeighborLists &lists,
                          std::size_t row_bytes, std::size_t warp = 32,
                          std::size_t l2_lines = 16384);

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_GROUPING_HPP
