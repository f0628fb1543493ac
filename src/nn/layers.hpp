/**
 * @file
 * Neural-network layers with forward and backward passes.
 *
 * The engine is deliberately small: point-cloud CNNs are built from
 * shared MLPs (1x1 convolutions == row-wise Linear layers), batch
 * normalization, ReLU and max-pooling over neighbors. All layers
 * support full manual backprop so models can be (re)trained with the
 * EdgePC approximations in the loop (Sec 5.3 of the paper).
 */

#ifndef EDGEPC_NN_LAYERS_HPP
#define EDGEPC_NN_LAYERS_HPP

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/epilogue.hpp"
#include "nn/gemm.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace edgepc {
namespace nn {

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Forward pass.
     *
     * @param input Input activations (rows x in features).
     * @param route The run's GEMM route (engine and int8 route); only
     *        layers that multiply read it, and training reads only its
     *        engine.
     * @param train Keep intermediates for backward() when true.
     */
    virtual Matrix forward(const Matrix &input, const GemmRoute &route,
                           bool train) = 0;

    /**
     * Backward pass: given dLoss/dOutput return dLoss/dInput and
     * accumulate parameter gradients. Only valid after a
     * forward(..., true).
     */
    virtual Matrix backward(const Matrix &grad_output) = 0;

    /**
     * True when inference-mode forward() under int8 route @p int8
     * treats every row independently (row-wise fp32 Linear /
     * activation layers). Sequential::forwardSegmented runs such
     * layers once over a whole row-stacked batch of clouds (large-M
     * GEMM), while layers with cross-row state (BatchNorm's per-cloud
     * instance stats, the int8 route's per-call activation scale) run
     * per segment.
     */
    virtual bool rowIndependentInference(Route int8) const
    {
        (void)int8;
        return false;
    }

    /**
     * The element-wise function of an activation layer, which
     * Sequential's inference loop applies in place or fuses into the
     * BatchNorm before it; empty for every other layer.
     */
    virtual std::optional<Activation> activation() const
    {
        return std::nullopt;
    }

    /** Append this layer's parameters to @p out. */
    virtual void collectParameters(std::vector<Parameter *> &out)
    {
        (void)out;
    }

    /**
     * Append this layer's non-learnable state buffers (e.g. batch-norm
     * running statistics) to @p out, for serialization.
     */
    virtual void collectBuffers(std::vector<std::vector<float> *> &out)
    {
        (void)out;
    }
};

/**
 * Fully connected layer applied row-wise: the shared-MLP / 1x1-conv
 * building block of PointNet-family networks.
 */
class Linear : public Layer
{
  public:
    /**
     * @param in Input feature dimension.
     * @param out Output feature dimension.
     * @param rng Weight initialization stream (He init).
     */
    Linear(std::size_t in, std::size_t out, Rng &rng);

    /** Inference runs int8 when resolveQuantGemm(route.int8, ...)
        says so; training runs fp32 on route.engine, which backward()
        reuses. */
    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    bool rowIndependentInference(Route int8) const override
    {
        return int8 == Route::Off;
    }

    std::size_t inDim() const { return weight.value.rows(); }
    std::size_t outDim() const { return weight.value.cols(); }

    Parameter &weights() { return weight; }
    Parameter &biases() { return bias; }

    /** Quantized-panel rebuilds performed (cache observability). */
    std::uint64_t quantRebuilds() const { return quantCache.rebuilds(); }

  private:
    Parameter weight; ///< in x out.
    Parameter bias;   ///< 1 x out.
    Matrix savedInput;
    /** The engine of the last train forward, which backward reuses. */
    GemmEngine *trainEngine = nullptr;
    QuantPanelCache quantCache;
};

/**
 * Linear + ReLU fused into a single GEMM pass: the bias add and the
 * rectification run in the epilogue while each output tile is still
 * in registers (GemmEpilogue::BiasRelu), so the activation costs no
 * extra sweep over the output. Parameter layout matches a separate
 * Linear + ReLU pair (weight, bias; ReLU holds no parameters), so
 * serialized checkpoints are interchangeable.
 */
class LinearRelu : public Layer
{
  public:
    LinearRelu(std::size_t in, std::size_t out, Rng &rng);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    bool rowIndependentInference(Route int8) const override
    {
        return int8 == Route::Off;
    }

    std::size_t inDim() const { return weight.value.rows(); }
    std::size_t outDim() const { return weight.value.cols(); }

    Parameter &weights() { return weight; }
    Parameter &biases() { return bias; }

    /** Quantized-panel rebuilds performed (cache observability). */
    std::uint64_t quantRebuilds() const { return quantCache.rebuilds(); }

  private:
    Parameter weight; ///< in x out.
    Parameter bias;   ///< 1 x out.
    Matrix savedInput;
    /** ReLU mask from the last train forward (out > 0 iff pre > 0). */
    std::vector<std::uint8_t> mask;
    /** The engine of the last train forward, which backward reuses. */
    GemmEngine *trainEngine = nullptr;
    QuantPanelCache quantCache;
};

/**
 * Batch normalization over rows (per-feature statistics).
 *
 * The engine processes one cloud per forward pass, so multi-row
 * batch statistics are per-cloud (instance) statistics and are used
 * at inference as well as in training; running averages back only
 * the single-row case (after global pooling). See the rationale in
 * layers.cpp.
 */
class BatchNorm : public Layer
{
  public:
    explicit BatchNorm(std::size_t features, float momentum = 0.1f,
                       float epsilon = 1e-5f);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    /**
     * Inference over a row-stacked batch of independent segments:
     * each segment is normalized with its own statistics (or the
     * running ones when it has a single row), then @p act is applied,
     * in one pass from @p in to @p out. @p out may be @p in, and must
     * have its shape.
     */
    void inferSegments(const Matrix &in, Matrix &out,
                       std::span<const std::size_t> segment_rows,
                       Activation act) const;

  private:
    /**
     * Mean and variance of @p rows rows at @p x: their own for more
     * than one row, else the running averages. Returns whether they
     * are the rows' own.
     */
    bool statistics(const float *x, std::size_t rows,
                    std::vector<float> &mean,
                    std::vector<float> &var) const;

    Parameter gamma; ///< 1 x features (scale).
    Parameter beta;  ///< 1 x features (shift).
    std::vector<float> runningMean;
    std::vector<float> runningVar;
    float mom;
    float eps;

    // Saved for backward.
    Matrix savedNormalized;
    std::vector<float> savedInvStd;
    /**
     * Whether the last train-mode forward normalized with batch
     * statistics. Single-row batches fall back to the running stats
     * (their batch variance is degenerate), which decouples the
     * normalization from the inputs and changes the backward formula.
     */
    bool usedBatchStats = false;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    bool rowIndependentInference(Route) const override { return true; }
    std::optional<Activation> activation() const override
    {
        return Activation::relu();
    }

  private:
    std::vector<std::uint8_t> mask;
};

/**
 * Leaky rectified linear unit (DGCNN uses slope 0.2 throughout; the
 * nonzero negative slope prevents units from dying, which matters for
 * the features feeding the global max-pool).
 */
class LeakyReLU : public Layer
{
  public:
    explicit LeakyReLU(float negative_slope = 0.2f);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    bool rowIndependentInference(Route) const override { return true; }
    std::optional<Activation> activation() const override
    {
        return Activation::leakyRelu(slope);
    }

  private:
    float slope;
    std::vector<std::uint8_t> mask;
};

/** A stack of layers executed in order. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer (takes ownership). */
    void add(std::unique_ptr<Layer> layer);

    /** Convenience: Linear -> BatchNorm -> ReLU block. */
    void addLinearBnRelu(std::size_t in, std::size_t out, Rng &rng);

    /** Convenience: epilogue-fused Linear + ReLU block (no BN). */
    void addLinearRelu(std::size_t in, std::size_t out, Rng &rng);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    void collectBuffers(std::vector<std::vector<float> *> &out) override;

    /** True when every child layer is row-independent at inference. */
    bool rowIndependentInference(Route int8) const override;

    /**
     * Inference-only forward over a row-stacked batch of independent
     * clouds: @p input holds the clouds' rows back to back and
     * @p segment_rows gives each cloud's row count (must sum to
     * input.rows()). Row-independent layers run once at full batch
     * height — this is where the packed GEMM gets its large-M shape —
     * while BatchNorm normalizes each segment with its own statistics,
     * fused with the activation after it into one in-place pass, and
     * any other layer (a Linear that route.int8 may quantize) runs per
     * segment, so each segment's rows equal its per-cloud forward()
     * bit for bit.
     *
     * This is the one inference loop: forward(x, route, false) and
     * forwardFrom(first, x, route, false) run it as a single segment.
     *
     * @param first_layer Skip layers [0, first_layer): the delayed
     *        aggregation and split first-Linear routes (DESIGN.md §13)
     *        run the first Linear themselves (before the gather,
     *        broadcast or interpolation) and feed the combined
     *        pre-activations to the remaining tail.
     */
    Matrix forwardSegmented(Matrix input,
                            std::span<const std::size_t> segment_rows,
                            const GemmRoute &route,
                            std::size_t first_layer = 0);

    /** Child layer @p i (0-based, owned; bounds-checked). */
    Layer *layerAt(std::size_t i) { return layers.at(i).get(); }

    /**
     * forward() starting at layer @p first: runs layers
     * [first, size()) on @p input — the tail pass of the delayed and
     * split first-Linear routes.
     * Callers that own the input move it in, so inference updates it
     * in place.
     */
    Matrix forwardFrom(std::size_t first, Matrix input,
                       const GemmRoute &route, bool train);

    /**
     * backward() stopping before layer @p first: runs the layers in
     * reverse down to and including layer @p first and returns the
     * gradient w.r.t. that layer's input. Pairs with forwardFrom.
     */
    Matrix backwardFrom(std::size_t first, const Matrix &grad_output);

    std::size_t size() const { return layers.size(); }

  private:
    /**
     * The inference loop over layers [first, size()). It reads
     * @p borrowed when given, else @p owned, and writes into a matrix
     * of its own from the first layer on, so a borrowed input is never
     * copied.
     */
    Matrix infer(const Matrix *borrowed, Matrix owned,
                 std::span<const std::size_t> segment_rows,
                 const GemmRoute &route, std::size_t first);

    std::vector<std::unique_ptr<Layer>> layers;
};

/**
 * Max-pool over fixed-size groups of consecutive rows: reduces a
 * (points * k) x C matrix to points x C, taking the max across each
 * point's k neighbor rows (the aggregation step of SA / EdgeConv).
 */
class MaxPoolNeighbors : public Layer
{
  public:
    /** @param group_size Rows pooled per output row (k). */
    explicit MaxPoolNeighbors(std::size_t group_size);

    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    std::size_t k;
    std::vector<std::uint32_t> argmax;
    std::size_t savedRows = 0;
};

/**
 * Inference max-pool over rows [begin, begin + rows) of @p x, in groups
 * of @p k consecutive rows (rows must be a multiple of k): returns
 * rows / k pooled rows. The one kernel behind MaxPoolNeighbors and
 * GlobalMaxPool inference and the batched route's per-cloud pools.
 */
Matrix maxPoolRows(const Matrix &x, std::size_t begin, std::size_t rows,
                   std::size_t k);

/** Max-pool all rows into a single row (global feature). */
class GlobalMaxPool : public Layer
{
  public:
    Matrix forward(const Matrix &input, const GemmRoute &route,
                   bool train) override;
    Matrix backward(const Matrix &grad_output) override;

  private:
    std::vector<std::uint32_t> argmax;
    std::size_t savedRows = 0;
};

} // namespace nn
} // namespace edgepc

#endif // EDGEPC_NN_LAYERS_HPP
