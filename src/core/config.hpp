/**
 * @file
 * EdgePC pipeline configuration: which of the paper's three evaluated
 * setups runs (Sec 6.1.3), every approximation knob of Sec 5, and the
 * three routes a run takes (DESIGN.md §9).
 */

#ifndef EDGEPC_CORE_CONFIG_HPP
#define EDGEPC_CORE_CONFIG_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/dispatch.hpp"
#include "geometry/morton.hpp"
#include "nn/gemm.hpp"

namespace edgepc {

/** Canonical stage names used by the StageTimer instrumentation. */
inline constexpr const char *kStageSample = "sample";
inline constexpr const char *kStageNeighbor = "neighbor";
inline constexpr const char *kStageGroup = "group";
inline constexpr const char *kStageFeature = "feature";

/** The three evaluated pipeline variants (Sec 6.1.3). */
enum class PipelineVariant
{
    /** SOTA FPS + ball query / k-NN, scalar feature compute. */
    Baseline,
    /** Morton-approximate sample and neighbor search. */
    SN,
    /** S+N plus the Tensor-core feature-compute path. */
    SNF,
};

/** Name of a variant for reports ("baseline", "S+N", "S+N+F"). */
std::string variantName(PipelineVariant variant);

/**
 * Full configuration of an EdgePC pipeline.
 *
 * Defaults mirror the paper's chosen design point: 32-bit Morton
 * codes, approximation applied to the first sampling layer / last
 * up-sampling layer / first neighbor-search layer only, and reuse
 * distance 1 for the feature-space search layers of DGCNN.
 *
 * The config is the one place a run's routes come from: the variant
 * picks the policy of every GEMM the run makes (gemmRoute()), and the
 * three Route fields start at the environment's defaults
 * (common/dispatch.hpp), so a value the caller sets beats the
 * environment, which beats the route's Auto heuristic.
 */
struct EdgePcConfig
{
    /** Which pipeline variant runs. */
    PipelineVariant variant = PipelineVariant::Baseline;

    /** Total Morton code bits a (Sec 5.1.3; 32 in the paper). */
    int codeBits = MortonEncoder::kDefaultCodeBits;

    /**
     * Neighbor search window W (Sec 5.2.2). 0 means W = k (pure index
     * selection); larger windows trade compute for a lower
     * false-neighbor ratio (Fig 15a).
     */
    std::size_t searchWindow = 0;

    /**
     * Number of leading SA down-sampling layers (and matching trailing
     * FP up-sampling layers) replaced by the Morton sampler (Fig 9 /
     * Fig 15b sweeps this).
     */
    int optimizedSampleLayers = 1;

    /** Number of leading neighbor-search layers replaced (Fig 11). */
    int optimizedNeighborLayers = 1;

    /**
     * Neighbor-index reuse distance for feature-space search layers
     * (DGCNN modules >= 2, Sec 5.2.3). 0 disables reuse.
     */
    int reuseDistance = 1;

    /**
     * Int8 GEMM route for inference (DESIGN.md §15): On quantizes every
     * layer GEMM, Auto those with m >= nn::kQuantMinRows and
     * k >= nn::kQuantMinK. Training and backward always run fp32.
     * Default Off; EDGEPC_GEMM=int8 makes it On.
     */
    Route int8Gemm = dispatchEnv().int8Gemm;

    /**
     * Int8 (s16 fixed-point) coordinate search in the exact ball-query
     * and k-NN stages (DESIGN.md §15). Auto engages the ball query when
     * the grid step is fine against the radius and leaves k-NN fp32.
     * Default Off; EDGEPC_SIMD=int8 makes it On.
     */
    Route int8Search = dispatchEnv().int8Search;

    /**
     * Delayed aggregation (DESIGN.md §13): run each aggregation block's
     * first Linear over the unique points before the gather. Auto
     * delays a block iff its first-layer FLOP ratio reaches
     * nn::kDelayedAggFlopRatio. Default Auto, or EDGEPC_DELAYED_AGG.
     */
    Route delayedAggregation = dispatchEnv().delayedAggregation;

    /** True for the variants that run the approximations. */
    bool approximate() const { return variant != PipelineVariant::Baseline; }

    /** True when feature compute should use the fast GEMM path. */
    bool useTensorCores() const { return variant == PipelineVariant::SNF; }

    /**
     * The GEMM route of a run under this config: the process's engine
     * for the variant's policy (the Tensor-core model, GemmMode::Auto,
     * under S+N+F; the scalar path otherwise) and int8Gemm.
     */
    nn::GemmRoute gemmRoute() const;

    /** Factory: the SOTA baseline configuration. */
    static EdgePcConfig baseline();

    /** Factory: the paper's S+N configuration. */
    static EdgePcConfig sn();

    /** Factory: the paper's S+N+F configuration. */
    static EdgePcConfig snf();
};

/**
 * The dispatch of a run under @p cfg as BENCH json config.* pairs, in
 * key order: the two kernel builds (simd_path, gemm_path and
 * gemm_int8_kernel) and the three routes (simd_fixed and gemm_quant as
 * int8/fp32/auto, delayed_agg as on/off/auto). Benches echo a default
 * config; the examples print their own.
 */
std::vector<std::pair<std::string, std::string>>
dispatchSummary(const EdgePcConfig &cfg);

} // namespace edgepc

#endif // EDGEPC_CORE_CONFIG_HPP
