/**
 * @file
 * EdgePC pipeline configuration: which of the paper's three evaluated
 * setups runs (Sec 6.1.3) and every approximation knob of Sec 5.
 */

#ifndef EDGEPC_CORE_CONFIG_HPP
#define EDGEPC_CORE_CONFIG_HPP

#include <cstddef>
#include <string>

#include "geometry/morton.hpp"

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

    /** True for the variants that run the approximations. */
    bool approximate() const { return variant != PipelineVariant::Baseline; }

    /** True when feature compute should use the fast GEMM path. */
    bool useTensorCores() const { return variant == PipelineVariant::SNF; }

    /** Factory: the SOTA baseline configuration. */
    static EdgePcConfig baseline();

    /** Factory: the paper's S+N configuration. */
    static EdgePcConfig sn();

    /** Factory: the paper's S+N+F configuration. */
    static EdgePcConfig snf();
};

/**
 * Point the process-global GEMM engine at @p cfg's feature-compute
 * path (EdgePcConfig::useTensorCores: the fast kernels, else scalar).
 * Every route that runs a model's GEMMs calls it first: the sequential
 * and staged pipelines and the serving micro-batch. The engine mode is
 * one process-global field, so two pipelines with different variants
 * in one process still race on it.
 */
void applyGemmMode(const EdgePcConfig &cfg);

} // namespace edgepc

#endif // EDGEPC_CORE_CONFIG_HPP
