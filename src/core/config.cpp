#include "core/config.hpp"

#include "geometry/simd_distance.hpp"

namespace edgepc {

std::string
variantName(PipelineVariant variant)
{
    switch (variant) {
      case PipelineVariant::Baseline:
        return "baseline";
      case PipelineVariant::SN:
        return "S+N";
      case PipelineVariant::SNF:
        return "S+N+F";
    }
    return "?";
}

nn::GemmRoute
EdgePcConfig::gemmRoute() const
{
    return {nn::GemmEngine::shared(useTensorCores() ? nn::GemmMode::Auto
                                                    : nn::GemmMode::Scalar),
            int8Gemm};
}

namespace {

/** A route that swaps fp32 for int8 arithmetic: int8 / fp32 / auto. */
const char *
int8RouteName(Route route)
{
    switch (route) {
      case Route::On:
        return "int8";
      case Route::Off:
        return "fp32";
      case Route::Auto:
        break;
    }
    return "auto";
}

} // namespace

std::vector<std::pair<std::string, std::string>>
dispatchSummary(const EdgePcConfig &cfg)
{
    return {
        {"delayed_agg", routeName(cfg.delayedAggregation)},
        {"gemm_int8_kernel", nn::GemmEngine::int8KernelName()},
        {"gemm_path", nn::GemmEngine::activeKernelName()},
        {"gemm_quant", int8RouteName(cfg.int8Gemm)},
        {"simd_fixed", int8RouteName(cfg.int8Search)},
        {"simd_path", simd::activePathName()},
    };
}

EdgePcConfig
EdgePcConfig::baseline()
{
    return EdgePcConfig{};
}

EdgePcConfig
EdgePcConfig::sn()
{
    EdgePcConfig cfg;
    cfg.variant = PipelineVariant::SN;
    return cfg;
}

EdgePcConfig
EdgePcConfig::snf()
{
    EdgePcConfig cfg;
    cfg.variant = PipelineVariant::SNF;
    return cfg;
}

} // namespace edgepc
