#include "core/config.hpp"

#include "nn/gemm.hpp"

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

void
applyGemmMode(const EdgePcConfig &cfg)
{
    nn::GemmEngine::globalEngine().setMode(
        cfg.useTensorCores() ? nn::GemmMode::Auto : nn::GemmMode::Scalar);
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
