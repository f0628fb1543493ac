/**
 * @file
 * Where a run's routes come from (DESIGN.md §9): the one environment
 * parse, checked on strings only, and the DispatchMatrix differential
 * test, which drives every model through every cell of variant x int8
 * GEMM x delayed aggregation two ways with explicit configs, so it
 * runs the same cells whatever the environment says.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/dispatch.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "datasets/scenes.hpp"
#include "models/dgcnn.hpp"
#include "models/pointnet.hpp"
#include "models/pointnetpp.hpp"
#include "obs/metrics.hpp"

namespace edgepc {
namespace {

constexpr HostInfo kHost{8, true};

/** parseDispatchEnv over @p vars (unset names are missing keys). */
DispatchEnv
parse(const std::map<std::string, std::string> &vars,
      const HostInfo &host = kHost)
{
    return parseDispatchEnv(
        [&](const char *name) -> const char * {
            const auto it = vars.find(name);
            return it == vars.end() ? nullptr : it->second.c_str();
        },
        host);
}

TEST(Dispatch, UnsetEnvironmentKeepsTheDefaultRoutes)
{
    const DispatchEnv env = parse({});
    EXPECT_EQ(env.gemmBuild, KernelBuild::Auto);
    EXPECT_EQ(env.distanceBuild, KernelBuild::Auto);
    EXPECT_EQ(env.threads, kHost.hardwareThreads);
    EXPECT_EQ(env.int8Gemm, Route::Off);
    EXPECT_EQ(env.int8Search, Route::Off);
    EXPECT_EQ(env.delayedAggregation, Route::Auto);
}

TEST(Dispatch, ParsesTodaysSpellings)
{
    EXPECT_EQ(parse({{"EDGEPC_GEMM", "scalar"}}).gemmBuild,
              KernelBuild::Scalar);
    for (const char *wide : {"fast", "force", "avx2"}) {
        EXPECT_EQ(parse({{"EDGEPC_GEMM", wide}}).gemmBuild,
                  KernelBuild::Avx2)
            << wide;
    }
    const DispatchEnv int8_gemm = parse({{"EDGEPC_GEMM", "int8"}});
    EXPECT_EQ(int8_gemm.gemmBuild, KernelBuild::Auto);
    EXPECT_EQ(int8_gemm.int8Gemm, Route::On);
    EXPECT_EQ(int8_gemm.int8Search, Route::Off);

    EXPECT_EQ(parse({{"EDGEPC_SIMD", "scalar"}}).distanceBuild,
              KernelBuild::Scalar);
    for (const char *wide : {"simd", "force", "avx2"}) {
        EXPECT_EQ(parse({{"EDGEPC_SIMD", wide}}).distanceBuild,
                  KernelBuild::Avx2)
            << wide;
    }
    const DispatchEnv int8_search = parse({{"EDGEPC_SIMD", "int8"}});
    EXPECT_EQ(int8_search.distanceBuild, KernelBuild::Auto);
    EXPECT_EQ(int8_search.int8Search, Route::On);
    EXPECT_EQ(int8_search.int8Gemm, Route::Off);

    const std::pair<const char *, Route> routes[] = {
        {"on", Route::On}, {"off", Route::Off}, {"auto", Route::Auto}};
    for (const auto &[value, route] : routes) {
        EXPECT_EQ(parse({{"EDGEPC_DELAYED_AGG", value}}).delayedAggregation,
                  route)
            << value;
    }
    EXPECT_EQ(parse({{"EDGEPC_THREADS", "3"}}).threads, 3u);
}

TEST(Dispatch, UnknownValuesFallBackToTheDefaults)
{
    const DispatchEnv env = parse({{"EDGEPC_GEMM", "gpu"},
                                   {"EDGEPC_SIMD", "neon"},
                                   {"EDGEPC_DELAYED_AGG", "yes"}});
    EXPECT_EQ(env.gemmBuild, KernelBuild::Auto);
    EXPECT_EQ(env.distanceBuild, KernelBuild::Auto);
    EXPECT_EQ(env.int8Gemm, Route::Off);
    EXPECT_EQ(env.delayedAggregation, Route::Auto);
}

TEST(Dispatch, Avx2BuildNeedsTheCpu)
{
    const HostInfo no_avx2{8, false};
    EXPECT_EQ(parse({{"EDGEPC_GEMM", "fast"}}, no_avx2).gemmBuild,
              KernelBuild::Auto);
    EXPECT_EQ(parse({{"EDGEPC_SIMD", "simd"}}, no_avx2).distanceBuild,
              KernelBuild::Auto);
}

TEST(Dispatch, ThreadsClampToTheCeiling)
{
    // Strings only: no pool is ever built from these values.
    const std::size_t ceiling = kMaxThreadsPerCore * kHost.hardwareThreads;
    EXPECT_EQ(parse({{"EDGEPC_THREADS", "32"}}).threads, ceiling);
    EXPECT_EQ(parse({{"EDGEPC_THREADS", "33"}}).threads, ceiling);
    EXPECT_EQ(parse({{"EDGEPC_THREADS", "100000"}}).threads, ceiling);
    // strtol saturates an overflowing value at LONG_MAX.
    EXPECT_EQ(
        parse({{"EDGEPC_THREADS", "99999999999999999999999999"}}).threads,
        ceiling);
    for (const char *bad : {"0", "-4", "", "four", "4x"}) {
        EXPECT_EQ(parse({{"EDGEPC_THREADS", bad}}).threads,
                  kHost.hardwareThreads)
            << "'" << bad << "'";
    }
    EXPECT_EQ(parse({{"EDGEPC_THREADS", "2"}}, HostInfo{0, true}).threads,
              2u)
        << "an unknown hardware count still allows one thread per core";
}

TEST(Dispatch, ConfigRoutesStartAtTheEnvironmentDefaults)
{
    const EdgePcConfig cfg;
    EXPECT_EQ(cfg.int8Gemm, dispatchEnv().int8Gemm);
    EXPECT_EQ(cfg.int8Search, dispatchEnv().int8Search);
    EXPECT_EQ(cfg.delayedAggregation, dispatchEnv().delayedAggregation);
}

TEST(Dispatch, SummaryEchoesTheConfigsRoutes)
{
    EdgePcConfig cfg;
    cfg.int8Gemm = Route::On;
    cfg.int8Search = Route::Off;
    cfg.delayedAggregation = Route::Off;
    std::map<std::string, std::string> summary;
    for (const auto &[key, value] : dispatchSummary(cfg)) {
        summary[key] = value;
    }
    const std::vector<std::string> keys = {
        "delayed_agg", "gemm_int8_kernel", "gemm_path",
        "gemm_quant",  "simd_fixed",       "simd_path"};
    ASSERT_EQ(summary.size(), keys.size());
    for (const std::string &key : keys) {
        EXPECT_EQ(summary.count(key), 1u) << key;
    }
    EXPECT_EQ(summary["gemm_quant"], "int8");
    EXPECT_EQ(summary["simd_fixed"], "fp32");
    EXPECT_EQ(summary["delayed_agg"], "off");
}

// ---------------------------------------------------------------------
// DispatchMatrix: every model x variant x int8 GEMM x delayed cell,
// each run per frame and batched.
// ---------------------------------------------------------------------

std::vector<PointCloud>
matrixClouds()
{
    std::vector<PointCloud> clouds;
    for (std::uint64_t seed : {901u, 902u, 903u}) {
        Rng rng(seed);
        SceneOptions options;
        options.points = 128;
        clouds.push_back(makeScene(options, rng));
    }
    return clouds;
}

bool
sameBits(const nn::Matrix &a, const nn::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool
allFinite(const nn::Matrix &m)
{
    for (std::size_t i = 0; i < m.numel(); ++i) {
        if (!std::isfinite(m.data()[i])) {
            return false;
        }
    }
    return true;
}

std::uint64_t
counter(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** One cell's per-frame logits and the GEMM calls it made. */
struct CellResult
{
    std::vector<nn::Matrix> logits;
    std::uint64_t fastCalls = 0;
    std::uint64_t int8Calls = 0;
};

/**
 * Run @p model on @p clouds under @p cfg two ways, per-frame infer and
 * one inferBatch, which must agree bit for bit on every frame.
 */
CellResult
runCell(PointCloudModel &model, const std::vector<PointCloud> &clouds,
        const EdgePcConfig &cfg, const std::string &what)
{
    CellResult cell;
    const std::uint64_t fast_before = counter("gemm.fast_path_calls");
    const std::uint64_t int8_before = counter("gemm.int8_path_calls");
    for (const PointCloud &cloud : clouds) {
        cell.logits.push_back(model.infer(cloud, cfg));
    }
    cell.fastCalls = counter("gemm.fast_path_calls") - fast_before;
    cell.int8Calls = counter("gemm.int8_path_calls") - int8_before;

    const std::vector<nn::Matrix> batched = model.inferBatch(clouds, cfg);
    EXPECT_EQ(batched.size(), clouds.size()) << what;
    for (std::size_t i = 0; i < clouds.size() && i < batched.size(); ++i) {
        EXPECT_TRUE(allFinite(cell.logits[i])) << what << " frame " << i;
        EXPECT_TRUE(sameBits(batched[i], cell.logits[i]))
            << what << ": inferBatch differs from infer, frame " << i;
    }
    return cell;
}

void
expectLogitsNear(const nn::Matrix &a, const nn::Matrix &b,
                 const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        ASSERT_NEAR(a.data()[i], b.data()[i], 5e-3f) << what << " logit " << i;
    }
}

void
runMatrix(PointCloudModel &model, const std::vector<PointCloud> &clouds)
{
    const EdgePcConfig variants[] = {EdgePcConfig::baseline(),
                                     EdgePcConfig::sn(),
                                     EdgePcConfig::snf()};
    for (const EdgePcConfig &variant : variants) {
        std::map<Route, std::vector<nn::Matrix>> fp32_by_delayed;
        for (const Route int8 : {Route::Off, Route::On}) {
            for (const Route delayed : {Route::Off, Route::On}) {
                EdgePcConfig cfg = variant;
                cfg.int8Gemm = int8;
                cfg.int8Search = Route::Off;
                cfg.delayedAggregation = delayed;
                const std::string what =
                    model.name() + " " + variantName(variant.variant) +
                    " int8 " + routeName(int8) + " delayed " +
                    routeName(delayed);
                const CellResult cell = runCell(model, clouds, cfg, what);
                if (variant.useTensorCores()) {
                    if (nn::GemmEngine::fastKernelAvailable()) {
                        EXPECT_GT(cell.fastCalls, 0u) << what;
                    }
                } else {
                    EXPECT_EQ(cell.fastCalls, 0u) << what;
                }
                if (int8 == Route::On) {
                    EXPECT_GT(cell.int8Calls, 0u) << what;
                } else {
                    EXPECT_EQ(cell.int8Calls, 0u) << what;
                    fp32_by_delayed[delayed] = cell.logits;
                }
            }
        }
        const std::vector<nn::Matrix> &eager = fp32_by_delayed[Route::Off];
        const std::vector<nn::Matrix> &delayed = fp32_by_delayed[Route::On];
        ASSERT_EQ(eager.size(), delayed.size());
        for (std::size_t i = 0; i < eager.size(); ++i) {
            expectLogitsNear(eager[i], delayed[i],
                             model.name() + " " +
                                 variantName(variant.variant) +
                                 " fp32 delayed vs eager, frame " +
                                 std::to_string(i));
        }
    }
}

TEST(DispatchMatrix, PointNetPPSegmentation)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(128, 5), 7);
    runMatrix(model, matrixClouds());
}

TEST(DispatchMatrix, DgcnnSegmentation)
{
    Dgcnn model(DgcnnConfig::liteSegmentation(5), 7);
    runMatrix(model, matrixClouds());
}

TEST(DispatchMatrix, PointNetSegmentation)
{
    PointNet model(PointNetConfig::segmentationConfig(5), 7);
    runMatrix(model, matrixClouds());
}

} // namespace
} // namespace edgepc
