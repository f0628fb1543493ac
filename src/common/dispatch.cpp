#include "common/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace edgepc {

namespace {

/** An on | off | auto variable; anything else warns and is Auto. */
Route
parseRoute(const char *name, const char *value)
{
    const std::string_view v(value);
    if (v == "on") {
        return Route::On;
    }
    if (v == "off") {
        return Route::Off;
    }
    if (v != "auto") {
        warn("%s=%s not understood (want on|off|auto); using auto", name,
             value);
    }
    return Route::Auto;
}

/**
 * EDGEPC_GEMM / EDGEPC_SIMD: a build (scalar, or @p wide / force /
 * avx2), or int8, which turns @p int8 On and leaves the build Auto.
 */
KernelBuild
parseBuild(const char *name, const char *value, const char *wide,
           const HostInfo &host, Route &int8)
{
    const std::string_view v(value);
    if (v == "scalar") {
        return KernelBuild::Scalar;
    }
    if (v == wide || v == "force" || v == "avx2") {
        if (!host.avx2Fma) {
            warn("%s=%s requested but the CPU lacks AVX2+FMA; falling "
                 "back to auto dispatch",
                 name, value);
            return KernelBuild::Auto;
        }
        return KernelBuild::Avx2;
    }
    if (v == "int8") {
        int8 = Route::On;
        return KernelBuild::Auto;
    }
    if (v != "auto") {
        warn("%s=%s not understood (want scalar|%s|int8|auto); using auto",
             name, value, wide);
    }
    return KernelBuild::Auto;
}

std::size_t
parseThreads(const char *value, const HostInfo &host)
{
    const std::size_t hardware = std::max<std::size_t>(1, host.hardwareThreads);
    const std::size_t ceiling = kMaxThreadsPerCore * hardware;
    char *end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 1) {
        warn("EDGEPC_THREADS: ignoring invalid value '%s'", value);
        return hardware;
    }
    if (static_cast<unsigned long>(v) > ceiling) {
        warn("EDGEPC_THREADS=%s exceeds %zu (%zu per hardware thread); "
             "using %zu",
             value, ceiling, kMaxThreadsPerCore, ceiling);
        return ceiling;
    }
    return static_cast<std::size_t>(v);
}

std::atomic<KernelBuild> &
buildState(KernelFamily family)
{
    static std::atomic<KernelBuild> gemm{dispatchEnv().gemmBuild};
    static std::atomic<KernelBuild> distance{dispatchEnv().distanceBuild};
    return family == KernelFamily::Gemm ? gemm : distance;
}

} // namespace

const char *
routeName(Route route)
{
    switch (route) {
      case Route::Off:
        return "off";
      case Route::On:
        return "on";
      case Route::Auto:
        break;
    }
    return "auto";
}

DispatchEnv
parseDispatchEnv(const EnvLookup &lookup, const HostInfo &host)
{
    DispatchEnv env;
    env.threads = std::max<std::size_t>(1, host.hardwareThreads);
    if (const char *v = lookup("EDGEPC_GEMM")) {
        env.gemmBuild = parseBuild("EDGEPC_GEMM", v, "fast", host,
                                   env.int8Gemm);
    }
    if (const char *v = lookup("EDGEPC_SIMD")) {
        env.distanceBuild = parseBuild("EDGEPC_SIMD", v, "simd", host,
                                       env.int8Search);
    }
    if (const char *v = lookup("EDGEPC_DELAYED_AGG")) {
        env.delayedAggregation = parseRoute("EDGEPC_DELAYED_AGG", v);
    }
    if (const char *v = lookup("EDGEPC_THREADS")) {
        env.threads = parseThreads(v, host);
    }
    return env;
}

const DispatchEnv &
dispatchEnv()
{
    static const DispatchEnv env = parseDispatchEnv(
        [](const char *name) { return std::getenv(name); },
        HostInfo{std::thread::hardware_concurrency(), cpuHasAvx2Fma()});
    return env;
}

bool
cpuHasAvx2Fma()
{
    static const bool available = __builtin_cpu_supports("avx2") &&
                                  __builtin_cpu_supports("fma");
    return available;
}

bool
cpuHasAvx2()
{
    static const bool available = __builtin_cpu_supports("avx2");
    return available;
}

KernelBuild
kernelBuild(KernelFamily family)
{
    return buildState(family).load(std::memory_order_relaxed);
}

void
setKernelBuild(KernelFamily family, KernelBuild build)
{
    if (build == KernelBuild::Avx2 && !cpuHasAvx2Fma()) {
        raise(ErrorCode::InvalidArgument,
              "setKernelBuild: the AVX2 build was requested but the CPU "
              "lacks AVX2+FMA");
    }
    buildState(family).store(build, std::memory_order_relaxed);
}

} // namespace edgepc
