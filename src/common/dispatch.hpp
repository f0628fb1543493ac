/**
 * @file
 * Where a run's routes come from (DESIGN.md §9).
 *
 * A run's three routes — int8 GEMM, int8 (fixed-point) search and
 * delayed aggregation — are fields of its EdgePcConfig, and one
 * precedence rule decides each of them:
 *
 *   the caller's value  >  the environment's default  >  the route's
 *   own Auto heuristic.
 *
 * The environment is parsed once per process, by parseDispatchEnv,
 * and only supplies defaults:
 *
 *   EDGEPC_GEMM        scalar | fast | int8 | auto
 *   EDGEPC_SIMD        scalar | simd | int8 | auto
 *   EDGEPC_DELAYED_AGG on | off | auto
 *   EDGEPC_THREADS     N >= 1, clamped to kMaxThreadsPerCore per core
 *
 * EDGEPC_GEMM=int8 and EDGEPC_SIMD=int8 default the two int8 routes
 * On; every other value leaves them Off. scalar | fast | simd choose
 * which ISA build of the GEMM or distance kernels runs, and
 * EDGEPC_THREADS sizes the pool: those three stay per process and
 * choose no route (the distance builds are bit-identical by
 * contract). Unknown values warn and fall back to the default.
 */

#ifndef EDGEPC_COMMON_DISPATCH_HPP
#define EDGEPC_COMMON_DISPATCH_HPP

#include <cstddef>
#include <functional>

namespace edgepc {

/** A route's setting: never, always, or the route's own heuristic. */
enum class Route
{
    Off,
    On,
    Auto,
};

/** "off" / "on" / "auto". */
const char *routeName(Route route);

/** Which ISA build of a kernel family runs. */
enum class KernelBuild
{
    Auto,   ///< The AVX2 build when the CPU has it (and, for the GEMM,
            ///< when the engine's policy asks for the fast path).
    Scalar, ///< Always the portable scalar build.
    Avx2,   ///< Always the AVX2 build.
};

/** The two kernel families with a per-process build choice. */
enum class KernelFamily
{
    Gemm,     ///< nn/gemm (EDGEPC_GEMM).
    Distance, ///< geometry/simd_distance (EDGEPC_SIMD).
};

/** Ceiling on EDGEPC_THREADS, per hardware thread. */
inline constexpr std::size_t kMaxThreadsPerCore = 4;

/** What the environment parse needs to know about the host. */
struct HostInfo
{
    /** std::thread::hardware_concurrency(), at least 1. */
    std::size_t hardwareThreads = 1;
    /** The CPU runs the AVX2+FMA builds. */
    bool avx2Fma = false;
};

/** Everything the environment sets: two builds, the pool size and the
    defaults of the three routes. */
struct DispatchEnv
{
    KernelBuild gemmBuild = KernelBuild::Auto;
    KernelBuild distanceBuild = KernelBuild::Auto;
    /** Pool concurrency, workers plus the calling thread. */
    std::size_t threads = 1;
    Route int8Gemm = Route::Off;
    Route int8Search = Route::Off;
    Route delayedAggregation = Route::Auto;
};

/** Maps a variable name to its value, or nullptr when unset. */
using EnvLookup = std::function<const char *(const char *)>;

/**
 * Parse the dispatch variables through @p lookup. Pure apart from the
 * warnings it logs for values it does not understand, for an AVX2
 * build the host cannot run, and for an EDGEPC_THREADS value outside
 * [1, kMaxThreadsPerCore * host.hardwareThreads] (clamped down when
 * too large, ignored otherwise).
 */
DispatchEnv parseDispatchEnv(const EnvLookup &lookup, const HostInfo &host);

/** The process's environment, parsed on first use and then fixed. */
const DispatchEnv &dispatchEnv();

/** True when the CPU supports AVX2 and FMA. */
bool cpuHasAvx2Fma();

/** True when the CPU supports AVX2 (the int8 GEMM needs no FMA). */
bool cpuHasAvx2();

/** The build @p family runs (dispatchEnv()'s unless forced). */
KernelBuild kernelBuild(KernelFamily family);

/**
 * Test-only: force @p family's build for the rest of the process, or
 * until the next call (callers restore the previous value). Avx2 on a
 * host without AVX2+FMA raises InvalidArgument.
 */
void setKernelBuild(KernelFamily family, KernelBuild build);

} // namespace edgepc

#endif // EDGEPC_COMMON_DISPATCH_HPP
