/**
 * @file
 * ScratchArena unit, concurrency and zero-allocation tests.
 *
 * The file replaces the global operator new/delete with counting
 * forwarders (binary-wide, counting only — behavior is unchanged for
 * every other test), which is what lets the steady-state suites assert
 * that a warm sampling / neighbor-search call performs a small constant
 * number of heap allocations regardless of the query count: per-query
 * scratch comes from the thread-local arena, never the heap.
 *
 * The ScratchArenaConcurrency suite is part of the TSan gate
 * (tools/ci/run_tsan.sh matches 'ScratchArena'): it hammers the
 * thread-local arenas from pool workers and exercises the
 * publish-via-parallelFor pattern the kernels rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "neighbor/ball_query.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/morton_window.hpp"
#include "nn/gemm.hpp"
#include "sampling/fps.hpp"
#include "sampling/interpolation.hpp"
#include "sampling/morton_sampler.hpp"

namespace {

std::atomic<std::uint64_t> g_heapAllocs{0};
std::atomic<std::uint64_t> g_heapBytes{0};

void *
countedAlloc(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    g_heapBytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    g_heapBytes.fetch_add(size, std::memory_order_relaxed);
    if (align < sizeof(void *)) {
        align = sizeof(void *);
    }
    void *p = nullptr;
    if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
        return nullptr;
    }
    return p;
}

} // namespace

// Counting replacements for every allocating form. Deallocation is
// uncounted (free is alignment-agnostic on this ABI, so one release
// path serves both families).
void *
operator new(std::size_t size)
{
    void *p = countedAlloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = countedAlloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

// GCC 12 inlines these into callers of the replaced operator new and
// reports -Wmismatched-new-delete for the std::free, not seeing that
// every allocating form above is malloc-backed. Scoped to the
// replacement deallocators only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace edgepc {
namespace {

bool
isAligned(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % ScratchArena::kAlignment ==
           0;
}

TEST(ScratchArena, SpansAreAlignedAndDisjoint)
{
    ScratchArena arena;
    const ScratchArena::Frame frame(arena);
    const auto a = arena.alloc<float>(7);
    const auto b = arena.alloc<std::uint64_t>(3);
    const auto c = arena.alloc<std::byte>(1);
    EXPECT_TRUE(isAligned(a.data()));
    EXPECT_TRUE(isAligned(b.data()));
    EXPECT_TRUE(isAligned(c.data()));
    // Spans never overlap even though sizes are rounded up internally.
    EXPECT_GE(reinterpret_cast<std::uintptr_t>(b.data()),
              reinterpret_cast<std::uintptr_t>(a.data() + a.size()));
    EXPECT_GE(reinterpret_cast<std::uintptr_t>(c.data()),
              reinterpret_cast<std::uintptr_t>(b.data() + b.size()));
}

TEST(ScratchArena, FrameRewindsAndRecyclesMemory)
{
    ScratchArena arena;
    float *first = nullptr;
    {
        const ScratchArena::Frame frame(arena);
        first = arena.alloc<float>(100).data();
        EXPECT_GT(arena.usedBytes(), 0u);
    }
    EXPECT_EQ(arena.usedBytes(), 0u);
    const std::uint64_t grows = arena.growCount();
    {
        const ScratchArena::Frame frame(arena);
        // Same block, same offset: the memory is recycled, not freed.
        EXPECT_EQ(arena.alloc<float>(100).data(), first);
    }
    EXPECT_EQ(arena.growCount(), grows);
}

TEST(ScratchArena, FramesNest)
{
    ScratchArena arena;
    const ScratchArena::Frame outer(arena);
    const auto a = arena.alloc<std::uint32_t>(8);
    a[0] = 7;
    const std::size_t used_outer = arena.usedBytes();
    {
        const ScratchArena::Frame inner(arena);
        const auto b = arena.alloc<std::uint32_t>(1024);
        b[0] = 9;
        EXPECT_GT(arena.usedBytes(), used_outer);
    }
    EXPECT_EQ(arena.usedBytes(), used_outer);
    EXPECT_EQ(a[0], 7u); // Outer span untouched by the inner rewind.
}

TEST(ScratchArena, GrowsGeometricallyAndCountsGrowth)
{
    ScratchArena arena;
    EXPECT_EQ(arena.capacityBytes(), 0u);
    EXPECT_EQ(arena.growCount(), 0u);
    const ScratchArena::Frame frame(arena);
    const auto ignored = arena.alloc<float>(16);
    static_cast<void>(ignored);
    EXPECT_EQ(arena.growCount(), 1u);
    const std::size_t first_cap = arena.capacityBytes();
    // Outgrow the first block: one more growth, capacity at least
    // doubles (geometric policy).
    const auto big = arena.alloc<std::byte>(first_cap + 1);
    static_cast<void>(big);
    EXPECT_EQ(arena.growCount(), 2u);
    EXPECT_GE(arena.capacityBytes(), 2 * first_cap);
}

TEST(ScratchArena, ZeroElementSpanIsEmpty)
{
    ScratchArena arena;
    const ScratchArena::Frame frame(arena);
    EXPECT_TRUE(arena.alloc<float>(0).empty());
    EXPECT_EQ(arena.usedBytes(), 0u);
}

TEST(ScratchArenaConcurrency, ThreadLocalArenasAreDistinct)
{
    ScratchArena *main_arena = &ScratchArena::local();
    std::atomic<ScratchArena *> other{nullptr};
    std::thread t([&] { other.store(&ScratchArena::local()); });
    t.join();
    EXPECT_NE(other.load(), nullptr);
    EXPECT_NE(other.load(), main_arena);
}

// Pool workers bump their own arenas concurrently; each index writes a
// distinct pattern and verifies it, so any cross-thread sharing of
// scratch shows up as a data corruption (and as a race under TSan).
TEST(ScratchArenaConcurrency, WorkersStressPrivateArenas)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> bad{0};
    pool.parallelFor(0, 2000, [&](std::size_t i) {
        ScratchArena &arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        const auto span = arena.alloc<std::uint32_t>(64 + i % 64);
        const std::uint32_t tag = static_cast<std::uint32_t>(i);
        for (auto &v : span) {
            v = tag;
        }
        for (const auto v : span) {
            if (v != tag) {
                bad.fetch_add(1);
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);
}

// The kernels' publication pattern: the caller fills an arena span
// before the parallelFor, workers only read it. The pool's queue mutex
// is the happens-before edge that makes this race-free.
TEST(ScratchArenaConcurrency, CallerSpanIsReadableFromWorkers)
{
    ThreadPool pool(4);
    ScratchArena &arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const auto shared = arena.alloc<float>(4096);
    for (std::size_t i = 0; i < shared.size(); ++i) {
        shared[i] = static_cast<float>(i);
    }
    std::atomic<std::size_t> bad{0};
    pool.parallelFor(0, shared.size(), [&](std::size_t i) {
        if (shared[i] != static_cast<float>(i)) {
            bad.fetch_add(1);
        }
    });
    EXPECT_EQ(bad.load(), 0u);
}

std::vector<Vec3>
randomCloud(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> pts(n);
    for (auto &p : pts) {
        p = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat()};
    }
    return pts;
}

/**
 * Allocations a warm kernel call may still perform: the output vector,
 * the parallelFor control block (promise + shared state + task queue
 * nodes) and std::function wrappers — all per *call*, never per query.
 * With kQueries queries, any per-query heap use would blow straight
 * past this.
 */
constexpr std::uint64_t kPerCallAllocBudget = 32;
constexpr std::size_t kQueries = 512;

struct SteadyState
{
    std::uint64_t allocs;
    std::uint64_t grows;
    std::uint64_t bytes;
};

SteadyState
deltaOf(const SteadyState &before)
{
    return {g_heapAllocs.load(std::memory_order_relaxed) - before.allocs,
            ScratchArena::totalGrowCount() - before.grows,
            g_heapBytes.load(std::memory_order_relaxed) - before.bytes};
}

SteadyState
snapshot()
{
    return {g_heapAllocs.load(std::memory_order_relaxed),
            ScratchArena::totalGrowCount(),
            g_heapBytes.load(std::memory_order_relaxed)};
}

/**
 * Warm every arena the measured call can touch: two plain calls, then
 * one on each pool thread with the others parked, so each thread runs
 * every chunk of its call. The pool hands chunks out dynamically and
 * the caller takes chunks too, so on a busy host one thread may run
 * every chunk of the plain calls; another thread's arena would then
 * first grow inside the measured call.
 */
void
warmEveryThread(const std::function<void()> &call)
{
    for (int warm = 0; warm < 2; ++warm) {
        call();
    }
    ThreadPool::globalPool().runOnEachThread(call);
}

TEST(ScratchArenaZeroAlloc, BruteForceSteadyState)
{
    const auto pts = randomCloud(2048, 11);
    const auto queries = randomCloud(kQueries, 12);
    BruteForceKnn knn;
    warmEveryThread([&] {
        const auto ignored = knn.search(queries, pts, 16);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out = knn.search(queries, pts, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), kQueries);
}

/**
 * The feature-space k-NN's packed candidates, norms, per-tile distance
 * rows and heaps all come from the arenas: a warm call allocates only
 * its output lists and one parallelFor's control block, however many
 * query tiles it runs.
 */
TEST(ScratchArenaZeroAlloc, FeatureSpaceKnnSteadyState)
{
    const std::size_t dim = 64;
    Rng rng(13);
    std::vector<float> cands(2048 * dim), queries(kQueries * dim);
    for (auto &v : cands) {
        v = rng.nextFloat();
    }
    for (auto &v : queries) {
        v = rng.nextFloat();
    }
    const nn::GemmEngine &engine = EdgePcConfig::snf().gemmRoute().engine;
    warmEveryThread([&] {
        const auto ignored = BruteForceKnn::searchFeatureSpace(
            queries, cands, dim, 20, engine);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out =
        BruteForceKnn::searchFeatureSpace(queries, cands, dim, 20, engine);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), kQueries);
}

TEST(ScratchArenaZeroAlloc, BallQuerySteadyState)
{
    const auto pts = randomCloud(2048, 21);
    const auto queries = randomCloud(kQueries, 22);
    BallQuery ball(0.25f);
    warmEveryThread([&] {
        const auto ignored = ball.search(queries, pts, 16);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out = ball.search(queries, pts, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), kQueries);
}

TEST(ScratchArenaZeroAlloc, MortonWindowSteadyState)
{
    const auto pts = randomCloud(2048, 31);
    MortonSampler sampler(32);
    const Structurization s = sampler.structurize(pts);
    const MortonWindowSearch search(64);
    warmEveryThread([&] {
        const auto ignored = search.searchAll(pts, s, 16);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out = search.searchAll(pts, s, 16);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.queries(), pts.size());
}

/**
 * The up-sampling planners select with KHeap over arena keys, and the
 * exact one scans an arena SoA of its sources: a warm call allocates
 * only its plan's two vectors and one parallelFor's control block,
 * however many targets it plans.
 */
TEST(ScratchArenaZeroAlloc, ExactInterpolationSteadyState)
{
    const auto targets = randomCloud(2048, 71);
    const auto sources = randomCloud(kQueries, 72);
    warmEveryThread([&] {
        const auto ignored = exactInterpolation(targets, sources, 3);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto plan = exactInterpolation(targets, sources, 3);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(plan.targets(), targets.size());
}

TEST(ScratchArenaZeroAlloc, MortonUpsamplerSteadyState)
{
    const auto pts = randomCloud(2048, 73);
    MortonSampler sampler(32);
    const Structurization s = sampler.structurize(pts);
    const auto samples = sampler.sampleStructurized(s, kQueries);
    const MortonUpsampler upsampler;
    warmEveryThread([&] {
        const auto ignored = upsampler.plan(pts, s, samples);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto plan = upsampler.plan(pts, s, samples);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(plan.targets(), pts.size());
}

/**
 * The packed GEMM's packing buffers (B panels + per-block A pack) come
 * from the thread-local arena: a warm pointer-API gemm() call touches
 * the heap only for the parallelFor control block, never for scratch.
 * The byte bound is the sharp check — a heap-allocated B pack for this
 * shape alone would be 64 KiB.
 */
TEST(ScratchArenaZeroAlloc, GemmSteadyState)
{
    const std::size_t m = 512, k = 128, n = 128;
    Rng rng(51);
    std::vector<float> a(m * k), b(k * n), c(m * n);
    for (auto &v : a) {
        v = rng.nextFloat();
    }
    for (auto &v : b) {
        v = rng.nextFloat();
    }
    nn::GemmEngine engine(nn::GemmMode::Fast);
    warmEveryThread([&] {
        engine.gemm(a.data(), b.data(), c.data(), m, k, n);
    });
    const SteadyState before = snapshot();
    engine.gemm(a.data(), b.data(), c.data(), m, k, n);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_LE(delta.bytes, 16u * 1024u);
}

/**
 * The transpose-free A^T * B variant packs straight from A's columns.
 * Materializing the transpose for this shape would heap-allocate
 * 8 x 4096 floats = 128 KiB; the actual per-call heap traffic is the
 * 8 x 16 result plus control blocks, far under the 64 KiB tripwire.
 */
TEST(ScratchArenaZeroAlloc, TransposedGemmDoesNotMaterializeTranspose)
{
    Rng rng(52);
    nn::Matrix a(4096, 8);  // K x M
    nn::Matrix b(4096, 16); // K x N
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);
    nn::GemmEngine engine(nn::GemmMode::Fast);
    warmEveryThread([&] {
        const auto ignored = engine.multiplyLeftTransposed(a, b);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out = engine.multiplyLeftTransposed(a, b);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LT(delta.bytes, 64u * 1024u);
    EXPECT_EQ(out.rows(), 8u);
    EXPECT_EQ(out.cols(), 16u);
}

TEST(ScratchArenaZeroAlloc, FpsSteadyState)
{
    const auto pts = randomCloud(2048, 41);
    FarthestPointSampler fps;
    warmEveryThread([&] {
        const auto ignored = fps.sample(pts, 256);
        static_cast<void>(ignored);
    });
    const SteadyState before = snapshot();
    const auto out = fps.sample(pts, 256);
    const SteadyState delta = deltaOf(before);
    EXPECT_EQ(delta.grows, 0u);
    EXPECT_LE(delta.allocs, kPerCallAllocBudget);
    EXPECT_EQ(out.size(), 256u);
}

} // namespace
} // namespace edgepc
