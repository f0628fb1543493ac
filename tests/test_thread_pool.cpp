/** @file Unit tests for the thread pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"

namespace edgepc {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(5, 5, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRange)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(7, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 7u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ChunkedCoversWholeRange)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> sum{0};
    pool.parallelForChunked(
        0, 1001,
        [&](std::size_t lo, std::size_t hi) {
            std::size_t local = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                local += i;
            }
            sum.fetch_add(local);
        },
        17);
    EXPECT_EQ(sum.load(), 1000u * 1001u / 2u);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](std::size_t i) {
                             if (i == 42) {
                                 throw std::runtime_error("boom");
                             }
                         },
                         1),
        std::runtime_error);
}

TEST(ThreadPool, RunOnEachThreadVisitsEveryThreadOnceAtATime)
{
    ThreadPool pool(3);
    Mutex mu;
    std::set<std::thread::id> seen;
    std::atomic<int> inside{0};
    std::atomic<int> most_inside{0};
    pool.runOnEachThread([&] {
        const int now = inside.fetch_add(1) + 1;
        most_inside.store(std::max(most_inside.load(), now));
        // A parallel kernel inside runs all of its chunks here: every
        // other pool thread is parked.
        const std::thread::id self = std::this_thread::get_id();
        std::atomic<int> foreign{0};
        pool.parallelFor(
            0, 64,
            [&](std::size_t) {
                if (std::this_thread::get_id() != self) {
                    foreign.fetch_add(1);
                }
            },
            1);
        EXPECT_EQ(foreign.load(), 0);
        {
            MutexLock lock(mu);
            seen.insert(self);
        }
        inside.fetch_sub(1);
    });
    EXPECT_EQ(seen.size(), 4u); // The caller and three workers.
    EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
    EXPECT_EQ(most_inside.load(), 1);

    std::atomic<int> calls{0};
    const auto throwing = [&] {
        calls.fetch_add(1);
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(pool.runOnEachThread(throwing), std::runtime_error);
    EXPECT_EQ(calls.load(), 4); // Every thread still had its turn.
    // The pool stays usable after a throwing round.
    std::atomic<int> count{0};
    pool.parallelFor(0, 64, [&](std::size_t) { count.fetch_add(1); }, 4);
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(2);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(0, 64, [&](std::size_t) { count.fetch_add(1); },
                         4);
        EXPECT_EQ(count.load(), 64);
    }
}

TEST(ThreadPool, GlobalPoolIsSingleton)
{
    EXPECT_EQ(&ThreadPool::globalPool(), &ThreadPool::globalPool());
    // The caller participates in parallelFor, so a single-core host
    // legitimately gets a zero-worker pool; total concurrency is what
    // must be at least one.
    EXPECT_GE(ThreadPool::globalPool().concurrency(), 1u);
}

// Several caller threads hammer one pool at once — parallelFor from
// some, submit() from others. Exercises the shared task queue and the
// per-call Batch control blocks under contention; run under TSan this
// is the race gate for the pool internals.
TEST(ThreadPool, ConcurrentSubmittersStress)
{
    ThreadPool pool(4);
    constexpr int kCallers = 6;
    constexpr int kRounds = 25;
    constexpr std::size_t kRange = 256;

    std::atomic<std::size_t> forHits{0};
    std::atomic<int> submitHits{0};

    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round) {
                if (c % 2 == 0) {
                    pool.parallelFor(
                        0, kRange,
                        [&](std::size_t) {
                            forHits.fetch_add(1,
                                              std::memory_order_relaxed);
                        },
                        32);
                } else {
                    std::future<void> done = pool.submit([&] {
                        submitHits.fetch_add(1,
                                             std::memory_order_relaxed);
                    });
                    done.get();
                }
            }
        });
    }
    for (std::thread &t : callers) {
        t.join();
    }

    EXPECT_EQ(forHits.load(), (kCallers / 2) * kRounds * kRange);
    EXPECT_EQ(submitHits.load(), (kCallers - kCallers / 2) * kRounds);
}

TEST(ThreadPool, FreeFunctionWrapper)
{
    std::vector<int> data(128, 0);
    parallelFor(0, data.size(), [&](std::size_t i) { data[i] = 1; });
    EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 128);
}

} // namespace
} // namespace edgepc
