/**
 * @file
 * Work-stealing-free, fixed-size thread pool used to emulate the
 * data-parallel execution model of the paper's CUDA kernels.
 *
 * Every EdgePC kernel is expressed as a parallel map over an index range
 * (the same decomposition the original CUDA implementation uses: one GPU
 * thread per point / per sampled point). parallelFor() blocks until the
 * whole range has been processed, mirroring a kernel launch + sync.
 */

#ifndef EDGEPC_COMMON_THREAD_POOL_HPP
#define EDGEPC_COMMON_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/timer.hpp"

namespace edgepc {

/**
 * A fixed-size pool of worker threads with a shared task queue.
 *
 * The pool is cheap to keep alive for the lifetime of the process; the
 * global instance returned by globalPool() is what the library kernels
 * use. A dedicated pool can be constructed for tests.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads Number of workers; 0 sizes the pool so workers
     *                    plus the participating caller match the
     *                    hardware concurrency (so a single-core device
     *                    gets zero workers and runs fully inline). The
     *                    EDGEPC_THREADS environment variable sets that
     *                    total instead (common/dispatch.hpp; clamped
     *                    to kMaxThreadsPerCore per hardware thread).
     */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 on a single-core default pool). */
    std::size_t size() const { return workers.size(); }

    /** Total concurrency of parallelFor: workers + the caller. */
    std::size_t concurrency() const { return workers.size() + 1; }

    /**
     * Run fn(i) for every i in [begin, end), distributing contiguous
     * chunks across the workers, and block until all are done.
     *
     * The calling thread participates in the work, so the pool is usable
     * even with zero queued capacity. Exceptions thrown by fn propagate
     * to the caller (first one wins).
     *
     * @param begin First index (inclusive).
     * @param end   Last index (exclusive).
     * @param fn    Body invoked once per index.
     * @param grain Minimum indices per chunk; 0 picks a heuristic.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t grain = 0);

    /**
     * Run fn(chunk_begin, chunk_end) over chunked subranges.
     * Useful when the body wants to amortize per-chunk setup.
     */
    void parallelForChunked(
        std::size_t begin, std::size_t end,
        const std::function<void(std::size_t, std::size_t)> &fn,
        std::size_t grain = 0);

    /**
     * Run @p fn once on every thread of the pool, one thread at a
     * time: first on the caller, then on each worker. Until the last
     * call returns, every worker is parked in this call, so a parallel
     * kernel inside @p fn runs all of its chunks on the thread that
     * called it. Warms per-thread state such as each thread's
     * ScratchArena. The first exception @p fn throws is rethrown here,
     * after every thread has had its turn. Must not be called from one
     * of this pool's workers: that worker could never take its turn.
     */
    void runOnEachThread(const std::function<void()> &fn);

    /**
     * Enqueue a single task and return a future for its completion.
     *
     * Unlike parallelFor(), the caller does not participate: the task
     * runs on a worker thread while the caller is free to wait with a
     * timeout (this is what the RobustPipeline deadline watchdog
     * does). An exception thrown by @p fn is rethrown from
     * future::get().
     */
    std::future<void> submit(std::function<void()> fn);

    /** The process-wide pool shared by the library's kernels. */
    static ThreadPool &globalPool();

  private:
    struct Task
    {
        std::function<void()> body;
        /** Started at enqueue; feeds the task-latency histogram. */
        Timer queued;
    };

    void workerLoop() EDGEPC_EXCLUDES(queueMutex);

    /** Immutable after the constructor returns (workers spawn once
        and only join in the destructor). */
    std::vector<std::thread> workers;
    // EDGEPC_LOCK_RANK(30): shared task-queue lock — may be acquired
    // while a caller holds engineMu (40); must never be held while
    // taking engineMu back.
    Mutex queueMutex;
    std::queue<Task> tasks EDGEPC_GUARDED_BY(queueMutex);
    std::condition_variable_any queueCv;
    bool stopping EDGEPC_GUARDED_BY(queueMutex) = false;
};

/** Convenience wrapper over ThreadPool::globalPool().parallelFor(). */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &fn,
                 std::size_t grain = 0);

} // namespace edgepc

#endif // EDGEPC_COMMON_THREAD_POOL_HPP
