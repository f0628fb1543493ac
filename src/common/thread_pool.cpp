#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>

#include "common/dispatch.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace edgepc {

namespace {

/** Tasks currently queued (enqueued, not yet picked up). */
obs::Gauge &
queueDepthGauge()
{
    static obs::Gauge &gauge =
        obs::MetricsRegistry::global().gauge("threadpool.queue_depth");
    return gauge;
}

/** Tasks ever enqueued. */
obs::Counter &
taskCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter("threadpool.tasks");
    return counter;
}

/** Enqueue-to-completion latency (queue wait + execution). */
obs::Histogram &
taskLatencyHistogram()
{
    static obs::Histogram &hist =
        obs::MetricsRegistry::global().histogram("threadpool.task_ms");
    return hist;
}

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        // The caller participates in parallelFor, so target one thread
        // per core by spawning hardware_concurrency - 1 workers; on a
        // single-core device the pool runs fully inline. EDGEPC_THREADS
        // sets the total concurrency (workers + caller) instead.
        num_threads = dispatchEnv().threads - 1;
    }
    workers.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(queueMutex);
        stopping = true;
    }
    queueCv.notify_all();
    for (auto &w : workers) {
        w.join();
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            UniqueMutexLock lock(queueMutex);
            // Explicit wait loop: wait(lock, pred) lambdas are
            // analyzed as separate functions by -Wthread-safety and
            // would reject the guarded reads.
            while (!stopping && tasks.empty()) {
                queueCv.wait(lock);
            }
            if (stopping && tasks.empty()) {
                return;
            }
            task = std::move(tasks.front());
            tasks.pop();
        }
        queueDepthGauge().add(-1);
        task.body();
        taskLatencyHistogram().observe(task.queued.elapsedMs());
    }
}

void
ThreadPool::parallelForChunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)> &fn,
    std::size_t grain)
{
    if (begin >= end) {
        return;
    }
    const std::size_t n = end - begin;
    const std::size_t nthreads = workers.size() + 1;
    if (grain == 0) {
        grain = std::max<std::size_t>(1, n / (nthreads * 4));
    }
    const std::size_t nchunks = (n + grain - 1) / grain;

    if (nchunks <= 1) {
        fn(begin, end);
        return;
    }

    // The control block is shared with the helper tasks: a helper may
    // be dequeued only after every chunk has already been claimed and
    // the caller has returned, so it must not touch the caller's
    // stack. Everything a late helper can reach lives here.
    struct Batch
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t nchunks;
        std::size_t begin;
        std::size_t end;
        std::size_t grain;
        const std::function<void(std::size_t, std::size_t)> *body;
        // EDGEPC_LOCK_RANK(25): per-batch error capture lock — leaf
        // lock under queueMutex (30); nothing is acquired inside it.
        Mutex errorMutex;
        std::exception_ptr error EDGEPC_GUARDED_BY(errorMutex);
        std::promise<void> allDone;
    };
    auto batch = std::make_shared<Batch>();
    batch->nchunks = nchunks;
    batch->begin = begin;
    batch->end = end;
    batch->grain = grain;
    // The body itself stays on the caller's stack: any helper that
    // claims a chunk finishes it (and its done increment) before the
    // caller is released, so the pointer never dangles while used.
    batch->body = &fn;

    auto run_chunks = [](const std::shared_ptr<Batch> &b) {
        for (;;) {
            const std::size_t c = b->next.fetch_add(1);
            if (c >= b->nchunks) {
                break;
            }
            const std::size_t lo = b->begin + c * b->grain;
            const std::size_t hi = std::min(b->end, lo + b->grain);
            try {
                (*b->body)(lo, hi);
            } catch (...) {
                MutexLock lock(b->errorMutex);
                if (!b->error) {
                    b->error = std::current_exception();
                }
            }
            if (b->done.fetch_add(1) + 1 == b->nchunks) {
                b->allDone.set_value();
            }
        }
    };

    const std::size_t helpers = std::min(nchunks - 1, workers.size());
    // Bumped before the push so the gauge can never dip negative when
    // a worker pops (and decrements) immediately.
    taskCounter().add(helpers);
    queueDepthGauge().add(static_cast<std::int64_t>(helpers));
    {
        MutexLock lock(queueMutex);
        for (std::size_t i = 0; i < helpers; ++i) {
            tasks.push(Task{[batch, run_chunks] { run_chunks(batch); },
                            Timer{}});
        }
    }
    queueCv.notify_all();

    run_chunks(batch);
    batch->allDone.get_future().wait();

    // allDone already orders every helper's writes before this read,
    // but the lock keeps the guarded_by contract checkable (and is
    // uncontended by then — one acquisition per parallelFor call).
    std::exception_ptr err;
    {
        MutexLock lock(batch->errorMutex);
        err = batch->error;
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &fn,
                        std::size_t grain)
{
    parallelForChunked(
        begin, end,
        [&fn](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                fn(i);
            }
        },
        grain);
}

void
ThreadPool::runOnEachThread(const std::function<void()> &fn)
{
    // Shared with the worker tasks, which may still be returning from
    // their last wait when the caller leaves.
    struct Turns
    {
        // EDGEPC_LOCK_RANK(25): turn-taking lock — leaf lock, like the
        // parallelFor batch's; nothing is acquired inside it.
        Mutex turnMu;
        std::condition_variable_any cv;
        /** Workers parked in this call so far; each takes the next
            turn number as its ticket. */
        std::size_t arrived EDGEPC_GUARDED_BY(turnMu) = 0;
        /** Whose turn it is: 0 is the caller, i the i-th worker; n + 1
            when every thread is done. */
        std::size_t turn EDGEPC_GUARDED_BY(turnMu) = 0;
        std::exception_ptr error EDGEPC_GUARDED_BY(turnMu);
    };
    const std::size_t n = workers.size();
    auto turns = std::make_shared<Turns>();
    auto run = [turns, &fn] {
        try {
            fn();
        } catch (...) {
            MutexLock lock(turns->turnMu);
            if (!turns->error) {
                turns->error = std::current_exception();
            }
        }
    };
    // fn stays on the caller's stack: every call returns before the
    // turn passes on, and the caller waits for the last turn.
    taskCounter().add(n);
    queueDepthGauge().add(static_cast<std::int64_t>(n));
    {
        MutexLock lock(queueMutex);
        for (std::size_t i = 0; i < n; ++i) {
            tasks.push(Task{[turns, run, n] {
                                UniqueMutexLock lock(turns->turnMu);
                                const std::size_t ticket = ++turns->arrived;
                                turns->cv.notify_all();
                                while (turns->turn != ticket) {
                                    turns->cv.wait(lock);
                                }
                                lock.unlock();
                                run();
                                lock.lock();
                                ++turns->turn;
                                turns->cv.notify_all();
                                // Stay parked until the last turn, so no
                                // worker helps another's call.
                                while (turns->turn != n + 1) {
                                    turns->cv.wait(lock);
                                }
                            },
                            Timer{}});
        }
    }
    queueCv.notify_all();

    UniqueMutexLock lock(turns->turnMu);
    while (turns->arrived != n) {
        turns->cv.wait(lock);
    }
    lock.unlock();
    run();
    lock.lock();
    ++turns->turn;
    turns->cv.notify_all();
    while (turns->turn != n + 1) {
        turns->cv.wait(lock);
    }
    const std::exception_ptr err = turns->error;
    lock.unlock();
    if (err) {
        std::rethrow_exception(err);
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> fn)
{
    auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
    std::future<void> future = task->get_future();
    taskCounter().add(1);
    if (workers.empty()) {
        // Serial pool (single-core target): nobody would ever drain
        // the queue, so the task runs inline on the caller.
        (*task)();
        return future;
    }
    queueDepthGauge().add(1);
    {
        MutexLock lock(queueMutex);
        tasks.push(Task{[task] { (*task)(); }, Timer{}});
    }
    queueCv.notify_one();
    return future;
}

ThreadPool &
ThreadPool::globalPool()
{
    static ThreadPool pool;
    return pool;
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn, std::size_t grain)
{
    ThreadPool::globalPool().parallelFor(begin, end, fn, grain);
}

} // namespace edgepc
