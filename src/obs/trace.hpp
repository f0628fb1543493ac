/**
 * @file
 * Low-overhead scoped-span tracer.
 *
 * Spans are recorded into fixed-capacity per-thread ring buffers: the
 * recording fast path touches only thread-local state plus one
 * uncontended per-buffer mutex, so worker threads never serialize on a
 * shared sink. When a ring wraps, the oldest spans are overwritten and
 * counted in dropped().
 *
 * Cost model (the overhead budget of DESIGN.md §8):
 *  - compile-time disabled (-DEDGEPC_TRACING=0): zero — EDGEPC_TRACE_SCOPE
 *    expands to a no-op statement and TraceScope is an empty type.
 *  - runtime disabled (the default): one relaxed atomic load per scope.
 *  - runtime enabled: two steady_clock reads plus one ring store.
 *
 * The tracer records "complete" spans (start + duration), which the
 * Chrome trace_event exporter maps to "ph":"X" events; nesting is
 * reconstructed from timestamps per thread, and each span additionally
 * carries its nesting depth at record time.
 */

#ifndef EDGEPC_OBS_TRACE_HPP
#define EDGEPC_OBS_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

/**
 * Compile-time master switch. Building with -DEDGEPC_TRACING=0 (the
 * CMake option EDGEPC_TRACING=OFF) compiles every EDGEPC_TRACE_SCOPE
 * out entirely; the Tracer class itself remains linkable so exporters
 * and tests still build.
 */
#ifndef EDGEPC_TRACING
#define EDGEPC_TRACING 1
#endif

namespace edgepc {
namespace obs {

/** One recorded span. Times are nanoseconds since the tracer epoch. */
struct SpanEvent
{
    std::string name;
    std::string category;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    /** Small ordinal id assigned per recording thread. */
    std::uint32_t tid = 0;
    /** Nesting depth of the scope at record time (0 = top level). */
    std::uint32_t depth = 0;
};

/**
 * Thread-safe span sink with per-thread ring buffers.
 *
 * Recording is allowed from any thread concurrently with snapshot(),
 * clear() and setEnabled(). Disabled by default: enable explicitly
 * (e.g. bench --trace) so ordinary library use pays only the enabled()
 * check.
 */
class Tracer
{
  public:
    /** Spans retained per thread before the ring overwrites. */
    static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

    explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide tracer used by EDGEPC_TRACE_SCOPE. */
    static Tracer &global();

    /** Turn span recording on or off (off by default). */
    void setEnabled(bool on)
    {
        enabledFlag.store(on, std::memory_order_relaxed);
    }

    /** True when spans are being recorded. */
    bool enabled() const
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** Drop every recorded span (buffers stay registered). */
    void clear() EDGEPC_EXCLUDES(traceRegistryMu);

    /** Nanoseconds since the tracer epoch (monotonic). */
    std::uint64_t nowNs() const;

    /**
     * Record one span on the calling thread. Buffer registration on
     * first use; later calls touch only the thread's own ring.
     */
    void record(std::string_view name, std::string_view category,
                std::uint64_t start_ns, std::uint64_t dur_ns,
                std::uint32_t depth);

    /**
     * Test hook: record a span with an explicit thread ordinal and
     * explicit timestamps, so exporter tests are fully deterministic.
     */
    void recordManual(std::string_view name, std::string_view category,
                      std::uint64_t start_ns, std::uint64_t dur_ns,
                      std::uint32_t tid, std::uint32_t depth);

    /**
     * Copy of every retained span, ordered by (tid, startNs, depth).
     * Safe against concurrent recording (spans recorded while the
     * snapshot runs may or may not appear).
     */
    std::vector<SpanEvent> snapshot() const
        EDGEPC_EXCLUDES(traceRegistryMu);

    /** Spans lost to ring wrap-around since the last clear(). */
    std::uint64_t dropped() const
    {
        return droppedCount.load(std::memory_order_relaxed);
    }

    /**
     * Total milliseconds per span name, restricted to @p category
     * (empty = all categories). This is how the figure benches turn
     * raw span data back into the paper's per-stage breakdown.
     */
    std::map<std::string, double>
    totalsMs(std::string_view category = {}) const;

    std::size_t ringCapacity() const { return cap; }

  private:
    struct ThreadBuffer
    {
        // EDGEPC_LOCK_RANK(15): per-thread span ring lock — acquired
        // under traceRegistryMu (20) by clear()/snapshot(); leaf lock
        // on the recording fast path.
        mutable Mutex ringMu;
        std::vector<SpanEvent> ring EDGEPC_GUARDED_BY(ringMu);
        std::uint64_t writeCount EDGEPC_GUARDED_BY(ringMu) = 0;
        /** Immutable after registration (written once under
            traceRegistryMu before the buffer is published). */
        std::uint32_t tid = 0;
        std::thread::id owner;
    };

    ThreadBuffer &bufferForThisThread()
        EDGEPC_EXCLUDES(traceRegistryMu);
    void appendLocked(ThreadBuffer &buf, std::string_view name,
                      std::string_view category, std::uint64_t start_ns,
                      std::uint64_t dur_ns, std::uint32_t tid,
                      std::uint32_t depth) EDGEPC_REQUIRES(buf.ringMu);

    // EDGEPC_LOCK_RANK(20): tracer buffer-registry lock — taken before
    // any ThreadBuffer::ringMu (15), never while one is held.
    mutable Mutex traceRegistryMu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers
        EDGEPC_GUARDED_BY(traceRegistryMu);
    std::atomic<bool> enabledFlag{false};
    std::atomic<std::uint64_t> droppedCount{0};
    std::chrono::steady_clock::time_point epoch;
    std::size_t cap;
    /** Process-unique id; the thread-local buffer cache keys on this
     *  instead of the address so a new Tracer reusing a destroyed
     *  one's storage can never hit a stale cache entry. */
    std::uint64_t tracerId;
};

#if EDGEPC_TRACING

/**
 * RAII scope: captures the wall time between construction and
 * destruction as one span on the global tracer. Name and category are
 * copied at construction (only when tracing is enabled), so callers
 * may pass temporaries.
 */
class TraceScope
{
  public:
    TraceScope(std::string_view span_name, std::string_view span_category);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    std::string name;
    std::string category;
    std::uint64_t startNs = 0;
    std::uint32_t depth = 0;
    bool active = false;
};

#else // !EDGEPC_TRACING

/** Compiled-out stand-in: an empty type the optimizer erases. */
class TraceScope
{
  public:
    TraceScope(std::string_view, std::string_view) {}
};

#endif // EDGEPC_TRACING

#define EDGEPC_TRACE_CONCAT_INNER(a, b) a##b
#define EDGEPC_TRACE_CONCAT(a, b) EDGEPC_TRACE_CONCAT_INNER(a, b)

#if EDGEPC_TRACING
/** Open a trace span covering the rest of the enclosing block. */
#define EDGEPC_TRACE_SCOPE(span_name, span_category)                       \
    ::edgepc::obs::TraceScope EDGEPC_TRACE_CONCAT(                         \
        edgepc_trace_scope_, __LINE__)((span_name), (span_category))
#else
#define EDGEPC_TRACE_SCOPE(span_name, span_category) static_cast<void>(0)
#endif

} // namespace obs
} // namespace edgepc

#endif // EDGEPC_OBS_TRACE_HPP
