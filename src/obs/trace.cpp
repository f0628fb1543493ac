#include "obs/trace.hpp"

#include <algorithm>

namespace edgepc {
namespace obs {

namespace {

/** Per-thread scope nesting depth (physical nesting is per thread). */
thread_local std::uint32_t tlsDepth = 0;

/** Single-entry cache: last (tracer id, buffer) pair this thread used. */
struct TlsBufferCache
{
    std::uint64_t owner = 0; // 0 = empty (ids start at 1)
    void *buffer = nullptr;
};
thread_local TlsBufferCache tlsCache;

std::atomic<std::uint64_t> nextTracerId{1};

} // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : epoch(std::chrono::steady_clock::now()),
      cap(std::max<std::size_t>(1, ring_capacity)),
      tracerId(nextTracerId.fetch_add(1, std::memory_order_relaxed))
{
}

Tracer &
Tracer::global()
{
    // Intentionally leaked: worker threads may record spans during
    // static destruction (thread-pool teardown), so the sink must
    // outlive every other static.
    static Tracer *tracer = new Tracer();
    return *tracer;
}

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

Tracer::ThreadBuffer &
Tracer::bufferForThisThread()
{
    if (tlsCache.owner == tracerId) {
        return *static_cast<ThreadBuffer *>(tlsCache.buffer);
    }
    const std::thread::id self = std::this_thread::get_id();
    MutexLock lock(traceRegistryMu);
    for (const auto &buf : buffers) {
        if (buf->owner == self) {
            tlsCache = {tracerId, buf.get()};
            return *buf;
        }
    }
    auto buf = std::make_unique<ThreadBuffer>();
    buf->ring.resize(cap);
    buf->tid = static_cast<std::uint32_t>(buffers.size());
    buf->owner = self;
    ThreadBuffer &ref = *buf;
    buffers.push_back(std::move(buf));
    tlsCache = {tracerId, &ref};
    return ref;
}

void
Tracer::appendLocked(ThreadBuffer &buf, std::string_view name,
                     std::string_view category, std::uint64_t start_ns,
                     std::uint64_t dur_ns, std::uint32_t tid,
                     std::uint32_t depth)
{
    SpanEvent &slot = buf.ring[buf.writeCount % cap];
    if (buf.writeCount >= cap) {
        droppedCount.fetch_add(1, std::memory_order_relaxed);
    }
    slot.name.assign(name);
    slot.category.assign(category);
    slot.startNs = start_ns;
    slot.durNs = dur_ns;
    slot.tid = tid;
    slot.depth = depth;
    ++buf.writeCount;
}

void
Tracer::record(std::string_view name, std::string_view category,
               std::uint64_t start_ns, std::uint64_t dur_ns,
               std::uint32_t depth)
{
    if (!enabled()) {
        return;
    }
    ThreadBuffer &buf = bufferForThisThread();
    MutexLock lock(buf.ringMu);
    appendLocked(buf, name, category, start_ns, dur_ns, buf.tid, depth);
}

void
Tracer::recordManual(std::string_view name, std::string_view category,
                     std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint32_t tid, std::uint32_t depth)
{
    ThreadBuffer &buf = bufferForThisThread();
    MutexLock lock(buf.ringMu);
    appendLocked(buf, name, category, start_ns, dur_ns, tid, depth);
}

void
Tracer::clear()
{
    MutexLock lock(traceRegistryMu);
    for (const auto &buf : buffers) {
        MutexLock bufLock(buf->ringMu);
        buf->writeCount = 0;
    }
    droppedCount.store(0, std::memory_order_relaxed);
}

std::vector<SpanEvent>
Tracer::snapshot() const
{
    std::vector<SpanEvent> out;
    {
        MutexLock lock(traceRegistryMu);
        for (const auto &buf : buffers) {
            MutexLock bufLock(buf->ringMu);
            const std::uint64_t n = std::min<std::uint64_t>(
                buf->writeCount, static_cast<std::uint64_t>(cap));
            const std::uint64_t first = buf->writeCount - n;
            for (std::uint64_t i = 0; i < n; ++i) {
                out.push_back(buf->ring[(first + i) % cap]);
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  if (a.tid != b.tid) {
                      return a.tid < b.tid;
                  }
                  if (a.startNs != b.startNs) {
                      return a.startNs < b.startNs;
                  }
                  return a.depth < b.depth;
              });
    return out;
}

std::map<std::string, double>
Tracer::totalsMs(std::string_view category) const
{
    std::map<std::string, double> totals;
    for (const SpanEvent &e : snapshot()) {
        if (!category.empty() && e.category != category) {
            continue;
        }
        totals[e.name] += static_cast<double>(e.durNs) * 1e-6;
    }
    return totals;
}

#if EDGEPC_TRACING

TraceScope::TraceScope(std::string_view span_name,
                       std::string_view span_category)
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled()) {
        return;
    }
    active = true;
    name.assign(span_name);
    category.assign(span_category);
    depth = tlsDepth++;
    startNs = tracer.nowNs();
}

TraceScope::~TraceScope()
{
    if (!active) {
        return;
    }
    --tlsDepth;
    Tracer &tracer = Tracer::global();
    const std::uint64_t end = tracer.nowNs();
    tracer.record(name, category, startNs,
                  end > startNs ? end - startNs : 0, depth);
}

#endif // EDGEPC_TRACING

} // namespace obs
} // namespace edgepc
