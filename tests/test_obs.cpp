/**
 * @file
 * Unit tests for the obs subsystem: tracer ring semantics, span
 * nesting, enable/disable behavior, metric arithmetic, and (in the
 * ObsConcurrency suite, which the TSan gate runs) concurrent
 * recording from thread-pool workers.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace obs {
namespace {

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer(64);
    ASSERT_FALSE(tracer.enabled());
    tracer.record("span", "test", 0, 10, 0);
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, RecordsAndSortsSpans)
{
    Tracer tracer(64);
    tracer.setEnabled(true);
    tracer.recordManual("b", "test", 200, 50, 0, 0);
    tracer.recordManual("a", "test", 100, 40, 0, 0);
    tracer.recordManual("c", "test", 50, 10, 1, 0);

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    // Ordered by (tid, startNs, depth).
    EXPECT_EQ(spans[0].name, "a");
    EXPECT_EQ(spans[1].name, "b");
    EXPECT_EQ(spans[2].name, "c");
    EXPECT_EQ(spans[2].tid, 1u);
}

TEST(Tracer, RingWrapDropsOldestAndCounts)
{
    Tracer tracer(8);
    tracer.setEnabled(true);
    for (int i = 0; i < 20; ++i) {
        // Appending, not "s" + std::to_string(i): GCC 12 reports a
        // false -Wrestrict inside libstdc++'s operator+ for that form.
        std::string name = "s";
        name += std::to_string(i);
        tracer.recordManual(name, "test",
                            static_cast<std::uint64_t>(i * 10), 1, 0, 0);
    }
    const auto spans = tracer.snapshot();
    EXPECT_EQ(spans.size(), 8u);
    EXPECT_EQ(tracer.dropped(), 12u);
    // The retained spans are the newest 8 (12..19).
    EXPECT_EQ(spans.front().name, "s12");
    EXPECT_EQ(spans.back().name, "s19");

    tracer.clear();
    EXPECT_TRUE(tracer.snapshot().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ScopeNestingDepth)
{
#if !EDGEPC_TRACING
    GTEST_SKIP() << "live TraceScope spans compiled out (EDGEPC_TRACING=OFF)";
#endif
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    {
        TraceScope outer("outer", "test");
        {
            TraceScope inner("inner", "test");
        }
    }
    tracer.setEnabled(false);

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Both on this thread; inner closed (and so recorded) first.
    std::uint32_t outer_depth = 0, inner_depth = 0;
    for (const auto &s : spans) {
        if (s.name == "outer") {
            outer_depth = s.depth;
        } else if (s.name == "inner") {
            inner_depth = s.depth;
        }
    }
    EXPECT_EQ(outer_depth, 0u);
    EXPECT_EQ(inner_depth, 1u);
    tracer.clear();
}

TEST(Tracer, ScopesIgnoredWhileDisabled)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    ASSERT_FALSE(tracer.enabled());
    {
        TraceScope scope("invisible", "test");
        EDGEPC_TRACE_SCOPE("also-invisible", "test");
    }
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, TotalsMsFiltersByCategory)
{
    Tracer tracer(64);
    tracer.setEnabled(true);
    tracer.recordManual("sample", "stage", 0, 2'000'000, 0, 0);
    tracer.recordManual("sample", "stage", 0, 1'000'000, 1, 0);
    tracer.recordManual("neighbor", "stage", 0, 500'000, 0, 0);
    tracer.recordManual("gemm", "nn", 0, 9'000'000, 0, 0);

    const auto stage = tracer.totalsMs("stage");
    ASSERT_EQ(stage.size(), 2u);
    EXPECT_DOUBLE_EQ(stage.at("sample"), 3.0);
    EXPECT_DOUBLE_EQ(stage.at("neighbor"), 0.5);

    const auto all = tracer.totalsMs();
    EXPECT_EQ(all.size(), 3u);
    EXPECT_DOUBLE_EQ(all.at("gemm"), 9.0);
}

TEST(Metrics, CounterGaugeArithmetic)
{
    Counter c;
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    Gauge g;
    g.set(10);
    g.add(-25);
    EXPECT_EQ(g.value(), -15);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketsAndSum)
{
    const double bounds[] = {1.0, 10.0, 100.0};
    Histogram h(bounds);
    h.observe(0.5);   // <= 1
    h.observe(1.0);   // <= 1 (inclusive upper bound)
    h.observe(5.0);   // <= 10
    h.observe(1000.0); // +inf bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
    const auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 0u);
    EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds)
{
    const double unsorted[] = {10.0, 1.0};
    EXPECT_THROW(Histogram h(unsorted), EdgePcException);
    const double sorted[] = {1.0};
    EXPECT_NO_THROW(Histogram h2{std::span<const double>(sorted)});
}

TEST(Metrics, RegistryReturnsStableReferences)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);

    Gauge &g = registry.gauge("y");
    g.set(3);
    Histogram &h = registry.histogram("z");
    h.observe(0.2);

    registry.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    // Registration survives reset.
    EXPECT_EQ(registry.counters().size(), 1u);
    EXPECT_EQ(registry.counters()[0].first, "x");
}

TEST(ObsConcurrency, ParallelCountersAreExact)
{
    MetricsRegistry registry;
    Counter &hits = registry.counter("hits");
    Histogram &lat = registry.histogram("lat");
    constexpr std::size_t kItems = 20'000;
    parallelFor(0, kItems, [&](std::size_t i) {
        hits.add(1);
        lat.observe(static_cast<double>(i % 7));
    });
    EXPECT_EQ(hits.value(), kItems);
    EXPECT_EQ(lat.count(), kItems);
}

TEST(ObsConcurrency, ParallelSpanRecordingIsRaceFree)
{
    Tracer tracer(256);
    tracer.setEnabled(true);
    constexpr std::size_t kSpans = 5'000;
    parallelFor(0, kSpans, [&](std::size_t i) {
        tracer.record("work", "test",
                      static_cast<std::uint64_t>(i), 1, 0);
    });
    const auto spans = tracer.snapshot();
    // Each worker keeps its newest <= 256 spans; total recorded +
    // dropped must cover every record() call.
    EXPECT_EQ(spans.size() + tracer.dropped(), kSpans);
    for (const auto &s : spans) {
        EXPECT_EQ(s.name, "work");
    }
}

TEST(ObsConcurrency, SnapshotDuringRecording)
{
    Tracer tracer(1024);
    tracer.setEnabled(true);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::uint64_t t = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            tracer.record("bg", "test", t++, 1, 0);
        }
    });
    for (int i = 0; i < 50; ++i) {
        const auto spans = tracer.snapshot();
        for (const auto &s : spans) {
            ASSERT_EQ(s.category, "test");
        }
        if (i == 25) {
            tracer.clear();
        }
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
}

TEST(ObsConcurrency, EnableToggleDuringScopes)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    parallelFor(0, 2'000, [&](std::size_t i) {
        if (i % 3 == 0) {
            tracer.setEnabled(!tracer.enabled());
        }
        EDGEPC_TRACE_SCOPE("toggled", "test");
    });
    tracer.setEnabled(false);
    tracer.clear();
}

} // namespace
} // namespace obs
} // namespace edgepc
