/**
 * @file
 * Golden-file tests for the observability exporters.
 *
 * The Chrome trace and stats JSON emitters are deterministic (sorted
 * keys, %.12g numbers, recordManual's explicit timestamps), so their
 * output is compared byte-for-byte against fixtures under
 * tests/fixtures/obs/. A third test exercises real TraceScope spans,
 * whose timestamps are nondeterministic, by masking every "ts"/"dur"
 * value before comparing the structural skeleton.
 *
 * Regenerate fixtures after an intentional format change with
 *   EDGEPC_REGEN_FIXTURES=1 ./edgepc_tests --gtest_filter='ObsExport*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgepc {
namespace obs {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(EDGEPC_OBS_FIXTURES) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Compare @p produced against the named fixture; with
 * EDGEPC_REGEN_FIXTURES set, rewrite the fixture instead.
 */
void
expectMatchesFixture(const std::string &produced,
                     const std::string &name)
{
    const std::string path = fixturePath(name);
    if (std::getenv("EDGEPC_REGEN_FIXTURES") != nullptr) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot regenerate " << path;
        os << produced;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty()) << "missing fixture " << path;
    EXPECT_EQ(produced, expected) << "fixture " << name;
}

/**
 * Replace every "ts"/"dur" number (real timings) and "tid" (the
 * global tracer's thread ordinals depend on which tests ran first)
 * so live-recorded traces compare stably.
 */
std::string
maskTimestamps(const std::string &json)
{
    static const std::regex ts_re("\"(ts|dur|tid)\":[0-9.eE+-]+");
    return std::regex_replace(json, ts_re, "\"$1\":0");
}

/** The fixed span set used by the byte-exact Chrome trace fixture. */
Tracer &
fixtureTracer()
{
    static Tracer tracer(64);
    tracer.clear();
    tracer.setEnabled(true);
    // Two threads; thread 0 has a nested stage under the pipeline
    // span, thread 1 a single gemm span. Times in ns.
    tracer.recordManual("pipeline", "pipeline", 1'000, 9'000'000, 0, 0);
    tracer.recordManual("sample", "stage", 2'000, 1'500'000, 0, 1);
    tracer.recordManual("neighbor", "stage", 1'600'000, 2'500'000, 0, 1);
    tracer.recordManual("gemm", "nn", 5'000, 750'500, 1, 0);
    return tracer;
}

TEST(ObsExport, ChromeTraceGolden)
{
    std::ostringstream os;
    writeChromeTrace(os, fixtureTracer());
    expectMatchesFixture(os.str(), "chrome_trace.json");
}

TEST(ObsExport, StatsGolden)
{
    MetricsRegistry registry;
    registry.counter("gemm.flops").add(123456789);
    registry.counter("neighbor_cache.hits").add(41);
    registry.gauge("threadpool.queue_depth").set(-3);
    const double bounds[] = {0.5, 5.0};
    Histogram &h = registry.histogram("pipeline.frame_ms", bounds);
    h.observe(0.25);
    h.observe(2.0);
    h.observe(100.0);

    std::ostringstream os;
    writeStatsJson(os, registry);
    expectMatchesFixture(os.str(), "stats.json");
}

TEST(ObsExport, RealSpansMaskedGolden)
{
#if !EDGEPC_TRACING
    GTEST_SKIP() << "live TraceScope spans compiled out (EDGEPC_TRACING=OFF)";
#endif
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    {
        TraceScope outer("frame", "pipeline");
        {
            TraceScope inner("sample", "stage");
        }
        {
            TraceScope inner2("group", "stage");
        }
    }
    tracer.setEnabled(false);

    std::ostringstream os;
    writeChromeTrace(os, tracer);
    tracer.clear();
    expectMatchesFixture(maskTimestamps(os.str()),
                         "chrome_trace_masked.json");
}

TEST(ObsExport, ChromeTraceReportsDropped)
{
    Tracer tracer(2);
    tracer.setEnabled(true);
    tracer.recordManual("a", "t", 0, 1, 0, 0);
    tracer.recordManual("b", "t", 10, 1, 0, 0);
    tracer.recordManual("c", "t", 20, 1, 0, 0);

    std::ostringstream os;
    writeChromeTrace(os, tracer);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"dropped\":1"), std::string::npos);
    EXPECT_EQ(out.find("\"name\":\"a\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"c\""), std::string::npos);
}

TEST(ObsExport, FileWritersReportIoErrors)
{
    Tracer tracer(4);
    const Result<void> bad_trace = writeChromeTraceFile(
        "/nonexistent-dir/trace.json", tracer);
    ASSERT_FALSE(bad_trace.ok());
    EXPECT_EQ(bad_trace.code(), ErrorCode::IoError);

    MetricsRegistry registry;
    const Result<void> bad_stats = writeStatsJsonFile(
        "/nonexistent-dir/stats.json", registry);
    ASSERT_FALSE(bad_stats.ok());
    EXPECT_EQ(bad_stats.code(), ErrorCode::IoError);
}

} // namespace
} // namespace obs
} // namespace edgepc
