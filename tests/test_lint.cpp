/**
 * @file End-to-end tests of the edgepc-lint tool: each rule R1–R6 has
 * a fixture under tests/fixtures/lint/ that the tool must catch at
 * the expected line, NOLINT suppression must silence a finding, and
 * the baseline must round-trip through --write-baseline.
 *
 * The tool binary and fixture directory are injected by CMake as
 * EDGEPC_LINT_BIN and EDGEPC_LINT_FIXTURES.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output;
};

/** Run edgepc-lint with @p args, capturing stdout+stderr. The
    capture file is keyed on the running test so parallel ctest
    invocations cannot collide. */
RunResult
runLint(const std::string &args)
{
    const std::string capture =
        std::string(EDGEPC_LINT_BIN) + "-" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".capture.txt";
    const std::string cmd = std::string(EDGEPC_LINT_BIN) + " " + args +
                            " > " + capture + " 2>&1";
    const int status = std::system(cmd.c_str());

    RunResult r;
#ifdef _WIN32
    r.exitCode = status;
#else
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
    std::ifstream in(capture);
    std::ostringstream buf;
    buf << in.rdbuf();
    r.output = buf.str();
    std::remove(capture.c_str());
    return r;
}

std::string
fixtures()
{
    return EDGEPC_LINT_FIXTURES;
}

TEST(EdgePcLint, CatchesEveryRuleAtTheExpectedLine)
{
    const RunResult r = runLint("--no-baseline " + fixtures());
    EXPECT_EQ(r.exitCode, 1) << r.output;

    // One violation per rule, each pinned to file and line.
    EXPECT_NE(r.output.find("models/r1_fatal.cpp:9:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R1"), std::string::npos);

    EXPECT_NE(r.output.find("r2_decl.hpp:11:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("r2_discard.cpp:12:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R2"), std::string::npos);

    EXPECT_NE(r.output.find("r3_rand.cpp:8:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R3"), std::string::npos);

    EXPECT_NE(r.output.find("nn/r4_floatcmp.cpp:7:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R4"), std::string::npos);

    EXPECT_NE(r.output.find("r5_bad_header.hpp:1:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("r5_bad_header.hpp:7:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R5"), std::string::npos);

    EXPECT_NE(r.output.find("r6_hot_alloc.cpp:17:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("r6_hot_alloc.cpp:18:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("r6_hot_alloc.cpp:19:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R6"), std::string::npos);
    // The identical allocations outside the marked region stay clean.
    EXPECT_EQ(r.output.find("r6_hot_alloc.cpp:8:"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("r6_hot_alloc.cpp:9:"), std::string::npos)
        << r.output;

    // The nn idiom: Matrix construction is heap allocation too.
    EXPECT_NE(r.output.find("nn/r6_matrix_hot.cpp:21:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r6_matrix_hot.cpp:23:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("nn/r6_matrix_hot.cpp:13:"),
              std::string::npos)
        << r.output;

    // The serve idiom: the dispatch loop must move frames, never
    // copy-construct them, and never grow containers under the lock.
    EXPECT_NE(r.output.find("serve/dispatch_hot.cpp:29:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("serve/dispatch_hot.cpp:31:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("serve/dispatch_hot.cpp:20:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("serve/dispatch_hot.cpp:22:"),
              std::string::npos)
        << r.output;

    // R7: nesting against the declared rank order and re-entering an
    // equal rank are flagged; rank-ordered nesting and unlock-then-
    // climb stay clean.
    EXPECT_NE(r.output.find("r7_lock_order.cpp:28:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("r7_lock_order.cpp:35:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R7"), std::string::npos);
    EXPECT_EQ(r.output.find("r7_lock_order.cpp:21:"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("r7_lock_order.cpp:44:"), std::string::npos)
        << r.output;

    // R8: every escape route (return, member store, out-parameter,
    // static) is flagged; copying a value out of the view is clean.
    EXPECT_NE(r.output.find("nn/r8_arena_escape.cpp:26:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r8_arena_escape.cpp:33:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r8_arena_escape.cpp:40:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r8_arena_escape.cpp:47:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R8"), std::string::npos);
    EXPECT_EQ(r.output.find("nn/r8_arena_escape.cpp:55:"),
              std::string::npos)
        << r.output;

    // The gatherMaxPoolInto idiom (DESIGN.md §13): owning buffers
    // sized before the EDGEPC_HOT region and spans used locally stay
    // clean; sizing the pooled matrix inside the region is R6 and
    // leaking the arena staging span is R8.
    EXPECT_NE(r.output.find("nn/gather_pool_hot.cpp:41:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/gather_pool_hot.cpp:50:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("nn/gather_pool_hot.cpp:30:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("nn/gather_pool_hot.cpp:57:"),
              std::string::npos)
        << r.output;

    // The int8 quantize-pack idiom (DESIGN.md §15): arena scratch
    // sized before the EDGEPC_HOT region stays clean; rebuilding
    // QuantizedWeights panels or growing staging vectors inside the
    // region is R6, and leaking the arena-backed packed view is R8.
    EXPECT_NE(r.output.find("nn/r6_quant_hot.cpp:49:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r6_quant_hot.cpp:58:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r6_quant_hot.cpp:59:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("nn/r6_quant_hot.cpp:66:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("nn/r6_quant_hot.cpp:37:"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("nn/r6_quant_hot.cpp:73:"),
              std::string::npos)
        << r.output;

    // R9: raw std mutex, missing rank, and a rank nothing guards;
    // the Compliant struct stays clean.
    EXPECT_NE(r.output.find("serve/r9_unannotated_mutex.cpp:16:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("serve/r9_unannotated_mutex.cpp:22:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("serve/r9_unannotated_mutex.cpp:29:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R9"), std::string::npos);
    EXPECT_EQ(r.output.find("serve/r9_unannotated_mutex.cpp:34:"),
              std::string::npos)
        << r.output;

    // The compliant declarations/calls in the fixtures must NOT fire.
    EXPECT_EQ(r.output.find("r2_decl.hpp:13:"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("r2_discard.cpp:14:"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("r2_discard.cpp:16:"), std::string::npos)
        << r.output;
}

TEST(EdgePcLint, GetenvOnlyInTheDispatchParser)
{
    const RunResult r =
        runLint("--no-baseline --only edgepc-R10 " + fixtures());
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("core/r10_getenv.cpp:8:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("edgepc-R10"), std::string::npos) << r.output;
    // The one parser may read the environment.
    EXPECT_EQ(r.output.find("lint/common/dispatch.cpp:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos)
        << r.output;
}

TEST(EdgePcLint, NolintSuppressesAndIsCounted)
{
    const RunResult r =
        runLint("--no-baseline " + fixtures() + "/suppressed.cpp");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("1 nolint-suppressed"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("edgepc-R3"), std::string::npos) << r.output;
}

TEST(EdgePcLint, OnlyFilterRestrictsRules)
{
    const RunResult r =
        runLint("--no-baseline --only edgepc-R3 " + fixtures());
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("edgepc-R3"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("edgepc-R1"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("edgepc-R5"), std::string::npos) << r.output;
}

TEST(EdgePcLint, BaselineRoundTripTolerates)
{
    const std::string baseline =
        std::string(EDGEPC_LINT_BIN) + "-baseline.txt";

    const RunResult wrote =
        runLint("--write-baseline " + baseline + " " + fixtures());
    EXPECT_EQ(wrote.exitCode, 0) << wrote.output;

    // With every current finding baselined, the tree is "clean".
    const RunResult tolerated =
        runLint("--baseline " + baseline + " " + fixtures());
    EXPECT_EQ(tolerated.exitCode, 0) << tolerated.output;
    EXPECT_NE(tolerated.output.find("0 finding(s)"), std::string::npos)
        << tolerated.output;

    std::remove(baseline.c_str());
}

TEST(EdgePcLint, StaleBaselineFailsAndUpdateRewrites)
{
    const std::string baseline =
        std::string(EDGEPC_LINT_BIN) + "-stale-baseline.txt";

    // Record the full fixture debt, then lint one file: the entries
    // for everything else are stale and must fail the run.
    const RunResult wrote =
        runLint("--write-baseline " + baseline + " " + fixtures());
    ASSERT_EQ(wrote.exitCode, 0) << wrote.output;

    const RunResult staleRun = runLint("--baseline " + baseline + " " +
                                       fixtures() + "/r3_rand.cpp");
    EXPECT_EQ(staleRun.exitCode, 1) << staleRun.output;
    EXPECT_NE(staleRun.output.find("stale baseline entry"),
              std::string::npos)
        << staleRun.output;
    EXPECT_NE(staleRun.output.find("--update-baseline"),
              std::string::npos)
        << staleRun.output;

    // --update-baseline re-records the shrunk debt and exits clean…
    const RunResult updated =
        runLint("--baseline " + baseline + " --update-baseline " +
                fixtures() + "/r3_rand.cpp");
    EXPECT_EQ(updated.exitCode, 0) << updated.output;
    EXPECT_NE(updated.output.find("updated"), std::string::npos)
        << updated.output;

    // …after which a plain run against the same baseline is green.
    const RunResult clean = runLint("--baseline " + baseline + " " +
                                    fixtures() + "/r3_rand.cpp");
    EXPECT_EQ(clean.exitCode, 0) << clean.output;
    EXPECT_NE(clean.output.find("0 finding(s)"), std::string::npos)
        << clean.output;

    std::remove(baseline.c_str());
}

TEST(EdgePcLint, GithubFormatEmitsWorkflowCommands)
{
    const RunResult r = runLint("--no-baseline --format=github " +
                                fixtures() + "/r3_rand.cpp");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("::error file="), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("line=8"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("title=edgepc-R3"), std::string::npos)
        << r.output;
}

TEST(EdgePcLint, ListRulesDocumentsAllRules)
{
    const RunResult r = runLint("--list-rules");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    for (const char *rule :
         {"edgepc-R1", "edgepc-R2", "edgepc-R3", "edgepc-R4",
          "edgepc-R5", "edgepc-R6", "edgepc-R7", "edgepc-R8",
          "edgepc-R9", "edgepc-R10"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing " << rule << " in:\n"
            << r.output;
    }
}

} // namespace
