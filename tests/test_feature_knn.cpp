/**
 * @file
 * FeatureKnn: the GEMM-formulated feature-space k-NN
 * (BruteForceKnn::searchFeatureSpace, DESIGN.md §16) against the
 * direct-difference scan it replaced, computed in double.
 *
 * The expansion ‖q‖² − 2q·c + ‖c‖² rounds differently from Σ(q − c)²,
 * so near-ties may swap. A row passes when every returned index has
 * exact distance <= d_k + τ and every other index has exact distance
 * >= d_k − τ, where d_k is the exact k-th distance and
 * τ = 2(d + 4)·FLT_EPSILON·(‖q − μ‖² + max_c ‖c − μ‖²) bounds the sum
 * of two distances' forward errors on the centered data.
 *
 * Part of the TSan gate (tools/ci/run_tsan.sh matches 'FeatureKnn'):
 * pool threads multiply their tiles against one shared packing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geometry/vec3.hpp"
#include "neighbor/brute_force.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "build_guard.hpp"

namespace edgepc {
namespace {

/** EXPECT that @p expr throws EdgePcException with @p code. */
#define EXPECT_RAISES(expr, expected_code)                                \
    do {                                                                  \
        try {                                                             \
            (void)(expr);                                                 \
            FAIL() << "expected EdgePcException";                         \
        } catch (const EdgePcException &e) {                              \
            EXPECT_EQ(e.code(), (expected_code)) << e.what();             \
        }                                                                 \
    } while (0)

/** The S+N+F run's engine, whose policy packs the feature k-NN. */
const nn::GemmEngine &kEngine = nn::GemmEngine::shared(nn::GemmMode::Auto);

/** n x dim standard-normal features plus a common @p offset. */
std::vector<float>
randomFeatures(std::size_t n, std::size_t dim, std::uint64_t seed,
               float offset = 0.0f)
{
    Rng rng(seed);
    std::vector<float> f(n * dim);
    for (auto &v : f) {
        v = rng.normal() + offset;
    }
    return f;
}

/**
 * Low-rank features like a trained EdgeConv's: points in 8 tight 3-D
 * clusters, lifted to @p dim by one random linear map and LeakyReLU
 * (slope 0.2), plus a common @p offset.
 */
std::vector<float>
liftedFeatures(std::size_t n, std::size_t dim, std::uint64_t seed,
               float offset = 0.0f)
{
    Rng rng(seed);
    std::vector<Vec3> centers(8);
    for (auto &c : centers) {
        c = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
             rng.uniform(-1.0f, 1.0f)};
    }
    std::vector<float> map(3 * dim);
    for (auto &w : map) {
        w = rng.normal();
    }
    std::vector<float> f(n * dim);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 &c = centers[rng.nextBelow(centers.size())];
        const float p[3] = {c.x + 0.05f * rng.normal(),
                            c.y + 0.05f * rng.normal(),
                            c.z + 0.05f * rng.normal()};
        for (std::size_t d = 0; d < dim; ++d) {
            const float v =
                p[0] * map[d] + p[1] * map[dim + d] + p[2] * map[2 * dim + d];
            f[i * dim + d] = (v > 0.0f ? v : 0.2f * v) + offset;
        }
    }
    return f;
}

/** The scan the GEMM path replaced, in double: Σ (q_d − c_d)². */
double
exactDistance(const float *q, const float *c, std::size_t dim)
{
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
        const double diff =
            static_cast<double>(q[d]) - static_cast<double>(c[d]);
        s += diff * diff;
    }
    return s;
}

/**
 * Check every @p stride-th query row of @p lists against the tie-aware
 * oracle; returns "" on success, else a description of the first bad
 * row and the number of bad rows.
 */
std::string
oracleMismatch(const std::vector<float> &queries,
               const std::vector<float> &cands, std::size_t dim,
               std::size_t k, const NeighborLists &lists,
               std::size_t stride = 1)
{
    const std::size_t nq = queries.size() / dim;
    const std::size_t nc = cands.size() / dim;
    const std::size_t keff = std::min(k, nc);
    if (lists.k != keff || lists.queries() != nq) {
        return "wrong shape";
    }
    std::vector<double> mu(dim, 0.0);
    for (std::size_t c = 0; c < nc; ++c) {
        for (std::size_t d = 0; d < dim; ++d) {
            mu[d] += cands[c * dim + d];
        }
    }
    for (auto &m : mu) {
        m /= static_cast<double>(nc);
    }
    const auto centeredNorm = [&](const float *x) {
        double s = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            const double v = static_cast<double>(x[d]) - mu[d];
            s += v * v;
        }
        return s;
    };
    double cmax = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
        cmax = std::max(cmax, centeredNorm(cands.data() + c * dim));
    }

    std::size_t bad = 0;
    std::ostringstream first;
    std::vector<double> exact(nc);
    std::vector<char> returned(nc);
    for (std::size_t q = 0; q < nq; q += stride) {
        const float *qrow = queries.data() + q * dim;
        for (std::size_t c = 0; c < nc; ++c) {
            exact[c] = exactDistance(qrow, cands.data() + c * dim, dim);
        }
        std::vector<double> sorted = exact;
        std::nth_element(sorted.begin(), sorted.begin() + (keff - 1),
                         sorted.end());
        const double dk = sorted[keff - 1];
        const double tau = 2.0 * static_cast<double>(dim + 4) *
                           static_cast<double>(FLT_EPSILON) *
                           (centeredNorm(qrow) + cmax);
        std::fill(returned.begin(), returned.end(), 0);
        bool ok = true;
        std::size_t culprit = 0;
        for (const std::uint32_t idx : lists.row(q)) {
            if (idx >= nc || returned[idx] != 0 || exact[idx] > dk + tau) {
                ok = false;
                culprit = idx;
                break;
            }
            returned[idx] = 1;
        }
        for (std::size_t c = 0; ok && c < nc; ++c) {
            if (returned[c] == 0 && exact[c] < dk - tau) {
                ok = false;
                culprit = c;
            }
        }
        if (!ok && bad++ == 0) {
            first << "query " << q << ": index " << culprit
                  << " (exact " << (culprit < nc ? exact[culprit] : -1.0)
                  << ", d_k " << dk << ", tau " << tau << ")";
        }
    }
    if (bad == 0) {
        return "";
    }
    return std::to_string(bad) + " bad rows; first " + first.str();
}

/** The oracle over every data kind, dim and size, under @p build. */
void
runOracleMatrix(KernelBuild build)
{
    const test::BuildGuard guard(KernelFamily::Gemm, build);
    constexpr std::size_t kDims[] = {3, 16, 17, 64, 128};
    constexpr std::size_t kSizes[] = {1, 5, 6, 7, 255, 2048};
    constexpr std::size_t kNeighbors = 20;
    for (const bool lifted : {false, true}) {
        for (const std::size_t dim : kDims) {
            for (const std::size_t n : kSizes) {
                const std::uint64_t seed = 1000 + 10 * dim + n;
                const std::vector<float> f =
                    lifted ? liftedFeatures(n, dim, seed)
                           : randomFeatures(n, dim, seed);
                const NeighborLists lists =
                    BruteForceKnn::searchFeatureSpace(
                        f, f, dim, kNeighbors, kEngine);
                // The search always covers every row; the double oracle
                // checks a stride of them on the largest clouds.
                const std::size_t stride = n > 255 ? 7 : 1;
                EXPECT_EQ(oracleMismatch(f, f, dim, kNeighbors, lists,
                                         stride),
                          "")
                    << (lifted ? "lifted" : "random") << " d=" << dim
                    << " n=" << n;
            }
        }
    }
}

TEST(FeatureKnn, MatchesOracleScalarBuild)
{
    runOracleMatrix(KernelBuild::Scalar);
}

TEST(FeatureKnn, MatchesOracleFmaBuild)
{
    if (!nn::GemmEngine::fastKernelAvailable()) {
        GTEST_SKIP() << "no AVX2+FMA on this host";
    }
    runOracleMatrix(KernelBuild::Avx2);
}

TEST(FeatureKnn, QueriesDifferFromCandidates)
{
    const std::size_t dim = 64;
    const auto cands = liftedFeatures(1000, dim, 71);
    const auto queries = randomFeatures(300, dim, 72);
    const auto lists =
        BruteForceKnn::searchFeatureSpace(queries, cands, dim, 20, kEngine);
    EXPECT_EQ(oracleMismatch(queries, cands, dim, 20, lists), "");
}

TEST(FeatureKnn, KAtLeastCandidateCountClamps)
{
    const std::size_t dim = 17;
    const auto cands = randomFeatures(7, dim, 81);
    const auto queries = randomFeatures(40, dim, 82);
    for (const std::size_t k : {7u, 8u, 50u}) {
        const auto lists = BruteForceKnn::searchFeatureSpace(
            queries, cands, dim, k, kEngine);
        ASSERT_EQ(lists.k, 7u);
        EXPECT_EQ(oracleMismatch(queries, cands, dim, k, lists), "");
        for (std::size_t q = 0; q < lists.queries(); ++q) {
            std::vector<std::uint32_t> row(lists.row(q).begin(),
                                           lists.row(q).end());
            std::sort(row.begin(), row.end());
            for (std::uint32_t i = 0; i < 7; ++i) {
                EXPECT_EQ(row[i], i) << "query " << q;
            }
        }
    }
}

/**
 * Duplicated rows give bit-identical distances, so they keep the old
 * tie rule: the first-encountered (lowest) index wins the last slot,
 * and a duplicate is only listed after its original.
 */
TEST(FeatureKnn, DuplicatedRowsKeepFirstIndexTieRule)
{
    const std::size_t dim = 64, h = 300;
    auto f = liftedFeatures(h, dim, 91);
    f.resize(3 * h * dim);
    std::copy(f.begin(), f.begin() + h * dim, f.begin() + h * dim);
    std::copy(f.begin(), f.begin() + h * dim, f.begin() + 2 * h * dim);
    for (const std::size_t k : {2u, 20u}) {
        const auto lists = BruteForceKnn::searchFeatureSpace(
            f, f, dim, k, kEngine);
        EXPECT_EQ(oracleMismatch(f, f, dim, k, lists), "");
        for (std::size_t q = 0; q < lists.queries(); ++q) {
            const auto row = lists.row(q);
            const std::size_t orig = q % h;
            if (k == 2) {
                // Three copies tie at the nearest distance: the first
                // two indices win.
                EXPECT_EQ(row[0], orig) << "query " << q;
                EXPECT_EQ(row[1], orig + h) << "query " << q;
                continue;
            }
            for (std::size_t j = 0; j < row.size(); ++j) {
                if (row[j] >= h) {
                    const auto earlier =
                        std::find(row.begin(), row.begin() + j,
                                  row[j] - h);
                    EXPECT_NE(earlier, row.begin() + j)
                        << "query " << q << " lists " << row[j]
                        << " before " << row[j] - h;
                }
            }
        }
    }
}

TEST(FeatureKnn, AllRowsIdenticalReturnsFirstIndices)
{
    const std::size_t dim = 64, n = 300, k = 20;
    const auto one = randomFeatures(1, dim, 101, 5.0f);
    std::vector<float> f;
    for (std::size_t i = 0; i < n; ++i) {
        f.insert(f.end(), one.begin(), one.end());
    }
    const auto lists =
        BruteForceKnn::searchFeatureSpace(f, f, dim, k, kEngine);
    for (std::size_t q = 0; q < n; ++q) {
        const auto row = lists.row(q);
        for (std::size_t j = 0; j < k; ++j) {
            ASSERT_EQ(row[j], j) << "query " << q;
        }
    }
}

/**
 * A common offset of 1e3 on every feature: without centering the
 * expansion's cancellation error (about ε·‖q‖² ≈ 8 for d = 64) swamps
 * every neighbor gap; centered, the oracle's τ still holds.
 */
TEST(FeatureKnn, CommonOffsetIsCenteredAway)
{
    const std::size_t dim = 64, n = 2048, k = 20;
    for (const bool lifted : {false, true}) {
        const auto f = lifted ? liftedFeatures(n, dim, 111, 1e3f)
                              : randomFeatures(n, dim, 112, 1e3f);
        const auto lists = BruteForceKnn::searchFeatureSpace(
            f, f, dim, k, kEngine);
        EXPECT_EQ(oracleMismatch(f, f, dim, k, lists, 7), "")
            << (lifted ? "lifted" : "random");
    }
}

TEST(FeatureKnn, RepeatCallsReturnIdenticalLists)
{
    const std::size_t dim = 64;
    const auto f = liftedFeatures(2048, dim, 121);
    const auto a = BruteForceKnn::searchFeatureSpace(f, f, dim, 20, kEngine);
    const auto b = BruteForceKnn::searchFeatureSpace(f, f, dim, 20, kEngine);
    EXPECT_EQ(a.indices, b.indices);
}

/**
 * Inside runOnEachThread every other pool thread is parked, so the
 * search runs all of its tiles on one thread; the lists must equal a
 * normal pooled call's.
 */
TEST(FeatureKnn, ListsDoNotDependOnThreadCount)
{
    const std::size_t dim = 64;
    const auto f = liftedFeatures(1024, dim, 131); // 5 tiles
    const auto pooled = BruteForceKnn::searchFeatureSpace(
        f, f, dim, 20, kEngine);
    ThreadPool::globalPool().runOnEachThread([&] {
        const auto alone = BruteForceKnn::searchFeatureSpace(
            f, f, dim, 20, kEngine);
        EXPECT_EQ(alone.indices, pooled.indices);
    });
}

/**
 * The search is neighbor work: one neighbor/brute-force-feature span
 * and its query counter, and nothing in the layer-GEMM accounting —
 * no nn/gemm span, no gemm.* counter, no engine call count.
 */
TEST(FeatureKnn, RunsOutsideLayerGemmAccounting)
{
    const std::size_t dim = 64, nq = 300;
    const auto cands = liftedFeatures(1000, dim, 181);
    const auto queries = randomFeatures(nq, dim, 182);
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    const char *const gemm_counters[] = {
        "gemm.flops", "gemm.fast_path_calls", "gemm.scalar_path_calls",
        "gemm.fused_epilogue_calls"};
    std::vector<std::uint64_t> before;
    for (const char *name : gemm_counters) {
        before.push_back(metrics.counter(name).value());
    }
    obs::Counter &query_count =
        metrics.counter("neighbor.brute-force-feature.queries");
    const std::uint64_t queries_before = query_count.value();
    nn::GemmEngine &engine = nn::GemmEngine::shared(nn::GemmMode::Auto);
    const std::uint64_t fast_before = engine.fastPathCalls();
    const std::uint64_t scalar_before = engine.scalarPathCalls();

    obs::Tracer &tracer = obs::Tracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.clear();
    tracer.setEnabled(true);
    const auto lists =
        BruteForceKnn::searchFeatureSpace(queries, cands, dim, 20, kEngine);
    tracer.setEnabled(was_enabled);

    EXPECT_EQ(lists.queries(), nq);
    EXPECT_EQ(query_count.value() - queries_before, nq);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(metrics.counter(gemm_counters[i]).value(), before[i])
            << gemm_counters[i];
    }
    EXPECT_EQ(engine.fastPathCalls(), fast_before);
    EXPECT_EQ(engine.scalarPathCalls(), scalar_before);
#if EDGEPC_TRACING
    std::size_t feature_spans = 0;
    for (const obs::SpanEvent &span : tracer.snapshot()) {
        EXPECT_NE(span.category, "nn") << span.name;
        feature_spans += span.category == "neighbor" &&
                         span.name == "brute-force-feature";
    }
    EXPECT_EQ(feature_spans, 1u);
#endif
}

// --- Malformed input raises typed errors ---------------------------

TEST(FeatureKnn, RaggedSpanRaisesShapeMismatch)
{
    const auto f = randomFeatures(10, 4, 141);
    const std::vector<float> ragged(f.begin(), f.end() - 1);
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(f, ragged, 4, 3, kEngine),
                  ErrorCode::ShapeMismatch);
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(ragged, f, 4, 3, kEngine),
                  ErrorCode::ShapeMismatch);
}

TEST(FeatureKnn, ZeroKRaisesLikeCoordinateSearch)
{
    const auto f = randomFeatures(10, 3, 151);
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(f, f, 3, 0, kEngine),
                  ErrorCode::EmptyCloud);
    const std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}};
    BruteForceKnn knn;
    EXPECT_RAISES(knn.search(pts, pts, 0), ErrorCode::EmptyCloud);
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(f, {}, 3, 2, kEngine),
                  ErrorCode::EmptyCloud);
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(f, f, 0, 2, kEngine),
                  ErrorCode::EmptyCloud);
}

/**
 * One NaN would poison every centered row, and a NaN key freezes a
 * KHeap (worst() is NaN, so no candidate is ever admitted again): the
 * search must refuse non-finite features instead.
 */
TEST(FeatureKnn, NonFiniteFeaturesRaise)
{
    const std::size_t dim = 16;
    const auto f = randomFeatures(50, dim, 161);
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
        auto cands = f;
        cands[17 * dim + 5] = bad;
        EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(
                f, cands, dim, 4, kEngine),
                      ErrorCode::NonFiniteData);
        auto queries = f;
        queries[3 * dim + 2] = bad;
        EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(
                queries, f, dim, 4, kEngine),
                      ErrorCode::NonFiniteData);
    }
    // Finite but so large that ‖q‖² − 2q·c + ‖c‖² would overflow fp32.
    auto huge = f;
    huge[0] = 1e19f;
    huge[dim] = -1e19f;
    EXPECT_RAISES(BruteForceKnn::searchFeatureSpace(
            huge, huge, dim, 4, kEngine),
                  ErrorCode::NonFiniteData);
}

} // namespace
} // namespace edgepc
