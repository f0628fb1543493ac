/**
 * @file Serving-layer tests: circuit-breaker and admission state
 * machines (pure, injected time), batched-inference equivalence, and
 * ServingEngine integration — backpressure policies, SLO shedding,
 * quarantine/recovery, micro-batching, drain accounting, and a
 * multi-producer chaos stress test (the TSan gate for src/serve).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/fault_injector.hpp"
#include "datasets/scenes.hpp"
#include "models/pointnetpp.hpp"
#include "obs/metrics.hpp"
#include "serve/serving_engine.hpp"

namespace edgepc {
namespace {

/**
 * @p cfg with the int8 GEMM route Off, for the fp32 batch-vs-per-frame
 * parity tests (InferBatch.Int8MatchesPerFrame covers the int8 route,
 * whose per-call activation scale is why int8 layers run per cloud
 * inside a batch) and with delayed aggregation @p delayed.
 */
EdgePcConfig
fp32(EdgePcConfig cfg, Route delayed = dispatchEnv().delayedAggregation)
{
    cfg.int8Gemm = Route::Off;
    cfg.delayedAggregation = delayed;
    return cfg;
}

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::AdmitStatus;
using serve::BackpressurePolicy;
using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::FrameResponse;
using serve::ServingEngine;
using serve::ServingOptions;
using serve::StreamId;
using serve::StreamOptions;
using serve::StreamReport;
using serve::SubmitTicket;

constexpr std::size_t kPoints = 160;

std::vector<PointCloud>
makeStream(std::size_t frames, std::uint64_t seed)
{
    Rng rng(seed);
    SceneOptions options;
    options.points = kPoints;
    std::vector<PointCloud> stream;
    stream.reserve(frames);
    for (std::size_t f = 0; f < frames; ++f) {
        stream.push_back(makeScene(options, rng));
    }
    return stream;
}

bool
logitsFinite(const nn::Matrix &logits)
{
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        for (std::size_t c = 0; c < logits.cols(); ++c) {
            if (!std::isfinite(logits.at(i, c))) {
                return false;
            }
        }
    }
    return logits.rows() > 0;
}

/** Elements of @p a that differ from @p b bit for bit (a shape
    mismatch counts every element). */
std::size_t
differingLogits(const nn::Matrix &a, const nn::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return std::max(a.numel(), b.numel());
    }
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
            ++differing;
        }
    }
    return differing;
}

/** Per-cloud infer() of every cloud, then inferBatch() of all of them:
    each batched cloud must match its single-frame logits bit for bit. */
void
expectBatchMatchesPerFrame(PointNetPP &model,
                           const std::vector<PointCloud> &clouds,
                           const EdgePcConfig &cfg)
{
    std::vector<nn::Matrix> ref;
    ref.reserve(clouds.size());
    for (const PointCloud &cloud : clouds) {
        ref.push_back(model.infer(cloud, cfg));
    }
    const std::vector<nn::Matrix> batched = model.inferBatch(clouds, cfg);

    ASSERT_EQ(batched.size(), clouds.size());
    for (std::size_t b = 0; b < clouds.size(); ++b) {
        EXPECT_EQ(differingLogits(batched[b], ref[b]), 0u)
            << "cloud " << b << " of " << ref[b].numel() << " logits";
    }
}

/** Blocks the dispatcher inside the first frame's inference prolog so
    a test can fill queues deterministically. */
struct DispatchGate
{
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<int> calls{0};

    std::function<void()> prolog()
    {
        return [this] {
            if (calls.fetch_add(1) != 0) {
                return;
            }
            entered.store(true);
            while (!release.load()) {
                std::this_thread::yield();
            }
        };
    }

    /** Bounded so a dispatcher that never reaches the prolog fails
        the test instead of hanging it. */
    [[nodiscard]] bool waitEntered() const
    {
        Timer wait;
        while (!entered.load()) {
            if (wait.elapsedMs() > 60000.0) {
                return false;
            }
            std::this_thread::yield();
        }
        return true;
    }

    void open() { release.store(true); }
};

FrameResponse
await(SubmitTicket &ticket)
{
    EXPECT_TRUE(ticket.accepted());
    EXPECT_EQ(ticket.response.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    return ticket.response.get();
}

// ---------------------------------------------------------- breaker

TEST(CircuitBreaker, TripsAfterConsecutiveFailures)
{
    CircuitBreakerOptions opts;
    opts.tripThreshold = 3;
    CircuitBreaker breaker(opts);

    EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::Closed);
    breaker.recordFailure(1.0);
    breaker.recordFailure(2.0);
    EXPECT_EQ(breaker.state(3.0), CircuitBreaker::State::Closed);
    breaker.recordFailure(3.0);
    EXPECT_EQ(breaker.state(3.0), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_FALSE(breaker.admitsSubmit(3.0));
    EXPECT_FALSE(breaker.canDispatch(3.0));
}

TEST(CircuitBreaker, SuccessResetsFailureStreak)
{
    CircuitBreakerOptions opts;
    opts.tripThreshold = 2;
    CircuitBreaker breaker(opts);

    breaker.recordFailure(1.0);
    breaker.recordSuccess(2.0);
    breaker.recordFailure(3.0);
    // Never two consecutive failures: stays closed.
    EXPECT_EQ(breaker.state(4.0), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, CooldownAdmitsOneProbeAtATime)
{
    CircuitBreakerOptions opts;
    opts.tripThreshold = 1;
    opts.cooldownMs = 100.0;
    opts.probeSuccesses = 2;
    CircuitBreaker breaker(opts);

    breaker.recordFailure(0.0);
    EXPECT_EQ(breaker.state(50.0), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.state(100.0), CircuitBreaker::State::HalfOpen);

    // Half-open: one probe may dispatch; a second may not until the
    // verdict lands.
    EXPECT_TRUE(breaker.canDispatch(101.0));
    breaker.noteDispatch();
    EXPECT_FALSE(breaker.canDispatch(102.0));
    EXPECT_TRUE(breaker.admitsSubmit(102.0));

    breaker.recordSuccess(103.0);
    EXPECT_TRUE(breaker.canDispatch(104.0));
    breaker.noteDispatch();
    breaker.recordSuccess(105.0);
    EXPECT_EQ(breaker.state(105.0), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, FailedProbeReopensImmediately)
{
    CircuitBreakerOptions opts;
    opts.tripThreshold = 3;
    opts.cooldownMs = 10.0;
    CircuitBreaker breaker(opts);

    breaker.recordFailure(0.0);
    breaker.recordFailure(0.0);
    breaker.recordFailure(0.0);
    EXPECT_EQ(breaker.state(10.0), CircuitBreaker::State::HalfOpen);
    breaker.noteDispatch();
    // One probe failure is enough to re-open — not tripThreshold.
    breaker.recordFailure(11.0);
    EXPECT_EQ(breaker.state(11.0), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 2u);
    // And the cooldown restarts from the re-open time.
    EXPECT_EQ(breaker.state(20.0), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.state(21.0), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, StateNames)
{
    EXPECT_STREQ(serve::breakerStateName(CircuitBreaker::State::Closed),
                 "closed");
    EXPECT_STREQ(serve::breakerStateName(CircuitBreaker::State::Open),
                 "open");
    EXPECT_STREQ(serve::breakerStateName(CircuitBreaker::State::HalfOpen),
                 "half-open");
}

// -------------------------------------------------------- admission

TEST(AdmissionController, DerivesWatermarksFromCapacity)
{
    AdmissionController ctl;
    ctl.setCapacity(32);
    EXPECT_EQ(ctl.highWatermark(), 16u);
    EXPECT_EQ(ctl.lowWatermark(), 4u);

    AdmissionOptions opts;
    opts.highWatermark = 10;
    opts.lowWatermark = 3;
    AdmissionController pinned(opts);
    pinned.setCapacity(32);
    EXPECT_EQ(pinned.highWatermark(), 10u);
    EXPECT_EQ(pinned.lowWatermark(), 3u);
}

TEST(AdmissionController, StepsUpUnderSustainedOverload)
{
    AdmissionOptions opts;
    opts.stepHoldMs = 10.0;
    AdmissionController ctl(opts);
    ctl.setCapacity(16); // high = 8, low = 2

    EXPECT_EQ(ctl.update(8, 0.0), 1);
    // Hold time gates the next step even under continued overload.
    EXPECT_EQ(ctl.update(9, 5.0), 1);
    EXPECT_EQ(ctl.update(9, 10.0), 2);
    // maxFloor caps escalation.
    EXPECT_EQ(ctl.update(16, 20.0), 2);
    EXPECT_EQ(ctl.raises(), 2u);
}

TEST(AdmissionController, HoldsBetweenWatermarksAndRecoversLow)
{
    AdmissionOptions opts;
    opts.stepHoldMs = 10.0;
    AdmissionController ctl(opts);
    ctl.setCapacity(16); // high = 8, low = 2

    EXPECT_EQ(ctl.update(8, 0.0), 1);
    // Mid-band depth holds the floor (hysteresis, no flap).
    EXPECT_EQ(ctl.update(5, 20.0), 1);
    EXPECT_EQ(ctl.update(5, 40.0), 1);
    // A single dip below the low watermark is not enough...
    EXPECT_EQ(ctl.update(1, 50.0), 1);
    EXPECT_EQ(ctl.update(5, 55.0), 1);
    // ...the depth must STAY low for stepHoldMs before stepping down.
    EXPECT_EQ(ctl.update(1, 60.0), 1);
    EXPECT_EQ(ctl.update(1, 65.0), 1);
    EXPECT_EQ(ctl.update(1, 70.0), 0);
    EXPECT_EQ(ctl.floor(), 0);
    EXPECT_EQ(ctl.raises(), 1u);
}

// ------------------------------------------------- batched inference

TEST(InferBatch, MatchesPerFrameSegmentation)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    expectBatchMatchesPerFrame(model, makeStream(3, 301),
                               fp32(EdgePcConfig::sn()));
}

TEST(InferBatch, MatchesPerFrameClassification)
{
    PointNetPP model(PointNetPPConfig::liteClassification(kPoints, 4), 7);
    expectBatchMatchesPerFrame(model, makeStream(4, 302),
                               fp32(EdgePcConfig::baseline()));
}

TEST(InferBatch, SingleCloudMatchesInfer)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    expectBatchMatchesPerFrame(model, makeStream(1, 303),
                               EdgePcConfig::sn());
}

TEST(InferBatch, Int8MatchesPerFrame)
{
    // The int8 route quantizes each GEMM call's activations with one
    // per-tensor scale (and Auto's row floor sees the call's height),
    // so a cloud's quantized layers must run on its rows alone even
    // inside a batch.
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    for (const Route int8 : {Route::On, Route::Auto}) {
        EdgePcConfig cfg = EdgePcConfig::sn();
        cfg.int8Gemm = int8;
        expectBatchMatchesPerFrame(model, makeStream(3, 308), cfg);
    }
}

TEST(InferBatch, MixedSizesMatchPerFrame)
{
    // Clouds of different sizes: their levels, and so each FP module's
    // coarse and fine row counts, differ inside one batch, and every
    // cloud must still get its own interpolated up-product. Int8 off
    // and on.
    std::vector<PointCloud> clouds;
    Rng rng(310);
    for (const std::size_t points :
         {kPoints, std::size_t{30}, std::size_t{8}, std::size_t{57}}) {
        SceneOptions options;
        options.points = points;
        clouds.push_back(makeScene(options, rng));
    }
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    for (const Route int8 : {Route::Off, Route::On}) {
        for (EdgePcConfig config :
             {EdgePcConfig::baseline(), EdgePcConfig::sn()}) {
            config.int8Gemm = int8;
            expectBatchMatchesPerFrame(model, clouds, config);
        }
    }
}

// Delayed aggregation (DESIGN.md §13) must stay transparent to the
// serving micro-batch route: the delayed-vs-eager decision is made per
// cloud with the same formula as single-cloud infer, so batched and
// per-frame logits must agree. Named Serving* so the TSan CI gate
// runs these under the thread sanitizer.

TEST(ServingDelayedAgg, InferBatchMatchesPerFrameSegmentation)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    expectBatchMatchesPerFrame(model, makeStream(3, 304),
                               fp32(EdgePcConfig::sn(), Route::On));
}

TEST(ServingDelayedAgg, InferBatchMatchesPerFrameClassification)
{
    PointNetPP model(PointNetPPConfig::liteClassification(kPoints, 4), 7);
    expectBatchMatchesPerFrame(model, makeStream(4, 305),
                               fp32(EdgePcConfig::baseline(), Route::On));
}

TEST(ServingDelayedAgg, SingleStageBlockBatchMatchesPerFrame)
{
    // A one-stage deepest SA block is a BN-free Linear+ReLU before the
    // global pool, so its delayed route pools first (Tier A) and runs
    // per cloud inside the batch.
    PointNetPPConfig mcfg = PointNetPPConfig::liteClassification(kPoints, 4);
    mcfg.sa.back().mlp = {64};
    PointNetPP model(mcfg, 7);
    expectBatchMatchesPerFrame(model, makeStream(4, 309),
                               fp32(EdgePcConfig::sn(), Route::On));
}

TEST(ServingDelayedAgg, MixedEagerAndDelayedBatchAgrees)
{
    // Force one cloud onto the eager route and the rest onto the
    // delayed route *within the same batch* by keeping the route Auto:
    // the per-cloud FLOP-ratio decision then depends on cloud size,
    // and a small outlier cloud lands below the crossover while the
    // large ones stay above it. The batched path must reproduce each
    // cloud's single-frame logits regardless of route mix.
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);

    std::vector<PointCloud> clouds = makeStream(2, 306);
    {
        Rng rng(307);
        SceneOptions options;
        options.points = 24; // small: low sample/neighbor counts
        clouds.push_back(makeScene(options, rng));
    }
    expectBatchMatchesPerFrame(model, clouds,
                               fp32(EdgePcConfig::baseline(), Route::Auto));
}

// ----------------------------------------------------------- engine

TEST(ServingEngine, ServesCleanStreamsInOrder)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    ServingEngine engine(model, EdgePcConfig::sn());
    const StreamId a = engine.openStream();
    const StreamId b = engine.openStream();
    ASSERT_EQ(engine.streamCount(), 2u);

    const std::vector<PointCloud> frames = makeStream(6, 310);
    std::vector<SubmitTicket> ta, tb;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        ta.push_back(engine.submit(a, frames[f]));
        tb.push_back(engine.submit(b, frames[f]));
    }

    std::uint64_t last_a = 0, last_b = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        FrameResponse ra = await(ta[f]);
        FrameResponse rb = await(tb[f]);
        EXPECT_TRUE(ra.hasLogits());
        EXPECT_TRUE(logitsFinite(ra.logits));
        EXPECT_FALSE(ra.shed);
        EXPECT_EQ(ra.stream, a);
        EXPECT_EQ(rb.stream, b);
        if (f > 0) {
            EXPECT_GT(ra.seq, last_a);
            EXPECT_GT(rb.seq, last_b);
        }
        last_a = ra.seq;
        last_b = rb.seq;
        EXPECT_GE(ra.totalMs, ra.queueMs);
    }

    const std::vector<StreamReport> reports = engine.drain();
    ASSERT_EQ(reports.size(), 2u);
    for (const StreamReport &r : reports) {
        EXPECT_EQ(r.serve.accepted, frames.size());
        EXPECT_EQ(r.serve.served, frames.size());
        EXPECT_EQ(r.serve.shed(), 0u);
        EXPECT_EQ(r.health.frames, frames.size());
        EXPECT_EQ(r.health.dropped, 0u);
    }

    // After drain, submits are refused.
    SubmitTicket late = engine.submit(a, frames[0]);
    EXPECT_EQ(late.admit, AdmitStatus::Draining);
}

TEST(ServingEngine, UnknownStreamIsRejected)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    ServingEngine engine(model, EdgePcConfig::sn());
    SubmitTicket t = engine.submit(7, makeStream(1, 311)[0]);
    EXPECT_EQ(t.admit, AdmitStatus::UnknownStream);
    EXPECT_FALSE(t.accepted());
}

TEST(ServingEngine, RejectNewestRefusesWhenQueueIsFull)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    DispatchGate gate;
    StreamOptions sopts;
    sopts.queueCapacity = 1;
    sopts.backpressure = BackpressurePolicy::RejectNewest;
    sopts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId s = engine.openStream();

    const std::vector<PointCloud> frames = makeStream(3, 312);
    SubmitTicket t0 = engine.submit(s, frames[0]);
    ASSERT_TRUE(t0.accepted());
    ASSERT_TRUE(gate.waitEntered()); // frame 0 in flight, queue empty
    SubmitTicket t1 = engine.submit(s, frames[1]);
    ASSERT_TRUE(t1.accepted());
    SubmitTicket t2 = engine.submit(s, frames[2]);
    EXPECT_EQ(t2.admit, AdmitStatus::QueueFull);
    gate.open();

    EXPECT_FALSE(await(t0).shed);
    EXPECT_FALSE(await(t1).shed);
    const StreamReport report = engine.drain()[0];
    EXPECT_EQ(report.serve.accepted, 2u);
    EXPECT_EQ(report.serve.rejectedFull, 1u);
    EXPECT_EQ(report.serve.served, 2u);
    EXPECT_EQ(report.health.frames, 2u);
}

TEST(ServingEngine, DropOldestEvictsQueueHeadAsShed)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    DispatchGate gate;
    StreamOptions sopts;
    sopts.queueCapacity = 1;
    sopts.backpressure = BackpressurePolicy::DropOldest;
    sopts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId s = engine.openStream();

    const std::vector<PointCloud> frames = makeStream(3, 313);
    SubmitTicket t0 = engine.submit(s, frames[0]);
    ASSERT_TRUE(gate.waitEntered());
    SubmitTicket t1 = engine.submit(s, frames[1]);
    SubmitTicket t2 = engine.submit(s, frames[2]); // evicts frame 1
    ASSERT_TRUE(t2.accepted());

    // The evicted frame resolves immediately as shed backpressure.
    FrameResponse r1 = await(t1);
    EXPECT_TRUE(r1.shed);
    EXPECT_EQ(r1.status, FrameStatus::Dropped);
    EXPECT_EQ(r1.error.code, ErrorCode::QueueFull);
    gate.open();

    EXPECT_FALSE(await(t0).shed);
    EXPECT_FALSE(await(t2).shed);
    const StreamReport report = engine.drain()[0];
    EXPECT_EQ(report.serve.accepted, 3u);
    EXPECT_EQ(report.serve.shedBackpressure, 1u);
    EXPECT_EQ(report.serve.served, 2u);
    // Every accepted frame is accounted exactly once in health.
    EXPECT_EQ(report.health.frames, 3u);
    EXPECT_EQ(report.health.dropped, 1u);
}

TEST(ServingEngine, ExpiredSloFramesAreShedFromTheQueue)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    DispatchGate gate;
    StreamOptions sopts;
    sopts.queueCapacity = 8;
    // Generous vs. dispatch latency: frame 0 must reach the gate
    // before its own deadline expires, even on a loaded machine.
    sopts.sloMs = 250.0;
    sopts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId s = engine.openStream();

    const std::vector<PointCloud> frames = makeStream(3, 314);
    SubmitTicket t0 = engine.submit(s, frames[0]);
    ASSERT_TRUE(gate.waitEntered());
    SubmitTicket t1 = engine.submit(s, frames[1]);
    SubmitTicket t2 = engine.submit(s, frames[2]);

    // Let the queued frames' deadlines expire, then release.
    Timer wait;
    while (wait.elapsedMs() < 2.0 * 250.0 + 100.0) {
        std::this_thread::yield();
    }
    gate.open();

    // Frame 0 completes (late: it blew its SLO while in flight).
    FrameResponse r0 = await(t0);
    EXPECT_FALSE(r0.shed);
    EXPECT_TRUE(r0.sloMissed);
    // Frames 1 and 2 never reach inference.
    FrameResponse r1 = await(t1);
    FrameResponse r2 = await(t2);
    EXPECT_TRUE(r1.shed);
    EXPECT_TRUE(r2.shed);
    EXPECT_EQ(r1.error.code, ErrorCode::DeadlineExceeded);

    const StreamReport report = engine.drain()[0];
    EXPECT_EQ(report.serve.shedDeadline, 2u);
    EXPECT_GE(report.serve.sloMisses, 1u);
    EXPECT_EQ(report.health.frames, 3u);
}

TEST(ServingEngine, QuarantineIsolatesFailingStreamOnly)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    StreamOptions bad;
    bad.breaker.tripThreshold = 2;
    bad.breaker.cooldownMs = 1.0e9; // stays open for the whole test
    ServingOptions eopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId healthy = engine.openStream();
    const StreamId failing = engine.openStream(bad);

    // Empty clouds are unsalvageable: each one is a Dropped frame and
    // a breaker failure. Serve them one at a time.
    for (int i = 0; i < 2; ++i) {
        SubmitTicket t = engine.submit(failing, PointCloud{});
        FrameResponse r = await(t);
        EXPECT_EQ(r.status, FrameStatus::Dropped);
    }

    // The breaker is now open: new submits are refused...
    SubmitTicket refused = engine.submit(failing, makeStream(1, 315)[0]);
    EXPECT_EQ(refused.admit, AdmitStatus::Quarantined);

    // ...while the healthy stream keeps serving.
    SubmitTicket ok = engine.submit(healthy, makeStream(1, 316)[0]);
    FrameResponse r = await(ok);
    EXPECT_TRUE(r.hasLogits());

    const StreamReport report = engine.streamReport(failing);
    EXPECT_GE(report.breakerTrips, 1u);
    EXPECT_EQ(report.serve.rejectedQuarantined, 1u);
    (void)engine.drain();
}

TEST(ServingEngine, BreakerRecoversThroughProbes)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    StreamOptions sopts;
    sopts.breaker.tripThreshold = 1;
    sopts.breaker.cooldownMs = 1.0;
    sopts.breaker.probeSuccesses = 1;
    ServingOptions eopts;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId s = engine.openStream();

    SubmitTicket poison = engine.submit(s, PointCloud{});
    EXPECT_EQ(await(poison).status, FrameStatus::Dropped);

    // Cooldown passes; the next good frame is the recovery probe.
    Timer wait;
    while (wait.elapsedMs() < 5.0) {
        std::this_thread::yield();
    }
    SubmitTicket probe = engine.submit(s, makeStream(1, 317)[0]);
    ASSERT_TRUE(probe.accepted());
    FrameResponse r = await(probe);
    EXPECT_TRUE(r.hasLogits());

    const StreamReport report = engine.streamReport(s);
    EXPECT_EQ(report.breakerTrips, 1u);
    EXPECT_EQ(report.serve.served, 2u);
    (void)engine.drain();
}

TEST(ServingEngine, CrossStreamHeadsAreMicroBatched)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    DispatchGate gate;
    StreamOptions blocker_opts;
    blocker_opts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.maxBatch = 4;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId blocker = engine.openStream(blocker_opts);
    const StreamId s0 = engine.openStream();
    const StreamId s1 = engine.openStream();
    const StreamId s2 = engine.openStream();

    const std::vector<PointCloud> frames = makeStream(4, 318);
    SubmitTicket tb = engine.submit(blocker, frames[0]);
    ASSERT_TRUE(gate.waitEntered());
    // Three heads from three distinct streams pile up behind the
    // blocked dispatcher; on release they dispatch as one batch.
    SubmitTicket t0 = engine.submit(s0, frames[1]);
    SubmitTicket t1 = engine.submit(s1, frames[2]);
    SubmitTicket t2 = engine.submit(s2, frames[3]);
    gate.open();

    EXPECT_FALSE(await(tb).batched);
    FrameResponse r0 = await(t0);
    FrameResponse r1 = await(t1);
    FrameResponse r2 = await(t2);
    for (const FrameResponse *r : {&r0, &r1, &r2}) {
        EXPECT_TRUE(r->batched);
        EXPECT_EQ(r->status, FrameStatus::Ok);
        EXPECT_TRUE(logitsFinite(r->logits));
        EXPECT_EQ(r->logits.rows(), kPoints);
    }

    const std::vector<StreamReport> reports = engine.drain();
    std::size_t batched_total = 0;
    for (const StreamReport &rep : reports) {
        batched_total += rep.serve.batchedFrames;
    }
    EXPECT_EQ(batched_total, 3u);
}

TEST(ServingEngine, DroppedFrameIsNotBatched)
{
    // A frame the sanitizer rejects never reaches inferBatch: it
    // answers batched == false, and only the two served heads count as
    // batched frames.
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    const std::vector<PointCloud> frames = makeStream(4, 319);
    const PointCloud rejected(std::vector<Vec3>(
        kPoints, Vec3{std::numeric_limits<float>::quiet_NaN(), 0.0f, 0.0f}));
    obs::Counter &batched_frames =
        obs::MetricsRegistry::global().counter("serve.batched_frames");
    DispatchGate gate;
    StreamOptions blocker_opts;
    blocker_opts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.maxBatch = 4;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId blocker = engine.openStream(blocker_opts);
    const StreamId s0 = engine.openStream();
    const StreamId s1 = engine.openStream();
    const StreamId s2 = engine.openStream();

    SubmitTicket tb = engine.submit(blocker, frames[0]);
    ASSERT_TRUE(gate.waitEntered());
    // Three heads pile up behind the blocked dispatcher and go out as
    // one round on release; the middle one is all NaN.
    SubmitTicket t0 = engine.submit(s0, frames[1]);
    SubmitTicket t1 = engine.submit(s1, rejected);
    SubmitTicket t2 = engine.submit(s2, frames[3]);
    const std::uint64_t batched_before = batched_frames.value();
    gate.open();
    (void)await(tb);
    const FrameResponse r0 = await(t0);
    const FrameResponse dropped = await(t1);
    const FrameResponse r2 = await(t2);
    (void)engine.drain();

    EXPECT_EQ(dropped.status, FrameStatus::Dropped);
    EXPECT_FALSE(dropped.batched);
    for (const FrameResponse *r : {&r0, &r2}) {
        EXPECT_EQ(r->status, FrameStatus::Ok);
        EXPECT_TRUE(r->batched);
    }
    EXPECT_EQ(batched_frames.value() - batched_before, 2u);
}

/**
 * Forwards to a lite PointNet++ and raises a typed error from its first
 * inferBatch call, so a serving round's batch fails while infer() (the
 * per-frame fallback's route) keeps working.
 */
class FirstBatchFailsModel : public PointCloudModel
{
  public:
    FirstBatchFailsModel()
        : inner(PointNetPPConfig::liteSegmentation(kPoints, 5), 3)
    {
    }

    nn::Matrix infer(const PointCloud &cloud, const EdgePcConfig &cfg,
                     StageTimer *timer) override
    {
        return inner.infer(cloud, cfg, timer);
    }
    std::vector<nn::Matrix> inferBatch(std::span<const PointCloud> clouds,
                                       const EdgePcConfig &cfg,
                                       StageTimer *timer) override
    {
        if (batchCalls.fetch_add(1) == 0) {
            raise(ErrorCode::Internal, "injected inferBatch failure");
        }
        return inner.inferBatch(clouds, cfg, timer);
    }
    std::string name() const override { return inner.name(); }
    std::size_t numClasses() const override { return inner.numClasses(); }
    void collectParameters(std::vector<nn::Parameter *> &out) override
    {
        inner.collectParameters(out);
    }

    std::atomic<int> batchCalls{0};

  private:
    PointNetPP inner;
};

TEST(ServingEngine, FailedBatchFallsBackPerFrame)
{
    // The round's one inferBatch raises: each head is then served by
    // its stream's RobustPipeline, with the logits of its own infer(),
    // and none counts as batched.
    FirstBatchFailsModel model;
    const EdgePcConfig cfg = EdgePcConfig::sn();
    obs::Counter &batched_frames =
        obs::MetricsRegistry::global().counter("serve.batched_frames");
    DispatchGate gate;
    StreamOptions blocker_opts;
    blocker_opts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.maxBatch = 4;
    ServingEngine engine(model, cfg, eopts);
    const StreamId blocker = engine.openStream(blocker_opts);
    const std::vector<StreamId> heads = {
        engine.openStream(), engine.openStream(), engine.openStream()};

    const std::vector<PointCloud> frames = makeStream(4, 321);
    SubmitTicket tb = engine.submit(blocker, frames[0]);
    ASSERT_TRUE(gate.waitEntered());
    std::vector<SubmitTicket> tickets;
    for (std::size_t h = 0; h < heads.size(); ++h) {
        tickets.push_back(engine.submit(heads[h], frames[h + 1]));
    }
    const std::uint64_t batched_before = batched_frames.value();
    gate.open();

    EXPECT_FALSE(await(tb).batched);
    for (std::size_t h = 0; h < heads.size(); ++h) {
        const FrameResponse r = await(tickets[h]);
        EXPECT_EQ(r.status, FrameStatus::Ok) << "head " << h;
        EXPECT_FALSE(r.batched) << "head " << h;
        EXPECT_EQ(differingLogits(r.logits, model.infer(frames[h + 1], cfg,
                                                        nullptr)),
                  0u)
            << "head " << h;
    }
    EXPECT_EQ(model.batchCalls.load(), 1);
    EXPECT_EQ(batched_frames.value() - batched_before, 0u);

    for (const StreamReport &rep : engine.drain()) {
        EXPECT_EQ(rep.serve.served, 1u) << "stream " << rep.id;
        EXPECT_EQ(rep.serve.batchedFrames, 0u) << "stream " << rep.id;
        EXPECT_EQ(rep.health.frames, 1u) << "stream " << rep.id;
        EXPECT_EQ(rep.health.ok, 1u) << "stream " << rep.id;
        EXPECT_EQ(rep.health.repaired + rep.health.degraded +
                      rep.health.dropped + rep.health.retries +
                      rep.health.deadlineMisses,
                  0u)
            << "stream " << rep.id;
    }
}

TEST(ServingEngine, OverloadRaisesTheLadderFloor)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    DispatchGate gate;
    StreamOptions sopts;
    sopts.queueCapacity = 8;
    sopts.robust.inferenceProlog = gate.prolog();
    ServingOptions eopts;
    eopts.maxBatch = 1;
    eopts.admission.highWatermark = 2;
    eopts.admission.lowWatermark = 1;
    eopts.admission.stepHoldMs = 0.0;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    const StreamId s = engine.openStream();

    const std::vector<PointCloud> frames = makeStream(5, 319);
    std::vector<SubmitTicket> tickets;
    tickets.push_back(engine.submit(s, frames[0]));
    ASSERT_TRUE(gate.waitEntered());
    for (std::size_t f = 1; f < frames.size(); ++f) {
        tickets.push_back(engine.submit(s, frames[f]));
    }
    EXPECT_EQ(engine.queuedFrames(), frames.size() - 1);
    gate.open();

    // Depth 4 >= high watermark 2: the floor rises and queued frames
    // serve degraded even though the stream itself is healthy.
    std::size_t degraded = 0;
    for (SubmitTicket &t : tickets) {
        FrameResponse r = await(t);
        EXPECT_TRUE(r.hasLogits());
        if (r.ladderLevel > 0) {
            ++degraded;
        }
    }
    EXPECT_GT(degraded, 0u);
    const StreamReport report = engine.drain()[0];
    EXPECT_GT(report.health.degraded, 0u);
    EXPECT_EQ(report.health.frames, frames.size());
}

TEST(ServingEngine, DestructorResolvesEveryAcceptedFuture)
{
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    const std::vector<PointCloud> frames = makeStream(6, 320);
    std::vector<SubmitTicket> tickets;
    {
        ServingEngine engine(model, EdgePcConfig::sn());
        const StreamId s = engine.openStream();
        for (const PointCloud &frame : frames) {
            tickets.push_back(engine.submit(s, frame));
        }
        // No drain: the destructor sheds whatever is still queued.
    }
    std::size_t served = 0, shed = 0;
    for (SubmitTicket &t : tickets) {
        ASSERT_TRUE(t.accepted());
        ASSERT_EQ(t.response.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        FrameResponse r = t.response.get();
        if (r.shed) {
            EXPECT_EQ(r.error.code, ErrorCode::LoadShed);
            ++shed;
        } else {
            ++served;
        }
    }
    EXPECT_EQ(served + shed, frames.size());
}

// Multi-producer chaos stress: N threads hammer their own streams with
// fault-injected frames while the dispatcher serves, batches, sheds
// and quarantines. Run under TSan this is the race gate for the
// serving layer; the invariants below are the correctness contract.
TEST(ServingEngineConcurrency, ChaoticProducersDrainWithExactAccounting)
{
    constexpr std::size_t kStreams = 3;
    constexpr std::size_t kFramesPerStream = 16;

    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 3);
    StreamOptions sopts;
    sopts.queueCapacity = 4;
    sopts.backpressure = BackpressurePolicy::DropOldest;
    sopts.robust.sanitizer.minPoints = 16;
    ServingOptions eopts;
    eopts.maxBatch = 3;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);

    std::vector<StreamId> ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        ids.push_back(engine.openStream());
    }

    std::vector<std::vector<SubmitTicket>> tickets(kStreams);
    std::vector<std::thread> producers;
    producers.reserve(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        tickets[i].reserve(kFramesPerStream);
        producers.emplace_back([&, i] {
            FaultInjectorConfig fcfg;
            fcfg.nanRate = 0.2;
            fcfg.truncateRate = 0.15;
            fcfg.seed = 1000 + i;
            FaultInjector injector(fcfg);
            std::vector<PointCloud> frames =
                makeStream(kFramesPerStream, 500 + i);
            for (PointCloud &frame : frames) {
                (void)injector.corrupt(frame);
                tickets[i].push_back(engine.submit(ids[i], frame));
            }
        });
    }
    for (std::thread &p : producers) {
        p.join();
    }

    const std::vector<StreamReport> reports = engine.drain();
    ASSERT_EQ(reports.size(), kStreams);

    for (std::size_t i = 0; i < kStreams; ++i) {
        std::size_t accepted = 0, served = 0, shed = 0;
        std::uint64_t last_served_seq = 0;
        bool any_served = false;
        for (SubmitTicket &t : tickets[i]) {
            if (!t.accepted()) {
                continue;
            }
            ++accepted;
            ASSERT_EQ(t.response.wait_for(std::chrono::seconds(120)),
                      std::future_status::ready);
            FrameResponse r = t.response.get();
            EXPECT_EQ(r.stream, ids[i]);
            if (r.shed) {
                ++shed;
                continue;
            }
            ++served;
            // Served responses complete in strictly increasing submit
            // order (the per-stream ordering contract).
            if (any_served) {
                EXPECT_GT(r.seq, last_served_seq);
            }
            last_served_seq = r.seq;
            any_served = true;
            if (r.hasLogits()) {
                EXPECT_TRUE(logitsFinite(r.logits));
            }
        }
        const StreamReport &rep = reports[i];
        EXPECT_EQ(rep.serve.accepted, accepted);
        EXPECT_EQ(rep.serve.served, served);
        EXPECT_EQ(rep.serve.shed(), shed);
        EXPECT_EQ(served + shed, accepted);
        // Every accepted frame lands in the health snapshot exactly
        // once (served through either path, or shed).
        EXPECT_EQ(rep.health.frames, accepted);
        EXPECT_EQ(rep.health.ok + rep.health.repaired +
                      rep.health.degraded + rep.health.dropped,
                  rep.health.frames);
    }
}

TEST(ServingEngine, NameFunctionsAreStable)
{
    EXPECT_STREQ(
        serve::backpressurePolicyName(BackpressurePolicy::RejectNewest),
        "reject-newest");
    EXPECT_STREQ(
        serve::backpressurePolicyName(BackpressurePolicy::DropOldest),
        "drop-oldest");
    EXPECT_STREQ(serve::admitStatusName(AdmitStatus::Accepted),
                 "accepted");
    EXPECT_STREQ(serve::admitStatusName(AdmitStatus::QueueFull),
                 "queue-full");
    EXPECT_STREQ(serve::admitStatusName(AdmitStatus::Quarantined),
                 "quarantined");
}

} // namespace
} // namespace edgepc
