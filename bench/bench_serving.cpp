/**
 * @file
 * Serving harness: throughput and tail latency of the ServingEngine
 * under closed-loop and open-loop load.
 *
 * Closed loop compares per-frame single-stream serving against
 * cross-stream micro-batched serving (same total frame count): the
 * batched path stacks the per-cloud MLP through one inferBatch call so
 * the packed GEMM runs at large M, and the frames/sec row quantifies
 * what that buys.
 *
 * Open loop offers frames at 1x and 2x the measured closed-loop
 * capacity. At 1x the engine must keep up with a quiet tail; at 2x it
 * must degrade gracefully — bounded p99 (bounded queues + drop-oldest
 * backpressure), nonzero shed and degraded counters (admission floor),
 * and no deadlock or starvation. The hard exit-code checks are the
 * accounting/liveness invariants only; absolute numbers are tracked by
 * the committed baseline, not asserted here.
 */

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "datasets/scenes.hpp"
#include "models/pointnetpp.hpp"
#include "serve/serving_engine.hpp"

using namespace edgepc;
using serve::BackpressurePolicy;
using serve::FrameResponse;
using serve::ServingEngine;
using serve::ServingOptions;
using serve::StreamId;
using serve::StreamOptions;
using serve::StreamReport;
using serve::SubmitTicket;

namespace {

struct LoadResult
{
    double wallMs = 0.0;
    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::size_t served = 0;
    std::size_t shed = 0;
    std::size_t degraded = 0;
    std::size_t batchedFrames = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    bool invariantsHold = false;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double idx = p * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(idx + 0.5)];
}

/** Tally responses and reports into a LoadResult and verify the
    accounting invariants (every accepted frame resolved exactly once,
    served + shed == accepted, health reconciles). */
LoadResult
settle(std::vector<SubmitTicket> &tickets,
       const std::vector<StreamReport> &reports, double wall_ms)
{
    LoadResult out;
    out.wallMs = wall_ms;
    std::vector<double> latencies;
    latencies.reserve(tickets.size());
    for (SubmitTicket &t : tickets) {
        ++out.submitted;
        if (!t.accepted()) {
            continue;
        }
        ++out.accepted;
        FrameResponse r = t.response.get();
        if (r.shed) {
            ++out.shed;
            continue;
        }
        ++out.served;
        latencies.push_back(r.totalMs);
    }
    std::sort(latencies.begin(), latencies.end());
    out.p50Ms = percentile(latencies, 0.50);
    out.p99Ms = percentile(latencies, 0.99);

    std::size_t rep_accepted = 0, rep_served = 0, rep_shed = 0;
    std::size_t health_frames = 0;
    for (const StreamReport &rep : reports) {
        rep_accepted += rep.serve.accepted;
        rep_served += rep.serve.served;
        rep_shed += rep.serve.shed();
        out.degraded += rep.health.degraded;
        out.batchedFrames += rep.serve.batchedFrames;
        health_frames += rep.health.frames;
    }
    out.invariantsHold = rep_accepted == out.accepted &&
                         rep_served == out.served &&
                         rep_shed == out.shed &&
                         rep_served + rep_shed == rep_accepted &&
                         health_frames == rep_accepted;
    return out;
}

/** Closed loop: pre-queue a full backlog per stream, then drain it —
    a pure throughput measurement. The admission floor is parked so
    every frame serves at the full configuration and the single-stream
    and batched rows compare identical work. */
LoadResult
closedLoop(PointCloudModel &model, const std::vector<PointCloud> &frames,
           std::size_t streams, std::size_t max_batch,
           std::size_t rounds)
{
    StreamOptions sopts;
    sopts.queueCapacity = rounds;
    ServingOptions eopts;
    eopts.maxBatch = max_batch;
    eopts.streamDefaults = sopts;
    eopts.admission.highWatermark = streams * rounds + 1;
    eopts.admission.lowWatermark = 1;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < streams; ++s) {
        ids.push_back(engine.openStream());
    }

    std::vector<SubmitTicket> tickets;
    tickets.reserve(streams * rounds);
    Timer wall;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s < streams; ++s) {
            tickets.push_back(engine.submit(
                ids[s], frames[(round + s) % frames.size()]));
        }
    }
    for (SubmitTicket &t : tickets) {
        t.response.wait();
    }
    const double wall_ms = wall.elapsedMs();
    return settle(tickets, engine.drain(), wall_ms);
}

/** Open loop: offer frames round-robin at a fixed rate, regardless of
    completion — the arrival process of a real sensor array. */
LoadResult
openLoop(PointCloudModel &model, const std::vector<PointCloud> &frames,
         std::size_t streams, double offered_fps, std::size_t total)
{
    StreamOptions sopts;
    sopts.queueCapacity = 8;
    sopts.backpressure = BackpressurePolicy::DropOldest;
    ServingOptions eopts;
    eopts.maxBatch = streams;
    eopts.streamDefaults = sopts;
    ServingEngine engine(model, EdgePcConfig::sn(), eopts);
    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < streams; ++s) {
        ids.push_back(engine.openStream());
    }

    const double interval_ms = 1000.0 / offered_fps;
    std::vector<SubmitTicket> tickets;
    tickets.reserve(total);
    Timer wall;
    for (std::size_t f = 0; f < total; ++f) {
        const double due = static_cast<double>(f) * interval_ms;
        while (wall.elapsedMs() < due) {
            std::this_thread::yield();
        }
        tickets.push_back(
            engine.submit(ids[f % streams], frames[f % frames.size()]));
    }
    std::vector<StreamReport> reports = engine.drain();
    const double wall_ms = wall.elapsedMs();
    return settle(tickets, reports, wall_ms);
}

void
record(bench::BenchReport &report, Table &table, const std::string &label,
       const LoadResult &r)
{
    const double fps =
        r.wallMs > 0.0
            ? static_cast<double>(r.served) / (r.wallMs / 1000.0)
            : 0.0;
    table.row()
        .cell(label)
        .cell(static_cast<long long>(r.served))
        .cell(static_cast<long long>(r.shed))
        .cell(static_cast<long long>(r.degraded))
        .cell(fps)
        .cell(r.p50Ms)
        .cell(r.p99Ms);

    bench::BenchRow &row = report.row(label);
    row.wallMs = r.wallMs;
    row.metrics["frames_per_sec"] = fps;
    row.metrics["p50_ms"] = r.p50Ms;
    row.metrics["p99_ms"] = r.p99Ms;
    row.metrics["served"] = static_cast<double>(r.served);
    row.metrics["shed"] = static_cast<double>(r.shed);
    row.metrics["degraded"] = static_cast<double>(r.degraded);
    row.metrics["batched_frames"] =
        static_cast<double>(r.batchedFrames);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
    bench::banner("multi-stream serving",
                  "overload-safe serving: micro-batching lifts "
                  "throughput at 1x, admission + backpressure bound "
                  "the tail at 2x (serving extension; no paper figure)");

    const std::size_t kStreams = 4;
    const std::size_t kPoints =
        std::max<std::size_t>(2048 / bench::benchScale(), 128);
    const std::size_t kRounds = 24;
    bench::BenchReport report("serving", opts, kPoints,
                              bench::benchRepeats(1));
    report.config("streams", static_cast<double>(kStreams));
    report.config("points", static_cast<double>(kPoints));
    report.config("host_concurrency",
                  static_cast<double>(
                      ThreadPool::globalPool().concurrency()));

    Rng rng(opts.seed);
    SceneOptions scene_options;
    scene_options.points = kPoints;
    std::vector<PointCloud> frames;
    for (std::size_t f = 0; f < 8; ++f) {
        frames.push_back(makeScene(scene_options, rng));
    }
    PointNetPP model(PointNetPPConfig::liteSegmentation(kPoints, 5), 42);

    Table table({"load", "served", "shed", "degraded", "frames/s",
                 "p50 ms", "p99 ms"});
    bool invariants = true;

    // Closed loop: single stream, per-frame dispatch (the pre-serving
    // baseline shape) vs. all streams micro-batched.
    const LoadResult single =
        closedLoop(model, frames, 1, 1, kStreams * kRounds);
    record(report, table, "closed/single-stream", single);
    invariants = invariants && single.invariantsHold;

    const LoadResult batched =
        closedLoop(model, frames, kStreams, kStreams, kRounds);
    record(report, table, "closed/batched", batched);
    invariants = invariants && batched.invariantsHold;

    const double capacity_fps =
        batched.wallMs > 0.0 ? static_cast<double>(batched.served) /
                                   (batched.wallMs / 1000.0)
                             : 100.0;

    // Open loop at 1x and 2x the measured capacity.
    const std::size_t kOpenFrames = kStreams * kRounds * 2;
    const LoadResult load1 =
        openLoop(model, frames, kStreams, capacity_fps, kOpenFrames);
    record(report, table, "open/1x", load1);
    invariants = invariants && load1.invariantsHold;

    const LoadResult load2 = openLoop(model, frames, kStreams,
                                      2.0 * capacity_fps, kOpenFrames);
    record(report, table, "open/2x", load2);
    invariants = invariants && load2.invariantsHold;

    table.print(std::cout);

    const double speedup =
        single.wallMs > 0.0 && batched.wallMs > 0.0
            ? single.wallMs / batched.wallMs
            : 0.0;
    std::cout << "\ncross-stream micro-batching speedup (closed loop): "
              << formatSpeedup(speedup) << "\n";
    std::cout << "overload response at 2x: " << load2.shed << " shed, "
              << load2.degraded << " degraded, p99 "
              << load2.p99Ms << " ms\n";
    std::cout << (invariants
                      ? "accounting: every accepted frame resolved and "
                        "reconciled\n"
                      : "accounting: INVARIANT VIOLATION\n");

    return report.write() && invariants ? 0 : 1;
}
