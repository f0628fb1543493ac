/**
 * @file
 * Multi-stream serving demo: N synthetic LiDAR streams (one producer
 * thread each) feed the ServingEngine concurrently over one shared
 * PointNet++(s) model. The engine runs EDF dispatch with cross-stream
 * micro-batching, bounded per-stream queues with drop-oldest
 * backpressure, a global admission controller that steps the
 * degradation ladder under load, and a per-stream circuit breaker.
 *
 * With --chaos every stream gets a deterministic FaultInjector: the
 * producer corrupts frames in flight (NaN spray, truncation,
 * duplication) and a second injector adds latency spikes inside the
 * engine's deadline window, so the per-stream health tables show
 * frames being repaired, degraded and shed instead of killing the
 * stream — while the clean streams keep their quality of service.
 *
 * With --trace OUT.json the serving spans (serve.frame, serve.batch,
 * pipeline stages, GEMM kernels) are written in Chrome trace_event
 * format for chrome://tracing / ui.perfetto.dev.
 *
 * The demo exits nonzero if any accepted frame goes unaccounted for
 * (the response futures, per-stream counters and stream health must
 * all reconcile).
 *
 * Usage: serve_streams [--streams N] [--frames N] [--points N]
 *                      [--chaos] [--trace OUT.json]
 */

#include <chrono>
#include <cstring>
#include <deque>
#include <iostream>
#include <thread>
#include <vector>

#include "core/fault_injector.hpp"
#include "datasets/scenes.hpp"
#include "example_util.hpp"
#include "models/pointnetpp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/serving_engine.hpp"

using namespace edgepc;
using serve::FrameResponse;
using serve::ServingEngine;
using serve::StreamId;
using serve::StreamReport;
using serve::SubmitTicket;

int
main(int argc, char **argv)
{
    const std::string usage =
        "serve_streams [--streams N] [--frames N] [--points N] "
        "[--chaos] [--trace OUT.json]";
    std::size_t streams = 4;
    std::size_t frames = 32;
    std::size_t points = 512;
    bool chaos = false;
    std::string trace_path;
    const EdgePcConfig cfg = EdgePcConfig::sn();

    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--chaos") == 0) {
            chaos = true;
            continue;
        }
        const bool want_streams = std::strcmp(argv[a], "--streams") == 0;
        const bool want_frames = std::strcmp(argv[a], "--frames") == 0;
        const bool want_points = std::strcmp(argv[a], "--points") == 0;
        const bool want_trace = std::strcmp(argv[a], "--trace") == 0;
        if (!want_streams && !want_frames && !want_points && !want_trace) {
            std::cerr << "error: unknown argument '" << argv[a]
                      << "'\nusage: " << usage << "\n";
            return 2;
        }
        if (a + 1 >= argc) {
            std::cerr << argv[a] << " requires a value\nusage: " << usage
                      << "\n";
            return 2;
        }
        ++a;
        if (want_trace) {
            trace_path = argv[a];
            continue;
        }
        std::size_t *slot = want_streams ? &streams
                            : want_frames ? &frames
                                          : &points;
        const char *name = want_streams ? "--streams"
                           : want_frames ? "--frames"
                                         : "--points";
        if (!examples::parseCount(argv[a], name, usage, *slot)) {
            return 2;
        }
    }

    if (!trace_path.empty()) {
        obs::Tracer::global().setEnabled(true);
    }

    std::cout << "Serving " << streams << " concurrent streams of "
              << frames << " frames x " << points
              << " points over one shared model"
              << (chaos ? " (with --chaos fault injection)" : "")
              << "\n[" << examples::dispatchLine(cfg) << "]...\n\n";

    PointNetPP model(PointNetPPConfig::liteSegmentation(points, 5), 42);

    serve::ServingOptions eopts;
    eopts.maxBatch = streams;
    eopts.streamDefaults.queueCapacity = 8;
    eopts.streamDefaults.backpressure =
        serve::BackpressurePolicy::DropOldest;
    ServingEngine engine(model, cfg, eopts);

    // Per-stream fault injection, two deterministic injectors each:
    // the producer-side one corrupts payloads before submit, the
    // engine-side one injects latency spikes from the dispatcher (the
    // two never share a thread, so each injector stays single-owner).
    FaultInjectorConfig fcfg;
    fcfg.nanRate = 0.20;
    fcfg.truncateRate = 0.15;
    fcfg.duplicateRate = 0.10;
    fcfg.latencySpikeRate = 0.10;
    fcfg.latencySpikeMs = 60.0;
    std::deque<FaultInjector> corrupters;
    std::deque<FaultInjector> spikers;

    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < streams; ++s) {
        serve::StreamOptions sopts = eopts.streamDefaults;
        sopts.robust.sanitizer.policy = SanitizePolicy::Pad;
        sopts.robust.degradedPointBudget =
            std::max<std::size_t>(points / 4, 128);
        if (chaos) {
            FaultInjectorConfig cfg = fcfg;
            cfg.seed = 100 + s;
            corrupters.emplace_back(cfg);
            cfg.seed = 200 + s;
            spikers.emplace_back(cfg);
            sopts.robust.deadlineMs = 50.0;
            sopts.robust.inferenceProlog = spikers.back().latencyHook();
        }
        ids.push_back(engine.openStream(sopts));
    }

    // One producer thread per stream: fresh scans at a fixed sensor
    // cadence, corrupted in flight under --chaos. A producer never
    // blocks on the engine — drop-oldest backpressure sheds overflow
    // as accounted frames rather than stalling the sensor.
    constexpr std::chrono::milliseconds kSensorPeriod(5);
    std::vector<std::vector<SubmitTicket>> tickets(streams);
    std::vector<std::size_t> corrupted(streams, 0);
    std::vector<std::thread> producers;
    producers.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s) {
        producers.emplace_back([&, s] {
            Rng rng(7 + s);
            SceneOptions options;
            options.points = points;
            tickets[s].reserve(frames);
            for (std::size_t f = 0; f < frames; ++f) {
                PointCloud frame = makeScene(options, rng);
                if (chaos && corrupters[s].corrupt(frame).any()) {
                    ++corrupted[s];
                }
                tickets[s].push_back(
                    engine.submit(ids[s], std::move(frame)));
                std::this_thread::sleep_for(kSensorPeriod);
            }
        });
    }
    for (std::thread &t : producers) {
        t.join();
    }
    const std::vector<StreamReport> reports = engine.drain();

    // Reconcile: every accepted ticket must have resolved to exactly
    // one response, and the per-stream counters must agree.
    bool consistent = true;
    std::size_t total_accepted = 0, total_served = 0, total_shed = 0;
    for (std::size_t s = 0; s < streams; ++s) {
        std::size_t served = 0, shed = 0;
        for (SubmitTicket &t : tickets[s]) {
            if (!t.accepted()) {
                continue;
            }
            ++total_accepted;
            const FrameResponse r = t.response.get();
            ++(r.shed ? shed : served);
        }
        total_served += served;
        total_shed += shed;
        const StreamReport &rep = reports[s];
        consistent = consistent && rep.serve.served == served &&
                     rep.serve.shed() == shed &&
                     rep.health.frames == rep.serve.accepted;

        std::cout << "stream " << rep.id;
        if (chaos) {
            std::cout << " (" << corrupted[s] << "/" << frames
                      << " frames corrupted)";
        }
        std::cout << ":\n";
        rep.printTable(std::cout);
        std::cout << "\n";
    }
    consistent =
        consistent && total_served + total_shed == total_accepted;

    std::cout << "engine totals: " << total_accepted << " accepted = "
              << total_served << " served + " << total_shed
              << " shed (ladder floor "
              << static_cast<int>(engine.ladderFloor()) << ")\n";
    std::cout << (consistent
                      ? "every in-flight frame accounted for — no "
                        "stream could take the engine down.\n"
                      : "ACCOUNTING MISMATCH — see tables above.\n");

    if (!trace_path.empty()) {
        const Result<void> written = obs::writeChromeTraceFile(
            trace_path, obs::Tracer::global());
        if (!written.ok()) {
            std::cerr << written.error().message << "\n";
            return 1;
        }
        std::cout << "\nSpan timeline written to " << trace_path
                  << " — open chrome://tracing and load it.\n";
    }
    return consistent ? 0 : 1;
}
