/**
 * @file
 * LiDAR stream: the paper's Fig 1a motivating scenario. A sequence of
 * frames (a sensor moving through rooms) is segmented in real time;
 * the demo reports per-frame latency, sustained frame rate and energy
 * for the baseline pipeline versus EdgePC, showing what the
 * sample/neighbor-search savings buy an autonomous platform.
 *
 * The stream then runs again through the fault-tolerant RobustPipeline
 * front end; with --chaos, a deterministic FaultInjector corrupts
 * frames (NaN spray, truncation, duplication) and injects latency
 * spikes, and the demo prints the stream-health telemetry showing the
 * pipeline repairing, degrading and skipping instead of dying.
 *
 * With --trace OUT.json every pipeline/stage/kernel span of the run
 * is captured and written in Chrome trace_event format — load the
 * file into chrome://tracing or https://ui.perfetto.dev to see the
 * per-thread timeline (DESIGN.md §8).
 *
 * Usage: lidar_stream [frames] [points] [--chaos] [--trace OUT.json]
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/table.hpp"
#include "core/fault_injector.hpp"
#include "core/pipeline.hpp"
#include "core/robust_pipeline.hpp"
#include "datasets/scenes.hpp"
#include "example_util.hpp"
#include "models/pointnetpp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

using namespace edgepc;

int
main(int argc, char **argv)
{
    const std::string usage =
        "lidar_stream [frames] [points] [--chaos] [--trace OUT.json]";
    std::size_t frames = 16;
    std::size_t points = 2048;
    bool chaos = false;
    std::string trace_path;
    const EdgePcConfig cfg = EdgePcConfig::sn();

    int positional = 0;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--chaos") == 0) {
            chaos = true;
            continue;
        }
        if (std::strcmp(argv[a], "--trace") == 0) {
            if (a + 1 >= argc) {
                std::cerr << "--trace requires a path\nusage: " << usage
                          << "\n";
                return 2;
            }
            trace_path = argv[++a];
            continue;
        }
        if (positional > 1) {
            std::cerr << "error: unknown argument '" << argv[a]
                      << "'\nusage: " << usage << "\n";
            return 2;
        }
        std::size_t *slot = positional == 0 ? &frames : &points;
        const char *name = positional == 0 ? "frames" : "points";
        if (!examples::parseCount(argv[a], name, usage, *slot)) {
            return 2;
        }
        ++positional;
    }

    if (!trace_path.empty()) {
        obs::Tracer::global().setEnabled(true);
    }

    std::cout << "Streaming " << frames << " LiDAR frames of " << points
              << " points through PointNet++(s)\n(" << examples::dispatchLine(cfg)
              << ")...\n\n";

    // A stream of scans: consecutive frames are fresh room scans (a
    // moving platform sees a changing world).
    Rng rng(99);
    SceneOptions options;
    options.points = points;
    std::vector<PointCloud> stream;
    stream.reserve(frames);
    for (std::size_t f = 0; f < frames; ++f) {
        stream.push_back(makeScene(options, rng));
    }

    PointNetPP model(PointNetPPConfig::liteSegmentation(points, 5), 42);

    Table table({"pipeline", "mean ms/frame", "frames/s",
                 "mean energy mJ/frame", "smp+ns share"});
    double baseline_fps = 0.0;
    double edgepc_fps = 0.0;
    double edgepc_mean_ms = 1.0;

    for (const EdgePcConfig &variant_cfg :
         {EdgePcConfig::baseline(), EdgePcConfig::sn()}) {
        InferencePipeline pipeline(model, variant_cfg);
        StageTimer stages;
        double energy = 0.0;
        Timer wall;
        for (const PointCloud &frame : stream) {
            const PipelineResult r = pipeline.run(frame);
            stages.merge(r.stages);
            energy += r.energyMj;
        }
        const double total_ms = wall.elapsedMs();
        const double fps =
            1000.0 * static_cast<double>(frames) / total_ms;
        if (variant_cfg.variant == PipelineVariant::Baseline) {
            baseline_fps = fps;
        } else {
            edgepc_fps = fps;
            edgepc_mean_ms = total_ms / static_cast<double>(frames);
        }
        const double sn_share =
            (stages.total(kStageSample) + stages.total(kStageNeighbor)) /
            stages.grandTotal();
        table.row()
            .cell(variantName(variant_cfg.variant))
            .cell(total_ms / static_cast<double>(frames))
            .cell(fps)
            .cell(energy / static_cast<double>(frames))
            .cell(formatPercent(sn_share));
    }

    table.print(std::cout);
    std::cout << "\nSustained throughput gain: "
              << formatSpeedup(edgepc_fps / baseline_fps)
              << " — headroom a perception stack can spend on larger "
                 "frames, deeper models, or battery life.\n";

    // --- Fault-tolerant serving pass --------------------------------
    std::cout << "\nRobust streaming pass ("
              << (chaos ? "with --chaos fault injection" : "clean input")
              << ")...\n";

    RobustPipelineOptions ropts;
    // Soft deadline: generous multiple of the healthy EdgePC frame
    // time, so only genuine spikes trip the watchdog.
    ropts.deadlineMs = 8.0 * edgepc_mean_ms + 20.0;
    ropts.sanitizer.policy = SanitizePolicy::Pad;
    ropts.degradedPointBudget = std::max<std::size_t>(points / 4, 128);

    FaultInjectorConfig fcfg;
    fcfg.nanRate = 0.25;
    fcfg.truncateRate = 0.15;
    fcfg.duplicateRate = 0.15;
    fcfg.latencySpikeRate = 0.15;
    fcfg.latencySpikeMs = ropts.deadlineMs * 1.5;
    FaultInjector injector(fcfg);
    if (chaos) {
        // Spikes fire inside the watchdog's deadline window, on the
        // frames whose corrupt() call drew one.
        ropts.inferenceProlog = injector.latencyHook();
    }
    RobustPipeline robust(model, cfg, ropts);

    // Corrupt, then process, one frame at a time: the per-frame
    // outcomes are deliberately unused — the demo reports the
    // aggregated StreamHealth table below.
    std::size_t faulted = 0;
    for (const PointCloud &frame : stream) {
        PointCloud working = frame;
        if (chaos && injector.corrupt(working).any()) {
            ++faulted;
        }
        (void)robust.process(working);
    }

    if (chaos) {
        std::cout << faulted << "/" << frames
                  << " frames corrupted by the injector\n";
    }
    std::cout << "\nStream health:\n";
    robust.health().printTable(std::cout);
    std::cout << "\nEvery frame was answered or accounted for — no "
                 "frame can kill the stream.\n";

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
    return 0;
}
