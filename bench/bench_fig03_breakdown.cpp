/**
 * @file
 * Fig 3 reproduction: end-to-end latency breakdown of the baseline
 * pipelines on all six workloads.
 *
 * Paper: sample + neighbor search takes 38-80% of E2E latency, rising
 * with the point count (ModelNet 1024 pts at the low end, ScanNet
 * 8192 pts at the high end).
 *
 * The per-stage numbers reported here come from the obs tracer's
 * "stage" spans (not the StageTimer), so this bench doubles as an
 * end-to-end check that the span instrumentation reproduces the
 * paper's breakdown; it emits BENCH_fig03.json for CI. Every column —
 * the stages, the E2E (their sum) and the share — is the mean over the
 * same measured repeats. Each workload
 * prints PASS or MISS against the paper's band (BENCH row metric
 * smp_ns_in_band). The band was measured on the Jetson, so a CPU host
 * may honestly miss it: the exit status does not depend on it.
 */

#include "bench_util.hpp"

using namespace edgepc;

namespace {

/** Whether a sample + neighbor share of E2E latency lies inside the
    paper's Fig 3 band, 38-80%. */
bool
inPaperBand(double share)
{
    return share >= 0.38 && share <= 0.80;
}

/** Mean milliseconds per run of each "stage" span over the @p repeats
    runs measure() just timed (it clears the span ring after warmup). */
std::map<std::string, double>
meanStageMs(int repeats)
{
    std::map<std::string, double> stage_ms =
        obs::Tracer::global().totalsMs("stage");
    for (auto &[stage, ms] : stage_ms) {
        ms /= repeats;
    }
    return stage_ms;
}

/** E2E of a run: its summed stage time (PipelineResult::endToEndMs). */
double
endToEndMs(const std::map<std::string, double> &stage_ms)
{
    double total = 0.0;
    for (const auto &[stage, ms] : stage_ms) {
        total += ms;
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
    bench::banner("Figure 3 (latency breakdown)",
                  "sample+neighbor = 38%..80% of E2E, growing with N");
    const std::size_t scale = bench::benchScale(1);
    const int repeats = bench::benchRepeats(2);
    std::cout << "(point scale 1/" << scale
              << "; paper-size inputs by default, raise "
                 "EDGEPC_BENCH_SCALE to shrink)\n\n";

    // The breakdown is rebuilt from span data alone: enable the
    // tracer even without --trace so the "stage" spans are retained.
    obs::Tracer::global().setEnabled(true);

    bench::BenchReport report("fig03", opts, scale, repeats);
    report.config("variant", "baseline");
    report.config("source", "obs-spans");

    Table table({"workload", "model", "points", "smp+ns ms", "group ms",
                 "feature ms", "E2E ms", "smp+ns share"});
    std::vector<std::pair<std::string, double>> shares;

    for (const WorkloadSpec &spec : workloadTable()) {
        const auto model = makeWorkloadModel(spec, scale, opts.seed);
        const PointCloud frame =
            makeWorkloadCloud(spec, scale, opts.seed + 1);
        (void)bench::measure(*model, EdgePcConfig::baseline(), frame,
                             repeats);
        std::map<std::string, double> stage_ms = meanStageMs(repeats);
        const double e2e = endToEndMs(stage_ms);
        const double sn =
            stage_ms[kStageSample] + stage_ms[kStageNeighbor];
        const double group = stage_ms[kStageGroup];
        const double feature = stage_ms[kStageFeature];
        const double share = sn / e2e;
        shares.emplace_back(spec.id, share);

        table.row()
            .cell(spec.id)
            .cell(spec.modelName)
            .cell(static_cast<long long>(frame.size()))
            .cell(sn)
            .cell(group)
            .cell(feature)
            .cell(e2e)
            .cell(formatPercent(share));

        bench::BenchRow &row = report.row(spec.id);
        row.wallMs = e2e;
        row.stages = stage_ms;
        row.metrics["smp_ns_ms"] = sn;
        row.metrics["smp_ns_share"] = share;
        row.metrics["smp_ns_in_band"] = inPaperBand(share) ? 1.0 : 0.0;
        row.metrics["points"] = static_cast<double>(frame.size());
    }
    table.print(std::cout);
    std::cout << "\nsmp+ns share against the paper band (38-80%, "
                 "Jetson):\n";
    std::size_t passes = 0;
    for (const auto &[id, share] : shares) {
        const bool in_band = inPaperBand(share);
        passes += in_band ? 1 : 0;
        std::cout << (in_band ? "PASS " : "MISS ") << id << " "
                  << formatPercent(share) << "\n";
    }
    std::cout << passes << "/" << shares.size()
              << " workloads inside the paper band\n";

    // Delayed-aggregation A/B (DESIGN.md §13): set the route off and
    // on in the config of the same workload and compare the group+feature
    // stage time — the part of the breakdown the reordering attacks.
    // One PointNet++ and one DGCNN workload keep the CI cost low.
    std::cout << "\nDelayed-aggregation A/B (group+feature stages):\n";
    Table ab({"workload", "route", "group ms", "feature ms", "E2E ms"});
    for (const std::string &id : {std::string("W1"), std::string("W3")}) {
        const WorkloadSpec &spec = workload(id);
        const auto model = makeWorkloadModel(spec, scale, opts.seed);
        const PointCloud frame =
            makeWorkloadCloud(spec, scale, opts.seed + 1);
        for (const bool delayed : {false, true}) {
            EdgePcConfig cfg = EdgePcConfig::baseline();
            cfg.delayedAggregation = delayed ? Route::On : Route::Off;
            (void)bench::measure(*model, cfg, frame, repeats);
            std::map<std::string, double> stage_ms = meanStageMs(repeats);
            const double e2e = endToEndMs(stage_ms);
            const char *route = delayed ? "delayed" : "eager";
            ab.row()
                .cell(spec.id)
                .cell(route)
                .cell(stage_ms[kStageGroup])
                .cell(stage_ms[kStageFeature])
                .cell(e2e);
            bench::BenchRow &row =
                report.row(spec.id + "/agg_" + route);
            row.wallMs = e2e;
            row.stages = stage_ms;
            row.metrics["group_feature_ms"] =
                stage_ms[kStageGroup] + stage_ms[kStageFeature];
        }
    }
    ab.print(std::cout);
    return report.write() ? 0 : 1;
}
