#include "core/robust_pipeline.hpp"

#include <chrono>
#include <ostream>
#include <utility>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "sampling/uniform_index_sampler.hpp"

namespace edgepc {

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok:
        return "ok";
      case FrameStatus::Repaired:
        return "repaired";
      case FrameStatus::Degraded:
        return "degraded";
      case FrameStatus::Dropped:
        return "dropped";
    }
    return "?";
}

double
StreamHealth::recoveryRate() const
{
    if (frames == 0) {
        return 1.0;
    }
    return static_cast<double>(frames - dropped) /
           static_cast<double>(frames);
}

void
StreamHealth::countError(const EdgePcError &error)
{
    errorCounts[static_cast<std::size_t>(error.code)]++;
}

StreamHealth
StreamHealthCounters::snapshot() const
{
    StreamHealth out;
    out.frames = frames.load(std::memory_order_relaxed);
    out.ok = ok.load(std::memory_order_relaxed);
    out.repaired = repaired.load(std::memory_order_relaxed);
    out.degraded = degraded.load(std::memory_order_relaxed);
    out.dropped = dropped.load(std::memory_order_relaxed);
    out.deadlineMisses = deadlineMisses.load(std::memory_order_relaxed);
    out.retries = retries.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < out.errorCounts.size(); ++c) {
        out.errorCounts[c] = errorCounts[c].load(
            std::memory_order_relaxed);
    }
    return out;
}

void
StreamHealth::printTable(std::ostream &os) const
{
    Table table({"counter", "value"});
    table.row().cell("frames").cell(static_cast<long long>(frames));
    table.row().cell("ok").cell(static_cast<long long>(ok));
    table.row().cell("repaired").cell(static_cast<long long>(repaired));
    table.row().cell("degraded").cell(static_cast<long long>(degraded));
    table.row().cell("dropped").cell(static_cast<long long>(dropped));
    table.row()
        .cell("deadline misses")
        .cell(static_cast<long long>(deadlineMisses));
    table.row().cell("retries").cell(static_cast<long long>(retries));
    table.row().cell("recovery rate").cell(formatPercent(recoveryRate()));
    for (std::size_t c = 0; c < errorCounts.size(); ++c) {
        if (errorCounts[c] == 0) {
            continue;
        }
        table.row()
            .cell(std::string("error: ") +
                  errorCodeName(static_cast<ErrorCode>(c)))
            .cell(static_cast<long long>(errorCounts[c]));
    }
    table.print(os);
}

RobustPipeline::RobustPipeline(PointCloudModel &model, EdgePcConfig cfg,
                               RobustPipelineOptions opts_)
    : baseCfg(cfg), opts(std::move(opts_)), pipeline(model, cfg)
{
}

EdgePcConfig
RobustPipeline::configForLevel(int lvl) const
{
    if (lvl <= 0) {
        return baseCfg;
    }
    // Levels >= 1 run the EdgePC approximate kernels: this is the
    // paper's own accuracy/latency trade already validated by
    // retraining, so it is the natural first rung down. The caller's
    // routes carry over.
    if (baseCfg.approximate()) {
        return baseCfg;
    }
    EdgePcConfig degraded = EdgePcConfig::sn();
    degraded.int8Gemm = baseCfg.int8Gemm;
    degraded.int8Search = baseCfg.int8Search;
    degraded.delayedAggregation = baseCfg.delayedAggregation;
    return degraded;
}

Result<PipelineResult>
RobustPipeline::runAttempt(const PointCloud &cloud,
                           const EdgePcConfig &cfg, bool &deadline_missed)
{
    pipeline.setConfig(cfg);
    deadline_missed = false;

    if (opts.deadlineMs <= 0.0) {
        if (opts.inferenceProlog) {
            opts.inferenceProlog();
        }
        return pipeline.tryRun(cloud);
    }

    // Soft watchdog: the frame runs on the dedicated worker while we
    // wait with a timeout. A frame cannot be cancelled mid-kernel, so
    // an overrun still completes — but it is accounted as a deadline
    // miss and escalates the degradation ladder for the next frame.
    Result<PipelineResult> outcome = makeError(
        ErrorCode::Internal, "runAttempt: watchdog task never ran");
    std::future<void> done = watchdog.submit([&] {
        if (opts.inferenceProlog) {
            opts.inferenceProlog();
        }
        outcome = pipeline.tryRun(cloud);
    });
    const auto deadline = std::chrono::duration<double, std::milli>(
        opts.deadlineMs);
    if (done.wait_for(deadline) == std::future_status::timeout) {
        deadline_missed = true;
    }
    done.get();
    return outcome;
}

RobustFrameResult
RobustPipeline::process(const PointCloud &frame)
{
    EDGEPC_TRACE_SCOPE("robust.process", "pipeline");
    // Single-caller contract: this thread acts as the stream's one
    // processing role (no runtime cost; makes streak state checkable).
    streamRole.assertHeld();
    Timer wall;
    RobustFrameResult out;
    stats.bump(stats.frames);

    // --- Sanitize ---------------------------------------------------
    out.processed = frame;
    Result<SanitizeReport> sanitized = [&] {
        EDGEPC_TRACE_SCOPE("robust.sanitize", "pipeline");
        return sanitizeCloud(out.processed, opts.sanitizer);
    }();
    if (!sanitized.ok()) {
        out.status = FrameStatus::Dropped;
        out.error = sanitized.error();
        out.frameMs = wall.elapsedMs();
        stats.countError(out.error);
        stats.bump(stats.dropped);
        cleanStreak = 0;
        return out;
    }
    out.sanitize = sanitized.value();

    // --- Run, retrying down the degradation ladder ------------------
    // `level` is sticky across frames: after a failure or deadline
    // miss the stream keeps serving at the degraded level (the last
    // good configuration) and only climbs back after recoveryStreak
    // healthy frames.
    for (int lvl = ladderLevel(); lvl < kLadderLevels; ++lvl) {
        PointCloud attempt_cloud = out.processed;
        if (lvl >= 2 && attempt_cloud.size() > opts.degradedPointBudget) {
            attempt_cloud = attempt_cloud.select(
                UniformIndexSampler::stridePositions(
                    attempt_cloud.size(), opts.degradedPointBudget));
        }

        bool missed = false;
        Result<PipelineResult> run = [&] {
            EDGEPC_TRACE_SCOPE("robust.attempt", "pipeline");
            return runAttempt(attempt_cloud, configForLevel(lvl),
                              missed);
        }();
        if (!run.ok()) {
            stats.countError(run.error());
            stats.bump(stats.retries);
            out.error = run.error();
            cleanStreak = 0;
            level.store(std::min(lvl + 1, kLadderLevels - 1),
                        std::memory_order_relaxed);
            continue;
        }

        out.result = run.take();
        out.ladderLevel = lvl;
        out.deadlineMissed = missed;
        out.processed = std::move(attempt_cloud);

        if (missed) {
            stats.bump(stats.deadlineMisses);
            cleanStreak = 0;
            level.store(std::min(lvl + 1, kLadderLevels - 1),
                        std::memory_order_relaxed);
        } else {
            noteHealthyFrame(out.sanitize.repaired());
        }

        if (lvl > 0) {
            out.status = FrameStatus::Degraded;
            stats.bump(stats.degraded);
        } else if (out.sanitize.repaired()) {
            out.status = FrameStatus::Repaired;
            stats.bump(stats.repaired);
        } else {
            out.status = FrameStatus::Ok;
            stats.bump(stats.ok);
        }
        out.frameMs = wall.elapsedMs();
        return out;
    }

    // Every ladder level failed: skip the frame.
    out.status = FrameStatus::Dropped;
    out.frameMs = wall.elapsedMs();
    stats.bump(stats.dropped);
    cleanStreak = 0;
    return out;
}

void
RobustPipeline::noteHealthyFrame(bool repaired)
{
    // A repaired frame succeeded but is not clean evidence that the
    // stream can climb the ladder, so by default it leaves the streak
    // unchanged (recoveryCountsRepaired restores the legacy policy).
    if (repaired && !opts.recoveryCountsRepaired) {
        return;
    }
    ++cleanStreak;
    if (cleanStreak >= opts.recoveryStreak &&
        level.load(std::memory_order_relaxed) > 0) {
        level.fetch_sub(1, std::memory_order_relaxed);
        cleanStreak = 0;
    }
}

void
RobustPipeline::recordExternalFrame(FrameStatus status, int lvl,
                                    bool deadline_missed, bool repaired,
                                    const EdgePcError *error)
{
    // Same single-caller contract as process() (see header).
    streamRole.assertHeld();
    stats.bump(stats.frames);
    if (error != nullptr) {
        stats.countError(*error);
    }
    switch (status) {
      case FrameStatus::Ok:
        stats.bump(stats.ok);
        break;
      case FrameStatus::Repaired:
        stats.bump(stats.repaired);
        break;
      case FrameStatus::Degraded:
        stats.bump(stats.degraded);
        break;
      case FrameStatus::Dropped:
        stats.bump(stats.dropped);
        cleanStreak = 0;
        return;
    }
    if (deadline_missed) {
        stats.bump(stats.deadlineMisses);
        cleanStreak = 0;
        level.store(std::min(lvl + 1, kLadderLevels - 1),
                    std::memory_order_relaxed);
        return;
    }
    noteHealthyFrame(repaired);
}

void
RobustPipeline::recordShedFrame(const EdgePcError &error)
{
    stats.bump(stats.frames);
    stats.bump(stats.dropped);
    stats.countError(error);
}

} // namespace edgepc
