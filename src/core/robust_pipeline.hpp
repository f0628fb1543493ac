/**
 * @file
 * Fault-tolerant streaming wrapper around InferencePipeline.
 *
 * An edge deployment must survive what a benchmark never sees: frames
 * with NaN returns, truncated transfers, degenerate geometry, and
 * occasional latency spikes that blow the per-frame deadline. The
 * RobustPipeline wraps the InferencePipeline with
 *
 *  - input sanitization (pointcloud/sanitizer.hpp),
 *  - a soft per-frame deadline watchdog (the frame runs on a dedicated
 *    ThreadPool worker while the caller waits with a timeout),
 *  - a degradation ladder: full configuration -> EdgePC approximate
 *    kernels -> reduced point budget -> frame skip, with automatic
 *    recovery after a streak of healthy frames, and
 *  - per-stream health telemetry (frames ok / repaired / degraded /
 *    dropped, deadline misses, error counters by taxonomy code).
 *
 * One malformed frame costs one frame, never the stream.
 */

#ifndef EDGEPC_CORE_ROBUST_PIPELINE_HPP
#define EDGEPC_CORE_ROBUST_PIPELINE_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "pointcloud/sanitizer.hpp"

namespace edgepc {

/** How one frame fared in the robust pipeline. */
enum class FrameStatus
{
    /** Clean frame, full configuration, on deadline. */
    Ok,
    /** Sanitizer repaired the frame; inference then succeeded. */
    Repaired,
    /** Frame ran under a degraded configuration (ladder level > 0). */
    Degraded,
    /** Frame was skipped; no logits were produced. */
    Dropped,
};

/** Name of a status for reports ("ok", "repaired", …). */
const char *frameStatusName(FrameStatus status);

/** Options of the fault-tolerance layer. */
struct RobustPipelineOptions
{
    /** Soft per-frame deadline in ms; 0 disables the watchdog. */
    double deadlineMs = 0.0;

    /** Input sanitization policy. */
    SanitizerConfig sanitizer;

    /** Point budget of the deepest degraded level (stride subsample). */
    std::size_t degradedPointBudget = 512;

    /** Consecutive healthy frames before climbing one ladder level
        back toward the full configuration. */
    int recoveryStreak = 3;

    /**
     * Whether a sanitizer-Repaired frame advances the healthy streak.
     * Default false: a repaired frame succeeded but is not clean
     * evidence that the stream can climb the ladder, so it leaves the
     * streak unchanged. True restores the legacy behavior (Repaired
     * counts the same as Ok).
     */
    bool recoveryCountsRepaired = false;

    /**
     * Test/chaos hook executed inside the deadline window immediately
     * before inference (on the watchdog worker when the watchdog is
     * active). FaultInjector::latencyHook() plugs in here.
     */
    std::function<void()> inferenceProlog;
};

/** Outcome of one frame through the robust pipeline. */
struct RobustFrameResult
{
    FrameStatus status = FrameStatus::Dropped;

    /** Ladder level the frame completed at (0 = full config). */
    int ladderLevel = 0;

    /** True when the frame finished after its soft deadline. */
    bool deadlineMissed = false;

    /** Wall-clock time spent on the frame (sanitize + all attempts). */
    double frameMs = 0.0;

    /** Inference result (valid unless status == Dropped). */
    PipelineResult result;

    /** What the sanitizer found/did. */
    SanitizeReport sanitize;

    /** The cloud that was actually inferred (post repair/degrade);
        labels survive, so degraded-mode accuracy can be scored. */
    PointCloud processed;

    /** Why the frame was dropped (valid when status == Dropped). */
    EdgePcError error;

    bool hasLogits() const { return status != FrameStatus::Dropped; }
};

/**
 * Aggregated per-stream health telemetry.
 *
 * This is a plain value snapshot: RobustPipeline keeps the live
 * counters in atomics and health() materializes one of these, so a
 * monitor thread can poll while the stream thread keeps processing.
 */
struct StreamHealth
{
    std::size_t frames = 0;
    std::size_t ok = 0;
    std::size_t repaired = 0;
    std::size_t degraded = 0;
    std::size_t dropped = 0;
    std::size_t deadlineMisses = 0;
    /** Failed inference attempts that were retried down the ladder. */
    std::size_t retries = 0;

    /** Error occurrences by taxonomy code. */
    std::array<std::size_t, kErrorCodeCount> errorCounts{};

    /** Fraction of frames that produced logits. */
    double recoveryRate() const;

    /** Record an error occurrence. */
    void countError(const EdgePcError &error);

    /** Render the telemetry as an aligned table. */
    void printTable(std::ostream &os) const;
};

/**
 * Live counters behind StreamHealth: atomics so a monitor thread can
 * poll while the stream thread keeps processing (relaxed order —
 * these are statistics, not synchronization). Shared vocabulary
 * between RobustPipeline and the serving layer so every frame,
 * including ones shed before reaching inference, lands in the same
 * per-stream health snapshot.
 */
struct StreamHealthCounters
{
    std::atomic<std::size_t> frames{0};
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> repaired{0};
    std::atomic<std::size_t> degraded{0};
    std::atomic<std::size_t> dropped{0};
    std::atomic<std::size_t> deadlineMisses{0};
    std::atomic<std::size_t> retries{0};
    std::array<std::atomic<std::size_t>, kErrorCodeCount> errorCounts{};

    void bump(std::atomic<std::size_t> &counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    void countError(const EdgePcError &error)
    {
        bump(errorCounts[static_cast<std::size_t>(error.code)]);
    }

    StreamHealth snapshot() const;
};

/** Fault-tolerant streaming front end over InferencePipeline. */
class RobustPipeline
{
  public:
    /** Ladder levels: 0 = full config, 1 = EdgePC approximate
        kernels, 2 = approximate + reduced point budget. A frame that
        fails at the last level is dropped. */
    static constexpr int kLadderLevels = 3;

    /**
     * @param model Model to serve (not owned; must outlive this).
     * @param cfg The full (level-0) configuration.
     * @param opts Fault-tolerance options.
     */
    RobustPipeline(PointCloudModel &model, EdgePcConfig cfg,
                   RobustPipelineOptions opts = {});

    /**
     * Process one frame end to end: sanitize, run at the current
     * ladder level, retry down the ladder on recoverable errors,
     * account the outcome. Never throws on malformed input and never
     * terminates the process; the worst outcome is a Dropped frame.
     *
     * One stream, one caller: process() must not be invoked
     * concurrently. health() and ladderLevel() ARE safe to call from
     * other threads while a frame is in flight.
     */
    [[nodiscard]] RobustFrameResult process(const PointCloud &frame);

    /**
     * Snapshot of the health telemetry accumulated since
     * construction. Thread-safe against a running process(): each
     * counter is read atomically (the snapshot is not a cross-counter
     * transaction — a monitor polling mid-frame may observe `frames`
     * already bumped while the frame's outcome counter is not).
     */
    [[nodiscard]] StreamHealth health() const { return stats.snapshot(); }

    /** Current degradation ladder level (sticky across frames: the
        last configuration that met the deadline is retried first),
        clamped up to the external ladder floor. Thread-safe against a
        running process(). */
    [[nodiscard]] int ladderLevel() const
    {
        return std::max(level.load(std::memory_order_relaxed),
                        floorLevel.load(std::memory_order_relaxed));
    }

    /**
     * Externally imposed minimum ladder level, clamped to
     * [0, kLadderLevels - 1]. An admission controller raises the floor
     * across every stream under overload so all streams step down
     * together before any single stream starts dropping frames; the
     * stream's own sticky level still escalates/recovers underneath
     * and takes over again once the floor is lowered. Thread-safe.
     */
    void setLadderFloor(int floor_level)
    {
        floorLevel.store(
            std::clamp(floor_level, 0, kLadderLevels - 1),
            std::memory_order_relaxed);
    }

    /** Current external ladder floor. Thread-safe. */
    [[nodiscard]] int ladderFloor() const
    {
        return floorLevel.load(std::memory_order_relaxed);
    }

    /**
     * Account a frame that was served outside process() — the serving
     * engine's cross-stream batched path — so health telemetry and the
     * ladder streak stay unified with single-frame processing. Same
     * single-caller contract as process(): must not race process() or
     * itself (health() stays safe to poll concurrently).
     *
     * @param status Outcome of the frame (Dropped allowed).
     * @param lvl Ladder level the frame ran at (escalation target on a
     *        deadline miss).
     * @param deadline_missed True when the frame blew its deadline.
     * @param repaired True when the sanitizer repaired the frame.
     * @param error Error to count (typically with status Dropped).
     */
    void recordExternalFrame(FrameStatus status, int lvl,
                             bool deadline_missed, bool repaired,
                             const EdgePcError *error = nullptr);

    /**
     * Account a frame shed before inference (backpressure eviction,
     * expired deadline, quarantine flush, shutdown). Only touches
     * atomic counters, so unlike recordExternalFrame this IS safe to
     * call concurrently with process() from any thread.
     */
    void recordShedFrame(const EdgePcError &error);

    /** Configuration the pipeline would use at @p level. */
    EdgePcConfig configForLevel(int level) const;

    const RobustPipelineOptions &options() const { return opts; }

  private:
    [[nodiscard]] Result<PipelineResult>
    runAttempt(const PointCloud &cloud, const EdgePcConfig &cfg,
               bool &deadline_missed);

    /** Healthy-streak bookkeeping shared by process() and
        recordExternalFrame() (single-caller state). */
    void noteHealthyFrame(bool repaired) EDGEPC_REQUIRES(streamRole);

    EdgePcConfig baseCfg;
    RobustPipelineOptions opts;
    InferencePipeline pipeline;
    /** Dedicated single worker so a watchdogged frame cannot starve
        the global kernel pool. */
    ThreadPool watchdog{1};
    StreamHealthCounters stats;
    std::atomic<int> level{0};
    std::atomic<int> floorLevel{0};
    /** Virtual capability encoding the single-caller contract of
        process()/recordExternalFrame(): not a lock — the entry points
        assert it (statically) and the analysis then rejects any new
        code path touching the streak without declaring itself part of
        the contract. */
    ThreadRole streamRole;
    int cleanStreak EDGEPC_GUARDED_BY(streamRole) = 0;
};

} // namespace edgepc

#endif // EDGEPC_CORE_ROBUST_PIPELINE_HPP
