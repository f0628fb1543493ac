/**
 * @file
 * ServingEngine: overload-safe multiplexer for N concurrent
 * point-cloud streams over one shared model.
 *
 * Architecture (DESIGN.md §11):
 *
 *  - Per-stream bounded request queues with explicit backpressure
 *    (RejectNewest refuses the submit, DropOldest evicts the queue
 *    head as a shed response).
 *  - An admission controller maps sustained total queue depth onto a
 *    global degradation-ladder floor pushed into every stream's
 *    RobustPipeline: under overload all streams step down to cheaper
 *    configurations together before any stream drops frames.
 *  - A single dispatcher thread schedules queue heads
 *    earliest-deadline-first (per-request SLO deadlines; no-SLO
 *    streams fall back to FIFO by arrival), which keeps per-stream
 *    FIFO order by construction. One dispatcher drives the model;
 *    kernels still parallelize internally over the global ThreadPool.
 *  - Per-stream circuit breakers quarantine streams whose frames
 *    repeatedly fail or blow their SLO, and probe them for recovery
 *    without ever starving healthy streams.
 *  - Cross-stream micro-batching: heads of distinct streams at the
 *    same ladder level are stacked through PointCloudModel::inferBatch
 *    so the packed GEMM runs at large M instead of one skinny GEMM
 *    per frame. The batched path trades the per-frame watchdog for
 *    throughput; SLO misses are still detected and fed to the
 *    breaker/ladder.
 *  - Graceful drain: completes every queued and in-flight frame, then
 *    returns the per-stream StreamHealth snapshots. Every accepted
 *    frame is accounted in exactly one way (served, dropped, or
 *    shed), so drained health totals always reconcile with accepts.
 *
 * Response-ordering contract: served (non-shed) responses of a stream
 * complete in strictly increasing submit order. Shed/evicted frames
 * are answered immediately (like an HTTP 429) and may therefore
 * overtake an in-flight earlier frame.
 *
 * Telemetry flows into the process metrics registry (serve.* counters,
 * queue-depth and ladder-floor gauges, latency histograms) and
 * Chrome-trace spans ("serve" category).
 */

#ifndef EDGEPC_SERVE_SERVING_ENGINE_HPP
#define EDGEPC_SERVE_SERVING_ENGINE_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/robust_pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/circuit_breaker.hpp"

namespace edgepc {
namespace serve {

/** Identifier of an open stream (dense, assigned by openStream). */
using StreamId = std::uint32_t;

/** What a full per-stream queue does with a new submit. */
enum class BackpressurePolicy
{
    /** Refuse the new frame (caller sees QueueFull). */
    RejectNewest,
    /** Evict the oldest queued frame (it resolves as shed) and accept
        the new one — fresher frames win, as a perception stack
        usually wants. */
    DropOldest,
};

/** Name of a policy ("reject-newest", "drop-oldest"). */
const char *backpressurePolicyName(BackpressurePolicy policy);

/** Outcome of a submit() call. */
enum class AdmitStatus
{
    /** Queued; the ticket's future will resolve. */
    Accepted,
    /** Bounded queue full under RejectNewest. */
    QueueFull,
    /** The stream's circuit breaker is open. */
    Quarantined,
    /** The engine is draining or shut down. */
    Draining,
    /** No such stream. */
    UnknownStream,
};

/** Name of an admit status ("accepted", "queue-full", …). */
const char *admitStatusName(AdmitStatus status);

/** The engine's answer for one accepted frame. */
struct FrameResponse
{
    StreamId stream = 0;

    /** Per-stream submit sequence number (0-based). */
    std::uint64_t seq = 0;

    /** Frame outcome; Dropped for shed frames too (see shed). */
    FrameStatus status = FrameStatus::Dropped;

    /** True when the frame never reached inference (backpressure
        eviction, expired deadline, quarantine flush, shutdown). */
    bool shed = false;

    /** True when the frame was served on the batched path. */
    bool batched = false;

    /** True when the response completed after the request's SLO
        deadline (queueing + service). */
    bool sloMissed = false;

    /** Ladder level the frame was served at. */
    int ladderLevel = 0;

    /** Time from submit to dispatch, ms. */
    double queueMs = 0.0;

    /** Time from submit to response, ms. */
    double totalMs = 0.0;

    /** Logits (valid when status != Dropped). */
    nn::Matrix logits;

    /** Why the frame produced no logits (Dropped/shed). */
    EdgePcError error;

    bool hasLogits() const { return status != FrameStatus::Dropped; }
};

/** submit() receipt: admit decision plus the response future. */
struct SubmitTicket
{
    AdmitStatus admit = AdmitStatus::UnknownStream;

    /** Assigned sequence number (valid when accepted). */
    std::uint64_t seq = 0;

    /** Resolves exactly once per accepted frame (invalid future
        otherwise). */
    std::future<FrameResponse> response;

    bool accepted() const { return admit == AdmitStatus::Accepted; }
};

/** Per-stream configuration. */
struct StreamOptions
{
    /** Bounded queue capacity (queued, excluding in-flight). */
    std::size_t queueCapacity = 8;

    /** Full-queue behavior. */
    BackpressurePolicy backpressure = BackpressurePolicy::RejectNewest;

    /** Per-request SLO deadline (submit -> response), ms; frames still
        queued past their deadline are shed. 0 disables the SLO (the
        EDF scheduler then orders the stream by arrival time). */
    double sloMs = 0.0;

    /** Quarantine policy. */
    CircuitBreakerOptions breaker;

    /** Fault-tolerance options of the stream's RobustPipeline
        (sanitizer, watchdog deadline, chaos prolog, …). */
    RobustPipelineOptions robust;
};

/** Engine-side per-stream counters (complementing StreamHealth). */
struct StreamServeStats
{
    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::size_t rejectedFull = 0;
    std::size_t rejectedQuarantined = 0;
    std::size_t rejectedDraining = 0;
    std::size_t shedBackpressure = 0;
    std::size_t shedDeadline = 0;
    std::size_t shedQuarantine = 0;
    std::size_t shedShutdown = 0;
    std::size_t served = 0;
    std::size_t batchedFrames = 0;
    std::size_t sloMisses = 0;

    std::size_t shed() const
    {
        return shedBackpressure + shedDeadline + shedQuarantine +
               shedShutdown;
    }
    std::size_t rejected() const
    {
        return rejectedFull + rejectedQuarantined + rejectedDraining;
    }
};

/** Drain/monitor snapshot of one stream. */
struct StreamReport
{
    StreamId id = 0;
    StreamServeStats serve;
    StreamHealth health;
    int ladderLevel = 0;
    std::size_t breakerTrips = 0;

    /** Render serve stats + health as an aligned table. */
    void printTable(std::ostream &os) const;
};

/** Engine-wide configuration. */
struct ServingOptions
{
    /** Defaults for openStream() without explicit options. */
    StreamOptions streamDefaults;

    /** Max heads dispatched together, micro-batched through one
        inferBatch call (1 disables cross-stream batching). */
    std::size_t maxBatch = 4;

    /** Overload -> ladder-floor policy. */
    AdmissionOptions admission;

    /**
     * Observer invoked on the fulfilling thread right before each
     * response future resolves (served and shed frames alike). May run
     * with the engine lock held: must not call back into the engine
     * and must be cheap.
     */
    std::function<void(const FrameResponse &)> onResponse;
};

/**
 * Multi-stream serving front end. Streams are opened once, frames are
 * submitted from any thread, and one internal dispatcher thread
 * serves them through per-stream RobustPipelines (optionally batched
 * across streams).
 */
class ServingEngine
{
  public:
    /**
     * @param model Shared model (not owned; the engine's dispatcher is
     *        the only thread running inference on it).
     * @param cfg Full (ladder level 0) configuration for every stream.
     * @param opts Engine options.
     */
    ServingEngine(PointCloudModel &model, EdgePcConfig cfg,
                  ServingOptions opts = {});

    /** Sheds whatever drain() did not serve, then joins the
        dispatcher (every accepted frame's future still resolves). */
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /** Open a stream with the engine's default options. */
    StreamId openStream() EDGEPC_EXCLUDES(engineMu);

    /** Open a stream with explicit options. */
    StreamId openStream(StreamOptions stream_opts)
        EDGEPC_EXCLUDES(engineMu);

    /**
     * Submit one frame. Thread-safe; returns immediately with the
     * admit decision and (when accepted) a future that resolves
     * exactly once. Never blocks on a full queue — backpressure is
     * explicit.
     */
    [[nodiscard]] SubmitTicket submit(StreamId stream, PointCloud frame)
        EDGEPC_EXCLUDES(engineMu);

    /**
     * Graceful drain: stop admitting, serve everything already
     * queued (quarantined queues are flushed as shed), wait for the
     * in-flight frame, and return final per-stream reports. The
     * engine stays queryable but rejects further submits.
     */
    std::vector<StreamReport> drain() EDGEPC_EXCLUDES(engineMu);

    /** Health snapshot of one stream (thread-safe). */
    [[nodiscard]] StreamHealth streamHealth(StreamId stream) const
        EDGEPC_EXCLUDES(engineMu);

    /** Full snapshot of one stream (thread-safe). */
    [[nodiscard]] StreamReport streamReport(StreamId stream) const
        EDGEPC_EXCLUDES(engineMu);

    /** Current global ladder floor. */
    [[nodiscard]] int ladderFloor() const EDGEPC_EXCLUDES(engineMu);

    /** Total frames currently queued across all streams. */
    [[nodiscard]] std::size_t queuedFrames() const
        EDGEPC_EXCLUDES(engineMu);

    /** Number of open streams. */
    [[nodiscard]] std::size_t streamCount() const
        EDGEPC_EXCLUDES(engineMu);

  private:
    /** One queued request. */
    struct Request
    {
        std::uint64_t seq = 0;
        PointCloud cloud;
        /** Submit time on the engine clock, ms. */
        double submitMs = 0.0;
        /** Absolute EDF key: submit + SLO, or submit + a large
            constant window when the stream has no SLO. */
        double deadlineMs = 0.0;
        bool hasSlo = false;
        std::promise<FrameResponse> promise;
    };

    /** Per-stream state. All instances live in `streams`, which is
        guarded by engineMu; every member below is therefore reached
        only with engineMu held (nested members cannot name the outer
        instance's capability, so the protection is expressed on the
        container, not per field). */
    struct StreamState
    {
        StreamId id = 0;
        StreamOptions opts;
        std::deque<Request> queue;
        std::uint64_t nextSeq = 0;
        StreamServeStats serve;
        std::unique_ptr<RobustPipeline> robust;
        CircuitBreaker breaker;
    };

    void dispatchLoop() EDGEPC_EXCLUDES(engineMu);
    std::size_t totalQueuedLocked() const EDGEPC_REQUIRES(engineMu);
    /** Flush quarantined queues and expired-deadline heads. */
    void shedStaleLocked(double now_ms) EDGEPC_REQUIRES(engineMu);
    /** EDF candidate selection; pops up to maxBatch same-level heads
        into batchScratch. Returns the count. */
    std::size_t selectLocked(double now_ms) EDGEPC_REQUIRES(engineMu);
    void executeSingle(StreamState &stream, Request &request)
        EDGEPC_EXCLUDES(engineMu);
    /** Serve the @p count selected heads: one head through
        executeSingle, more stacked through one inferBatch call. When
        that call fails, every live head falls back to its stream's
        RobustPipeline. */
    void executeBatch(std::size_t count) EDGEPC_EXCLUDES(engineMu);
    void shedRequestLocked(StreamState &stream, Request &request,
                           ErrorCode code, const char *why,
                           std::size_t StreamServeStats::*counter)
        EDGEPC_REQUIRES(engineMu);
    /** Invoke the observer and resolve the request's future. Called
        both with and without engineMu held (shed vs serve paths), so
        it touches no guarded state and carries no lock annotation. */
    void fulfill(Request &request, FrameResponse &&response);
    StreamReport reportLocked(const StreamState &stream) const
        EDGEPC_REQUIRES(engineMu);

    PointCloudModel &model;
    EdgePcConfig baseCfg;
    ServingOptions opts;
    /** Engine-epoch monotonic clock (all Request times use it). */
    Timer epoch;

    // EDGEPC_LOCK_RANK(40): engine dispatcher lock — outermost lock
    // of the serving subsystem; may acquire queueMutex (30, via
    // ThreadPool) and metricsMu (10) transitively, never the reverse.
    mutable edgepc::Mutex engineMu;
    /** Dispatcher wake (new work / drain / stop). condition_variable_any
        because the waiters hold an edgepc::UniqueMutexLock. */
    std::condition_variable_any wakeCv;
    /** Waiters on quiescence (drain). */
    std::condition_variable_any idleCv;
    std::vector<std::unique_ptr<StreamState>> streams
        EDGEPC_GUARDED_BY(engineMu);
    AdmissionController admission EDGEPC_GUARDED_BY(engineMu);
    bool draining EDGEPC_GUARDED_BY(engineMu) = false;
    bool stopping EDGEPC_GUARDED_BY(engineMu) = false;
    bool busy EDGEPC_GUARDED_BY(engineMu) = false;

    /** Preallocated dispatch scratch: the selection loop must not
        allocate (lint R6 hot region). */
    std::vector<StreamState *> candScratch EDGEPC_GUARDED_BY(engineMu);
    /** Dispatcher-only scratch: filled by selectLocked under engineMu,
        then consumed by executeBatch with the lock dropped. Safe
        because exactly one dispatcher thread exists — deliberately NOT
        EDGEPC_GUARDED_BY(engineMu). */
    std::vector<StreamState *> batchStreams;
    std::vector<Request> batchScratch;

    // Cached metric references (registry lookups take a lock).
    obs::Counter &mSubmitted;
    obs::Counter &mAccepted;
    obs::Counter &mRejected;
    obs::Counter &mShed;
    obs::Counter &mServed;
    obs::Counter &mBatchedFrames;
    obs::Counter &mBatches;
    obs::Counter &mSloMisses;
    obs::Counter &mBreakerTrips;
    obs::Counter &mFloorRaises;
    obs::Gauge &gQueueDepth;
    obs::Gauge &gLadderFloor;
    obs::Histogram &hQueueMs;
    obs::Histogram &hTotalMs;

    std::thread dispatcher;
};

} // namespace serve
} // namespace edgepc

#endif // EDGEPC_SERVE_SERVING_ENGINE_HPP
