#include "serve/serving_engine.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"
#include "sampling/uniform_index_sampler.hpp"

namespace edgepc {
namespace serve {

namespace {

/** EDF key window for streams without an SLO: far enough out that
    deadline streams always win, while no-SLO streams stay FIFO
    against each other (same offset => ordered by arrival). */
constexpr double kNoSloWindowMs = 1.0e7;

} // namespace

const char *
backpressurePolicyName(BackpressurePolicy policy)
{
    switch (policy) {
      case BackpressurePolicy::RejectNewest:
        return "reject-newest";
      case BackpressurePolicy::DropOldest:
        return "drop-oldest";
    }
    return "?";
}

const char *
admitStatusName(AdmitStatus status)
{
    switch (status) {
      case AdmitStatus::Accepted:
        return "accepted";
      case AdmitStatus::QueueFull:
        return "queue-full";
      case AdmitStatus::Quarantined:
        return "quarantined";
      case AdmitStatus::Draining:
        return "draining";
      case AdmitStatus::UnknownStream:
        return "unknown-stream";
    }
    return "?";
}

const char *
breakerStateName(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::Closed:
        return "closed";
      case CircuitBreaker::State::Open:
        return "open";
      case CircuitBreaker::State::HalfOpen:
        return "half-open";
    }
    return "?";
}

void
StreamReport::printTable(std::ostream &os) const
{
    Table table({"counter", "value"});
    table.row().cell("submitted").cell(
        static_cast<long long>(serve.submitted));
    table.row().cell("accepted").cell(
        static_cast<long long>(serve.accepted));
    table.row().cell("served").cell(static_cast<long long>(serve.served));
    table.row().cell("batched").cell(
        static_cast<long long>(serve.batchedFrames));
    table.row().cell("rejected").cell(
        static_cast<long long>(serve.rejected()));
    table.row().cell("shed").cell(static_cast<long long>(serve.shed()));
    table.row().cell("slo misses").cell(
        static_cast<long long>(serve.sloMisses));
    table.row().cell("breaker trips").cell(
        static_cast<long long>(breakerTrips));
    table.row().cell("ladder level").cell(
        static_cast<long long>(ladderLevel));
    table.print(os);
    health.printTable(os);
}

ServingEngine::ServingEngine(PointCloudModel &model_, EdgePcConfig cfg,
                             ServingOptions opts_)
    : model(model_), baseCfg(cfg), opts(std::move(opts_)),
      admission(opts.admission),
      mSubmitted(obs::MetricsRegistry::global().counter(
          "serve.submitted")),
      mAccepted(obs::MetricsRegistry::global().counter("serve.accepted")),
      mRejected(obs::MetricsRegistry::global().counter("serve.rejected")),
      mShed(obs::MetricsRegistry::global().counter("serve.shed")),
      mServed(obs::MetricsRegistry::global().counter("serve.served")),
      mBatchedFrames(obs::MetricsRegistry::global().counter(
          "serve.batched_frames")),
      mBatches(obs::MetricsRegistry::global().counter("serve.batches")),
      mSloMisses(obs::MetricsRegistry::global().counter(
          "serve.slo_misses")),
      mBreakerTrips(obs::MetricsRegistry::global().counter(
          "serve.breaker_trips")),
      mFloorRaises(obs::MetricsRegistry::global().counter(
          "serve.floor_raises")),
      gQueueDepth(obs::MetricsRegistry::global().gauge(
          "serve.queue_depth")),
      gLadderFloor(obs::MetricsRegistry::global().gauge(
          "serve.ladder_floor")),
      hQueueMs(obs::MetricsRegistry::global().histogram("serve.queue_ms")),
      hTotalMs(obs::MetricsRegistry::global().histogram("serve.total_ms"))
{
    const std::size_t max_batch = std::max<std::size_t>(1, opts.maxBatch);
    batchStreams.resize(max_batch);
    batchScratch.resize(max_batch);
    dispatcher = std::thread([this] { dispatchLoop(); });
}

ServingEngine::~ServingEngine()
{
    {
        MutexLock lock(engineMu);
        stopping = true;
    }
    wakeCv.notify_all();
    if (dispatcher.joinable()) {
        dispatcher.join();
    }
}

StreamId
ServingEngine::openStream()
{
    return openStream(opts.streamDefaults);
}

StreamId
ServingEngine::openStream(StreamOptions stream_opts)
{
    if (stream_opts.queueCapacity == 0) {
        fatal("ServingEngine::openStream: queueCapacity must be > 0");
    }
    MutexLock lock(engineMu);
    auto state = std::make_unique<StreamState>();
    state->id = static_cast<StreamId>(streams.size());
    state->opts = stream_opts;
    state->robust = std::make_unique<RobustPipeline>(
        model, baseCfg, stream_opts.robust);
    state->robust->setLadderFloor(admission.floor());
    state->breaker = CircuitBreaker(stream_opts.breaker);
    const StreamId id = state->id;
    streams.push_back(std::move(state));
    candScratch.resize(streams.size());

    std::size_t total_capacity = 0;
    for (const auto &entry : streams) {
        total_capacity += entry->opts.queueCapacity;
    }
    admission.setCapacity(total_capacity);
    return id;
}

SubmitTicket
ServingEngine::submit(StreamId stream, PointCloud frame)
{
    SubmitTicket ticket;
    UniqueMutexLock lock(engineMu);
    if (stream >= streams.size()) {
        ticket.admit = AdmitStatus::UnknownStream;
        return ticket;
    }
    StreamState &s = *streams[stream];
    ++s.serve.submitted;
    mSubmitted.add();
    const double now = epoch.elapsedMs();

    if (draining || stopping) {
        ticket.admit = AdmitStatus::Draining;
        ++s.serve.rejectedDraining;
        mRejected.add();
        return ticket;
    }
    if (!s.breaker.admitsSubmit(now)) {
        ticket.admit = AdmitStatus::Quarantined;
        ++s.serve.rejectedQuarantined;
        mRejected.add();
        return ticket;
    }
    if (s.queue.size() >= s.opts.queueCapacity) {
        if (s.opts.backpressure == BackpressurePolicy::RejectNewest) {
            ticket.admit = AdmitStatus::QueueFull;
            ++s.serve.rejectedFull;
            mRejected.add();
            return ticket;
        }
        shedRequestLocked(s, s.queue.front(), ErrorCode::QueueFull,
                          "evicted by backpressure (drop-oldest)",
                          &StreamServeStats::shedBackpressure);
        s.queue.pop_front();
    }

    Request rq;
    rq.seq = s.nextSeq++;
    rq.cloud = std::move(frame);
    rq.submitMs = now;
    rq.hasSlo = s.opts.sloMs > 0.0;
    rq.deadlineMs = now + (rq.hasSlo ? s.opts.sloMs : kNoSloWindowMs);
    ticket.admit = AdmitStatus::Accepted;
    ticket.seq = rq.seq;
    ticket.response = rq.promise.get_future();
    s.queue.push_back(std::move(rq));
    ++s.serve.accepted;
    mAccepted.add();
    gQueueDepth.set(static_cast<std::int64_t>(totalQueuedLocked()));
    lock.unlock();
    wakeCv.notify_one();
    return ticket;
}

std::size_t
ServingEngine::totalQueuedLocked() const
{
    std::size_t total = 0;
    for (const auto &entry : streams) {
        total += entry->queue.size();
    }
    return total;
}

void
ServingEngine::fulfill(Request &request, FrameResponse &&response)
{
    if (opts.onResponse) {
        opts.onResponse(response);
    }
    request.promise.set_value(std::move(response));
}

void
ServingEngine::shedRequestLocked(StreamState &stream, Request &request,
                                 ErrorCode code, const char *why,
                                 std::size_t StreamServeStats::*counter)
{
    const double now = epoch.elapsedMs();
    FrameResponse resp;
    resp.stream = stream.id;
    resp.seq = request.seq;
    resp.status = FrameStatus::Dropped;
    resp.shed = true;
    resp.ladderLevel = stream.robust->ladderLevel();
    resp.queueMs = now - request.submitMs;
    resp.totalMs = resp.queueMs;
    resp.sloMissed = request.hasSlo && now > request.deadlineMs;
    resp.error = makeError(code, "%s", why);
    stream.serve.*counter += 1;
    mShed.add();
    stream.robust->recordShedFrame(resp.error);
    fulfill(request, std::move(resp));
}

void
ServingEngine::shedStaleLocked(double now_ms)
{
    for (auto &entry : streams) {
        StreamState &s = *entry;
        if (s.breaker.state(now_ms) == CircuitBreaker::State::Open) {
            while (!s.queue.empty()) {
                shedRequestLocked(s, s.queue.front(),
                                  ErrorCode::StreamQuarantined,
                                  "stream quarantined by its circuit "
                                  "breaker",
                                  &StreamServeStats::shedQuarantine);
                s.queue.pop_front();
            }
            continue;
        }
        // Deadlines are monotonic within a stream's FIFO queue, so
        // expired frames are always at the head.
        while (!s.queue.empty() && s.queue.front().hasSlo &&
               s.queue.front().deadlineMs <= now_ms) {
            shedRequestLocked(s, s.queue.front(),
                              ErrorCode::DeadlineExceeded,
                              "SLO deadline expired while queued",
                              &StreamServeStats::shedDeadline);
            s.queue.pop_front();
        }
    }
}

std::size_t
ServingEngine::selectLocked(double now_ms)
{
    std::size_t num_candidates = 0;
    std::size_t count = 0;
    const std::size_t max_batch = batchScratch.size();
    // EDGEPC_HOT: scheduler dispatch selection — runs once per batch
    // on the serving fast path; no heap allocation or nn::Matrix
    // construction in this region (all scratch is preallocated).
    {
        for (auto &entry : streams) {
            StreamState *s = entry.get();
            if (s->queue.empty() || !s->breaker.canDispatch(now_ms)) {
                continue;
            }
            candScratch[num_candidates++] = s;
        }
        if (num_candidates == 0) {
            return 0;
        }
        std::sort(candScratch.begin(),
                  candScratch.begin() +
                      static_cast<std::ptrdiff_t>(num_candidates),
                  [](const StreamState *a, const StreamState *b) {
                      return a->queue.front().deadlineMs <
                             b->queue.front().deadlineMs;
                  });
        // Batch = the EDF head plus further heads (distinct streams,
        // nearest deadlines first) at the same effective ladder
        // level, so one configuration serves the whole batch.
        const int lead_level = candScratch[0]->robust->ladderLevel();
        for (std::size_t i = 0;
             i < num_candidates && count < max_batch; ++i) {
            StreamState *s = candScratch[i];
            if (count > 0 && s->robust->ladderLevel() != lead_level) {
                continue;
            }
            s->breaker.noteDispatch();
            batchStreams[count] = s;
            batchScratch[count] = std::move(s->queue.front());
            s->queue.pop_front();
            ++count;
        }
    }
    return count;
}

void
ServingEngine::executeSingle(StreamState &stream, Request &request)
{
    EDGEPC_TRACE_SCOPE("serve.frame", "serve");
    const double dispatch_ms = epoch.elapsedMs();
    RobustFrameResult r = stream.robust->process(request.cloud);
    const double now = epoch.elapsedMs();

    FrameResponse resp;
    resp.stream = stream.id;
    resp.seq = request.seq;
    resp.status = r.status;
    resp.ladderLevel = r.ladderLevel;
    resp.queueMs = dispatch_ms - request.submitMs;
    resp.totalMs = now - request.submitMs;
    resp.sloMissed = request.hasSlo && now > request.deadlineMs;
    resp.logits = std::move(r.result.logits);
    resp.error = r.error;

    {
        MutexLock lock(engineMu);
        ++stream.serve.served;
        if (resp.sloMissed) {
            ++stream.serve.sloMisses;
            mSloMisses.add();
        }
        const std::size_t trips_before = stream.breaker.trips();
        const bool failure = resp.status == FrameStatus::Dropped ||
                             resp.sloMissed || r.deadlineMissed;
        if (failure) {
            stream.breaker.recordFailure(now);
        } else {
            stream.breaker.recordSuccess(now);
        }
        mBreakerTrips.add(stream.breaker.trips() - trips_before);
    }
    mServed.add();
    hQueueMs.observe(resp.queueMs);
    hTotalMs.observe(resp.totalMs);
    fulfill(request, std::move(resp));
}

void
ServingEngine::executeBatch(std::size_t count)
{
    if (count == 1) {
        executeSingle(*batchStreams[0], batchScratch[0]);
        return;
    }
    const int lvl = batchStreams[0]->robust->ladderLevel();
    const EdgePcConfig cfg_lvl =
        batchStreams[0]->robust->configForLevel(lvl);
    EDGEPC_TRACE_SCOPE("serve.batch", "serve");
    const double dispatch_ms = epoch.elapsedMs();

    // Sanitize (and subsample at the deepest degraded level) each
    // frame exactly as RobustPipeline::process would.
    struct Slot
    {
        bool ok = false;
        bool repaired = false;
        EdgePcError error;
        nn::Matrix logits;
    };
    std::vector<Slot> slots(count);
    std::vector<PointCloud> live_clouds;
    std::vector<std::size_t> live_at;
    live_clouds.reserve(count);
    live_at.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        StreamState &s = *batchStreams[i];
        PointCloud cloud = batchScratch[i].cloud;
        Result<SanitizeReport> rep =
            sanitizeCloud(cloud, s.opts.robust.sanitizer);
        if (!rep.ok()) {
            slots[i].error = rep.error();
            continue;
        }
        slots[i].ok = true;
        slots[i].repaired = rep.value().repaired();
        if (lvl >= 2 && cloud.size() > s.opts.robust.degradedPointBudget) {
            cloud = cloud.select(UniformIndexSampler::stridePositions(
                cloud.size(), s.opts.robust.degradedPointBudget));
        }
        live_at.push_back(i);
        live_clouds.push_back(std::move(cloud));
    }

    // Chaos prologs fire on the dispatcher thread before the live
    // frames run (SLO misses below feed the breaker and the ladder).
    for (const std::size_t i : live_at) {
        const auto &prolog = batchStreams[i]->opts.robust.inferenceProlog;
        if (prolog) {
            prolog();
        }
    }

    // One all-or-nothing inferBatch stacks the live frames.
    bool batch_failed = false;
    if (!live_clouds.empty()) {
        try {
            std::vector<nn::Matrix> logits =
                model.inferBatch(live_clouds, cfg_lvl);
            for (std::size_t k = 0; k < live_at.size(); ++k) {
                slots[live_at[k]].logits = std::move(logits[k]);
            }
        } catch (const EdgePcException &) {
            batch_failed = true;
        }
    }
    mBatches.add();

    std::vector<FrameResponse> responses(count);
    for (std::size_t i = 0; i < count; ++i) {
        StreamState &s = *batchStreams[i];
        Request &rq = batchScratch[i];
        Slot &slot = slots[i];
        FrameResponse &resp = responses[i];
        resp.stream = s.id;
        resp.seq = rq.seq;
        resp.queueMs = dispatch_ms - rq.submitMs;
        resp.ladderLevel = lvl;
        // A sanitize-dropped frame never reached inferBatch, and a
        // failed batch answers its live frames one by one.
        resp.batched = slot.ok && !batch_failed;

        if (!slot.ok) {
            resp.status = FrameStatus::Dropped;
            resp.error = slot.error;
            s.robust->recordExternalFrame(FrameStatus::Dropped, lvl,
                                          false, false, &resp.error);
        } else if (batch_failed) {
            // Per-frame fallback: the robust single path re-runs
            // sanitize and the whole ladder and accounts the frame
            // internally, so a failed frame costs retries, never the
            // stream.
            RobustFrameResult r = s.robust->process(rq.cloud);
            resp.status = r.status;
            resp.ladderLevel = r.ladderLevel;
            resp.logits = std::move(r.result.logits);
            resp.error = r.error;
        } else {
            resp.status = lvl > 0 ? FrameStatus::Degraded
                          : slot.repaired ? FrameStatus::Repaired
                                          : FrameStatus::Ok;
            resp.logits = std::move(slot.logits);
        }
        const double now = epoch.elapsedMs();
        resp.totalMs = now - rq.submitMs;
        resp.sloMissed = rq.hasSlo && now > rq.deadlineMs;
        if (resp.batched) {
            s.robust->recordExternalFrame(resp.status, lvl, resp.sloMissed,
                                          slot.repaired);
        }
    }

    {
        MutexLock lock(engineMu);
        const double now = epoch.elapsedMs();
        for (std::size_t i = 0; i < count; ++i) {
            StreamState &s = *batchStreams[i];
            FrameResponse &resp = responses[i];
            ++s.serve.served;
            if (resp.batched) {
                ++s.serve.batchedFrames;
                mBatchedFrames.add();
            }
            if (resp.sloMissed) {
                ++s.serve.sloMisses;
                mSloMisses.add();
            }
            const std::size_t trips_before = s.breaker.trips();
            const bool failure =
                resp.status == FrameStatus::Dropped || resp.sloMissed;
            if (failure) {
                s.breaker.recordFailure(now);
            } else {
                s.breaker.recordSuccess(now);
            }
            mBreakerTrips.add(s.breaker.trips() - trips_before);
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        mServed.add();
        hQueueMs.observe(responses[i].queueMs);
        hTotalMs.observe(responses[i].totalMs);
        fulfill(batchScratch[i], std::move(responses[i]));
    }
}

void
ServingEngine::dispatchLoop()
{
    std::size_t seen_raises = 0;
    UniqueMutexLock lock(engineMu);
    for (;;) {
        // Explicit wait loop (not a wait(lock, pred) lambda): the
        // thread-safety analysis treats lambdas as separate functions
        // and would reject their guarded-member reads.
        while (!stopping && totalQueuedLocked() == 0) {
            wakeCv.wait(lock);
        }
        if (stopping) {
            break;
        }
        const double now = epoch.elapsedMs();
        const int floor = admission.update(totalQueuedLocked(), now);
        for (auto &entry : streams) {
            entry->robust->setLadderFloor(floor);
        }
        gLadderFloor.set(floor);
        if (admission.raises() > seen_raises) {
            mFloorRaises.add(admission.raises() - seen_raises);
            seen_raises = admission.raises();
        }

        shedStaleLocked(now);
        gQueueDepth.set(static_cast<std::int64_t>(totalQueuedLocked()));
        const std::size_t count = selectLocked(now);
        if (count == 0) {
            idleCv.notify_all();
            continue;
        }
        busy = true;
        lock.unlock();
        executeBatch(count);
        lock.lock();
        busy = false;
        gQueueDepth.set(static_cast<std::int64_t>(totalQueuedLocked()));
        idleCv.notify_all();
    }

    // Shutdown: every still-queued frame resolves as shed so no
    // future is ever broken.
    for (auto &entry : streams) {
        StreamState &s = *entry;
        while (!s.queue.empty()) {
            shedRequestLocked(s, s.queue.front(), ErrorCode::LoadShed,
                              "engine shut down before the frame was "
                              "served",
                              &StreamServeStats::shedShutdown);
            s.queue.pop_front();
        }
    }
    idleCv.notify_all();
}

std::vector<StreamReport>
ServingEngine::drain()
{
    UniqueMutexLock lock(engineMu);
    draining = true;
    wakeCv.notify_all();
    while (busy || totalQueuedLocked() > 0) {
        idleCv.wait(lock);
    }
    std::vector<StreamReport> out;
    out.reserve(streams.size());
    for (const auto &entry : streams) {
        out.push_back(reportLocked(*entry));
    }
    return out;
}

StreamReport
ServingEngine::reportLocked(const StreamState &stream) const
{
    StreamReport report;
    report.id = stream.id;
    report.serve = stream.serve;
    report.health = stream.robust->health();
    report.ladderLevel = stream.robust->ladderLevel();
    report.breakerTrips = stream.breaker.trips();
    return report;
}

StreamHealth
ServingEngine::streamHealth(StreamId stream) const
{
    MutexLock lock(engineMu);
    if (stream >= streams.size()) {
        panic("ServingEngine::streamHealth: unknown stream %u", stream);
    }
    return streams[stream]->robust->health();
}

StreamReport
ServingEngine::streamReport(StreamId stream) const
{
    MutexLock lock(engineMu);
    if (stream >= streams.size()) {
        panic("ServingEngine::streamReport: unknown stream %u", stream);
    }
    return reportLocked(*streams[stream]);
}

int
ServingEngine::ladderFloor() const
{
    MutexLock lock(engineMu);
    return admission.floor();
}

std::size_t
ServingEngine::queuedFrames() const
{
    MutexLock lock(engineMu);
    return totalQueuedLocked();
}

std::size_t
ServingEngine::streamCount() const
{
    MutexLock lock(engineMu);
    return streams.size();
}

} // namespace serve
} // namespace edgepc
