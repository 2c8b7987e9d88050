#include "src/api/engine.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/workload/suite.hh"

namespace mtv
{

namespace
{

/**
 * True on engine worker threads. runAll() from inside a worker task
 * would deadlock the pool (the task waits on tasks behind it in the
 * queue), so nested batches degrade to inline execution instead.
 */
thread_local bool insideWorker = false;

} // namespace

ExperimentEngine::ExperimentEngine(EngineOptions options)
{
    if (options.workers < 0)
        fatal("engine worker count must be >= 0, got %d",
              options.workers);
    memoize_ = options.memoize;
    kernel_ = options.kernel;
    backend_ = std::move(options.backend);
    maxCacheEntries_ = options.maxCacheEntries;
    canonicalSerializer_ = std::move(options.canonicalSerializer);
    workers_ = options.workers;
    if (workers_ == 0) {
        workers_ = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    }
    lanes_.emplace(defaultLane, Lane());
    laneOrder_.push_back(defaultLane);

    MetricsRegistry &reg = MetricsRegistry::instance();
    obsQueueDepth_ = reg.gauge("engine_queue_depth");
    obsLaneWaitUs_ = reg.histogram("engine_lane_wait_us");
    obsPointsCompleted_ = reg.counter("engine_points_completed_total");
    obsPointsSimulated_ = reg.counter("engine_points_simulated_total");
    obsCacheHits_ = reg.counter("engine_cache_hits_total");
    obsCacheMisses_ = reg.counter("engine_cache_misses_total");
    obsStoreHits_ = reg.counter("engine_store_hits_total");
    obsCacheEvictions_ = reg.counter("engine_cache_evictions_total");
    obsUncachedRuns_ = reg.counter("engine_uncached_runs_total");
    obsCancelledRuns_ = reg.counter("engine_cancelled_runs_total");
    obsDiscardedTasks_ = reg.counter("engine_discarded_tasks_total");

    pool_.reserve(workers_);
    for (int i = 0; i < workers_; ++i)
        pool_.emplace_back([this] { workerLoop(); });
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (auto &worker : pool_)
        worker.join();
}

void
ExperimentEngine::advanceLaneLocked()
{
    laneCursor_ = (laneCursor_ + 1) % laneOrder_.size();
    laneBudget_ = lanes_[laneOrder_[laneCursor_]].weight;
}

std::function<void()>
ExperimentEngine::popTaskLocked()
{
    // Weighted round-robin: drain up to `weight` tasks from the
    // cursor lane, then move on. Empty lanes cost one skip each;
    // queuedTasks_ > 0 guarantees the scan terminates.
    for (;;) {
        Lane &lane = lanes_[laneOrder_[laneCursor_]];
        if (lane.tasks.empty() || laneBudget_ <= 0) {
            advanceLaneLocked();
            continue;
        }
        std::function<void()> task = std::move(lane.tasks.front());
        lane.tasks.pop_front();
        --queuedTasks_;
        --laneBudget_;
        obsQueueDepth_->add(-1);
        return task;
    }
}

void
ExperimentEngine::workerLoop()
{
    insideWorker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || queuedTasks_ > 0;
            });
            if (queuedTasks_ == 0)
                return;  // stopping, queues drained
            task = popTaskLocked();
        }
        task();
    }
}

LaneId
ExperimentEngine::openLane(int weight)
{
    if (weight < 1)
        fatal("lane weight must be >= 1, got %d", weight);
    std::lock_guard<std::mutex> lock(queueMutex_);
    const LaneId id = nextLaneId_++;
    Lane lane;
    lane.weight = weight;
    lanes_.emplace(id, std::move(lane));
    laneOrder_.push_back(id);
    return id;
}

size_t
ExperimentEngine::closeLane(LaneId lane)
{
    if (lane == defaultLane)
        fatal("the default engine lane cannot be closed");
    std::deque<std::function<void()>> dropped;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        auto it = lanes_.find(lane);
        if (it == lanes_.end())
            return 0;
        dropped.swap(it->second.tasks);
        queuedTasks_ -= dropped.size();
        lanes_.erase(it);
        const auto pos =
            std::find(laneOrder_.begin(), laneOrder_.end(), lane);
        const size_t index = pos - laneOrder_.begin();
        laneOrder_.erase(pos);
        if (index < laneCursor_)
            --laneCursor_;
        laneCursor_ %= laneOrder_.size();  // never empty: lane 0 stays
        laneBudget_ = lanes_[laneOrder_[laneCursor_]].weight;
    }
    // Destroying the tasks outside the lock breaks their promises,
    // failing the corresponding futures.
    discardedTasks_.fetch_add(dropped.size());
    obsDiscardedTasks_->inc(dropped.size());
    obsQueueDepth_->add(-static_cast<int64_t>(dropped.size()));
    return dropped.size();
}

RunResult
ExperimentEngine::run(const RunSpec &spec)
{
    return execute(spec);
}

std::vector<RunResult>
ExperimentEngine::runAll(const std::vector<RunSpec> &specs)
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty())
        return results;

    if (insideWorker) {
        for (size_t i = 0; i < specs.size(); ++i)
            results[i] = execute(specs[i]);
        return results;
    }

    // Submission order is preserved by construction: task i writes
    // results[i], and each result is independent of scheduling (the
    // cache changes whether a run recomputes, never its value).
    // `remaining` is read and written only under doneMutex so the
    // waiter cannot observe 0 (and unwind the stack these locals live
    // on) while a worker still holds or is about to take the lock.
    size_t remaining = specs.size();
    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::exception_ptr firstError;
    const uint64_t enqueuedUs = monotonicMicros();
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        Lane &lane = lanes_[defaultLane];
        queuedTasks_ += specs.size();
        obsQueueDepth_->add(static_cast<int64_t>(specs.size()));
        for (size_t i = 0; i < specs.size(); ++i) {
            lane.tasks.emplace_back([this, &specs, &results,
                                     &remaining, &doneMutex, &doneCv,
                                     &firstError, enqueuedUs, i] {
                obsLaneWaitUs_->observe(
                    monotonicMicros() - enqueuedUs);
                // An exception (SimError from a wedged run, or a
                // thrown fatal()) must reach the batch caller, not
                // unwind the worker loop into std::terminate. Every
                // task still completes, so the batch locals stay
                // alive until the last one reports in.
                std::exception_ptr error;
                try {
                    results[i] = execute(specs[i]);
                } catch (...) {
                    error = std::current_exception();
                }
                std::lock_guard<std::mutex> doneLock(doneMutex);
                if (error && !firstError)
                    firstError = error;
                if (--remaining == 0)
                    doneCv.notify_all();
            });
        }
    }
    queueCv_.notify_all();

    std::unique_lock<std::mutex> lock(doneMutex);
    doneCv.wait(lock, [&remaining] { return remaining == 0; });
    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

std::future<RunResult>
ExperimentEngine::settleCached(RunSpec &spec, const SubmitHook &hook,
                               const CancelToken *token,
                               std::string *knownKey)
{
    // Completed-cache fast path: a memoized hit has no work left to
    // schedule, so settle the future on the calling thread and skip
    // the lane round-trip (queue mutex, worker wakeup, packaged
    // task) entirely — the hot result path of a warm sweep. Group
    // specs still dispatch: their reference terms may simulate.
    // A hit for an already-cancelled token also dispatches, so the
    // future fails with CancelledError exactly as before.
    if (!memoize_ || spec.maxInstructions != 0 ||
        spec.mode == SpecMode::Group || (token && token->cancelled())) {
        return {};
    }
    std::string key =
        knownKey ? std::move(*knownKey) : spec.canonical();
    CachedStats stats;
    std::shared_ptr<const std::string> blob;
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            it->second.lruPos = lru_.begin();
            cacheHits_.fetch_add(1);
            obsCacheHits_->inc();
            stats = it->second.stats;
            blob = it->second.blob;
        }
    }
    if (!stats) {
        if (knownKey)
            *knownKey = std::move(key);
        return {};
    }
    if (!blob && canonicalSerializer_) {
        // First streamed hit of this entry: memoize the canonical
        // bytes so every later hit is zero-copy. Serialized outside
        // the lock; a racing duplicate produces the same canonical
        // bytes, so last writer wins harmlessly.
        blob = std::make_shared<const std::string>(
            canonicalSerializer_(*stats));
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            it->second.blob = blob;
    }
    RunResult result;
    result.spec = std::move(spec);
    result.stats = *stats;
    result.cached = true;
    result.blob = std::move(blob);
    result.specCanonical = std::move(key);
    obsPointsCompleted_->inc();
    if (hook)
        hook(result);
    std::promise<RunResult> promise;
    std::future<RunResult> future = promise.get_future();
    promise.set_value(std::move(result));
    return future;
}

ExperimentEngine::QueuedTask
ExperimentEngine::packageTask(RunSpec spec, SubmitHook hook,
                              std::shared_ptr<CancelToken> token)
{
    return std::make_shared<std::packaged_task<RunResult()>>(
        [this, spec = std::move(spec), hook = std::move(hook),
         token = std::move(token)] {
            // The cooperative cancellation point: a task dequeued
            // after its batch was cancelled never simulates and never
            // writes through to the backend. A live batch wanting the
            // same spec runs it through its own (uncancelled) task.
            if (token && token->cancelled()) {
                cancelledRuns_.fetch_add(1);
                obsCancelledRuns_->inc();
                throw CancelledError("batch cancelled before '" +
                                     spec.canonical() + "' ran");
            }
            RunResult result = execute(spec, token.get());
            if (hook)
                hook(result);
            return result;
        });
}

void
ExperimentEngine::enqueue(LaneId laneId, QueuedTask *tasks, size_t count)
{
    if (count == 0)
        return;
    if (insideWorker) {
        for (size_t i = 0; i < count; ++i)
            (*tasks[i])();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        auto it = lanes_.find(laneId);
        if (it == lanes_.end()) {
            // The lane was closed (its tenant is gone): abandon the
            // tasks without queueing them. The caller drops the only
            // references, which breaks the promises and fails the
            // futures.
            discardedTasks_.fetch_add(count);
            obsDiscardedTasks_->inc(count);
            return;
        }
        const uint64_t enqueuedUs = monotonicMicros();
        for (size_t i = 0; i < count; ++i) {
            it->second.tasks.emplace_back(
                [this, task = std::move(tasks[i]), enqueuedUs] {
                    obsLaneWaitUs_->observe(monotonicMicros() -
                                            enqueuedUs);
                    (*task)();
                });
        }
        queuedTasks_ += count;
        obsQueueDepth_->add(static_cast<int64_t>(count));
    }
    // One wakeup for the lot: idle workers are woken once per run of
    // tasks, not once per task.
    if (count == 1)
        queueCv_.notify_one();
    else
        queueCv_.notify_all();
}

std::future<RunResult>
ExperimentEngine::submit(RunSpec spec, SubmitHook hook,
                         std::shared_ptr<CancelToken> token,
                         LaneId laneId)
{
    std::future<RunResult> settled =
        settleCached(spec, hook, token.get());
    if (settled.valid())
        return settled;
    QueuedTask task =
        packageTask(std::move(spec), std::move(hook), std::move(token));
    std::future<RunResult> future = task->get_future();
    enqueue(laneId, &task, 1);
    return future;
}

std::vector<std::future<RunResult>>
ExperimentEngine::submitAll(std::vector<RunSpec> &specs, size_t first,
                            size_t count, const SubmitHook &hook,
                            const std::shared_ptr<CancelToken> &token,
                            LaneId laneId,
                            std::vector<std::string> *keys)
{
    std::vector<std::future<RunResult>> futures;
    futures.reserve(count);
    std::vector<QueuedTask> tasks;
    for (size_t i = first; i < first + count; ++i) {
        std::future<RunResult> settled = settleCached(
            specs[i], hook, token.get(), keys ? &(*keys)[i] : nullptr);
        if (settled.valid()) {
            futures.push_back(std::move(settled));
            continue;
        }
        tasks.push_back(packageTask(std::move(specs[i]), hook, token));
        futures.push_back(tasks.back()->get_future());
    }
    enqueue(laneId, tasks.data(), tasks.size());
    return futures;
}

size_t
ExperimentEngine::discardQueued()
{
    std::vector<std::deque<std::function<void()>>> dropped;
    size_t count = 0;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        for (auto &lane : lanes_) {
            if (lane.second.tasks.empty())
                continue;
            count += lane.second.tasks.size();
            dropped.emplace_back(std::move(lane.second.tasks));
            lane.second.tasks.clear();
        }
        queuedTasks_ = 0;
    }
    // Destroying the packaged tasks outside the lock breaks their
    // promises, failing the corresponding futures.
    discardedTasks_.fetch_add(count);
    obsDiscardedTasks_->inc(count);
    obsQueueDepth_->add(-static_cast<int64_t>(count));
    return count;
}

SimStats
ExperimentEngine::simulate(const RunSpec &spec) const
{
    std::vector<std::unique_ptr<SyntheticProgram>> sources;
    std::vector<InstructionSource *> raw;
    sources.reserve(spec.programs.size());
    for (const auto &name : spec.programs) {
        sources.push_back(makeProgram(name, spec.scale));
        raw.push_back(sources.back().get());
    }

    VectorSim sim(spec.effectiveParams(), kernel_);
    switch (spec.mode) {
      case SpecMode::Single:
        return sim.runSingle(*raw[0], spec.maxInstructions);
      case SpecMode::Group:
        return sim.runGroup(raw);
      case SpecMode::JobQueue:
        return sim.runJobQueue(raw);
    }
    panic("bad SpecMode %d", static_cast<int>(spec.mode));
}

ExperimentEngine::CachedStats
ExperimentEngine::loadOrSimulate(
    const std::string &key, const RunSpec &spec, Origin *origin,
    std::shared_ptr<const std::string> *blobOut)
{
    if (backend_) {
        StoredRecord record = backend_->loadRecord(key);
        if (record.stats) {
            storeHits_.fetch_add(1);
            obsStoreHits_->inc();
            if (origin)
                *origin = Origin::Store;
            if (blobOut)
                *blobOut = std::move(record.blob);
            return std::move(record.stats);
        }
    }
    auto fresh = std::make_shared<SimStats>(simulate(spec));
    obsPointsSimulated_->inc();
    if (backend_)
        backend_->store(key, *fresh);
    if (origin)
        *origin = Origin::Simulated;
    return fresh;
}

void
ExperimentEngine::insertCompleted(const std::string &key,
                                  const CachedStats &stats)
{
    auto [it, inserted] = cache_.try_emplace(key);
    if (inserted) {
        lru_.push_front(&it->first);
    } else {
        // A re-insert replaces the entry and touches its LRU slot.
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    }
    it->second = CacheEntry{stats, lru_.begin(), nullptr};
    while (maxCacheEntries_ != 0 && cache_.size() > maxCacheEntries_) {
        // Find the victim before popping its list slot: the slot's
        // pointer is into the node being erased.
        const auto victim = cache_.find(*lru_.back());
        lru_.pop_back();
        cache_.erase(victim);
        cacheEvictions_.fetch_add(1);
        obsCacheEvictions_->inc();
    }
}

ExperimentEngine::CachedStats
ExperimentEngine::cachedStats(
    const RunSpec &spec, Origin *origin,
    std::shared_ptr<const std::string> *blobOut)
{
    // Truncated runs (the F_i terms of the speedup accounting) are
    // keyed by an exact dispatch count that is essentially unique per
    // group run — memoizing them would grow the memory cache without
    // paying off within one process, so they bypass it, as does
    // everything on a memoize=false engine. The backend still serves
    // and persists them: across daemon restarts the same F_i keys
    // *do* repeat, and they dominate a warm group sweep's cost.
    if (!memoize_ || spec.maxInstructions != 0) {
        uncachedRuns_.fetch_add(1);
        obsUncachedRuns_->inc();
        return loadOrSimulate(spec.canonical(), spec, origin,
                              blobOut);
    }

    const std::string key = spec.canonical();
    std::promise<CachedStats> promise;
    std::shared_future<CachedStats> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            // Completed entry: touch its LRU slot and serve it.
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            it->second.lruPos = lru_.begin();
            cacheHits_.fetch_add(1);
            obsCacheHits_->inc();
            if (origin)
                *origin = Origin::Cache;
            return it->second.stats;
        }
        auto pending = inflight_.find(key);
        if (pending != inflight_.end()) {
            // Coalesce onto the identical in-flight run.
            future = pending->second;
            cacheHits_.fetch_add(1);
            obsCacheHits_->inc();
        } else {
            future = promise.get_future().share();
            inflight_.emplace(key, future);
            owner = true;
            cacheMisses_.fetch_add(1);
            obsCacheMisses_->inc();
        }
    }
    if (!owner) {
        if (origin)
            *origin = Origin::Cache;
        return future.get();
    }

    CachedStats stats;
    try {
        stats = loadOrSimulate(key, spec, origin, blobOut);
    } catch (...) {
        // fatal() may throw (ScopedFatalAsException) from backend or
        // simulation code. Un-poison the key and hand the error to
        // every coalesced waiter, or this spec would hang the engine
        // for its lifetime.
        {
            std::lock_guard<std::mutex> lock(cacheMutex_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        insertCompleted(key, stats);
        inflight_.erase(key);
    }
    promise.set_value(stats);
    return stats;
}

const SimStats &
ExperimentEngine::statsFor(const RunSpec &spec)
{
    if (!memoize_)
        fatal("statsFor needs a memoizing engine (its reference "
              "points into the cache); use run() instead");
    if (maxCacheEntries_ != 0)
        fatal("statsFor needs an unbounded cache (entries evict "
              "under maxCacheEntries=%zu); use run() instead",
              maxCacheEntries_);
    if (spec.maxInstructions != 0)
        fatal("truncated runs are not cached (their dispatch-count "
              "keys never repeat); use run() instead");
    // The cache never evicts on this engine, so the referenced object
    // lives until clear() or destruction.
    return *cachedStats(spec, nullptr);
}

void
ExperimentEngine::clear()
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        cache_.clear();
        lru_.clear();
        // In-flight runs stay: their owners will re-insert on
        // completion, and coalesced waiters keep their futures.
    }
    {
        std::lock_guard<std::mutex> lock(groupMutex_);
        groupCache_.clear();
    }
    {
        std::lock_guard<std::mutex> lock(traceMutex_);
        traceCache_.clear();
    }
}

RunResult
ExperimentEngine::execute(const RunSpec &spec,
                          const CancelToken *token)
{
    RunResult result;
    result.spec = spec;
    Origin origin = Origin::Simulated;
    result.stats = *cachedStats(spec, &origin, &result.blob);
    result.cached = origin == Origin::Cache;
    result.fromStore = origin == Origin::Store;
    if (spec.mode == SpecMode::Group) {
        const GroupMetrics m =
            groupMetrics(spec, result.stats, token);
        result.speedup = m.speedup;
        result.mthOccupation = m.mthOccupation;
        result.refOccupation = m.refOccupation;
        result.mthVopc = m.mthVopc;
        result.refVopc = m.refVopc;
    }
    obsPointsCompleted_->inc();
    return result;
}

ExperimentEngine::GroupMetrics
ExperimentEngine::groupMetrics(const RunSpec &spec,
                               const SimStats &mth,
                               const CancelToken *token)
{
    if (!memoize_)
        return computeGroupMetrics(spec, mth, token);

    const std::string key = spec.canonical();
    for (;;) {
        std::promise<GroupMetrics> promise;
        std::shared_future<GroupMetrics> future;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(groupMutex_);
            auto it = groupCache_.find(key);
            if (it == groupCache_.end()) {
                future = promise.get_future().share();
                // Capped engines bound this cache too (coarse flush:
                // entries are tiny and recomputing is
                // safe/deterministic, so LRU bookkeeping isn't worth
                // it here).
                if (maxCacheEntries_ != 0 &&
                    groupCache_.size() >= maxCacheEntries_) {
                    groupCache_.clear();
                }
                groupCache_.emplace(key, future);
                owner = true;
            } else {
                future = it->second;
            }
        }
        if (owner) {
            try {
                promise.set_value(
                    computeGroupMetrics(spec, mth, token));
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(groupMutex_);
                    groupCache_.erase(key);
                }
                promise.set_exception(std::current_exception());
                throw;
            }
            return future.get();
        }
        try {
            return future.get();
        } catch (const CancelledError &) {
            // The owner's batch was cancelled mid-accounting, but
            // OURS was not: the in-flight entry was erased above, so
            // retry — this waiter becomes the new owner and finishes
            // the work (the spec stays alive while any live batch
            // wants it).
            if (token && token->cancelled())
                throw;
        }
    }
}

ExperimentEngine::GroupMetrics
ExperimentEngine::computeGroupMetrics(const RunSpec &spec,
                                      const SimStats &mth,
                                      const CancelToken *token)
{
    const uint64_t t = mth.cycles;
    MTV_ASSERT(mth.threads.size() == spec.programs.size());

    // Section 4.1: the reference machine's time for the same amount
    // of work — thread 0's single run C_0, plus each companion's full
    // runs r_i * C_i and fractional run F_i (measured in dispatched
    // instructions, re-simulated truncated on the reference machine).
    double refWork = 0;
    uint64_t refCycles = 0;
    uint64_t refRequests = 0;
    uint64_t refOps = 0;
    for (size_t i = 0; i < spec.programs.size(); ++i) {
        // The second cooperative cancellation point: a cancelled
        // group run stops paying for further reference terms.
        if (token && token->cancelled())
            throw CancelledError(
                "batch cancelled between reference runs of '" +
                spec.canonical() + "'");
        // References derive from the *effective* machine: the spec's
        // extension axes are folded into the reference point too, so
        // a multi-port or renaming sweep is compared against the
        // single-context machine with the same extension.
        const CachedStats full = cachedStats(
            RunSpec::reference(spec.programs[i], spec.effectiveParams(),
                               spec.scale),
            nullptr);
        if (i == 0) {
            refWork += static_cast<double>(full->cycles);
        } else {
            const ThreadStats &ts = mth.threads[i];
            refWork += static_cast<double>(ts.runsCompleted) *
                       static_cast<double>(full->cycles);
            if (ts.instructionsThisRun > 0) {
                const CachedStats frac = cachedStats(
                    RunSpec::reference(spec.programs[i],
                                       spec.effectiveParams(),
                                       spec.scale,
                                       ts.instructionsThisRun),
                    nullptr);
                refWork += static_cast<double>(frac->cycles);
            }
        }
        refCycles += full->cycles;
        refRequests += full->memRequests;
        refOps += full->vecOpsFu1 + full->vecOpsFu2;
    }

    GroupMetrics m;
    m.speedup = t ? refWork / static_cast<double>(t) : 0.0;

    // Occupation / VOPC comparison: the tuple run sequentially (once
    // each) on the reference machine.
    m.mthOccupation = mth.memPortOccupation();
    m.mthVopc = mth.vopc();
    m.refOccupation =
        refCycles ? static_cast<double>(refRequests) / refCycles : 0.0;
    m.refVopc =
        refCycles ? static_cast<double>(refOps) / refCycles : 0.0;
    return m;
}

uint64_t
ExperimentEngine::sequentialReferenceCycles(
    const std::vector<std::string> &jobs, const MachineParams &params,
    double scale)
{
    std::vector<RunSpec> specs;
    specs.reserve(jobs.size());
    for (const auto &job : jobs)
        specs.push_back(RunSpec::reference(job, params, scale));
    uint64_t total = 0;
    for (const auto &result : runAll(specs))
        total += result.stats.cycles;
    return total;
}

const TraceStats &
ExperimentEngine::programStats(const std::string &program, double scale)
{
    if (maxCacheEntries_ != 0)
        fatal("programStats needs an unbounded cache (its reference "
              "points into the flushed-on-overflow trace cache)");
    const std::string key =
        format("%s|%.17g", findProgram(program).name.c_str(), scale);
    std::promise<std::shared_ptr<const TraceStats>> promise;
    std::shared_future<std::shared_ptr<const TraceStats>> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(traceMutex_);
        auto it = traceCache_.find(key);
        if (it == traceCache_.end()) {
            // No size bound needed: the entry guard above rejects
            // capped engines (returned references point in here).
            future = promise.get_future().share();
            traceCache_.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        try {
            auto source = makeProgram(program, scale);
            promise.set_value(
                std::make_shared<TraceStats>(analyzeSource(*source)));
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(traceMutex_);
                traceCache_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return *future.get();
}

IdealBound
ExperimentEngine::idealTime(const std::vector<std::string> &jobs,
                            double scale, int decodeWidth)
{
    TraceStats total;
    for (const auto &job : jobs)
        total += programStats(job, scale);
    return idealBound(total, decodeWidth);
}

size_t
ExperimentEngine::cacheSize() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.size();
}

size_t
ExperimentEngine::queueDepth() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return queuedTasks_;
}

std::vector<std::pair<LaneId, size_t>>
ExperimentEngine::laneDepths() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    std::vector<std::pair<LaneId, size_t>> depths;
    depths.reserve(laneOrder_.size());
    for (LaneId id : laneOrder_)
        depths.emplace_back(id, lanes_.at(id).tasks.size());
    return depths;
}

} // namespace mtv
