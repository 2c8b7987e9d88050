/**
 * @file
 * ExperimentEngine: executes RunSpecs across a pool of worker
 * threads, one VectorSim per in-flight spec, with a thread-safe
 * memoized result cache shared by every batch and an optional
 * persistent ResultBackend behind it.
 *
 * Design notes:
 *  - Results come back in submission order, and every result is
 *    bit-identical regardless of worker count: each spec's simulation
 *    is self-contained (the simulator and workload generator are
 *    deterministic), and the cache/backend only change *whether* a
 *    run is recomputed, never its outcome.
 *  - Lookups go memory cache -> in-flight map -> backend -> simulate.
 *    The in-flight map keys pending runs by RunSpec::canonical()
 *    through a shared_future, so N concurrent requests for the same
 *    spec (N daemon clients, or the memoized reference runs of the
 *    section 4.1 accounting) cost one simulation — the rest wait on
 *    the first.
 *  - A backend (EngineOptions::backend, e.g. the disk-backed
 *    ResultStore) is consulted on every memory miss and written
 *    through on every completed simulation, so results persist
 *    across processes and warm-start later engines.
 *  - Group-mode specs embed the paper's full speedup methodology:
 *    the multithreaded run plus the C_i / F_i reference terms, all
 *    served through the cache.
 *  - By default cache entries are never evicted and references
 *    returned by statsFor()/programStats() stay valid for the
 *    engine's lifetime. Long-lived daemons bound the cache with
 *    EngineOptions::maxCacheEntries (LRU eviction; statsFor() is
 *    unavailable there) and/or clear() it wholesale.
 *  - Multi-tenant scheduling: the queue is not one global FIFO but a
 *    set of lanes (openLane()/closeLane(), one per daemon connection;
 *    lane 0 serves runAll() and plain submit()) drained by weighted
 *    round-robin, so one tenant's 10k-point sweep cannot
 *    head-of-line-block another's interactive run.
 *  - Every spec is one task on every kernel. EngineOptions::kernel
 *    only picks how that task simulates; SimKernel::Batched runs it
 *    through the per-point fast lane (src/core/batch_kernel.hh).
 *  - Request lifecycle: submit() takes an optional CancelToken.
 *    Cancellation is cooperative — checked when a worker dequeues the
 *    task and between the reference-term runs of the group
 *    accounting; a task already simulating finishes normally (and its
 *    result is cached/persisted: in-flight dedup keeps a spec alive
 *    while any non-cancelled batch wants it). A cancelled task never
 *    simulates and never writes through to the backend; its future
 *    fails with CancelledError.
 */

#ifndef MTV_API_ENGINE_HH
#define MTV_API_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <stdexcept>

#include "src/api/backend.hh"
#include "src/api/run_spec.hh"
#include "src/core/sim.hh"
#include "src/obs/metrics.hh"
#include "src/trace/analyzer.hh"

namespace mtv
{

/**
 * Cooperative cancellation flag shared by one batch's submit() calls.
 * cancel() is sticky, thread-safe and callable from any thread (the
 * daemon cancels from another client's connection, or from the write
 * path the moment a peer vanishes); workers observe it before
 * simulating and between the group accounting's reference runs.
 */
class CancelToken
{
  public:
    /** Request cancellation; idempotent. */
    void cancel() noexcept { cancelled_.store(true); }

    /** True once cancel() was called. */
    bool cancelled() const noexcept { return cancelled_.load(); }

  private:
    std::atomic<bool> cancelled_{false};
};

/** What the future of a cancelled submit() fails with. */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Identifies one scheduling lane (sub-queue) of the engine. Lane 0
 * always exists and serves runAll() and lane-less submit() calls;
 * further lanes come from openLane().
 */
using LaneId = uint64_t;

/** Tuning knobs for an ExperimentEngine. */
struct EngineOptions
{
    EngineOptions() = default;
    /** Shorthand for "just set the worker count". */
    EngineOptions(int workers) : workers(workers) {}

    /** Worker threads; 0 = one per hardware thread (min 1). */
    int workers = 0;
    /**
     * Which simulation kernel executes the specs. The batched fast
     * lane (the default) and the cycle-stepped reference produce
     * bit-identical SimStats (guarded by tests/test_golden.cc,
     * tests/test_kernel_diff.cc and the CI kernel-parity job), so this
     * knob exists purely for A/B validation and speed measurement; it
     * is deliberately *not* part of RunSpec keys — results from any
     * kernel are interchangeable in the cache and the result store.
     */
    SimKernel kernel = SimKernel::Batched;
    /**
     * Memoize finished runs in the shared cache (the default).
     * Disable for throughput benchmarking, where a cache hit would
     * measure a lookup instead of a simulation.
     */
    bool memoize = true;
    /**
     * Optional persistent result store consulted on memory-cache
     * misses and written through on every simulation (including the
     * truncated F_i reference runs the memory cache skips). Shared:
     * several engines may point at the same backend object.
     */
    std::shared_ptr<ResultBackend> backend;
    /**
     * Upper bound on completed entries in the memory cache
     * (0 = unbounded, the default). When set, the least recently
     * used result entry is evicted on overflow — pair with a backend
     * so evicted results stay a disk read away — the group-metric
     * and trace-stat side caches are flushed wholesale at the same
     * bound, and statsFor()/programStats() are unavailable (their
     * references could dangle).
     */
    size_t maxCacheEntries = 0;
    /**
     * Optional canonical stats serializer (serializeSimStats). When
     * set, a memo-cache hit served by the submit() fast path memoizes
     * the run's canonical wire bytes alongside its stats: the first
     * hit pays the encode, every later hit hands the same shared
     * bytes out through RunResult::blob — the in-process analogue of
     * a backend hit's verbatim stored record. A std::function rather
     * than a direct call because the store layer owns the canonical
     * codec and links against the api, not the other way around.
     */
    std::function<std::string(const SimStats &)> canonicalSerializer;
};

/** One executed RunSpec. */
struct RunResult
{
    RunSpec spec;
    /** The run itself (the multithreaded run for group mode). */
    SimStats stats;
    /** True when the spec's own run was served from the memory cache
     *  (or coalesced onto an identical in-flight run). */
    bool cached = false;
    /** True when the spec's own run was served from the backend. */
    bool fromStore = false;
    /**
     * The canonical serializeSimStats() bytes of stats, when they
     * came for free: a backend hit hands the stored record's bytes
     * through verbatim (see ResultBackend::loadRecord()), and a
     * memo-cache hit served by the submit() fast path hands out the
     * entry's memoized bytes (EngineOptions::canonicalSerializer).
     * Null when the point was simulated, or cache-served on a path
     * that does not memoize bytes — callers serialize on demand
     * then. When set, the bytes are guaranteed equal to
     * serializeSimStats(stats) (the encoding is canonical).
     */
    std::shared_ptr<const std::string> blob;
    /**
     * spec.canonical(), when a producer already had it in hand: the
     * submit() fast path reuses its cache-lookup key, and the wire
     * decoders keep the received spec string. Empty otherwise.
     * Encoders use it to skip recanonicalizing on the hot result
     * path; when set it is guaranteed equal to spec.canonical().
     */
    std::string specCanonical;

    // ----- group-mode extras (zeros for single/job-queue specs) -----
    double speedup = 0;       ///< section 4.1 reference-work formula
    double mthOccupation = 0; ///< memory-port occupation, mth machine
    double refOccupation = 0; ///< tuple run sequentially on reference
    double mthVopc = 0;       ///< vector ops/cycle, mth machine
    double refVopc = 0;       ///< tuple VOPC on the reference machine
};

/** Parallel experiment executor with a shared memoized result cache. */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(EngineOptions options = {});
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /** Execute one spec on the calling thread (cache-served). */
    RunResult run(const RunSpec &spec);

    /**
     * Execute a batch across the worker pool. Results are returned in
     * submission order and are identical to running each spec alone.
     */
    std::vector<RunResult> runAll(const std::vector<RunSpec> &specs);

    /**
     * Progress hook of the streaming submit(): invoked once per
     * submitted spec, on the thread that completed it (a pool worker,
     * or the submitting thread itself when a memo-cache hit settles
     * inline), right before the future becomes ready. Hooks must be cheap and must
     * not throw (an error would unwind the worker loop) — they exist
     * so a caller juggling many in-flight batches (the mtvd sweep
     * protocol) can count completions without blocking on futures.
     * When the spec itself fails, the hook is skipped and the error
     * surfaces through the future.
     */
    using SubmitHook = std::function<void(const RunResult &)>;

    /** The always-present lane runAll() and plain submit() use. */
    static constexpr LaneId defaultLane = 0;

    /**
     * Enqueue one spec on the worker pool and return a future for its
     * result — the streaming form of runAll(): submit a batch spec by
     * spec, then get() the futures in submission order to consume
     * results as they finish. Safe from any thread; on a worker
     * thread the spec executes inline (a queued task waiting on
     * queued tasks would deadlock the pool). An optional @p hook is
     * called on completion (see SubmitHook).
     *
     * @p token, when given, makes the task cancellable: a worker that
     * dequeues it after cancel() skips the simulation (and the
     * backend write-through) entirely and fails the future with
     * CancelledError; group-mode tasks also poll the token between
     * reference-term runs. @p lane routes the task to a scheduling
     * lane from openLane(); submitting to a lane that was already
     * closed abandons the task (broken_promise), since a closed lane
     * means its tenant is gone. @p spec is taken by value and moved
     * into the task, so a caller done with its spec can move it in
     * and a queued point holds exactly one copy.
     */
    std::future<RunResult> submit(
        RunSpec spec, SubmitHook hook = nullptr,
        std::shared_ptr<CancelToken> token = nullptr,
        LaneId lane = defaultLane);

    /**
     * submit() for the run specs[first, first + count), each moved
     * into its task, with one shared @p hook, @p token and @p lane.
     * The lane is locked once and idle workers are woken once for the
     * whole run, not once per point — the refill of a streaming
     * window. @p keys, when given, holds specs[i].canonical() at the
     * same positions, so a cache hit moves its key into the result
     * instead of building it again. Returns the futures in order.
     */
    std::vector<std::future<RunResult>> submitAll(
        std::vector<RunSpec> &specs, size_t first, size_t count,
        const SubmitHook &hook,
        const std::shared_ptr<CancelToken> &token, LaneId lane,
        std::vector<std::string> *keys = nullptr);

    /**
     * Add a scheduling lane with round-robin weight @p weight (>= 1:
     * tasks the lane may dequeue per rotation). One per tenant —
     * the daemon opens one per client connection.
     */
    LaneId openLane(int weight = 1);

    /**
     * Remove @p lane, dropping its queued tasks (their futures fail
     * with broken_promise; tasks already executing finish normally)
     * and counting them as discarded. Later submits to the id are
     * abandoned. Returns the number of tasks dropped. The default
     * lane cannot be closed.
     */
    size_t closeLane(LaneId lane);

    /**
     * Drop every task still waiting in any lane; tasks already
     * executing finish normally. Futures of dropped submit() calls
     * fail with std::future_error (broken_promise). For bounding
     * daemon shutdown: never call with a runAll() batch in flight —
     * its queued tasks reference the batch caller's stack and must
     * all run. Returns the number of tasks dropped.
     */
    size_t discardQueued();

    /**
     * Cached SimStats of @p spec's own run (no group accounting),
     * computed on the calling thread on a miss. The reference points
     * into the never-evicting cache and stays valid until clear() or
     * the engine's destruction. fatal()s on a memoize=false engine, a
     * cache-capped engine (entries evict, so there is nothing stable
     * to point into) or a truncated spec — use run() there.
     */
    const SimStats &statsFor(const RunSpec &spec);

    /**
     * Σ C_i of the speedup/job-queue methodology: the job list run
     * sequentially (once each) on the reference machine derived from
     * @p params. Parallelized over the pool and cached per program.
     */
    uint64_t sequentialReferenceCycles(
        const std::vector<std::string> &jobs,
        const MachineParams &params,
        double scale = workloadDefaultScale);

    /** Aggregate Table 3-style statistics of a program; memoized. */
    const TraceStats &programStats(const std::string &program,
                                   double scale = workloadDefaultScale);

    /** Paper's IDEAL bound for the combined work of @p jobs. */
    IdealBound idealTime(const std::vector<std::string> &jobs,
                         double scale = workloadDefaultScale,
                         int decodeWidth = 1);

    /**
     * Drop every completed memory-cache entry (result, group-metric
     * and trace-stat caches alike); in-flight runs are unaffected and
     * the backend keeps its copies. References previously returned by
     * statsFor()/programStats() are invalidated. For long-lived
     * daemons between batches.
     */
    void clear();

    /** Worker threads serving runAll(). */
    int workers() const { return workers_; }

    /** Completed runs held by the memory cache. */
    size_t cacheSize() const;

    /** Tasks waiting in the lanes right now (none executing yet). */
    size_t queueDepth() const;

    /**
     * Per-lane queued-task counts, in round-robin order (lane 0
     * first). For the daemon's `status` op; a snapshot, racing
     * submits/dequeues may change it immediately.
     */
    std::vector<std::pair<LaneId, size_t>> laneDepths() const;

    /** Tasks whose batch was cancelled before they ran: dequeued (or
     *  submitted) with a cancelled token and skipped without
     *  simulating or touching the backend. */
    uint64_t cancelledRuns() const { return cancelledRuns_.load(); }

    /** Queued tasks dropped by closeLane()/discardQueued() — work
     *  abandoned before a worker ever saw it. */
    uint64_t discardedTasks() const { return discardedTasks_.load(); }

    /** Entry cap of the memory cache (0 = unbounded). */
    size_t maxCacheEntries() const { return maxCacheEntries_; }

    /** Simulation kernel executing this engine's specs. */
    SimKernel kernel() const { return kernel_; }

    /** The persistent backend, when one is attached. */
    const std::shared_ptr<ResultBackend> &backend() const
    {
        return backend_;
    }

    /** Lookups served by the memory cache or an in-flight run. */
    uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Cacheable lookups that missed the memory cache. */
    uint64_t cacheMisses() const { return cacheMisses_.load(); }

    /** Lookups (of any kind) served by the backend. */
    uint64_t storeHits() const { return storeHits_.load(); }

    /** Completed entries evicted to honor maxCacheEntries. */
    uint64_t cacheEvictions() const { return cacheEvictions_.load(); }

    /**
     * Runs that bypass the memory cache by design (truncated F_i
     * specs, or everything on a memoize=false engine) — counted
     * apart so the hit/miss ratio reflects only cacheable lookups.
     * The backend still serves/persists them.
     */
    uint64_t uncachedRuns() const { return uncachedRuns_.load(); }

  private:
    using CachedStats = std::shared_ptr<const SimStats>;

    /** Where a lookup was ultimately served from. */
    enum class Origin : uint8_t
    {
        Simulated,  ///< freshly simulated
        Cache,      ///< memory cache or coalesced in-flight run
        Store       ///< persistent backend
    };

    /** A completed cache entry and its LRU position. */
    struct CacheEntry
    {
        CachedStats stats;
        std::list<const std::string *>::iterator lruPos;
        /** Canonical serializeSimStats() bytes of stats, memoized by
         *  the submit() fast path on first streamed hit (null until
         *  then, or when no canonicalSerializer is configured). */
        std::shared_ptr<const std::string> blob;
    };

    /** The section 4.1 accounting of one group run. */
    struct GroupMetrics
    {
        double speedup = 0;
        double mthOccupation = 0;
        double refOccupation = 0;
        double mthVopc = 0;
        double refVopc = 0;
    };

    /** One scheduling lane: a FIFO of tasks plus its WRR weight. */
    struct Lane
    {
        std::deque<std::function<void()>> tasks;
        int weight = 1;
    };

    /** Run @p spec's simulation (no cache, no group accounting). */
    SimStats simulate(const RunSpec &spec) const;

    /**
     * Cache/backend-served stats for @p spec; sets @p origin when
     * non-null. The returned pointer keeps the result alive
     * independent of cache eviction or clear(). @p blobOut, when
     * non-null, receives the backend record's canonical bytes on a
     * direct store hit (RunResult::blob) and is left untouched
     * otherwise.
     */
    CachedStats cachedStats(
        const RunSpec &spec, Origin *origin,
        std::shared_ptr<const std::string> *blobOut = nullptr);

    /** Backend lookup (when attached) falling back to simulation +
     *  write-through; no memory-cache involvement. */
    CachedStats loadOrSimulate(
        const std::string &key, const RunSpec &spec, Origin *origin,
        std::shared_ptr<const std::string> *blobOut = nullptr);

    /** Insert a completed run, evicting LRU entries over the cap.
     *  Caller holds cacheMutex_. */
    void insertCompleted(const std::string &key,
                         const CachedStats &stats);

    /** Full execution incl. group accounting, on the calling thread.
     *  @p token (may be null) is polled between reference runs. */
    RunResult execute(const RunSpec &spec,
                      const CancelToken *token = nullptr);

    /**
     * Section 4.1 metrics of a group-mode run, memoized per spec so
     * a cache hit on the group stats does not re-pay the truncated
     * F_i reference simulations.
     */
    GroupMetrics groupMetrics(const RunSpec &spec, const SimStats &mth,
                              const CancelToken *token);

    /** Compute the metrics (reference runs via the stats cache). */
    GroupMetrics computeGroupMetrics(const RunSpec &spec,
                                     const SimStats &mth,
                                     const CancelToken *token);

    /** submit()'s completed-cache fast path: a memoized hit settles
     *  on the calling thread (the spec, and @p key when the caller
     *  already built spec.canonical(), move into the result); an
     *  invalid future, spec untouched, when the point must queue. */
    std::future<RunResult> settleCached(RunSpec &spec,
                                        const SubmitHook &hook,
                                        const CancelToken *token,
                                        std::string *key = nullptr);

    /** One queued point: spec, hook and token in a task that honours
     *  cancellation at dequeue. */
    using QueuedTask = std::shared_ptr<std::packaged_task<RunResult()>>;
    QueuedTask packageTask(RunSpec spec, SubmitHook hook,
                           std::shared_ptr<CancelToken> token);

    /** Queue the @p count @p tasks on @p lane under one lock and wake
     *  the workers once; runs them inline on a worker thread. On a
     *  closed lane they are counted as discarded and left to the
     *  caller, whose dropped references fail their futures. */
    void enqueue(LaneId lane, QueuedTask *tasks, size_t count);

    void workerLoop();

    /** Pop the next task in weighted round-robin lane order. Caller
     *  holds queueMutex_ and has checked queuedTasks_ > 0. */
    std::function<void()> popTaskLocked();

    /** Move the WRR cursor to the next lane and refill its budget.
     *  Caller holds queueMutex_. */
    void advanceLaneLocked();

    int workers_ = 1;
    bool memoize_ = true;
    SimKernel kernel_ = SimKernel::Batched;
    std::shared_ptr<ResultBackend> backend_;
    size_t maxCacheEntries_ = 0;
    /** EngineOptions::canonicalSerializer (may be empty). */
    std::function<std::string(const SimStats &)> canonicalSerializer_;
    std::vector<std::thread> pool_;
    /** Scheduling lanes by id; lanes_[defaultLane] always exists. */
    std::unordered_map<LaneId, Lane> lanes_;
    /** Lane rotation order for the WRR scan. */
    std::vector<LaneId> laneOrder_;
    /** Index into laneOrder_ of the lane currently being drained. */
    size_t laneCursor_ = 0;
    /** Tasks the cursor lane may still dequeue this rotation. */
    int laneBudget_ = 1;
    /** Tasks waiting across all lanes (workers wait on this). */
    size_t queuedTasks_ = 0;
    LaneId nextLaneId_ = 1;
    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    bool stopping_ = false;
    std::atomic<uint64_t> cancelledRuns_{0};
    std::atomic<uint64_t> discardedTasks_{0};

    mutable std::mutex cacheMutex_;
    /** Completed runs; bounded by maxCacheEntries_ when set. */
    std::unordered_map<std::string, CacheEntry> cache_;
    /** LRU order of cache_ entries, each pointing at its node's own
     *  key (map nodes never move, so the key is stored once);
     *  front = most recently used. */
    std::list<const std::string *> lru_;
    /** Pending runs, for coalescing concurrent identical requests. */
    std::unordered_map<std::string, std::shared_future<CachedStats>>
        inflight_;
    std::atomic<uint64_t> cacheHits_{0};
    std::atomic<uint64_t> cacheMisses_{0};
    std::atomic<uint64_t> storeHits_{0};
    std::atomic<uint64_t> cacheEvictions_{0};
    std::atomic<uint64_t> uncachedRuns_{0};

    std::mutex groupMutex_;
    std::unordered_map<std::string, std::shared_future<GroupMetrics>>
        groupCache_;

    std::mutex traceMutex_;
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<
                           const TraceStats>>>
        traceCache_;

    // Process-wide observability handles (src/obs/metrics.hh).
    // Get-or-create by name, so every engine in the process feeds the
    // same series and the exported totals aggregate naturally; the
    // per-engine accessors above stay the per-instance view.
    Gauge *obsQueueDepth_ = nullptr;
    Histogram *obsLaneWaitUs_ = nullptr;
    Counter *obsPointsCompleted_ = nullptr;
    Counter *obsPointsSimulated_ = nullptr;
    Counter *obsCacheHits_ = nullptr;
    Counter *obsCacheMisses_ = nullptr;
    Counter *obsStoreHits_ = nullptr;
    Counter *obsCacheEvictions_ = nullptr;
    Counter *obsUncachedRuns_ = nullptr;
    Counter *obsCancelledRuns_ = nullptr;
    Counter *obsDiscardedTasks_ = nullptr;
};

} // namespace mtv

#endif // MTV_API_ENGINE_HH
