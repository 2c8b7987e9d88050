/**
 * @file
 * MtvService: the engine room of the `mtvd` daemon. Owns one
 * ExperimentEngine (optionally backed by a persistent, sharded
 * ResultStore) and serves the engine ops of src/service/protocol.hh
 * through a ConnectionCore (src/service/connection_core.hh), which
 * owns the listeners, connection threads, read loop, write funnel and
 * request envelope.
 *
 * Per connection the service keeps an engine scheduling lane
 * (weighted round-robin across lanes — no client can
 * head-of-line-block another), the cancel tokens of its batches, and
 * its batch slots: each batch request ("run", "sweep", "compare")
 * streams from its own thread, at most
 * maxInflightRequestsPerConnection at once — the read loop stops
 * consuming requests until a slot frees, which is the protocol's
 * backpressure — and each batch keeps at most streamWindowPoints
 * points submitted ahead of its write cursor, so a slow reader holds
 * back its own batch, not daemon memory. All clients share the
 * engine's memory cache, in-flight coalescing map and store.
 *
 * Every batch's CancelToken is registered service-wide, so a "cancel"
 * op from any connection can hit it by request id. The moment a
 * connection's peer vanishes — its first write fails or its socket
 * closes — the service reaps the connection: all its tokens are
 * cancelled and its lane's queued engine work is dropped, so
 * abandoned sweeps free their worker slots instead of simulating for
 * nobody.
 */

#ifndef MTV_SERVICE_SERVER_HH
#define MTV_SERVICE_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/service/connection_core.hh"
#include "src/service/protocol.hh"
#include "src/store/result_store.hh"

namespace mtv
{

class HashRing;

/** Configuration of one MtvService instance: where it listens
 *  (ListenOptions) plus its engine and store. */
struct ServiceOptions : ListenOptions
{
    /**
     * Result-store directory backing the engine; empty = in-memory
     * only (results die with the daemon).
     */
    std::string storeDir;
    /** Shard count for a *fresh* store (0 = defaultStoreShards);
     *  an existing store keeps its own count. */
    int storeShards = 0;
    /** Engine worker threads; 0 = one per hardware thread. */
    int workers = 0;
    /** Engine memory-cache entry cap; 0 = unbounded. */
    size_t maxCacheEntries = 0;
    /** Simulation kernel the engine runs (mtvd --kernel; the batched
     *  fast lane by default). Both produce bit-identical results. */
    SimKernel kernel = SimKernel::Batched;
};

/** The mtvd daemon core (socket server around an engine + store). */
class MtvService
{
  public:
    /**
     * Open the store (when configured), build the engine, bind and
     * listen. fatal()s on an unusable socket path or store, or when
     * another live daemon already serves the socket.
     */
    explicit MtvService(ServiceOptions options);

    MtvService(const MtvService &) = delete;
    MtvService &operator=(const MtvService &) = delete;

    /**
     * Accept and serve clients until stop() (or a client's shutdown
     * request). Blocks; run it on the main thread (mtvd) or a
     * dedicated one (tests).
     */
    void serve() { core_->serve(); }

    /**
     * Ask serve() to return: stops accepting, shuts down client
     * connections, joins their threads. Safe from any thread and
     * from signal context (the heavy lifting happens on the serve()
     * thread).
     */
    void stop() { core_->stop(); }

    /** The engine all connections share. */
    ExperimentEngine &engine() { return *engine_; }

    /** The store backing the engine (null when storeDir was empty). */
    const std::shared_ptr<ResultStore> &store() const { return store_; }

    /** Path the daemon is listening on. */
    const std::string &socketPath() const { return core_->socketPath(); }

    /** Bound TCP port (the kernel's choice for an ephemeral bind),
     *  or 0 when no TCP listener was configured. */
    int tcpPort() const { return core_->tcpPort(); }

    /** Batch requests currently streaming, across all connections. */
    uint64_t activeRequests() const { return activeRequests_.load(); }

    /** Points completed by batch requests over the daemon's life
     *  (fed by the engine's submit() progress hooks). */
    uint64_t completedPoints() const
    {
        return completedPoints_.load();
    }

    /** Batches cancelled by a client's "cancel" op. */
    uint64_t cancelledBatches() const
    {
        return cancelledBatches_.load();
    }

    /** Batches reaped because their connection's peer vanished. */
    uint64_t reapedBatches() const { return reapedBatches_.load(); }

    /** Points submitted to the engine whose frame has not been
     *  written yet, across all batches (each batch holds at most
     *  streamWindowPoints). */
    uint64_t pointsInFlight() const { return pointsInFlight_.load(); }

    /** Points of batches that ended early (cancelled, reaped or
     *  aborted) before they were ever submitted to the engine. */
    uint64_t unsubmittedPoints() const
    {
        return unsubmittedPoints_.load();
    }

  private:
    /** Per-connection state shared by the read loop and the
     *  request-streaming threads (defined in server.cc). */
    struct ClientState;
    static ClientState &stateOf(Connection &conn);

    /** One in-flight batch in the service-wide registry ("cancel"
     *  targets and "status" per-connection accounting). */
    struct BatchInfo
    {
        uint64_t clientId = 0;
        uint64_t requestId = 0;
        std::shared_ptr<CancelToken> token;
    };

    /**
     * A "compare" op riding the batch machinery: the expansion's
     * slice map, kept so the streaming thread can fold the results
     * through compareDesigns() and answer one aggregated line
     * instead of a result stream.
     */
    struct CompareJob
    {
        std::string family;
        std::string baseline;  ///< slice 0's label
        std::vector<SweepSlice> slices;
    };

    /**
     * What a batch streams, and under which seq. Its points come from
     * @c source by index, each spec built as the window refills. By
     * default every point of the source, seq = its index. With
     * @c subset the points source[seqs[k]] (seq = the global index).
     * With @c ring the share of the source the ring assigns node
     * @c self, picked as the window refills; seq is the global index.
     */
    struct BatchPoints
    {
        SweepBuilder source;
        bool subset = false;
        std::vector<uint64_t> seqs;
        std::shared_ptr<const HashRing> ring;
        size_t self = 0;
    };

    /** The engine ops, for the ConnectionCore. */
    ConnectionCore::Service coreService();
    /** Validate a "run" batch and start its streaming thread. */
    bool handleRun(const Json &request, ClientState &client);
    /** Expand a "sweep" request server-side (indexed: no spec is
     *  built yet), ack it from its count and slices, and start its
     *  streaming thread. */
    bool handleSweep(const Json &request, ClientState &client);
    /** Expand a "compare" request, check the family is design-
     *  parallel, and start its streaming thread in compare mode. */
    bool handleCompare(const Json &request, ClientState &client);
    /** Admit the validated batch @p points: register its cancel
     *  token and start its streaming thread (the caller holds a
     *  slot). @p sweep tags the op's latency series; @p admittedUs is
     *  the request's arrival timestamp (monotonicMicros()). A
     *  non-null @p compare switches the stream to the one-line
     *  aggregated answer. */
    void admitBatch(ClientState &client, uint64_t id,
                    BatchPoints points, bool quiet, bool sweep,
                    uint64_t admittedUs,
                    std::shared_ptr<const CompareJob> compare);
    /** Cancel every in-flight batch tagged @p requestId, on any
     *  connection; returns how many were hit. */
    uint64_t cancelBatches(uint64_t requestId);
    /** The "status" response: queue depth, per-connection in-flight
     *  counts, cancelled/reaped counters. */
    Json statusJson();
    /** Cancel all of @p client's batch tokens and drop its queued
     *  engine work — the peer is gone (EOF or sticky write failure).
     *  Idempotent; safe from the read and streaming threads. */
    void reapClient(ClientState &client);
    /** Block until the connection has a free batch slot (the
     *  protocol's backpressure); false when shutting down. */
    bool acquireSlot(ClientState &client);
    /** Build and submit the @p points in a window of
     *  streamWindowPoints and stream id-tagged results in submission
     *  order; runs on the dedicated connection-stream thread keyed by
     *  @p streamId (retired for reaping when done). */
    void streamBatch(ClientState &client, uint64_t streamId,
                     uint64_t id, BatchPoints points, bool quiet,
                     std::shared_ptr<CancelToken> token,
                     uint64_t batchKey, bool sweep,
                     uint64_t admittedUs,
                     std::shared_ptr<const CompareJob> compare);

    std::shared_ptr<ResultStore> store_;
    std::unique_ptr<ExperimentEngine> engine_;
    std::atomic<uint64_t> activeRequests_{0};
    std::atomic<uint64_t> completedPoints_{0};
    std::atomic<uint64_t> cancelledBatches_{0};
    std::atomic<uint64_t> reapedBatches_{0};
    std::atomic<uint64_t> pointsInFlight_{0};
    std::atomic<uint64_t> unsubmittedPoints_{0};
    std::atomic<uint64_t> nextClientId_{1};
    std::atomic<uint64_t> nextBatchKey_{1};

    /** Every batch currently admitted, keyed by a daemon-unique
     *  handle (request ids are only client-unique). */
    std::mutex batchesMutex_;
    std::unordered_map<uint64_t, BatchInfo> batches_;

    // Process-wide observability handles (src/obs/metrics.hh):
    // request→first-point and request→done latency per op, encode
    // time and window occupancy.
    Histogram *obsFirstPointUs_[2] = {nullptr, nullptr}; ///< [sweep]
    Histogram *obsDoneUs_[2] = {nullptr, nullptr};       ///< [sweep]
    /** Per-point result frame encode latency, [sweep]. */
    Histogram *obsEncodeUs_[2] = {nullptr, nullptr};
    Gauge *obsInflightBatches_ = nullptr;
    Gauge *obsPointsInFlight_ = nullptr;
    Counter *obsUnsubmittedPoints_ = nullptr;

    /** Declared last, so it is destroyed first: its teardown joins
     *  every connection thread while the engine and the batch
     *  registry still exist. */
    std::unique_ptr<ConnectionCore> core_;
};

} // namespace mtv

#endif // MTV_SERVICE_SERVER_HH
