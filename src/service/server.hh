/**
 * @file
 * MtvService: the engine room of the `mtvd` daemon. Owns one
 * ExperimentEngine (optionally backed by a persistent, sharded
 * ResultStore), listens on a unix stream socket (and, when
 * configured, a TCP endpoint — the fleet transport) through one
 * poll()-based accept loop, and serves the multiplexed streaming
 * JSON protocol of src/service/protocol.hh to any number of
 * concurrent clients on either transport.
 *
 * Concurrency model: one thread per connection reads and validates
 * requests; each batch request ("run" or server-side-expanded
 * "sweep") then streams from its own thread, so one connection can
 * keep several sweeps in flight. All response lines of a connection
 * funnel through one write mutex; a connection admits at most
 * maxInflightRequestsPerConnection concurrent batches — the read
 * loop stops consuming requests until a slot frees, which is the
 * protocol's backpressure — and each batch keeps at most
 * streamWindowPoints points submitted ahead of its write cursor, so
 * a slow reader holds back its own batch, not daemon memory. All
 * clients share the engine's memory cache, in-flight coalescing map
 * and store — N clients requesting the same spec cost one
 * simulation. Client errors (bad JSON, unknown programs, malformed
 * specs, unknown sweep families) are answered with {"error":...} and
 * never take the daemon down; validation runs under
 * ScopedFatalAsException.
 *
 * Request lifecycle: each connection gets its own engine scheduling
 * lane (weighted round-robin across lanes — no client can
 * head-of-line-block another) and every admitted batch carries a
 * CancelToken, registered service-wide so a "cancel" op from any
 * connection can hit it by request id. The moment a connection's
 * peer vanishes — a write fails (sticky writeFailed) or its socket
 * closes — the service reaps the connection: all its tokens are
 * cancelled and its lane's queued engine work is dropped, so
 * abandoned sweeps free their worker slots instead of simulating
 * for nobody.
 */

#ifndef MTV_SERVICE_SERVER_HH
#define MTV_SERVICE_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/engine.hh"
#include "src/service/protocol.hh"
#include "src/store/result_store.hh"

namespace mtv
{

class HashRing;

/** Configuration of one MtvService instance. */
struct ServiceOptions
{
    /** Unix socket path to listen on. Empty = defaultSocketPath(). */
    std::string socketPath;
    /**
     * TCP listen host ("mtvd --tcp HOST:PORT"); empty = unix socket
     * only. Both listeners serve the identical protocol; TCP is what
     * lets mtvd nodes form a fleet across machines (src/fleet/).
     */
    std::string tcpHost;
    /** TCP listen port; 0 = ephemeral (tests/smoke read the bound
     *  port back via MtvService::tcpPort()). */
    int tcpPort = 0;
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
    ~MtvService();

    MtvService(const MtvService &) = delete;
    MtvService &operator=(const MtvService &) = delete;

    /**
     * Accept and serve clients until stop() (or a client's shutdown
     * request). Blocks; run it on the main thread (mtvd) or a
     * dedicated one (tests).
     */
    void serve();

    /**
     * Ask serve() to return: stops accepting, shuts down client
     * connections, joins their threads. Safe from any thread and
     * from signal context (the heavy lifting happens on the serve()
     * thread).
     */
    void stop();

    /** The engine all connections share. */
    ExperimentEngine &engine() { return *engine_; }

    /** The store backing the engine (null when storeDir was empty). */
    const std::shared_ptr<ResultStore> &store() const { return store_; }

    /** Path the daemon is listening on. */
    const std::string &socketPath() const { return socketPath_; }

    /** Bound TCP port (the kernel's choice for an ephemeral bind),
     *  or 0 when no TCP listener was configured. */
    int tcpPort() const { return tcpPort_; }

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
     * Which of a batch's specs stream, and under which seq. By
     * default every spec, seq = its position. With @c seqs the specs
     * were already picked out of a sweep's expansion and seqs[k] is
     * spec k's global index. With @c ring the specs are the whole
     * expansion and the batch streams the share the ring assigns
     * node @c self, picked as its window refills; seq is the global
     * index.
     */
    struct BatchPoints
    {
        std::vector<uint64_t> seqs;
        std::shared_ptr<const HashRing> ring;
        size_t self = 0;
    };

    void handleConnection(int fd);
    /** Serve one request; returns false when the connection should
     *  close (shutdown request or write failure). */
    bool handleRequest(const Json &request, ClientState &client);
    /** Validate a "run" batch and start its streaming thread. */
    bool handleRun(const Json &request, ClientState &client);
    /** Expand a "sweep" request server-side, ack it, and start its
     *  streaming thread. */
    bool handleSweep(const Json &request, ClientState &client);
    /** Expand a "compare" request, check the family is design-
     *  parallel, and start its streaming thread in compare mode. */
    bool handleCompare(const Json &request, ClientState &client);
    /** Admit the validated batch @p specs: take a slot, register its
     *  cancel token, and start its streaming thread. @p sweep tags
     *  the op's latency series; @p admittedUs is the request's
     *  arrival timestamp (monotonicMicros()). A non-null @p compare
     *  switches the stream to the one-line aggregated answer;
     *  @p points picks the streamed subset. */
    void admitBatch(ClientState &client, uint64_t id,
                    std::vector<RunSpec> specs, bool quiet,
                    bool sweep, uint64_t admittedUs,
                    std::shared_ptr<const CompareJob> compare,
                    BatchPoints points);
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
    /** Submit the @p points of @p specs in a window of
     *  streamWindowPoints and stream id-tagged results in submission
     *  order; runs on the dedicated connection-stream thread keyed by
     *  @p streamId (retired for reaping when done). */
    void streamBatch(ClientState &client, uint64_t streamId,
                     uint64_t id, std::vector<RunSpec> specs,
                     bool quiet, std::shared_ptr<CancelToken> token,
                     uint64_t batchKey, bool sweep,
                     uint64_t admittedUs,
                     std::shared_ptr<const CompareJob> compare,
                     BatchPoints points);
    /** Join threads whose connections have ended. Caller holds
     *  clientsMutex_. */
    void reapFinishedLocked();
    /** Shut down remaining connections, drop queued engine work, and
     *  join every client thread (serve() teardown and destructor). */
    void teardownClients();

    /** One listening socket (unix or TCP) the accept loop polls. */
    struct Listener
    {
        int fd = -1;
        Endpoint endpoint;
    };

    std::string socketPath_;
    std::shared_ptr<ResultStore> store_;
    std::unique_ptr<ExperimentEngine> engine_;
    /** All listeners (unix socket always; TCP when configured),
     *  served by one poll()-based accept loop. */
    std::vector<Listener> listeners_;
    int tcpPort_ = 0;
    std::atomic<bool> stopping_{false};
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

    std::mutex clientsMutex_;
    /** Live connections: fd -> serving thread. */
    std::unordered_map<int, std::thread> activeClients_;
    /** Threads whose connection ended, awaiting a cheap join (reaped
     *  on every accept so the daemon never accumulates dead ones). */
    std::vector<std::thread> finishedClients_;

    // Process-wide observability handles (src/obs/metrics.hh),
    // request→first-point and request→done latency per op plus
    // connection/write-path health. ClientState::write() reaches
    // obsWriteStallUs_/obsWriteFailures_ through its service pointer.
    Histogram *obsFirstPointUs_[2] = {nullptr, nullptr}; ///< [sweep]
    Histogram *obsDoneUs_[2] = {nullptr, nullptr};       ///< [sweep]
    /** Per-point result encode latency, [sweep][binary wire]. */
    Histogram *obsEncodeUs_[2][2] = {{nullptr, nullptr},
                                     {nullptr, nullptr}};
    Gauge *obsInflightBatches_ = nullptr;
    Gauge *obsPointsInFlight_ = nullptr;
    Counter *obsUnsubmittedPoints_ = nullptr;
    Gauge *obsConnections_ = nullptr;
    Counter *obsConnectionsTotal_ = nullptr;
    Counter *obsWriteStallUs_ = nullptr;
    Counter *obsWriteFailures_ = nullptr;
    Counter *obsBytesSent_ = nullptr;
    Counter *obsBytesReceived_ = nullptr;
};

} // namespace mtv

#endif // MTV_SERVICE_SERVER_HH
