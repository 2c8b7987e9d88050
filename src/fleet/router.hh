/**
 * @file
 * FleetRouter: scatter/gather of experiment batches across N mtvd
 * nodes with mid-sweep failover. The router is pure protocol client —
 * it owns no engine — so the same class serves both deployments:
 * client-side routing inside `mtvctl --fleet` and the thin routing
 * daemon `mtvd --route` (src/fleet/fleet_service.hh).
 *
 * Routing: each point's RunSpec::canonical() string is consistent-
 * hashed (HashRing) across the nodes, so each node's sharded
 * ResultStore owns a disjoint slice of the key space and a re-run of
 * the same sweep warms the same node caches. A sweep's first scatter
 * round is owner-computes: every live node receives the family
 * request plus the ring (the "sweep" op's "ring" field) and picks its
 * own share. The router expands the family in indexed form first
 * (validated, so a bad request never reaches a node; count and slice
 * map at once) and publishes each point's canonical key and ring
 * owner alongside the nodes for the checks below. Later rounds name
 * their points explicitly ("points").
 *
 * Relay: one reader thread per node consumes that node's binary
 * result stream, checks each frame on its raw payload (request id,
 * ack before any frame, seq = a global index strictly after the last
 * one and owned by the node with none of its own skipped, blob
 * present, spec bytes equal to the expected canonical string, and at
 * the end the node's done count and digest against what it sent) and
 * parks the payload under its global index. The thread that called runSweep() or
 * runSpecs() drains the parked payloads in GLOBAL submission order
 * while the readers stream: it folds ONE digest — FNV-1a over the
 * canonical stats blobs in global order, bit-identical to running
 * the whole sweep on a single node or `mtvctl sweep --local` — and
 * hands each payload to the per-point hook outside every router
 * lock. The router never decodes a point; a caller that wants a
 * RunResult decodes the payload itself (resultFromPayload()).
 * Parking is on credit: a reader with streamWindowPoints payloads
 * parked stops reading until the drain takes some, so a slow caller
 * pushes back on the nodes instead of filling router memory. A node
 * dying mid-round switches credit off for the rest of the round
 * (see FleetRouter::Gather).
 *
 * Failover: membership is a health table; a node is marked dead by a
 * sticky mark on any connect/write/read/protocol failure, a hello
 * reporting another sweep registry (sweepRegistryHash()), or the
 * periodic, time-bounded status pings of startHealthMonitor(). Death
 * removes the
 * node from the ring and closes the router's connection to it — on a
 * half-dead node that close triggers the daemon-side reap path
 * (cancel tokens + lane drop, see src/service/server.hh), so a
 * wedged node stops simulating for nobody. Points the dead node had
 * already streamed are kept (its acked slice map); the unfinished
 * remainder is rerouted to the survivors on the next scatter round.
 * The drain cursor carries across rounds, so the hook sees every
 * global index exactly once, in order. Nodes must speak the binary
 * wire: one that refuses it is marked dead like any other failure.
 * The batch completes as long as one node lives; with zero survivors
 * the router fatal()s (FleetService turns that into a protocol error
 * for its client).
 */

#ifndef MTV_FLEET_ROUTER_HH
#define MTV_FLEET_ROUTER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/fleet/ring.hh"
#include "src/obs/metrics.hh"
#include "src/service/protocol.hh"

namespace mtv
{

/** Tunables of one FleetRouter. */
struct FleetOptions
{
    /** Virtual points per node on the hash ring. */
    int vnodesPerNode = 64;
    /** Period of the background health pings (startHealthMonitor). */
    double healthIntervalSeconds = 2.0;
};

/** Health-table snapshot of one fleet node. */
struct FleetNodeStatus
{
    /** The endpoint text as configured (ring identity). */
    std::string name;
    bool alive = true;
    /** Last connect/protocol failure (empty while healthy). */
    std::string lastError;
    /** Result frames this node streamed to us (added as each
     *  subset stream ends). */
    uint64_t pointsServed = 0;
};

/** One gathered batch (the fleet analogue of a done line). */
struct FleetOutcome
{
    /** Points in the batch (every one went through the hook). */
    size_t count = 0;
    /** Slice map of the sweep expansion (empty for spec batches). */
    std::vector<SweepSlice> slices;
    /** FNV-1a over the stats blobs in global submission order —
     *  bit-identical to a single-node or --local run. */
    uint64_t digest = 0;
    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    uint64_t storeServed = 0;
    /** Points re-homed to survivors after a node died mid-batch. */
    uint64_t rerouted = 0;
    /** Nodes lost (newly marked dead) while this batch ran. */
    std::vector<std::string> deadNodes;
};

/** Consistent-hash scatter/gather client over N mtvd nodes. */
class FleetRouter
{
  public:
    /**
     * @p endpointTexts: one "HOST:PORT" or unix socket path per node
     * (parsed strictly via parseEndpoint()). The texts are the ring
     * identities — every router configured with the same list routes
     * identically. fatal()s on an empty list.
     */
    explicit FleetRouter(
        const std::vector<std::string> &endpointTexts,
        FleetOptions options = {});
    ~FleetRouter();

    FleetRouter(const FleetRouter &) = delete;
    FleetRouter &operator=(const FleetRouter &) = delete;

    size_t nodeCount() const;
    size_t aliveCount() const;

    /** Health-table snapshot (status op of `mtvd --route`). */
    std::vector<FleetNodeStatus> status() const;

    /** Ring owner (node index) of one canonical spec key among the
     *  currently-live nodes. Exposed for ownership tests. */
    size_t nodeForKey(const std::string &canonical) const;

    /**
     * Ping every node — the live ones AND the dead ones. Each ping's
     * connect, send and read are bounded (2 s): a node that accepts
     * and never answers fails with "ping timed out". A failure
     * marks a live node dead (sticky within a batch round); a healthy
     * pong from a dead node revives it: its ring points come back, so
     * exactly its old key slice re-homes to it and subsequent scatter
     * rounds use it again — a restarted daemon rejoins the fleet
     * without a router restart. Returns the number of live nodes
     * afterwards.
     */
    size_t pingAll();

    /**
     * Start the periodic health monitor (pingAll() every
     * healthIntervalSeconds) — `mtvd --route` runs one so dead nodes
     * are discovered between requests, not only mid-sweep.
     */
    void startHealthMonitor();
    void stopHealthMonitor();

    /**
     * The relay's per-point callback: invoked once per point in
     * GLOBAL submission order, on the thread that called runSweep()
     * or runSpecs(), while node streams are still arriving and with
     * no router lock held. @p payload is the node's verified frame
     * payload (ResultFrame layout, src/service/protocol.hh): spec and
     * stats blob exactly as the node sent them, the header still
     * carrying the node's request id and seq. The router is
     * done with it, so the hook may rewrite or move it. @p moreReady
     * says the next point is already parked, so a writer may hold
     * this one back and coalesce writes. A hook that throws gives the
     * batch up: the router shuts down its node sockets (each node
     * reaps its stream), joins the readers without marking any node
     * dead, and rethrows — how a routing daemon stops its nodes for
     * a client that vanished.
     */
    using PointHook = std::function<void(
        size_t globalIndex, std::string &payload, bool moreReady)>;

    /** Called once as the first round's requests go out, with the
     *  ack data (count + slice map) of the router's own indexed
     *  expansion of the sweep. */
    using ExpandHook = std::function<void(
        size_t count, const std::vector<SweepSlice> &slices)>;

    /**
     * Scatter @p request across the live nodes (each picks its ring
     * share), publish its keys alongside to check what they stream,
     * and gather the folded outcome. Retries dead nodes' unfinished
     * points on survivors until the batch completes; fatal()s only
     * when no node is left alive or the request does not expand.
     */
    FleetOutcome runSweep(const SweepRequest &request,
                          const PointHook &hook = nullptr,
                          const ExpandHook &onExpanded = nullptr);

    /**
     * Scatter an explicit spec batch (the "run" op per node) — the
     * routing/failover machinery without a sweep family. Duplicate
     * canonical specs are fine (distinct global positions; the
     * engine coalesces them node-side).
     */
    FleetOutcome runSpecs(const std::vector<RunSpec> &specs,
                          const PointHook &hook = nullptr);

  private:
    struct Node
    {
        std::string name;  ///< endpoint text (ring identity)
        Endpoint endpoint;
        bool alive = true;
        std::string lastError;
        uint64_t pointsServed = 0;
        /** Open batch sockets (streamSubset), shut down by
         *  markDead(). */
        std::vector<int> batchFds;
    };

    class BatchSocket;

    /** Mutable state of one gather in progress (shared by the node
     *  reader threads of one scatter round). */
    struct Gather;

    /** Mark @p index dead (sticky), drop it from the ring and shut
     *  down its open batch sockets; no-op when already dead. Caller
     *  must NOT hold membershipMutex_. */
    void markDead(size_t index, const std::string &error);

    /** The inverse: put a healthy-again node back on the ring; no-op
     *  when already alive. Caller must NOT hold membershipMutex_. */
    void revive(size_t index);

    /** Stream one node's subset — the share @p ring assigns it when
     *  non-null, else the points @p indices — send the request,
     *  consume the stream, park verified payloads in @p gather on the
     *  credit of reader @p slot. Any failure marks the node dead;
     *  already-parked points are kept. Returns true when the subset
     *  completed; @p served counts the points parked. */
    bool streamSubset(size_t nodeIndex, uint32_t slot,
                      const std::vector<size_t> &indices,
                      const SweepRequest *sweep, const SweepRing *ring,
                      Gather &gather, size_t *served);

    /** The scatter/relay/reroute loop shared by runSweep (sweep op,
     *  @p sweep non-null, keys published alongside its first round) and
     *  runSpecs (run op, @p keys holding each spec's
     *  RunSpec::canonical()). */
    FleetOutcome scatter(const SweepRequest *sweep,
                         std::vector<std::string> keys,
                         const ExpandHook &onExpanded,
                         const PointHook &hook);

    FleetOptions options_;

    /** Guards nodes_ (their batchFds too), ring_ and
     *  deadDuringBatch_. */
    mutable std::mutex membershipMutex_;
    std::vector<Node> nodes_;
    HashRing ring_;
    /** Names newly marked dead since the current batch started. */
    std::vector<std::string> deadDuringBatch_;

    std::mutex monitorMutex_;
    std::condition_variable monitorWake_;
    std::thread monitor_;
    bool monitorStop_ = false;

    // Process-wide observability handles (src/obs/metrics.hh).
    Counter *obsDeadMarks_ = nullptr;
    Counter *obsRevives_ = nullptr;
    Counter *obsReroutes_ = nullptr;
    Histogram *obsPingRttUs_ = nullptr;
    Histogram *obsScatterPoints_ = nullptr;
    /** Payloads parked in the relay each time the drain takes a
     *  batch: high with little client write stall means a node lags
     *  the others; high with a large stall means the client is the
     *  bottleneck. */
    Histogram *obsParkedDepth_ = nullptr;
};

} // namespace mtv

#endif // MTV_FLEET_ROUTER_HH
