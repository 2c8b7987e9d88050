/**
 * @file
 * FleetService: the `mtvd --route node1,node2,...` mode — a thin
 * routing daemon that owns NO engine. It listens like a regular mtvd
 * (unix socket and/or TCP) and speaks the same protocol v3 framing,
 * but serves requests by scattering them across its downstream nodes
 * through a FleetRouter: a client pointed at the router sees one
 * ordinary daemon whose sweep stream is the folded, in-order merge of
 * N nodes — same ack, same per-point lines, same done-line digest
 * (bit-identical to a single node or `mtvctl sweep --local`), with
 * mid-sweep node deaths absorbed by the router's reroute path.
 *
 * Relay: the router hands each node's verified frame payload over in
 * global order. For a binary client the payload is forwarded as is —
 * only the 16-byte id/seq header is rewritten and the trailer
 * checksum recomputed — and frames coalesce into one write while the
 * next point is already parked (the daemon's streamBatch rule). Only
 * a quiet or JSON-wire client, and the compare op, decode points.
 * Time spent in client writes is fleet_write_stall_us_total; with the
 * router's fleet_parked_depth histogram it tells a client-bound relay
 * from a node-bound one.
 *
 * Served ops: ping (answers with fleet:true plus node counts),
 * status (the membership/health table), metrics (every live node's
 * registry gathered per-node plus fleet-wide counter totals and the
 * router's own registry), sweep, run, shutdown.
 * Engine-bound ops (stats, clear, cancel) answer with an error
 * naming a node to talk to instead — the router has no cache to
 * clear and its in-flight bookkeeping lives in the downstream nodes.
 *
 * Concurrency: one thread per client connection, requests served
 * synchronously in its read loop (a routed sweep streams inline: the
 * connection thread is the relay's drain, so client writes happen on
 * it and never under a router lock).
 * The router's background health monitor runs while serve() does, so
 * dead nodes are discovered between requests, not only mid-sweep.
 */

#ifndef MTV_FLEET_FLEET_SERVICE_HH
#define MTV_FLEET_FLEET_SERVICE_HH

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/fleet/router.hh"
#include "src/service/protocol.hh"

namespace mtv
{

/** Configuration of one FleetService instance. */
struct FleetServiceOptions
{
    /** Unix socket to listen on. Empty = defaultSocketPath(). */
    std::string socketPath;
    /** TCP listen host; empty = unix socket only. */
    std::string tcpHost;
    /** TCP listen port; 0 = ephemeral (see tcpPort()). */
    int tcpPort = 0;
    /** Downstream node endpoints ("HOST:PORT" or socket paths). */
    std::vector<std::string> nodes;
    FleetOptions fleet;
};

/** The mtvd routing-daemon core (a FleetRouter behind listeners). */
class FleetService
{
  public:
    /** Parses the node list and binds the listeners; fatal()s on an
     *  unusable endpoint. Does NOT require the nodes to be up yet. */
    explicit FleetService(FleetServiceOptions options);
    ~FleetService();

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /** Accept and serve clients until stop(); blocks. */
    void serve();

    /** Ask serve() to return. Safe from any thread / signal. */
    void stop();

    const std::string &socketPath() const { return socketPath_; }

    /** Bound TCP port (kernel-chosen for an ephemeral bind), or 0
     *  when no TCP listener was configured. */
    int tcpPort() const { return tcpPort_; }

    FleetRouter &router() { return router_; }

  private:
    void handleConnection(int fd);
    /** Serve one request line; returns false when the connection
     *  should close (shutdown or write failure). @p wire is the
     *  connection's negotiated result-point format — the "hello" op
     *  writes it, the streaming ops read it. */
    bool handleRequest(const Json &request, LineChannel &channel,
                       WireFormat &wire);
    /** Scatter one sweep and relay the folded merge to the client
     *  in global submission order. */
    bool handleSweep(const Json &request, LineChannel &channel,
                     WireFormat wire);
    /** The "compare" op, fleet-wide: scatter the family's expansion
     *  across the nodes, gather, fold through compareDesigns(), and
     *  answer the one aggregated line. */
    bool handleCompare(const Json &request, LineChannel &channel);
    /** Scatter an explicit spec batch the same way. */
    bool handleRun(const Json &request, LineChannel &channel,
                   WireFormat wire);
    /** Gather every live node's "metrics" response plus the router's
     *  own registry; answers with per-node trees and counter totals. */
    bool handleMetrics(const Json &request, LineChannel &channel);
    void joinFinishedLocked();
    /** Shut down connections and join every client thread. */
    void teardownClients();

    struct Listener
    {
        int fd = -1;
        Endpoint endpoint;
    };

    std::string socketPath_;
    FleetRouter router_;
    std::vector<Listener> listeners_;
    int tcpPort_ = 0;
    std::atomic<bool> stopping_{false};
    /** Microseconds spent in client socket writes of relayed
     *  points. */
    Counter *obsWriteStallUs_ = nullptr;

    std::mutex clientsMutex_;
    std::unordered_map<int, std::thread> activeClients_;
    std::vector<std::thread> finishedClients_;
};

} // namespace mtv

#endif // MTV_FLEET_FLEET_SERVICE_HH
