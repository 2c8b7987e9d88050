/**
 * @file
 * FleetService: the `mtvd --route node1,node2,...` mode — a thin
 * routing daemon that owns NO engine. It serves the fleet ops through
 * the same ConnectionCore as a regular mtvd (listeners, connection
 * threads, hello, shutdown, error envelope), by scattering requests
 * across its downstream nodes through a FleetRouter: a client pointed
 * at the router sees one ordinary daemon whose sweep stream is the
 * folded, in-order merge of N nodes — same ack, same per-point lines,
 * same done-line digest (bit-identical to a single node or `mtvctl
 * sweep --local`), with mid-sweep node deaths absorbed by the
 * router's reroute path.
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
 * router's own registry), sweep, compare, run. Engine-bound ops
 * (stats, clear, cancel) answer with an error naming a node to talk
 * to instead. Requests are served synchronously on the connection's
 * thread: a routed sweep streams inline, so client writes happen on
 * it and never under a router lock. The router's health monitor runs
 * while serve() does.
 */

#ifndef MTV_FLEET_FLEET_SERVICE_HH
#define MTV_FLEET_FLEET_SERVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/router.hh"
#include "src/service/connection_core.hh"

namespace mtv
{

/** Configuration of one FleetService instance: where it listens
 *  plus the nodes it routes to. */
struct FleetServiceOptions : ListenOptions
{
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

    /** Accept and serve clients until stop(); blocks. */
    void serve();

    /** Ask serve() to return. Safe from any thread / signal. */
    void stop() { core_->stop(); }

    const std::string &socketPath() const { return core_->socketPath(); }

    /** Bound TCP port (kernel-chosen for an ephemeral bind), or 0
     *  when no TCP listener was configured. */
    int tcpPort() const { return core_->tcpPort(); }

    FleetRouter &router() { return router_; }

  private:
    /** The fleet ops, for the ConnectionCore. */
    ConnectionCore::Service coreService();
    /** Scatter one sweep and relay the folded merge to the client
     *  in global submission order. */
    bool handleSweep(const Json &request, Connection &conn);
    /** The "compare" op, fleet-wide: scatter the family's expansion
     *  across the nodes, gather, fold through compareDesigns(), and
     *  answer the one aggregated line. */
    bool handleCompare(const Json &request, Connection &conn);
    /** Scatter an explicit spec batch the same way. */
    bool handleRun(const Json &request, Connection &conn);
    /** Gather every live node's "metrics" response plus the router's
     *  own registry; answers with per-node trees and counter totals. */
    bool handleMetrics(Connection &conn);

    FleetRouter router_;
    /** Declared last, so it is destroyed first: connection threads
     *  are joined while the router still exists. */
    std::unique_ptr<ConnectionCore> core_;
};

} // namespace mtv

#endif // MTV_FLEET_FLEET_SERVICE_HH
