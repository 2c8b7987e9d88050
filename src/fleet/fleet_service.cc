#include "src/fleet/fleet_service.hh"

#include <map>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/json.hh"

namespace mtv
{

namespace
{

/**
 * Relays the router's global-order point stream to one client. The
 * node's payload goes out verbatim: only its id/seq header is
 * rewritten, a quiet client's copy loses its blob in place, and the
 * trailer checksum is recomputed — the relay never decodes a point.
 * Points coalesce into one write while the next one is already
 * parked, up to streamOutboxBytes — the daemon's streamBatch rule.
 * Once a write to the client has failed, the next point gives the
 * batch up (CancelledError out of the hook): the router then ends
 * its node streams instead of draining them for nobody.
 */
class RelayWriter
{
  public:
    RelayWriter(Connection &conn, uint64_t id, bool quiet)
        : conn_(conn), id_(id), quiet_(quiet)
    {
    }

    /** The FleetRouter::PointHook. */
    void
    relay(size_t global, std::string &payload, bool moreReady)
    {
        if (conn_.writeFailed())
            throw CancelledError("the client of this batch is gone");
        setResultFrameHeader(&payload, id_, global);
        if (quiet_)
            stripResultFrameBlob(&payload);
        appendFramedPayload(&outbox_, payload);
        if (!moreReady || outbox_.size() >= streamOutboxBytes)
            flush();
    }

    /** The terminator, with the fleet extras the smoke test greps. */
    bool
    writeDone(const FleetOutcome &outcome)
    {
        flush();
        Json done = Json::object();
        done.set("id", id_);
        done.set("done", true);
        done.set("count", static_cast<uint64_t>(outcome.count));
        done.set("simulated", outcome.simulated);
        done.set("cacheServed", outcome.cacheServed);
        done.set("storeServed", outcome.storeServed);
        done.set("digest",
                 format("%016llx", static_cast<unsigned long long>(
                                       outcome.digest)));
        done.set("rerouted", outcome.rerouted);
        if (!outcome.deadNodes.empty()) {
            Json dead = Json::array();
            for (const std::string &name : outcome.deadNodes)
                dead.push(name);
            done.set("deadNodes", std::move(dead));
        }
        return conn_.writeLine(done.dump());
    }

  private:
    void
    flush()
    {
        if (!outbox_.empty())
            conn_.writeBytes(outbox_);
        outbox_.clear();
    }

    Connection &conn_;
    uint64_t id_;
    bool quiet_;
    std::string outbox_;
};

} // namespace

FleetService::FleetService(FleetServiceOptions options)
    : router_(options.nodes, options.fleet)
{
    core_ = std::make_unique<ConnectionCore>(options, coreService());
}

void
FleetService::serve()
{
    // Dead nodes are discovered between requests too, not only when
    // a scatter trips over them.
    router_.startHealthMonitor();
    core_->serve();
    router_.stopHealthMonitor();
}

ConnectionCore::Service
FleetService::coreService()
{
    ConnectionCore::Service service;
    service.writeStallUs = MetricsRegistry::instance().counter(
        "fleet_write_stall_us_total");
    service.banner =
        format(" (routing for %zu nodes)", router_.nodeCount());
    service.ops["ping"] = [this](const Json &, Connection &conn) {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("pong", true);
        ok.set("protocol", serviceProtocolVersion);
        ok.set("fleet", true);
        ok.set("nodes", static_cast<uint64_t>(router_.nodeCount()));
        ok.set("alive", static_cast<uint64_t>(router_.aliveCount()));
        Json families = Json::array();
        for (const SweepFamilyInfo &family : sweepFamilies())
            families.push(family.name);
        ok.set("sweepFamilies", std::move(families));
        return conn.writeLine(ok.dump());
    };
    service.ops["status"] = [this](const Json &, Connection &conn) {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("fleet", true);
        Json nodes = Json::array();
        for (const FleetNodeStatus &s : router_.status()) {
            Json node = Json::object();
            node.set("endpoint", s.name);
            node.set("alive", s.alive);
            if (!s.lastError.empty())
                node.set("error", s.lastError);
            node.set("served", s.pointsServed);
            nodes.push(std::move(node));
        }
        ok.set("nodes", std::move(nodes));
        return conn.writeLine(ok.dump());
    };
    service.ops["metrics"] = [this](const Json &, Connection &conn) {
        return handleMetrics(conn);
    };
    service.ops["sweep"] = [this](const Json &request, Connection &conn) {
        return handleSweep(request, conn);
    };
    service.ops["compare"] = [this](const Json &request,
                                    Connection &conn) {
        return handleCompare(request, conn);
    };
    service.ops["run"] = [this](const Json &request, Connection &conn) {
        return handleRun(request, conn);
    };
    // The router owns no engine: nothing to clear, no cache counters,
    // and in-flight bookkeeping lives node-side.
    for (const char *op : {"stats", "clear", "cancel"}) {
        service.ops[op] = [op](const Json &, Connection &conn) {
            return conn.writeLine(
                errorJson(format("op '%s' is not served by a fleet "
                                 "router — talk to a node directly",
                                 op))
                    .dump());
        };
    }
    return service;
}

bool
FleetService::handleMetrics(Connection &conn)
{
    // Prom exposition is per-node; nothing of the request to forward.
    Json ok = Json::object();
    ok.set("ok", true);
    ok.set("fleet", true);
    ok.set("router",
           metricsToJson(MetricsRegistry::instance().snapshot()));

    // Fleet-wide counter sums over the nodes that answered. Gauges
    // and histograms stay per-node: summing a queue-depth gauge or
    // averaging quantiles would manufacture numbers nobody measured.
    std::map<std::string, uint64_t> totals;
    Json nodes = Json::array();
    for (const FleetNodeStatus &s : router_.status()) {
        Json node = Json::object();
        node.set("endpoint", s.name);
        if (!s.alive) {
            node.set("ok", false);
            node.set("error", s.lastError.empty()
                                  ? "node marked dead"
                                  : s.lastError);
            nodes.push(std::move(node));
            continue;
        }
        Json metrics;
        bool gathered = false;
        std::string error = "metrics request failed";
        try {
            // A node failing its metrics request degrades THIS
            // response, never the router. (Deliberately no markDead:
            // the health monitor owns liveness; an observability read
            // should not reshape the ring.)
            ScopedFatalAsException scope;
            std::string connectError;
            const int fd = connectToEndpoint(parseEndpoint(s.name),
                                             &connectError);
            if (fd < 0) {
                error = connectError;
            } else {
                LineChannel nodeChannel(fd);
                Json nodeRequest = Json::object();
                nodeRequest.set("op", "metrics");
                std::string line;
                if (nodeChannel.writeLine(nodeRequest.dump()) &&
                    nodeChannel.readLine(&line)) {
                    Json response;
                    std::string parseError;
                    if (!Json::parse(line, &response, &parseError)) {
                        error = "malformed metrics response: " +
                                parseError;
                    } else if (!response.getBool("ok")) {
                        error = response.getString("error",
                                                   response.dump());
                    } else {
                        metrics = response.get("metrics");
                        gathered =
                            metrics.type() == Json::Type::Object;
                        if (!gathered)
                            error = "metrics response carries no "
                                    "metrics object";
                    }
                }
            }
        } catch (const FatalError &e) {
            error = e.what();
        }
        node.set("ok", gathered);
        if (gathered) {
            if (metrics.get("counters").type() ==
                Json::Type::Object) {
                for (const auto &counter :
                     metrics.get("counters").asMembers()) {
                    totals[counter.first] += static_cast<uint64_t>(
                        counter.second.asNumber());
                }
            }
            node.set("metrics", std::move(metrics));
        } else {
            node.set("error", error);
        }
        nodes.push(std::move(node));
    }
    ok.set("nodes", std::move(nodes));
    Json totalsJson = Json::object();
    for (const auto &total : totals)
        totalsJson.set(total.first, total.second);
    ok.set("totals", std::move(totalsJson));
    return conn.writeLine(ok.dump());
}

bool
FleetService::handleSweep(const Json &request, Connection &conn)
{
    const uint64_t id = safeRequestId(request);
    if (request.has("points") || request.has("ring")) {
        // A router is not a node: the scatter path terminates here.
        return conn.writeLine(
            requestErrorJson(id, "a fleet router does not accept "
                                 "point subsets or a ring")
                .dump());
    }
    const SweepRequest sweep = sweepRequestFromJson(request);
    RelayWriter writer(conn, id, request.getBool("quiet", false));

    FleetOutcome outcome;
    try {
        outcome = router_.runSweep(
            sweep,
            [&writer](size_t global, std::string &payload,
                      bool moreReady) {
                writer.relay(global, payload, moreReady);
            },
            [&](size_t count, const std::vector<SweepSlice> &slices) {
                Json ack = Json::object();
                ack.set("id", id);
                ack.set("ack", true);
                ack.set("count", static_cast<uint64_t>(count));
                ack.set("total", static_cast<uint64_t>(count));
                Json sliceArray = Json::array();
                for (const SweepSlice &slice : slices)
                    sliceArray.push(sliceToJson(slice));
                ack.set("slices", std::move(sliceArray));
                conn.writeLine(ack.dump());
            });
    } catch (const CancelledError &) {
        return false;  // the client vanished mid-stream
    }
    return writer.writeDone(outcome);
}

bool
FleetService::handleCompare(const Json &request, Connection &conn)
{
    const uint64_t id = safeRequestId(request);
    const SweepRequest sweep = sweepRequestFromJson(request);

    // Comparability is checked from the slice map of the indexed
    // expansion (no spec is built) before any node is contacted — the
    // expansion is deterministic, so the router's copy and every
    // node's copy agree.
    {
        const SweepBuilder expansion = expandSweep(sweep);
        const std::vector<SweepSlice> &slices = expansion.slices();
        bool comparable = slices.size() >= 2;
        for (const SweepSlice &s : slices)
            comparable = comparable && s.count == slices[0].count;
        if (!comparable) {
            Json err = requestErrorJson(
                id, "sweep family '" + sweep.family +
                        "' is not design-parallel and cannot be "
                        "compared");
            err.set("notComparable", sweep.family);
            return conn.writeLine(err.dump());
        }
    }

    // Gather fleet-wide; the points stay router-side (no per-point
    // stream), exactly like a single daemon's compare. The relay
    // delivers in global order, so the table lines up with the
    // expansion's slices.
    std::vector<RunResult> results;
    const FleetOutcome outcome = router_.runSweep(
        sweep, [&results](size_t, std::string &payload, bool) {
            results.push_back(resultFromPayload(payload));
        });

    Json ok = Json::object();
    ok.set("id", id);
    ok.set("ok", true);
    ok.set("compare", true);
    ok.set("fleet", true);
    ok.set("family", sweep.family);
    ok.set("count", static_cast<uint64_t>(outcome.count));
    ok.set("baseline", outcome.slices.empty()
                           ? std::string()
                           : outcome.slices[0].label);
    ok.set("simulated", outcome.simulated);
    ok.set("cacheServed", outcome.cacheServed);
    ok.set("storeServed", outcome.storeServed);
    ok.set("digest",
           format("%016llx",
                  static_cast<unsigned long long>(outcome.digest)));
    Json rows = Json::array();
    for (const CompareRow &row :
         compareDesigns(outcome.slices, results))
        rows.push(compareRowToJson(row));
    ok.set("rows", std::move(rows));
    return conn.writeLine(ok.dump());
}

bool
FleetService::handleRun(const Json &request, Connection &conn)
{
    const uint64_t id = safeRequestId(request);
    std::vector<RunSpec> specs;
    for (const Json &spec : request.get("specs").asArray())
        specs.push_back(RunSpec::parse(spec.asString()));
    if (specs.empty())
        fatal("run request carries no specs");

    RelayWriter writer(conn, id, request.getBool("quiet", false));
    FleetOutcome outcome;
    try {
        outcome = router_.runSpecs(
            specs, [&writer](size_t global, std::string &payload,
                             bool moreReady) {
                writer.relay(global, payload, moreReady);
            });
    } catch (const CancelledError &) {
        return false;  // the client vanished mid-stream
    }
    return writer.writeDone(outcome);
}

} // namespace mtv
