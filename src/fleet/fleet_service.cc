#include "src/fleet/fleet_service.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/json.hh"

namespace mtv
{

namespace
{

Json
errorJson(const std::string &message)
{
    Json j = Json::object();
    j.set("error", message);
    return j;
}

Json
requestErrorJson(uint64_t id, const std::string &message)
{
    Json j = errorJson(message);
    j.set("id", id);
    return j;
}

/**
 * Relays the router's global-order point stream to one client. On a
 * binary connection the node's payload goes out verbatim: only its
 * id/seq header is rewritten and the trailer checksum recomputed. A
 * quiet or JSON-wire client gets each point decoded and re-encoded.
 * Points coalesce into one write while the next one is already
 * parked, up to streamOutboxBytes — the daemon's streamBatch rule.
 */
class RelayWriter
{
  public:
    RelayWriter(LineChannel &channel, uint64_t id, bool quiet,
                WireFormat wire, Counter *writeStallUs)
        : channel_(channel), id_(id), quiet_(quiet),
          binary_(wire == WireFormat::Binary),
          writeStallUs_(writeStallUs)
    {
    }

    /** The FleetRouter::PointHook. */
    void
    relay(size_t global, std::string &payload, bool moreReady)
    {
        if (writeFailed_)
            return;
        if (binary_ && !quiet_) {
            setResultFrameHeader(&payload, id_, global);
            appendFramedPayload(&outbox_, payload);
        } else {
            std::string blob;
            const RunResult result = resultFromPayload(payload, &blob);
            if (binary_) {
                appendResultFrame(&outbox_, result, id_, global,
                                  nullptr);
            } else {
                outbox_ += resultToJson(result, id_, global,
                                        /*includeBlob=*/!quiet_, &blob)
                               .dump();
                outbox_.push_back('\n');
            }
        }
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
        return !writeFailed_ && channel_.writeLine(done.dump());
    }

  private:
    void
    flush()
    {
        if (outbox_.empty() || writeFailed_)
            return;
        const uint64_t startUs = monotonicMicros();
        writeFailed_ = !channel_.writeBytes(outbox_);
        writeStallUs_->inc(monotonicMicros() - startUs);
        outbox_.clear();
    }

    LineChannel &channel_;
    uint64_t id_;
    bool quiet_;
    bool binary_;
    Counter *writeStallUs_;
    std::string outbox_;
    bool writeFailed_ = false;
};

} // namespace

FleetService::FleetService(FleetServiceOptions options)
    : router_(options.nodes, options.fleet)
{
    obsWriteStallUs_ = MetricsRegistry::instance().counter(
        "fleet_write_stall_us_total");
    socketPath_ = options.socketPath.empty() ? defaultSocketPath()
                                             : options.socketPath;

    // Same stale-socket policy as MtvService: only a *connectable*
    // socket means a live daemon; a leftover file is unlinked.
    std::string connectError;
    const int probe = connectToDaemon(socketPath_, &connectError);
    if (probe >= 0) {
        ::close(probe);
        fatal("another mtvd is already serving '%s'",
              socketPath_.c_str());
    }
    ::unlink(socketPath_.c_str());

    Listener unixListener;
    unixListener.endpoint = Endpoint::unixSocket(socketPath_);
    unixListener.fd =
        listenOnEndpoint(unixListener.endpoint, nullptr);
    listeners_.push_back(unixListener);

    if (!options.tcpHost.empty()) {
        Listener tcpListener;
        tcpListener.fd = listenOnEndpoint(
            Endpoint::tcp(options.tcpHost, options.tcpPort),
            &tcpListener.endpoint);
        tcpPort_ = tcpListener.endpoint.port;
        listeners_.push_back(tcpListener);
    }
}

FleetService::~FleetService()
{
    stop();
    teardownClients();
    router_.stopHealthMonitor();
    for (const Listener &listener : listeners_) {
        if (listener.fd >= 0)
            ::close(listener.fd);
    }
    ::unlink(socketPath_.c_str());
}

void
FleetService::joinFinishedLocked()
{
    for (auto &thread : finishedClients_)
        thread.join();
    finishedClients_.clear();
}

void
FleetService::teardownClients()
{
    // Joins happen OUTSIDE clientsMutex_: a connection thread's last
    // act is to lock it and retire its own handle.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(clientsMutex_);
        for (auto &client : activeClients_) {
            ::shutdown(client.first, SHUT_RDWR);
            threads.push_back(std::move(client.second));
        }
        activeClients_.clear();
        for (auto &thread : finishedClients_)
            threads.push_back(std::move(thread));
        finishedClients_.clear();
    }
    for (auto &thread : threads)
        thread.join();
}

void
FleetService::stop()
{
    // Async-signal-safe (mtvd wires this to SIGTERM/SIGINT): flag +
    // shutdown only.
    stopping_.store(true);
    for (const Listener &listener : listeners_) {
        if (listener.fd >= 0)
            ::shutdown(listener.fd, SHUT_RDWR);
    }
}

void
FleetService::serve()
{
    for (const Listener &listener : listeners_) {
        inform("mtvd: routing for %zu nodes, listening on %s",
               router_.nodeCount(),
               listener.endpoint.describe().c_str());
    }
    // Dead nodes are discovered between requests too, not only when
    // a scatter trips over them.
    router_.startHealthMonitor();

    std::vector<pollfd> fds;
    fds.reserve(listeners_.size());
    for (const Listener &listener : listeners_)
        fds.push_back(pollfd{listener.fd, POLLIN, 0});
    while (!stopping_.load()) {
        for (pollfd &p : fds)
            p.revents = 0;
        const int ready = ::poll(fds.data(), fds.size(), 500);
        if (stopping_.load())
            break;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        for (size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            const int fd = ::accept(listeners_[i].fd, nullptr,
                                    nullptr);
            if (fd < 0) {
                if (stopping_.load())
                    break;
                if (errno == EMFILE || errno == ENFILE ||
                    errno == ECONNABORTED || errno == EPROTO) {
                    warn("mtvd: accept failed: %s — retrying",
                         std::strerror(errno));
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                }
                continue;
            }
            std::lock_guard<std::mutex> lock(clientsMutex_);
            joinFinishedLocked();
            activeClients_.emplace(
                fd,
                std::thread([this, fd] { handleConnection(fd); }));
        }
    }

    router_.stopHealthMonitor();
    teardownClients();
}

void
FleetService::handleConnection(int fd)
{
    LineChannel channel(fd);
    WireFormat wire = WireFormat::Json;
    std::string line;
    while (!stopping_.load()) {
        const LineChannel::MessageKind kind =
            channel.readMessage(&line);
        if (kind == LineChannel::MessageKind::Eof)
            break;
        if (kind != LineChannel::MessageKind::Line) {
            // Frames flow router->client only; same policy as a
            // regular daemon — one structured error, clean close.
            Json err = errorJson(
                "binary frame on the request channel");
            err.set("badFrame", true);
            channel.writeLine(err.dump());
            break;
        }
        if (line.empty())
            continue;
        Json request;
        std::string parseError;
        if (!Json::parse(line, &request, &parseError)) {
            if (!channel.writeLine(errorJson(parseError).dump()))
                break;
            continue;
        }
        if (!handleRequest(request, channel, wire))
            break;
    }
    // Hand our own thread handle to the finished list; during
    // teardown the entry may already be gone (the teardown side owns
    // it then).
    std::lock_guard<std::mutex> lock(clientsMutex_);
    auto self = activeClients_.find(fd);
    if (self != activeClients_.end()) {
        finishedClients_.push_back(std::move(self->second));
        activeClients_.erase(self);
    }
}

bool
FleetService::handleRequest(const Json &request, LineChannel &channel,
                            WireFormat &wire)
{
    try {
        // Client input (and downstream-node fatality: a fleet with
        // zero live nodes left) reports through fatal(); either must
        // answer this client, not kill the router.
        ScopedFatalAsException fatalScope;
        const std::string op = request.getString("op");
        if (op == "hello") {
            // Same negotiation a regular daemon offers. Nodes
            // always stream binary to the router; a JSON client's
            // points are re-encoded on the way out.
            const std::string wanted =
                request.has("wire") ? request.getString("wire")
                                    : "json";
            if (wanted != "json" && wanted != "binary") {
                return channel.writeLine(
                    errorJson("unknown wire format '" + wanted +
                              "' (expected json or binary)")
                        .dump());
            }
            wire = wanted == "binary" ? WireFormat::Binary
                                      : WireFormat::Json;
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("hello", true);
            ok.set("wire", wanted);
            ok.set("protocol", serviceProtocolVersion);
            return channel.writeLine(ok.dump());
        }
        if (op == "ping") {
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("pong", true);
            ok.set("protocol", serviceProtocolVersion);
            ok.set("fleet", true);
            ok.set("nodes",
                   static_cast<uint64_t>(router_.nodeCount()));
            ok.set("alive",
                   static_cast<uint64_t>(router_.aliveCount()));
            Json families = Json::array();
            for (const SweepFamilyInfo &family : sweepFamilies())
                families.push(family.name);
            ok.set("sweepFamilies", std::move(families));
            return channel.writeLine(ok.dump());
        }
        if (op == "status") {
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
            return channel.writeLine(ok.dump());
        }
        if (op == "metrics")
            return handleMetrics(request, channel);
        if (op == "sweep")
            return handleSweep(request, channel, wire);
        if (op == "compare")
            return handleCompare(request, channel);
        if (op == "run")
            return handleRun(request, channel, wire);
        if (op == "shutdown") {
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("stopping", true);
            channel.writeLine(ok.dump());
            inform("mtvd: shutdown requested by client");
            stop();
            return false;
        }
        if (op == "stats" || op == "clear" || op == "cancel") {
            // The router owns no engine: nothing to clear, no cache
            // counters, and in-flight bookkeeping lives node-side.
            return channel.writeLine(
                errorJson(format("op '%s' is not served by a fleet "
                                 "router — talk to a node directly",
                                 op.c_str()))
                    .dump());
        }
        return channel.writeLine(
            errorJson(op.empty() ? "request names no op"
                                 : "unknown op '" + op + "'")
                .dump());
    } catch (const FatalError &e) {
        return channel.writeLine(
            requestErrorJson(
                request.get("id").type() == Json::Type::Number
                    ? static_cast<uint64_t>(
                          request.getNumber("id"))
                    : 0,
                e.what())
                .dump());
    }
}

bool
FleetService::handleMetrics(const Json &request, LineChannel &channel)
{
    (void)request;  // prom exposition is per-node; nothing to forward
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
    return channel.writeLine(ok.dump());
}

bool
FleetService::handleSweep(const Json &request, LineChannel &channel,
                          WireFormat wire)
{
    const uint64_t id = request.get("id").asU64();
    if (request.has("points") || request.has("ring")) {
        // A router is not a node: the scatter path terminates here.
        return channel.writeLine(
            requestErrorJson(id, "a fleet router does not accept "
                                 "point subsets or a ring")
                .dump());
    }
    const SweepRequest sweep = sweepRequestFromJson(request);
    RelayWriter writer(channel, id, request.getBool("quiet", false),
                       wire, obsWriteStallUs_);

    bool ackOk = true;
    const FleetOutcome outcome = router_.runSweep(
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
            ackOk = channel.writeLine(ack.dump());
        });

    // A failed write means the client vanished mid-stream.
    return ackOk && writer.writeDone(outcome);
}

bool
FleetService::handleCompare(const Json &request,
                            LineChannel &channel)
{
    const uint64_t id = request.get("id").asU64();
    const SweepRequest sweep = sweepRequestFromJson(request);

    // Comparability is checked against the local expansion before
    // any node is contacted — the expansion is deterministic, so the
    // router's copy and every node's copy agree.
    {
        SweepBuilder expansion = expandSweep(sweep);
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
            return channel.writeLine(err.dump());
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
    return channel.writeLine(ok.dump());
}

bool
FleetService::handleRun(const Json &request, LineChannel &channel,
                        WireFormat wire)
{
    const uint64_t id = request.get("id").asU64();
    std::vector<RunSpec> specs;
    for (const Json &spec : request.get("specs").asArray())
        specs.push_back(RunSpec::parse(spec.asString()));
    if (specs.empty())
        fatal("run request carries no specs");

    RelayWriter writer(channel, id, request.getBool("quiet", false),
                       wire, obsWriteStallUs_);
    const FleetOutcome outcome = router_.runSpecs(
        specs, [&writer](size_t global, std::string &payload,
                         bool moreReady) {
            writer.relay(global, payload, moreReady);
        });
    return writer.writeDone(outcome);
}

} // namespace mtv
