#include "src/service/server.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/core/sim_error.hh"
#include "src/fleet/ring.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/**
 * A wedged simulation as a structured error response: the message
 * plus machine-readable per-context blocked state, so a client can
 * see *which* resource each context starved on without parsing the
 * human text.
 */
Json
simErrorJson(uint64_t id, const SimError &e)
{
    Json j = requestErrorJson(id, e.what());
    j.set("wedged", true);
    j.set("cycle", e.cycle());
    j.set("stalledCycles", e.stalledCycles());
    Json blocked = Json::array();
    for (const BlockedContext &ctx : e.contexts()) {
        Json b = Json::object();
        b.set("context", static_cast<uint64_t>(ctx.context));
        b.set("program", ctx.program);
        b.set("reason", std::string(blockReasonName(ctx.reason)));
        b.set("windowHead", ctx.windowHead);
        b.set("windowDepth", ctx.windowDepth);
        blocked.push(b);
    }
    j.set("blocked", blocked);
    return j;
}

} // namespace

/**
 * Everything one connection's read loop shares with its streaming
 * threads: the connection (writes serialized by the core's funnel),
 * the batch slot accounting, and the streaming threads themselves
 * (joined by the close hook before the connection closes).
 */
struct MtvService::ClientState : Connection::State
{
    explicit ClientState(Connection &conn) : conn(conn) {}

    Connection &conn;

    /** This connection's engine scheduling lane. */
    LaneId lane = ExperimentEngine::defaultLane;
    /** Daemon-unique connection id (status reporting). */
    uint64_t clientId = 0;

    /** Cancel tokens of the connection's admitted batches, keyed by
     *  stream id. reaped goes sticky once the peer is known gone, so
     *  a batch admitted concurrently is cancelled at birth. */
    std::mutex tokenMutex;
    std::unordered_map<uint64_t, std::shared_ptr<CancelToken>> tokens;
    bool reaped = false;

    std::mutex slotMutex;
    std::condition_variable slotCv;
    /** Batch requests currently streaming on this connection. */
    int inflight = 0;
    /** Ids of streams that finished and await a cheap join (guarded
     *  by slotMutex; reaped whenever a new batch is admitted, so a
     *  long-lived connection never accumulates dead threads). */
    std::vector<uint64_t> retired;

    /** One thread per admitted batch request, keyed by stream id
     *  (touched only by the read thread). */
    std::unordered_map<uint64_t, std::thread> streams;
    uint64_t nextStreamId = 0;

    /** Join streams listed in retired. Read thread only. */
    void
    reapRetired()
    {
        std::vector<uint64_t> done;
        {
            std::lock_guard<std::mutex> lock(slotMutex);
            done.swap(retired);
        }
        for (const uint64_t id : done) {
            auto it = streams.find(id);
            if (it != streams.end()) {
                it->second.join();
                streams.erase(it);
            }
        }
    }
};

MtvService::MtvService(ServiceOptions options)
{
    if (!options.storeDir.empty()) {
        store_ = std::make_shared<ResultStore>(options.storeDir,
                                               options.storeShards);
    }

    EngineOptions engineOptions;
    engineOptions.workers = options.workers;
    engineOptions.backend = store_;
    engineOptions.maxCacheEntries = options.maxCacheEntries;
    engineOptions.kernel = options.kernel;
    // Warm cache hits hand their canonical bytes straight to the
    // wire (see RunResult::blob) instead of re-serializing per
    // stream.
    engineOptions.canonicalSerializer = [](const SimStats &stats) {
        return serializeSimStats(stats);
    };
    engine_ = std::make_unique<ExperimentEngine>(engineOptions);

    MetricsRegistry &reg = MetricsRegistry::instance();
    obsFirstPointUs_[0] =
        reg.histogram("service_first_point_us{op=\"run\"}");
    obsFirstPointUs_[1] =
        reg.histogram("service_first_point_us{op=\"sweep\"}");
    obsDoneUs_[0] = reg.histogram("service_done_us{op=\"run\"}");
    obsDoneUs_[1] = reg.histogram("service_done_us{op=\"sweep\"}");
    obsEncodeUs_[0] = reg.histogram(
        "service_encode_us{op=\"run\",wire=\"binary\"}");
    obsEncodeUs_[1] = reg.histogram(
        "service_encode_us{op=\"sweep\",wire=\"binary\"}");
    obsInflightBatches_ = reg.gauge("service_inflight_batches");
    obsPointsInFlight_ = reg.gauge("service_points_in_flight");
    obsUnsubmittedPoints_ =
        reg.counter("service_unsubmitted_points_total");
    core_ = std::make_unique<ConnectionCore>(options, coreService());
}

MtvService::ClientState &
MtvService::stateOf(Connection &conn)
{
    return static_cast<ClientState &>(*conn.state);
}

ConnectionCore::Service
MtvService::coreService()
{
    ConnectionCore::Service service;
    service.writeStallUs =
        MetricsRegistry::instance().counter("service_write_stall_us_total");
    service.banner = format(" (%d workers%s)", engine_->workers(),
                            store_ ? ", persistent store" : "");
    service.open = [this](Connection &conn) {
        auto client = std::make_unique<ClientState>(conn);
        client->clientId = nextClientId_.fetch_add(1);
        client->lane = engine_->openLane();
        conn.state = std::move(client);
    };
    // Every in-flight batch of a connection whose write failed is now
    // simulating for nobody: reap at the first failed write.
    service.writeFailed = [this](Connection &conn) {
        reapClient(stateOf(conn));
    };
    service.close = [this](Connection &conn) {
        // The peer is gone (or the daemon is stopping): cancel the
        // connection's batches and drop its queued engine work so
        // abandoned points free their worker slots instead of
        // simulating for nobody — and so the joins below are quick.
        ClientState &client = stateOf(conn);
        reapClient(client);
        engine_->closeLane(client.lane);
        // In-flight batches drain before the connection closes:
        // their threads hold references to it. A gone peer makes
        // their writes fail fast; daemon shutdown breaks their
        // futures.
        for (auto &stream : client.streams) {
            if (stream.second.joinable())
                stream.second.join();
        }
    };
    service.teardown = [this] {
        // Bound shutdown latency: queued-but-unstarted engine work is
        // dropped (its futures break, which the streaming threads
        // treat as "shutting down"); only the simulations already
        // running finish.
        const size_t dropped = engine_->discardQueued();
        if (dropped > 0)
            inform("mtvd: dropped %zu queued runs at shutdown", dropped);
    };

    service.ops["run"] = [this](const Json &request, Connection &conn) {
        return handleRun(request, stateOf(conn));
    };
    service.ops["sweep"] = [this](const Json &request, Connection &conn) {
        return handleSweep(request, stateOf(conn));
    };
    service.ops["compare"] = [this](const Json &request,
                                    Connection &conn) {
        return handleCompare(request, stateOf(conn));
    };
    service.ops["ping"] = [this](const Json &, Connection &conn) {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("pong", true);
        ok.set("protocol", serviceProtocolVersion);
        ok.set("workers", engine_->workers());
        Json families = Json::array();
        for (const SweepFamilyInfo &family : sweepFamilies())
            families.push(family.name);
        ok.set("sweepFamilies", std::move(families));
        return conn.writeLine(ok.dump());
    };
    service.ops["stats"] = [this](const Json &, Connection &conn) {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("workers", engine_->workers());
        Json counters = Json::object();
        counters.set("activeRequests", activeRequests_.load());
        counters.set("completedPoints", completedPoints_.load());
        ok.set("service", std::move(counters));
        ok.set("cache", engineStatsToJson(*engine_));
        ok.set("store", store_ ? storeStatsToJson(*store_) : Json());
        return conn.writeLine(ok.dump());
    };
    service.ops["status"] = [this](const Json &, Connection &conn) {
        return conn.writeLine(statusJson().dump());
    };
    service.ops["metrics"] = [](const Json &request, Connection &conn) {
        const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("metrics", metricsToJson(snap));
        if (request.getBool("prom", false))
            ok.set("prom", renderProm(snap));
        return conn.writeLine(ok.dump());
    };
    service.ops["cancel"] = [this](const Json &request, Connection &conn) {
        const uint64_t target = safeRequestId(request);
        if (target == 0) {
            return conn.writeLine(errorJson("cancel needs the request id "
                                            "of the batch to cancel")
                                      .dump());
        }
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("cancelled", cancelBatches(target));
        return conn.writeLine(ok.dump());
    };
    service.ops["clear"] = [this](const Json &, Connection &conn) {
        engine_->clear();
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("cleared", true);
        return conn.writeLine(ok.dump());
    };
    return service;
}

void
MtvService::reapClient(ClientState &client)
{
    std::vector<std::shared_ptr<CancelToken>> tokens;
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        if (client.reaped)
            return;
        client.reaped = true;
        tokens.reserve(client.tokens.size());
        for (const auto &entry : client.tokens)
            tokens.push_back(entry.second);
    }
    uint64_t reaped = 0;
    for (const auto &token : tokens) {
        if (!token->cancelled()) {
            token->cancel();
            ++reaped;
        }
    }
    reapedBatches_.fetch_add(reaped);
    if (reaped > 0) {
        inform("mtvd: client %llu vanished, reaped %llu in-flight "
               "batch%s",
               static_cast<unsigned long long>(client.clientId),
               static_cast<unsigned long long>(reaped),
               reaped == 1 ? "" : "es");
    }
    // Streaming threads may be parked on the slot cv; the read loop
    // is done admitting, so wake them to observe writeFailed/reaped.
    client.slotCv.notify_all();
}

uint64_t
MtvService::cancelBatches(uint64_t requestId)
{
    uint64_t cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        for (auto &entry : batches_) {
            if (entry.second.requestId != requestId ||
                entry.second.token->cancelled()) {
                continue;
            }
            entry.second.token->cancel();
            ++cancelled;
        }
    }
    cancelledBatches_.fetch_add(cancelled);
    return cancelled;
}

Json
MtvService::statusJson()
{
    Json ok = Json::object();
    ok.set("ok", true);
    ok.set("kernel", simKernelName(engine_->kernel()));
    ok.set("queueDepth",
           static_cast<uint64_t>(engine_->queueDepth()));
    ok.set("activeRequests", activeRequests_.load());
    ok.set("completedPoints", completedPoints_.load());
    ok.set("pointsInFlight", pointsInFlight_.load());
    Json counters = Json::object();
    counters.set("cancelledBatches", cancelledBatches_.load());
    counters.set("reapedBatches", reapedBatches_.load());
    counters.set("cancelledPoints", engine_->cancelledRuns());
    counters.set("discardedPoints", engine_->discardedTasks());
    counters.set("unsubmittedPoints", unsubmittedPoints_.load());
    ok.set("counters", std::move(counters));
    // Per-lane queue depths: which tenant's work is actually queued
    // (lane 0 = runAll/plain submit; one lane per connection).
    Json lanes = Json::array();
    for (const auto &entry : engine_->laneDepths()) {
        Json lane = Json::object();
        lane.set("lane", entry.first);
        lane.set("depth", static_cast<uint64_t>(entry.second));
        lanes.push(std::move(lane));
    }
    ok.set("lanes", std::move(lanes));
    // Per-shard store counters, when a store is attached: hot shards,
    // recovery damage, session appends.
    if (store_) {
        Json shards = Json::array();
        const std::vector<ResultStore::ShardStats> stats =
            store_->shardStats();
        for (size_t i = 0; i < stats.size(); ++i) {
            Json shard = Json::object();
            shard.set("shard", static_cast<uint64_t>(i));
            shard.set("appends", stats[i].appends);
            shard.set("hits", stats[i].hits);
            shard.set("misses", stats[i].misses);
            shard.set("records",
                      static_cast<uint64_t>(stats[i].records));
            shard.set("recovered", stats[i].loadedRecords);
            shard.set("dropped", stats[i].droppedRecords);
            shards.push(std::move(shard));
        }
        ok.set("shards", std::move(shards));
    }
    // Per-connection in-flight accounting, from the batch registry
    // (connections with nothing in flight have nothing to report).
    std::map<uint64_t, std::vector<uint64_t>> perClient;
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        for (const auto &entry : batches_) {
            perClient[entry.second.clientId].push_back(
                entry.second.requestId);
        }
    }
    Json connections = Json::array();
    for (auto &entry : perClient) {
        Json conn = Json::object();
        conn.set("client", entry.first);
        conn.set("inflight",
                 static_cast<uint64_t>(entry.second.size()));
        std::sort(entry.second.begin(), entry.second.end());
        Json ids = Json::array();
        for (const uint64_t id : entry.second)
            ids.push(id);
        conn.set("requests", std::move(ids));
        connections.push(std::move(conn));
    }
    ok.set("connections", std::move(connections));
    return ok;
}

bool
MtvService::acquireSlot(ClientState &client)
{
    // The protocol's backpressure: with every slot streaming, the
    // read loop parks here, stops draining the socket, and the
    // client's sends eventually block.
    std::unique_lock<std::mutex> lock(client.slotMutex);
    client.slotCv.wait(lock, [&client] {
        return !client.conn.live() ||
               client.inflight < maxInflightRequestsPerConnection;
    });
    if (!client.conn.live())
        return false;
    ++client.inflight;
    return true;
}

bool
MtvService::handleRun(const Json &request, ClientState &client)
{
    const uint64_t admittedUs = monotonicMicros();
    const uint64_t id = safeRequestId(request);
    const std::vector<Json> &specLines =
        request.get("specs").asArray();
    const bool quiet = request.getBool("quiet", false);

    // Validate the whole batch before running any of it: a malformed
    // spec answers with one error and no results.
    BatchPoints batch;
    for (const Json &text : specLines)
        batch.source.add(RunSpec::parse(text.asString()));

    if (!acquireSlot(client))
        return false;
    admitBatch(client, id, std::move(batch), quiet, false, admittedUs,
               nullptr);
    return true;
}

bool
MtvService::handleSweep(const Json &request, ClientState &client)
{
    const uint64_t admittedUs = monotonicMicros();
    const uint64_t id = safeRequestId(request);
    const bool quiet = request.getBool("quiet", false);

    // An unknown family answers with a *structured* error line — the
    // offending name plus the registered families — so fleet routers
    // and scripted clients can match on fields instead of parsing
    // prose. Either way the connection stays open.
    const SweepRequest sweepRequest = sweepRequestFromJson(request);
    bool known = false;
    for (const SweepFamilyInfo &family : sweepFamilies())
        known = known || family.name == sweepRequest.family;
    if (!known) {
        Json err = requestErrorJson(id, "unknown sweep family '" +
                                            sweepRequest.family +
                                            "'");
        err.set("badFamily", sweepRequest.family);
        Json families = Json::array();
        for (const SweepFamilyInfo &family : sweepFamilies())
            families.push(family.name);
        err.set("families", std::move(families));
        return client.conn.writeLine(err.dump());
    }

    // "ring" makes this node one owner of an owner-computes scatter:
    // it rebuilds the router's hash ring and streams only the points
    // the ring assigns it. A malformed ring answers a structured
    // error naming the bad member; the connection stays open.
    BatchPoints selection;
    if (request.has("ring")) {
        SweepRing ring;
        std::string field;
        std::string problem;
        if (request.has("points")) {
            field = "points";
            problem = "a sweep takes \"points\" or \"ring\", not both";
        } else if (sweepRingFromJson(request.get("ring"), &ring, &field,
                                     &problem)) {
            auto hashRing =
                std::make_shared<HashRing>(ring.nodes, ring.vnodes);
            for (size_t n = 0; n < ring.nodes.size(); ++n) {
                if (!ring.live[n])
                    hashRing->removeNode(n);
            }
            selection.ring = std::move(hashRing);
            selection.self = ring.self;
        }
        if (!selection.ring) {
            Json err = requestErrorJson(id, problem);
            err.set("badRing", field);
            return client.conn.writeLine(err.dump());
        }
    }

    // Server-side expansion: the ~100-byte family request becomes an
    // indexed batch here, next to the engine. Every parameter is
    // validated now, so a bad request errors before the ack, but no
    // spec is built: the streaming window builds each one as it
    // refills.
    selection.source = expandSweep(sweepRequest);
    const size_t total = selection.source.size();

    // "points" selects a subset of the expansion by global index —
    // the fleet reroute path (a router sends a survivor the points a
    // dead node left). Like a ring's share, the subset streams with
    // seq = global index. The list must be strictly ascending and in
    // range: a router's bounded relay relies on every node streaming
    // in ascending global order. A bad list answers a structured
    // error naming the first offending position; the connection
    // stays open.
    if (request.has("points")) {
        const std::vector<Json> &points =
            request.get("points").asArray();
        selection.subset = true;
        selection.seqs.reserve(points.size());
        for (size_t k = 0; k < points.size(); ++k) {
            const uint64_t index = points[k].asU64();
            std::string problem;
            if (index >= total) {
                problem = format("sweep point index %llu out of range "
                                 "(family '%s' expands to %zu points)",
                                 static_cast<unsigned long long>(index),
                                 sweepRequest.family.c_str(), total);
            } else if (k > 0 && index <= points[k - 1].asU64()) {
                problem = format("sweep points must be strictly "
                                 "ascending (index %llu at position "
                                 "%zu)",
                                 static_cast<unsigned long long>(index),
                                 k);
            }
            if (!problem.empty()) {
                Json err = requestErrorJson(id, problem);
                err.set("badPoints", static_cast<uint64_t>(k));
                err.set("total", static_cast<uint64_t>(total));
                return client.conn.writeLine(err.dump());
            }
            selection.seqs.push_back(index);
        }
    }

    // A ring's share is known only once it has been picked, so its
    // ack carries no count; the done line does.
    Json ack = Json::object();
    ack.set("id", id);
    ack.set("ack", true);
    if (!selection.ring) {
        ack.set("count", static_cast<uint64_t>(
                             selection.subset ? selection.seqs.size()
                                              : total));
    }
    ack.set("total", static_cast<uint64_t>(total));
    Json slices = Json::array();
    for (const SweepSlice &slice : selection.source.slices())
        slices.push(sliceToJson(slice));
    ack.set("slices", std::move(slices));
    if (!client.conn.writeLine(ack.dump()))
        return false;

    if (!acquireSlot(client))
        return false;
    admitBatch(client, id, std::move(selection), quiet, true,
               admittedUs, nullptr);
    return true;
}

bool
MtvService::handleCompare(const Json &request, ClientState &client)
{
    const uint64_t admittedUs = monotonicMicros();
    const uint64_t id = safeRequestId(request);

    const SweepRequest sweepRequest = sweepRequestFromJson(request);
    bool known = false;
    for (const SweepFamilyInfo &family : sweepFamilies())
        known = known || family.name == sweepRequest.family;
    if (!known) {
        Json err = requestErrorJson(id, "unknown sweep family '" +
                                            sweepRequest.family +
                                            "'");
        err.set("badFamily", sweepRequest.family);
        Json families = Json::array();
        for (const SweepFamilyInfo &family : sweepFamilies())
            families.push(family.name);
        err.set("families", std::move(families));
        return client.conn.writeLine(err.dump());
    }

    BatchPoints batch;
    batch.source = expandSweep(sweepRequest);

    // Comparability is checked before any simulation: every slice
    // must pair row-wise against slice 0 (the baseline design).
    // Families whose slices are not design-parallel (suite-grouping,
    // groupings) answer a structured error instead of burning a
    // sweep's worth of work first.
    const std::vector<SweepSlice> &slices = batch.source.slices();
    bool comparable = slices.size() >= 2;
    for (const SweepSlice &s : slices)
        comparable = comparable && s.count == slices[0].count;
    if (!comparable) {
        Json err = requestErrorJson(
            id, "sweep family '" + sweepRequest.family +
                    "' is not design-parallel and cannot be "
                    "compared");
        err.set("notComparable", sweepRequest.family);
        return client.conn.writeLine(err.dump());
    }

    auto compare = std::make_shared<CompareJob>();
    compare->family = sweepRequest.family;
    compare->baseline = slices[0].label;
    compare->slices = slices;

    if (!acquireSlot(client))
        return false;
    admitBatch(client, id, std::move(batch), /*quiet=*/true,
               /*sweep=*/true, admittedUs, std::move(compare));
    return true;
}

void
MtvService::admitBatch(ClientState &client, uint64_t id,
                       BatchPoints points, bool quiet, bool sweep,
                       uint64_t admittedUs,
                       std::shared_ptr<const CompareJob> compare)
{
    client.reapRetired();
    const uint64_t streamId = client.nextStreamId++;
    auto token = std::make_shared<CancelToken>();
    const uint64_t batchKey = nextBatchKey_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        batches_.emplace(batchKey,
                         BatchInfo{client.clientId, id, token});
    }
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        // The peer may have vanished between the read and here (a
        // streaming thread's write failed): a batch admitted into a
        // reaped connection is cancelled at birth.
        if (client.reaped)
            token->cancel();
        client.tokens.emplace(streamId, token);
    }
    client.streams.emplace(
        streamId,
        std::thread([this, &client, streamId, id,
                     points = std::move(points), quiet, token,
                     batchKey, sweep, admittedUs,
                     compare = std::move(compare)]() mutable {
            streamBatch(client, streamId, id, std::move(points), quiet,
                        std::move(token), batchKey, sweep, admittedUs,
                        std::move(compare));
        }));
}

void
MtvService::streamBatch(ClientState &client, uint64_t streamId,
                        uint64_t id, BatchPoints points, bool quiet,
                        std::shared_ptr<CancelToken> token,
                        uint64_t batchKey, bool sweep,
                        uint64_t admittedUs,
                        std::shared_ptr<const CompareJob> compare)
{
    activeRequests_.fetch_add(1);
    obsInflightBatches_->add(1);

    // Submit in a bounded window, then consume the futures in
    // submission order, writing each point as its result lands: at
    // most streamWindowPoints points ride the engine ahead of the
    // write cursor, refilled in one go once half of them are written
    // (one burst of submits per W/2 points, not a worker wakeup per
    // point). Each refill builds the specs it submits from the
    // indexed source, so point 0 waits for one window of specs, not
    // the whole batch, and only a window of specs and results is ever
    // alive. Every task carries the batch's cancel token and rides
    // this connection's lane, so a cancel/reap frees the queued
    // points and other connections are never head-of-line blocked.
    // Identical points of other in-flight requests coalesce inside
    // the engine. The progress hook feeds the daemon-wide completion
    // counter the moment a point finishes, seq order or not.
    //
    // The batch's stream positions [0, selected) are known; position
    // k is source point seqs[k] for a subset or a ring share, else
    // point k. Only a ring batch picks as it goes: each candidate
    // below `scanned` has been built and keyed (its canonical key and
    // a ring lookup), and an owned one is staged for the next submit
    // with its global index in seqs and its key in keys (reused by
    // the engine's cache lookup) — so point 0 waits for one window of
    // the node's share, not all of it.
    const SweepBuilder &source = points.source;
    const size_t candidates = source.size();
    std::vector<uint64_t> seqs = std::move(points.seqs);
    std::vector<RunSpec> staged;
    std::vector<std::string> keys;
    size_t selected = points.ring     ? 0
                      : points.subset ? seqs.size()
                                      : candidates;
    size_t scanned = points.ring ? 0 : candidates;
    const auto pick = [&](size_t want) {
        while (selected < want && scanned < candidates) {
            RunSpec spec = source.spec(scanned);
            std::string key = spec.canonical();
            if (points.ring->nodeFor(key) == points.self) {
                staged.push_back(std::move(spec));
                keys.push_back(std::move(key));
                seqs.push_back(scanned);
                ++selected;
            }
            ++scanned;
        }
    };
    const ExperimentEngine::SubmitHook progress =
        [this](const RunResult &) { completedPoints_.fetch_add(1); };
    std::deque<std::future<RunResult>> window;
    size_t submitted = 0;
    const auto refill = [&](size_t cursor) {
        if (submitted - cursor > streamWindowPoints / 2)
            return;
        const size_t want = cursor + streamWindowPoints;
        if (points.ring) {
            pick(want);
        } else {
            for (size_t k = submitted; k < std::min(selected, want); ++k)
                staged.push_back(source.spec(points.subset ? seqs[k] : k));
        }
        const size_t burst = staged.size();
        if (burst == 0)
            return;
        pointsInFlight_.fetch_add(burst);
        obsPointsInFlight_->add(static_cast<int64_t>(burst));
        for (auto &future :
             engine_->submitAll(staged, 0, burst, progress, token,
                                client.lane,
                                points.ring ? &keys : nullptr)) {
            window.push_back(std::move(future));
        }
        staged.clear();
        keys.clear();
        submitted += burst;
    };

    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    uint64_t storeServed = 0;
    uint64_t digest = 0xcbf29ce484222325ull;
    bool aborted = false;
    bool cancelled = false;
    size_t completed = 0;
    std::vector<RunResult> collected;
    if (compare)
        collected.reserve(selected);
    // Encoded points waiting for one coalesced write. A point is
    // held back only while the NEXT future is already settled (a
    // warm sweep draining the cache), so a trickling stream still
    // flushes every point the moment it lands — same latency, far
    // fewer write() syscalls on the hot path.
    std::string outbox;
    const auto flushOutbox = [&]() {
        if (outbox.empty())
            return true;
        const bool ok = client.conn.writeBytes(outbox);
        outbox.clear();
        return ok;
    };
    for (size_t i = 0;; ++i) {
        if (i == selected && scanned == candidates)
            break;  // every point written
        if (token->cancelled()) {
            // A client's cancel op, or the reap of a vanished peer:
            // stop submitting and answer with a cancelled terminator.
            // Queued points of the window are skipped by the engine.
            cancelled = true;
            break;
        }
        refill(i);
        if (window.empty())
            break;  // the ring's share ended at the last pick
        RunResult result;
        try {
            result = window.front().get();
        } catch (const std::future_error &) {
            // Shutdown (discardQueued) or a lane close dropped this
            // queued run; the connection is being torn down anyway.
            aborted = true;
            break;
        } catch (const CancelledError &) {
            // The token fired after this point was submitted.
            cancelled = true;
            break;
        } catch (const SimError &e) {
            // A wedged simulation is a model bug worth reporting in
            // full, but never worth the daemon's life.
            warn("mtvd: %s", e.what());
            flushOutbox();
            client.conn.writeLine(simErrorJson(id, e).dump());
            aborted = true;
            break;
        } catch (const FatalError &e) {
            flushOutbox();
            client.conn.writeLine(requestErrorJson(id, e.what()).dump());
            aborted = true;
            break;
        }
        window.pop_front();
        pointsInFlight_.fetch_sub(1);
        obsPointsInFlight_->add(-1);
        if (result.cached)
            ++cacheServed;
        else if (result.fromStore)
            ++storeServed;
        else
            ++simulated;
        ++completed;
        // Folded server-side so even quiet requests get the
        // bit-identity digest; the same bytes feed the result's
        // blob, serialized once — or not at all on the zero-copy
        // path, where a store hit carries the exact bytes read off
        // disk (segments store verbatim serializeSimStats output).
        std::string localBlob;
        const std::string *blob = result.blob.get();
        if (!blob) {
            localBlob = serializeSimStats(result.stats);
            blob = &localBlob;
        }
        digest = fnv1a64(blob->data(), blob->size(), digest);
        if (compare) {
            // Compare mode: the points stay server-side; the one
            // aggregated line after the loop is the whole answer.
            collected.push_back(std::move(result));
            continue;
        }
        const size_t seq = seqs.empty() ? i : seqs[i];
        const uint64_t encodeStartUs = monotonicMicros();
        appendResultFrame(&outbox, result, id, seq,
                          quiet ? nullptr : blob);
        obsEncodeUs_[sweep]->observe(monotonicMicros() - encodeStartUs);
        const bool nextReady =
            !window.empty() &&
            window.front().wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
        if ((!nextReady || outbox.size() >= streamOutboxBytes) &&
            !flushOutbox()) {
            aborted = true;  // client gone; queued work was reaped
            break;
        }
        // Request→first-point latency: the moment the client could
        // first see a result of this batch.
        if (i == 0) {
            obsFirstPointUs_[sweep]->observe(
                monotonicMicros() - admittedUs);
        }
    }
    // Whatever the window still holds is settled or skipped by the
    // engine; points never submitted stay visible in "status" (for a
    // ring batch, those it had picked).
    const size_t count = selected;
    pointsInFlight_.fetch_sub(window.size());
    obsPointsInFlight_->add(-static_cast<int64_t>(window.size()));
    unsubmittedPoints_.fetch_add(count - submitted);
    obsUnsubmittedPoints_->inc(count - submitted);

    // Points the loop held back for coalescing go out before any
    // terminator below.
    if (!aborted && !flushOutbox())
        aborted = true;

    // Unregistered before the terminator goes out: a client that has
    // read "done" must not observe its own request as still active
    // or cancellable.
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        batches_.erase(batchKey);
    }
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        client.tokens.erase(streamId);
    }
    activeRequests_.fetch_sub(1);

    if (cancelled) {
        // Deliberately partial: report how far the stream got and no
        // digest. The remaining queued points resolve as cancelled
        // inside the engine without simulating.
        Json done = Json::object();
        done.set("id", id);
        done.set("done", true);
        done.set("cancelled", true);
        done.set("count", static_cast<uint64_t>(count));
        done.set("completed", static_cast<uint64_t>(completed));
        client.conn.writeLine(done.dump());
    } else if (!aborted && compare) {
        // The compare answer: one aggregated line, the digest folded
        // over the same blobs the equivalent sweep would stream.
        try {
            ScopedFatalAsException fatalScope;
            Json ok = Json::object();
            ok.set("id", id);
            ok.set("ok", true);
            ok.set("compare", true);
            ok.set("family", compare->family);
            ok.set("count", static_cast<uint64_t>(count));
            ok.set("baseline", compare->baseline);
            ok.set("simulated", simulated);
            ok.set("cacheServed", cacheServed);
            ok.set("storeServed", storeServed);
            ok.set("digest",
                   format("%016llx",
                          static_cast<unsigned long long>(digest)));
            Json rows = Json::array();
            for (const CompareRow &row :
                 compareDesigns(compare->slices, collected))
                rows.push(compareRowToJson(row));
            ok.set("rows", std::move(rows));
            if (client.conn.writeLine(ok.dump())) {
                obsDoneUs_[sweep]->observe(monotonicMicros() -
                                           admittedUs);
            }
        } catch (const FatalError &e) {
            client.conn.writeLine(requestErrorJson(id, e.what()).dump());
        }
    } else if (!aborted) {
        Json done = Json::object();
        done.set("id", id);
        done.set("done", true);
        done.set("count", static_cast<uint64_t>(count));
        done.set("simulated", simulated);
        done.set("cacheServed", cacheServed);
        done.set("storeServed", storeServed);
        done.set("digest", format("%016llx",
                                  static_cast<unsigned long long>(
                                      digest)));
        if (client.conn.writeLine(done.dump())) {
            // Request→done latency, clean completions only: aborted
            // and cancelled streams are deliberately partial and
            // would pollute the series with early exits.
            obsDoneUs_[sweep]->observe(monotonicMicros() -
                                       admittedUs);
        }
    }
    obsInflightBatches_->add(-1);

    {
        std::lock_guard<std::mutex> lock(client.slotMutex);
        --client.inflight;
        client.retired.push_back(streamId);
    }
    client.slotCv.notify_all();
}

} // namespace mtv
