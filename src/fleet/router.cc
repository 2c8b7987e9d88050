#include "src/fleet/router.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <exception>
#include <optional>
#include <unordered_set>

#include <sys/socket.h>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/json.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/** Ring identities must be distinct and non-empty: a duplicate
 *  endpoint would be the same daemon owning two ring slots. */
std::vector<std::string>
validatedNodeNames(const std::vector<std::string> &endpointTexts)
{
    if (endpointTexts.empty())
        fatal("fleet: node list is empty");
    std::unordered_set<std::string> seen;
    for (const std::string &text : endpointTexts) {
        if (text.empty())
            fatal("fleet: empty node endpoint in list");
        if (!seen.insert(text).second)
            fatal("fleet: duplicate node endpoint '%s'",
                  text.c_str());
    }
    return endpointTexts;
}

/** How long a ping, or a batch connection's connect and hello, may
 *  take. A live daemon answers both from its connection thread in
 *  well under a millisecond; a node silent this long is wedged, and
 *  the health monitor (and every stop() that joins it) and the batch
 *  must not wait on it. */
constexpr int pingTimeoutMs = 2000;

/** Histogram bounds for the relay's parked-payload depth: zero,
 *  then 1-2.5-5 per decade up to a million points, so any sweep size
 *  resolves. */
const std::vector<uint64_t> &
parkedDepthBuckets()
{
    static const std::vector<uint64_t> bounds = {
        0,     1,     2,      5,      10,     25,      50,
        100,   250,   500,    1000,   2500,   5000,    10000,
        25000, 50000, 100000, 250000, 500000, 1000000,
    };
    return bounds;
}

std::vector<std::string>
canonicalKeys(const std::vector<RunSpec> &specs)
{
    std::vector<std::string> keys;
    keys.reserve(specs.size());
    for (const RunSpec &spec : specs)
        keys.push_back(spec.canonical());
    return keys;
}

} // namespace

/**
 * Shared state of one gather. Node reader threads park verified
 * payloads by global index; the scatter caller's thread drains them
 * in global order, handing each to the hook outside the lock.
 *
 * The router's own view of the batch — each point's canonical key
 * and, for a sweep's first round, its ring owner — is published in
 * index order, by the publisher thread while the nodes stream: it
 * builds spec i of the indexed expansion and its key as it goes. A
 * reader checks a frame only once its index is published.
 *
 * Parking is bounded by credit: a reader that has
 * streamWindowPoints payloads parked stops reading until the drain
 * takes some, so TCP pushes back on its node (whose own window then
 * bounds it). This cannot deadlock while every reader lives. A
 * reader parks only frames it has checked against the published
 * owners: each strictly after the last, each owned by its node, and
 * none past an index its node owns but did not send (a skip marks
 * the node dead before the later frame parks). So the owner of the
 * point the cursor waits on has no undrained payload of this round
 * (all of its earlier ones lie below the cursor) and is never
 * waiting for credit. A reader that dies breaks that argument — the
 * cursor may then wait on its point, which only the next round
 * reroutes, while survivors wait for credit — so the first failure
 * of a round switches credit off until the round ends.
 *
 * A batch the drain gives up (the hook threw: the client is gone)
 * shuts down the node sockets listed here, so every reader ends at
 * once instead of streaming its node's share for nobody, and each
 * node reaps its stream at its own failed write.
 */
struct FleetRouter::Gather
{
    std::mutex mutex;
    std::condition_variable wake;
    /** Readers waiting for credit park here. */
    std::condition_variable credit;
    /** Readers waiting for the publisher park here. */
    std::condition_variable progress;
    /** RunSpec::canonical() per global index: spec check, ring key of
     *  the reroute rounds and the run op's request text. */
    std::vector<std::string> keys;
    /** A sweep's round-1 ring owner per global index. */
    std::vector<uint32_t> owners;
    /** keys and owners are final below this index. */
    size_t published = 0;
    /** The batch was given up (the drain or the hook threw): readers
     *  stop waiting and their node sockets are shut down. */
    bool aborted = false;
    /** The open node sockets of this batch (see BatchSocket). */
    std::vector<int> fds;
    /** A sweep's indexed expansion and the thread that publishes its
     *  keys and owners (the first round). */
    SweepBuilder source;
    std::thread publisher;
    /** Per global index: the point's payload has landed. */
    std::vector<char> landed;
    std::vector<std::string> payloads;
    /** Per global index: the reader slot that parked it. */
    std::vector<uint32_t> parkedBy;
    /** Per reader slot (one per reader per round): its payloads
     *  parked and not yet drained. */
    std::vector<size_t> readerParked;
    /** Next global index to drain; everything below it has been
     *  folded and handed to the hook. Carries across rounds. */
    size_t cursor = 0;
    /** Landed payloads not yet drained. */
    size_t parked = 0;
    /** Reader threads of the current round still streaming. */
    size_t readers = 0;
    /** Readers blocked on credit right now. */
    size_t creditWaiters = 0;
    /** Credit is off for the rest of the round: a reader failed or
     *  the drain gave up. */
    bool creditOff = false;

    ~Gather()
    {
        abandon();
        if (publisher.joinable())
            publisher.join();
    }

    /** Size the tables for @p n points. Before any reader starts. */
    void
    size(size_t n)
    {
        keys.resize(n);
        owners.resize(n);
        landed.assign(n, 0);
        payloads.resize(n);
        parkedBy.resize(n);
    }

    /** An explicit batch: every key is known up front. */
    void
    publishAll(std::vector<std::string> batchKeys)
    {
        size(batchKeys.size());
        keys = std::move(batchKeys);
        published = keys.size();
    }

    /**
     * A sweep's first round: build spec i of @p source, its key and
     * its @p ring owner in index order on the publisher thread,
     * publishing every few points, while this thread goes on to
     * drain.
     */
    void
    startPublisher(HashRing ring)
    {
        publisher = std::thread([this, ring = std::move(ring)] {
            constexpr size_t chunk = 64;
            const size_t n = keys.size();
            for (size_t first = 0; first < n; first += chunk) {
                const size_t end = std::min(n, first + chunk);
                for (size_t i = first; i < end; ++i) {
                    keys[i] = source.spec(i).canonical();
                    owners[i] = static_cast<uint32_t>(
                        ring.nodeFor(keys[i]));
                }
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    published = end;
                    if (aborted)
                        return;
                }
                progress.notify_all();
            }
        });
    }

    /** Wait until indices below @p upTo are published (clamped to the
     *  batch) and store how many are in @p seen; false when the batch
     *  was given up instead. */
    bool
    awaitPublished(size_t upTo, size_t *seen)
    {
        std::unique_lock<std::mutex> lock(mutex);
        progress.wait(lock, [this, upTo] {
            return aborted || published >= std::min(upTo, keys.size());
        });
        *seen = published;
        return !aborted;
    }

    /** List a node socket of this batch, shut down at once when the
     *  batch was already given up. */
    void
    listSocket(int fd)
    {
        std::lock_guard<std::mutex> lock(mutex);
        fds.push_back(fd);
        if (aborted)
            ::shutdown(fd, SHUT_RDWR);
    }

    /** Unlist @p fd before its channel closes it. */
    void
    unlistSocket(int fd)
    {
        std::lock_guard<std::mutex> lock(mutex);
        fds.erase(std::find(fds.begin(), fds.end(), fd));
    }

    /** The batch was given up: a reader's failure is not its node's. */
    bool
    abandoned()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return aborted;
    }

    /** Open a scatter round and give its @p count readers fresh
     *  slots; returns the first slot. */
    uint32_t
    startRound(size_t count)
    {
        std::lock_guard<std::mutex> lock(mutex);
        readers = count;
        creditOff = false;
        const size_t first = readerParked.size();
        readerParked.resize(first + count, 0);
        return static_cast<uint32_t>(first);
    }

    /** Park @p payload for @p global, then hold the reader in
     *  @p slot while it has a full window parked. */
    void
    park(uint32_t slot, size_t global, std::string &&payload)
    {
        std::unique_lock<std::mutex> lock(mutex);
        payloads[global] = std::move(payload);
        landed[global] = 1;
        parkedBy[global] = slot;
        ++parked;
        const bool wanted = global == cursor;
        if (++readerParked[slot] < streamWindowPoints) {
            lock.unlock();
            if (wanted)
                wake.notify_one();
            return;
        }
        if (wanted)
            wake.notify_one();
        ++creditWaiters;
        credit.wait(lock, [this, slot] {
            return creditOff ||
                   readerParked[slot] < streamWindowPoints;
        });
        --creditWaiters;
    }

    /** A reader of this round finished; @p failed when its node was
     *  marked dead with points of the subset still unparked — the
     *  one case in which the cursor can wait on a point no live
     *  reader will bring. */
    void
    readerDone(bool failed)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            --readers;
            creditOff = creditOff || failed;
        }
        wake.notify_one();
        if (failed)
            credit.notify_all();
    }

    /** Give the batch up: release every credit and publisher wait
     *  and shut down the node sockets (the drain is gone). */
    void
    abandon()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            creditOff = true;
            aborted = true;
            for (const int fd : fds)
                ::shutdown(fd, SHUT_RDWR);
        }
        credit.notify_all();
        progress.notify_all();
    }

    /**
     * Drain one scatter round: take every payload ready at the cursor
     * as one batch, fold it into @p outcome and relay it through
     * @p hook, until the round's readers are gone and the cursor
     * waits on a point a dead node left behind (the next round
     * reroutes it) or the batch is complete.
     */
    void
    drain(const PointHook &hook, FleetOutcome &outcome,
          Histogram *depth)
    {
        std::vector<std::string> batch;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [this] {
                return readers == 0 ||
                       (cursor < landed.size() && landed[cursor]);
            });
            const size_t first = cursor;
            while (cursor < landed.size() && landed[cursor]) {
                --readerParked[parkedBy[cursor]];
                batch.push_back(std::move(payloads[cursor++]));
            }
            if (batch.empty())
                return;
            depth->observe(parked);
            parked -= batch.size();
            const bool release = creditWaiters > 0;
            lock.unlock();
            if (release)
                credit.notify_all();
            for (size_t k = 0; k < batch.size(); ++k) {
                // The reader verified this payload; the view cannot
                // fail.
                ResultFrameView view;
                viewResultFrame(batch[k], &view, nullptr);
                outcome.digest = fnv1a64(view.blob.data(),
                                         view.blob.size(),
                                         outcome.digest);
                if (view.cached)
                    ++outcome.cacheServed;
                else if (view.fromStore)
                    ++outcome.storeServed;
                else
                    ++outcome.simulated;
                if (hook)
                    hook(first + k, batch[k], k + 1 < batch.size());
            }
            batch.clear();
            lock.lock();
        }
    }
};

FleetRouter::FleetRouter(
    const std::vector<std::string> &endpointTexts,
    FleetOptions options)
    : options_(options),
      ring_(validatedNodeNames(endpointTexts), options.vnodesPerNode)
{
    nodes_.reserve(endpointTexts.size());
    for (const std::string &text : endpointTexts) {
        Node node;
        node.name = text;
        node.endpoint = parseEndpoint(text);
        nodes_.push_back(std::move(node));
    }

    MetricsRegistry &reg = MetricsRegistry::instance();
    obsDeadMarks_ = reg.counter("fleet_dead_marks_total");
    obsRevives_ = reg.counter("fleet_revives_total");
    obsReroutes_ = reg.counter("fleet_reroutes_total");
    obsPingRttUs_ = reg.histogram("fleet_ping_rtt_us");
    obsScatterPoints_ = reg.histogram(
        "fleet_scatter_points", MetricsRegistry::countBuckets());
    obsParkedDepth_ =
        reg.histogram("fleet_parked_depth", parkedDepthBuckets());
}

FleetRouter::~FleetRouter() { stopHealthMonitor(); }

size_t
FleetRouter::nodeCount() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return nodes_.size();
}

size_t
FleetRouter::aliveCount() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return ring_.liveCount();
}

std::vector<FleetNodeStatus>
FleetRouter::status() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    std::vector<FleetNodeStatus> out;
    out.reserve(nodes_.size());
    for (const Node &node : nodes_) {
        FleetNodeStatus s;
        s.name = node.name;
        s.alive = node.alive;
        s.lastError = node.lastError;
        s.pointsServed = node.pointsServed;
        out.push_back(std::move(s));
    }
    return out;
}

size_t
FleetRouter::nodeForKey(const std::string &canonical) const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return ring_.nodeFor(canonical);
}

void
FleetRouter::markDead(size_t index, const std::string &error)
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    Node &node = nodes_[index];
    if (!node.alive)
        return;
    node.alive = false;
    node.lastError = error;
    // A reader blocked on this node's stream sees EOF, gives up its
    // subset, and the next round reroutes it.
    for (const int fd : node.batchFds)
        ::shutdown(fd, SHUT_RDWR);
    ring_.removeNode(index);
    deadDuringBatch_.push_back(node.name);
    obsDeadMarks_->inc();
    warn("fleet: node %s marked dead (%s); %zu of %zu nodes left",
         node.name.c_str(), error.c_str(), ring_.liveCount(),
         nodes_.size());
}

void
FleetRouter::revive(size_t index)
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    Node &node = nodes_[index];
    if (node.alive)
        return;
    node.alive = true;
    node.lastError.clear();
    ring_.restoreNode(index);
    obsRevives_->inc();
    inform("fleet: node %s revived; %zu of %zu nodes live",
           node.name.c_str(), ring_.liveCount(), nodes_.size());
}

size_t
FleetRouter::pingAll()
{
    const size_t count = nodeCount();
    for (size_t i = 0; i < count; ++i) {
        Endpoint endpoint;
        bool wasAlive;
        {
            std::lock_guard<std::mutex> lock(membershipMutex_);
            wasAlive = nodes_[i].alive;
            endpoint = nodes_[i].endpoint;
        }
        std::string error;
        const uint64_t pingStartUs = monotonicMicros();
        const int fd =
            connectToEndpoint(endpoint, &error, pingTimeoutMs);
        if (fd < 0) {
            // A dead node that still refuses connections simply stays
            // dead — no counter churn, no re-mark.
            if (wasAlive)
                markDead(i, error);
            continue;
        }
        LineChannel channel(fd);
        bool healthy = false;
        std::string why = "status ping failed";
        try {
            // A garbled pong is a node failure, not a router crash.
            ScopedFatalAsException scope;
            Json request = Json::object();
            request.set("op", "ping");
            std::string line;
            errno = 0;
            if (!channel.writeLine(request.dump()) ||
                !channel.readLine(&line)) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    why = "ping timed out";
            } else {
                Json response;
                std::string parseError;
                if (Json::parse(line, &response, &parseError)) {
                    const int protocol = static_cast<int>(
                        response.getNumber("protocol"));
                    if (!response.getBool("ok")) {
                        why = "ping answered: " +
                              response.getString("error",
                                                 response.dump());
                    } else if (protocol != serviceProtocolVersion) {
                        why = format("protocol mismatch: node "
                                     "speaks v%d, router v%d",
                                     protocol,
                                     serviceProtocolVersion);
                    } else {
                        healthy = true;
                    }
                } else {
                    why = "malformed pong: " + parseError;
                }
            }
        } catch (const FatalError &e) {
            why = e.what();
        }
        if (healthy) {
            obsPingRttUs_->observe(monotonicMicros() - pingStartUs);
            if (!wasAlive)
                revive(i);  // a restarted daemon rejoins the ring
        } else if (wasAlive) {
            markDead(i, why);
        }
    }
    return aliveCount();
}

void
FleetRouter::startHealthMonitor()
{
    if (monitor_.joinable())
        return;
    monitorStop_ = false;
    monitor_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(monitorMutex_);
        for (;;) {
            if (monitorWake_.wait_for(
                    lock,
                    std::chrono::duration<double>(
                        options_.healthIntervalSeconds),
                    [this] { return monitorStop_; })) {
                return;
            }
            lock.unlock();
            pingAll();
            lock.lock();
        }
    });
}

void
FleetRouter::stopHealthMonitor()
{
    {
        std::lock_guard<std::mutex> lock(monitorMutex_);
        monitorStop_ = true;
    }
    monitorWake_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
}

/** Lists an open batch socket in its node's batchFds and in its
 *  gather while it lives, so markDead() and a given-up batch can shut
 *  it down; declared after the socket's channel, so it is unlisted
 *  before the channel closes the fd. */
class FleetRouter::BatchSocket
{
  public:
    BatchSocket(FleetRouter &router, size_t node, Gather &gather, int fd)
        : router_(router), node_(node), gather_(gather), fd_(fd)
    {
        {
            std::lock_guard<std::mutex> lock(router_.membershipMutex_);
            Node &n = router_.nodes_[node_];
            n.batchFds.push_back(fd_);
            // Marked dead since the round began: fail now, not on a
            // stream nothing would end.
            if (!n.alive)
                ::shutdown(fd_, SHUT_RDWR);
        }
        gather_.listSocket(fd_);
    }

    ~BatchSocket()
    {
        gather_.unlistSocket(fd_);
        std::lock_guard<std::mutex> lock(router_.membershipMutex_);
        std::vector<int> &fds = router_.nodes_[node_].batchFds;
        fds.erase(std::find(fds.begin(), fds.end(), fd_));
    }

    BatchSocket(const BatchSocket &) = delete;
    BatchSocket &operator=(const BatchSocket &) = delete;

  private:
    FleetRouter &router_;
    size_t node_;
    Gather &gather_;
    int fd_;
};

bool
FleetRouter::streamSubset(size_t nodeIndex, uint32_t slot,
                          const std::vector<size_t> &indices,
                          const SweepRequest *sweep,
                          const SweepRing *ring, Gather &gather,
                          size_t *served)
{
    Endpoint endpoint;
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        endpoint = nodes_[nodeIndex].endpoint;
    }
    // Connect and hello are bounded like a ping; the stream is not,
    // since a cold point may legitimately take long. A node that
    // goes silent mid-stream is ended by markDead(), once the health
    // monitor finds it so.
    std::string error;
    const int fd = connectToEndpoint(endpoint, &error, pingTimeoutMs);
    if (fd < 0) {
        markDead(nodeIndex, error);
        return false;
    }
    // The channel's destructor closes the socket on every exit path.
    // On a half-dead node that close triggers the daemon-side reap
    // (cancel tokens + lane drop), so the abandoned slice stops
    // simulating for nobody.
    LineChannel channel(fd);
    const BatchSocket listed(*this, nodeIndex, gather, fd);

    constexpr uint64_t id = 1;
    size_t &received = *served;
    // A ring share: every index below `next` that the ring assigns
    // this node has been received.
    size_t next = 0;
    // The gather's keys and owners are final below `published`, so
    // the lock is taken only to see past it.
    size_t published = 0;
    const auto awaitKeys = [&](size_t upTo) {
        return upTo <= published ||
               gather.awaitPublished(upTo, &published);
    };
    try {
        // ANY protocol violation is a node failure — the scatter loop
        // reroutes; a bad node must not take the router down.
        ScopedFatalAsException scope;

        // The relay forwards node frames verbatim, so every node must
        // speak the binary result wire (protocol v6), and expand
        // sweep families exactly as this router does.
        Json hello = Json::object();
        hello.set("op", "hello");
        hello.set("wire", "binary");
        std::string line;
        errno = 0;
        if (!channel.writeLine(hello.dump()) ||
            !channel.readLine(&line)) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                fatal("hello timed out");
            fatal("connection lost during hello");
        }
        setSocketTimeouts(fd, 0);
        Json answer;
        std::string parseError;
        if (!Json::parse(line, &answer, &parseError))
            fatal("malformed hello response: %s", parseError.c_str());
        if (!answer.getBool("ok", false) ||
            answer.getString("wire", "") != "binary") {
            fatal("node refused the binary wire");
        }
        const std::string registry = format(
            "%016llx",
            static_cast<unsigned long long>(sweepRegistryHash()));
        if (answer.getString("registry", "") != registry) {
            fatal("sweep registry mismatch: node %s, router %s",
                  answer.getString("registry", "(none)").c_str(),
                  registry.c_str());
        }

        Json request;
        if (ring) {
            // Owner-computes: the node expands the family and streams
            // the share the ring assigns it.
            SweepRing mine = *ring;
            mine.self = nodeIndex;
            request = sweepRequestToJson(*sweep);
            request.set("ring", sweepRingToJson(mine));
        } else if (sweep) {
            request = sweepRequestToJson(*sweep);
            Json points = Json::array();
            for (const size_t global : indices)
                points.push(static_cast<uint64_t>(global));
            request.set("points", std::move(points));
        } else {
            request = Json::object();
            Json specs = Json::array();
            for (const size_t global : indices)
                specs.push(gather.keys[global]);
            request.set("specs", std::move(specs));
        }
        request.set("op", sweep ? "sweep" : "run");
        request.set("id", id);
        // Never quiet: the blobs are the digest fold input.
        request.set("quiet", false);
        if (!channel.writeLine(request.dump()))
            fatal("write failed (connection lost)");

        // Consume the subset stream. Frames are checked on their raw
        // bytes and parked for the drain as they are: no spec parse,
        // no stats decode, no re-encode.
        uint64_t subsetDigest = 0xcbf29ce484222325ull;
        bool sawAck = sweep == nullptr;  // the run op has no ack line
        std::string message;
        for (;;) {
            const LineChannel::MessageKind kind =
                channel.readMessage(&message);
            if (kind == LineChannel::MessageKind::Eof)
                fatal("connection closed after %zu points", received);
            if (kind == LineChannel::MessageKind::BadFrame)
                fatal("bad result frame after %zu points", received);
            if (kind == LineChannel::MessageKind::Frame) {
                ResultFrameView frame;
                std::string frameError;
                if (!viewResultFrame(message, &frame, &frameError))
                    fatal("bad result frame: %s", frameError.c_str());
                if (frame.id != id) {
                    fatal("frame for unknown request id %llu",
                          static_cast<unsigned long long>(frame.id));
                }
                if (!sawAck)
                    fatal("result frame before the sweep ack");
                if (!frame.hasBlob)
                    fatal("node streamed a result without a blob");
                size_t global;
                if (ring) {
                    // seq is the global index; check it against the
                    // router's own owners, published in index order.
                    if (frame.seq < next) {
                        fatal("result stream out of order (seq %llu "
                              "after %zu)",
                              static_cast<unsigned long long>(frame.seq),
                              next);
                    }
                    if (frame.seq >= gather.keys.size()) {
                        fatal("seq %llu past the %zu points of the "
                              "sweep",
                              static_cast<unsigned long long>(frame.seq),
                              gather.keys.size());
                    }
                    global = static_cast<size_t>(frame.seq);
                    if (!awaitKeys(global + 1))
                        return false;
                    for (size_t k = next; k < global; ++k) {
                        if (gather.owners[k] == nodeIndex)
                            fatal("node skipped point %zu it owns", k);
                    }
                    if (gather.owners[global] != nodeIndex) {
                        fatal("node streamed point %zu it does not own",
                              global);
                    }
                    next = global + 1;
                } else {
                    if (received == indices.size()) {
                        fatal("node streamed more than the %zu points "
                              "asked",
                              indices.size());
                    }
                    // A sweep subset's seq is the global index; a run
                    // batch's is its position.
                    global = indices[received];
                    const size_t expected = sweep ? global : received;
                    if (frame.seq != expected) {
                        fatal("result stream out of order (seq %llu, "
                              "expected %zu)",
                              static_cast<unsigned long long>(frame.seq),
                              expected);
                    }
                }
                if (frame.spec != gather.keys[global]) {
                    fatal("node answered the wrong spec for point "
                          "%zu",
                          global);
                }
                subsetDigest = fnv1a64(frame.blob.data(),
                                       frame.blob.size(),
                                       subsetDigest);
                ++received;
                gather.park(slot, global, std::move(message));
                continue;
            }
            Json msg;
            if (!Json::parse(message, &msg, &parseError))
                fatal("malformed response: %s", parseError.c_str());
            if (msg.has("error")) {
                // The router expanded the same request before any
                // node was asked, so the fault is the node's.
                fatal("node error: %s", msg.getString("error").c_str());
            }
            if (msg.get("id").asU64() != id) {
                fatal("response for unknown request id %llu",
                      static_cast<unsigned long long>(
                          msg.get("id").asU64()));
            }
            if (!sawAck) {
                if (!msg.getBool("ack", false))
                    fatal("bad sweep ack: %s", msg.dump().c_str());
                if (ring) {
                    // A ring share's size is known only at done; the
                    // expansion size must match now.
                    if (msg.get("total").asU64() != gather.keys.size()) {
                        fatal("node expands the sweep to %llu points, "
                              "the router to %zu",
                              static_cast<unsigned long long>(
                                  msg.get("total").asU64()),
                              gather.keys.size());
                    }
                } else if (msg.get("count").asU64() != indices.size()) {
                    fatal("bad sweep ack: %s", msg.dump().c_str());
                }
                sawAck = true;
                continue;
            }
            if (!msg.getBool("done", false))
                fatal("JSON result line on the binary wire");
            if (msg.getBool("cancelled", false))
                fatal("stream cancelled after %zu points", received);
            if (ring) {
                if (!awaitKeys(gather.keys.size()))
                    return false;
                for (size_t k = next; k < gather.keys.size(); ++k) {
                    if (gather.owners[k] == nodeIndex)
                        fatal("node skipped point %zu it owns", k);
                }
            } else if (received != indices.size()) {
                fatal("stream ended after %zu of %zu points", received,
                      indices.size());
            }
            if (msg.get("count").asU64() != received) {
                fatal("done count %llu != %zu points streamed",
                      static_cast<unsigned long long>(
                          msg.get("count").asU64()),
                      received);
            }
            // Integrity cross-check: the node folded the same digest
            // over the bytes it sent; a mismatch means the subset we
            // received is not what it computed.
            const std::string server = msg.getString("digest");
            const std::string local = format(
                "%016llx",
                static_cast<unsigned long long>(subsetDigest));
            if (server != local) {
                fatal("node digest %s != router fold %s",
                      server.c_str(), local.c_str());
            }
            return true;  // subset complete
        }
    } catch (const FatalError &e) {
        // A given-up batch shut this socket down itself.
        if (!gather.abandoned())
            markDead(nodeIndex, e.what());
    }
    return false;
}

FleetOutcome
FleetRouter::scatter(const SweepRequest *sweep,
                     std::vector<std::string> keys,
                     const ExpandHook &onExpanded,
                     const PointHook &hook)
{
    Gather gather;
    FleetOutcome outcome;
    outcome.digest = 0xcbf29ce484222325ull;
    if (sweep) {
        // The indexed expansion validates the request — a bad one
        // fails here, before any node is asked — and gives the count
        // and slice map at once; the publisher builds each point's
        // key by index while the nodes stream.
        gather.source = expandSweep(*sweep);
        outcome.count = gather.source.size();
        outcome.slices = gather.source.slices();
        gather.size(outcome.count);
    } else {
        outcome.count = keys.size();
        gather.publishAll(std::move(keys));
    }
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        deadDuringBatch_.clear();
    }

    // Scatter rounds. A sweep's first round sends every live node
    // the family and the ring and lets each pick its own share, while
    // the publisher builds the router's keys and owners alongside.
    // Every other round assigns each unfinished point to its ring
    // owner by explicit list. All subsets of a round stream
    // concurrently while this thread drains them in global order; the
    // next round re-assigns whatever a dying node left behind. Each
    // extra round means at least one node was newly marked dead (a
    // successful subset lands all its points), so the loop
    // terminates: the batch completes or the last node dies and the
    // live-count check fatal()s.
    for (bool firstRound = true;; firstRound = false) {
        const bool ringRound = firstRound && sweep;
        std::vector<std::vector<size_t>> assignment(nodes_.size());
        std::vector<size_t> streamers;
        SweepRing ring;
        std::optional<HashRing> ownerRing;
        size_t pending = 0;
        {
            std::lock_guard<std::mutex> lock(membershipMutex_);
            if (ring_.liveCount() == 0) {
                fatal("fleet: all %zu nodes are dead (last error: "
                      "%s)",
                      nodes_.size(),
                      nodes_.empty()
                          ? "none"
                          : nodes_.back().lastError.c_str());
            }
            if (ringRound) {
                ring.nodes = ring_.nodes();
                ring.vnodes = options_.vnodesPerNode;
                for (size_t node = 0; node < nodes_.size(); ++node) {
                    ring.live.push_back(ring_.isLive(node));
                    if (ring_.isLive(node))
                        streamers.push_back(node);
                }
                ownerRing = ring_;
            } else {
                for (size_t i = 0; i < gather.landed.size(); ++i) {
                    if (gather.landed[i])
                        continue;
                    assignment[ring_.nodeFor(gather.keys[i])]
                        .push_back(i);
                    ++pending;
                }
                for (size_t node = 0; node < nodes_.size(); ++node) {
                    if (!assignment[node].empty())
                        streamers.push_back(node);
                }
            }
        }
        if (!ringRound && pending == 0)
            break;
        if (!firstRound) {
            // These points were assigned to a node that died before
            // finishing them — this round recomputes them on the
            // survivors.
            outcome.rerouted += pending;
            obsReroutes_->inc(pending);
            inform("fleet: rerouting %zu unfinished points to %zu "
                   "surviving nodes",
                   pending, aliveCount());
        }

        uint32_t slot = gather.startRound(streamers.size());
        std::vector<std::thread> readers;
        for (const size_t node : streamers) {
            if (!ringRound)
                obsScatterPoints_->observe(assignment[node].size());
            readers.emplace_back([this, node, slot, &assignment, sweep,
                                  ringRound, &ring, &gather] {
                size_t served = 0;
                const bool complete =
                    streamSubset(node, slot, assignment[node], sweep,
                                 ringRound ? &ring : nullptr, gather,
                                 &served);
                {
                    std::lock_guard<std::mutex> lock(
                        membershipMutex_);
                    nodes_[node].pointsServed += served;
                }
                if (ringRound)
                    obsScatterPoints_->observe(served);
                gather.readerDone(!complete);
            });
            ++slot;
        }
        // A throwing hook must not leave joinable readers behind: the
        // batch is given up, credit and publisher waits are released,
        // the node sockets are shut down, and the readers finish
        // before the error propagates.
        std::exception_ptr error;
        try {
            if (ringRound) {
                gather.startPublisher(std::move(*ownerRing));
                if (onExpanded)
                    onExpanded(outcome.count, outcome.slices);
            }
            gather.drain(hook, outcome, obsParkedDepth_);
        } catch (...) {
            error = std::current_exception();
            gather.abandon();
        }
        for (std::thread &reader : readers)
            reader.join();
        if (gather.publisher.joinable())
            gather.publisher.join();
        if (error)
            std::rethrow_exception(error);
    }

    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        outcome.deadNodes = deadDuringBatch_;
    }
    return outcome;
}

FleetOutcome
FleetRouter::runSweep(const SweepRequest &request,
                      const PointHook &hook,
                      const ExpandHook &onExpanded)
{
    return scatter(&request, {}, onExpanded, hook);
}

FleetOutcome
FleetRouter::runSpecs(const std::vector<RunSpec> &specs,
                      const PointHook &hook)
{
    return scatter(nullptr, canonicalKeys(specs), nullptr, hook);
}

} // namespace mtv
