/**
 * @file
 * Tests for src/fleet: hash-ring determinism and minimal remap,
 * endpoint parsing, and a live 3-node fleet served by in-process
 * MtvServices (one reached over TCP, two over unix sockets). The
 * fleet's scatter/fold must be bit-identical to a single in-process
 * engine, node ownership must follow the ring, and a node dying —
 * before the batch or mid-stream — must reroute exactly its
 * unfinished points to the survivors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/api/engine.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/fleet/fleet_service.hh"
#include "src/fleet/ring.hh"
#include "src/fleet/router.hh"
#include "src/obs/metrics.hh"
#include "src/service/json.hh"
#include "src/service/server.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

// ---------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------

std::vector<std::string>
testKeys(int n)
{
    std::vector<std::string> keys;
    keys.reserve(n);
    for (int i = 0; i < n; ++i)
        keys.push_back("spec-key-" + std::to_string(i));
    return keys;
}

TEST(HashRing, DeterministicAcrossInstances)
{
    const std::vector<std::string> nodes = {"a:1", "b:2", "c:3"};
    HashRing first(nodes);
    HashRing second(nodes);
    for (const std::string &key : testKeys(200))
        EXPECT_EQ(first.nodeFor(key), second.nodeFor(key)) << key;
}

TEST(HashRing, PartitionsKeysAcrossEveryNode)
{
    HashRing ring({"a:1", "b:2", "c:3"});
    std::vector<size_t> owned(ring.size(), 0);
    for (const std::string &key : testKeys(300))
        ++owned[ring.nodeFor(key)];
    size_t total = 0;
    for (size_t node = 0; node < ring.size(); ++node) {
        // 64 vnodes keep every node in the game for 300 keys.
        EXPECT_GT(owned[node], 0u) << "node " << node;
        total += owned[node];
    }
    // nodeFor() names exactly one owner per key: a full partition.
    EXPECT_EQ(total, 300u);
}

TEST(HashRing, RemoveNodeRemapsOnlyItsKeys)
{
    HashRing ring({"a:1", "b:2", "c:3"});
    const auto keys = testKeys(300);
    std::vector<size_t> before;
    before.reserve(keys.size());
    for (const std::string &key : keys)
        before.push_back(ring.nodeFor(key));

    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 2u);
    EXPECT_FALSE(ring.isLive(1));
    size_t remapped = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        const size_t after = ring.nodeFor(keys[i]);
        if (before[i] == 1) {
            // The dead node's keys land on a survivor.
            EXPECT_NE(after, 1u) << keys[i];
            ++remapped;
        } else {
            // Everyone else's keys keep their owner — the property
            // that bounds a failover to the dead node's slice.
            EXPECT_EQ(after, before[i]) << keys[i];
        }
    }
    EXPECT_GT(remapped, 0u);

    // Idempotent: removing the same node again changes nothing.
    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 2u);
}

TEST(HashRing, NodeForFatalsWithNoLiveNodes)
{
    HashRing ring({"a:1", "b:2"});
    ring.removeNode(0);
    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 0u);
    ScopedFatalAsException scope;
    EXPECT_THROW(ring.nodeFor("anything"), FatalError);
}

// ---------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------

TEST(Endpoint, ParsesUnixAndTcpForms)
{
    const Endpoint unixEp = parseEndpoint("/tmp/some.sock");
    EXPECT_EQ(unixEp.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unixEp.path, "/tmp/some.sock");
    EXPECT_EQ(unixEp.describe(), "/tmp/some.sock");
    EXPECT_NE(unixEp.startHint().find("mtvd"), std::string::npos);
    EXPECT_NE(unixEp.startHint().find("/tmp/some.sock"),
              std::string::npos);

    const Endpoint tcpEp = parseEndpoint("127.0.0.1:9000");
    EXPECT_EQ(tcpEp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcpEp.host, "127.0.0.1");
    EXPECT_EQ(tcpEp.port, 9000);
    EXPECT_EQ(tcpEp.describe(), "127.0.0.1:9000");
    EXPECT_NE(tcpEp.startHint().find("--tcp 127.0.0.1:9000"),
              std::string::npos);
}

TEST(Endpoint, RejectsMalformedTcpForms)
{
    ScopedFatalAsException scope;
    EXPECT_THROW(parseEndpoint("host:abc"), FatalError);
    EXPECT_THROW(parseEndpoint("host:0"), FatalError);
    EXPECT_THROW(parseEndpoint("host:65536"), FatalError);
    EXPECT_THROW(parseEndpoint(":9000"), FatalError);
}

// ---------------------------------------------------------------------
// FleetRouter configuration (no live nodes needed)
// ---------------------------------------------------------------------

TEST(FleetRouterConfig, RejectsBadNodeLists)
{
    ScopedFatalAsException scope;
    EXPECT_THROW(FleetRouter({}), FatalError);
    EXPECT_THROW(FleetRouter({"/tmp/a.sock", "/tmp/a.sock"}),
                 FatalError);
    EXPECT_THROW(FleetRouter({"/tmp/a.sock", ""}), FatalError);
}

TEST(FleetRouterConfig, RoutesLikeAParallelRing)
{
    // The ring identities are the endpoint texts, so any router (or
    // test) built over the same list routes identically — the
    // property that lets N mtvctl --fleet clients share node caches.
    const std::vector<std::string> nodes = {"/tmp/n0.sock",
                                            "10.0.0.2:7000",
                                            "/tmp/n2.sock"};
    FleetRouter router(nodes);
    HashRing ring(nodes);
    EXPECT_EQ(router.nodeCount(), nodes.size());
    EXPECT_EQ(router.aliveCount(), nodes.size());
    for (const std::string &key : testKeys(100))
        EXPECT_EQ(router.nodeForKey(key), ring.nodeFor(key)) << key;
}

// ---------------------------------------------------------------------
// Live fleet: three in-process MtvServices
// ---------------------------------------------------------------------

/** @p n distinct cheap single-mode specs. */
std::vector<RunSpec>
distinctSpecs(int n)
{
    std::vector<RunSpec> specs;
    specs.reserve(n);
    for (int i = 0; i < n; ++i) {
        MachineParams params = MachineParams::reference();
        params.memLatency = 20 + i;
        specs.push_back(RunSpec::single(i % 2 ? "swm256" : "trfd",
                                        params, testScale));
    }
    return specs;
}

/** Reference run: an in-process engine plus the digest fold the
 *  daemon protocol defines (FNV-1a over blobs in submission order). */
struct LocalFold
{
    std::vector<RunResult> results;
    uint64_t digest = 0xcbf29ce484222325ull;
};

LocalFold
localFold(const std::vector<RunSpec> &specs)
{
    ExperimentEngine engine;
    LocalFold fold;
    fold.results = engine.runAll(specs);
    for (const RunResult &result : fold.results) {
        const std::string blob = serializeSimStats(result.stats);
        fold.digest = fnv1a64(blob.data(), blob.size(), fold.digest);
    }
    return fold;
}

/**
 * Three MtvServices on temp sockets, served from background threads.
 * Node 0 is addressed over TCP (ephemeral loopback port), nodes 1
 * and 2 over their unix sockets — every fleet test exercises both
 * transports.
 */
class FleetFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (int n = 0; n < 3; ++n) {
            ServiceOptions options;
            options.socketPath = tempPath(n);
            options.workers = 2;
            if (n == 0) {
                options.tcpHost = "127.0.0.1";
                options.tcpPort = 0;  // kernel-chosen
            }
            services_.push_back(
                std::make_unique<MtvService>(options));
            serveThreads_.emplace_back(
                [service = services_.back().get()] {
                    service->serve();
                });
        }
        endpoints_ = {
            "127.0.0.1:" + std::to_string(services_[0]->tcpPort()),
            services_[1]->socketPath(),
            services_[2]->socketPath(),
        };
    }

    void
    TearDown() override
    {
        for (auto &service : services_)
            service->stop();
        for (auto &thread : serveThreads_)
            thread.join();
        services_.clear();
    }

    std::string
    tempPath(int n)
    {
        return (std::filesystem::temp_directory_path() /
                ("mtv_test_fleet_" + std::to_string(::getpid()) +
                 "_" + std::to_string(n) + ".sock"))
            .string();
    }

    /** Keys each node owns out of @p specs, per the router's ring. */
    std::vector<size_t>
    ownershipCensus(const FleetRouter &router,
                    const std::vector<RunSpec> &specs, size_t nodes)
    {
        std::vector<size_t> census(nodes, 0);
        for (const RunSpec &spec : specs)
            ++census[router.nodeForKey(spec.canonical())];
        return census;
    }

    std::vector<std::unique_ptr<MtvService>> services_;
    std::vector<std::thread> serveThreads_;
    std::vector<std::string> endpoints_;
};

TEST_F(FleetFixture, SweepScatterFoldsBitIdenticalToLocal)
{
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    SweepBuilder reference = expandSweep(request);
    const LocalFold expected = localFold(reference.specs());

    FleetRouter router(endpoints_);
    size_t ackCount = 0;
    size_t ackSlices = 0;
    std::vector<RunResult> results;
    const FleetOutcome outcome = router.runSweep(
        request,
        [&results](size_t global, std::string &payload, bool) {
            // The relay delivers in global order, once per point.
            EXPECT_EQ(global, results.size());
            results.push_back(resultFromPayload(payload));
        },
        [&](size_t count, const std::vector<SweepSlice> &slices) {
            ackCount = count;
            ackSlices = slices.size();
        });

    // The expand hook fired with the full expansion (the ack data).
    EXPECT_EQ(ackCount, expected.results.size());
    EXPECT_EQ(ackSlices, reference.slices().size());
    // Every point arrived exactly once through the hook, in order.
    EXPECT_EQ(outcome.count, expected.results.size());
    ASSERT_EQ(results.size(), expected.results.size());

    // Point-by-point and folded bit-identity with the local engine.
    for (size_t i = 0; i < expected.results.size(); ++i) {
        EXPECT_EQ(serializeSimStats(results[i].stats),
                  serializeSimStats(expected.results[i].stats))
            << "point " << i;
    }
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, 0u);
    EXPECT_TRUE(outcome.deadNodes.empty());
    EXPECT_EQ(outcome.slices.size(), reference.slices().size());
    EXPECT_EQ(outcome.simulated + outcome.cacheServed +
                  outcome.storeServed,
              expected.results.size());

    // Each node streamed exactly the points the ring assigns it.
    const auto census =
        ownershipCensus(router, reference.specs(), 3);
    uint64_t served = 0;
    const auto status = router.status();
    for (size_t n = 0; n < status.size(); ++n) {
        EXPECT_TRUE(status[n].alive) << status[n].lastError;
        EXPECT_EQ(status[n].pointsServed, census[n]) << "node " << n;
        served += status[n].pointsServed;
    }
    EXPECT_EQ(served, expected.results.size());
}

TEST_F(FleetFixture, SpecBatchScatterMatchesLocalAndOwnership)
{
    const auto specs = distinctSpecs(24);
    const LocalFold expected = localFold(specs);

    FleetRouter router(endpoints_);
    const auto census = ownershipCensus(router, specs, 3);
    const FleetOutcome outcome = router.runSpecs(specs);

    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, 0u);
    const auto status = router.status();
    for (size_t n = 0; n < status.size(); ++n)
        EXPECT_EQ(status[n].pointsServed, census[n]) << "node " << n;
}

TEST_F(FleetFixture, DeadEndpointAtStartReroutesToSurvivors)
{
    // Node 2 is replaced by an endpoint nobody serves: the first
    // scatter round marks it dead on connect failure and the second
    // round recomputes its slice on the survivors.
    const std::string bogus = tempPath(9) + ".nothere";
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], bogus};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 0u)
        << "test needs the bogus node to own some points";

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], bogus);
    EXPECT_EQ(router.aliveCount(), 2u);

    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_FALSE(status[2].lastError.empty());
    EXPECT_EQ(status[2].pointsServed, 0u);
    EXPECT_EQ(status[0].pointsServed + status[1].pointsServed,
              specs.size());

    // Death is sticky: a second batch routes around it from round 1.
    const FleetOutcome again = router.runSpecs(specs);
    EXPECT_EQ(again.digest, expected.digest);
    EXPECT_EQ(again.rerouted, 0u);
    EXPECT_TRUE(again.deadNodes.empty());
}

/**
 * Ends the test binary when a scope outlives @p seconds: a wedged
 * relay holds threads no test can join, so a hang must fail loudly
 * instead of running out the CI clock.
 */
class Watchdog
{
  public:
    Watchdog(const char *what, int seconds)
        : thread_([this, what, seconds] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!wake_.wait_for(lock, std::chrono::seconds(seconds),
                                  [this] { return done_; })) {
                  std::fprintf(stderr,
                               "watchdog: %s did not finish within "
                               "%d s\n",
                               what, seconds);
                  std::_Exit(1);
              }
          })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool done_ = false;
    std::thread thread_;
};

/** How a FakeNode misbehaves. */
enum class FakeMode
{
    /** Serves its request genuinely: a third-party node. */
    Honest,
    /** Streams one genuine frame, then slams the connection — a node
     *  dying mid-stream after real progress. */
    HalfDead,
    /** Refuses the binary wire, like a JSON-only daemon. */
    JsonOnly,
    /** Its first frame names another spec than the one asked for. */
    WrongSpec,
    /** Its first frame's blob is torn on the wire after the trailer
     *  checksum was computed. */
    TornFrame,
    /** Streams every point genuinely but ends with a done digest
     *  that does not match the blobs it sent. */
    WrongDigest,
    /** Answers hello with another build's sweep registry hash. */
    ForeignRegistry,
    /** Ring share: streams its points up to the first index past its
     *  first point that the ring assigns to another node, then that
     *  point, genuinely computed. */
    StrayIndex,
    /** Ring share: leaves out its first point and streams its second
     *  genuinely, then ends. */
    SkipOwned,
    /** Accepts a connection and never answers — a wedged daemon. */
    Silent,
    /** Answers hello and acks a sweep (a run has no ack), then
     *  streams nothing and holds the connection open — a daemon that
     *  wedges mid-batch. */
    AckThenSilent
};

/**
 * A protocol impostor: accepts ONE connection, negotiates the wire
 * and serves the run or sweep request it receives with genuine
 * engine results framed exactly as a daemon frames them (a ring
 * sweep streams the share the ring assigns it, seq = global index),
 * misbehaving per FakeMode.
 */
class FakeNode
{
  public:
    FakeNode(const std::string &path, FakeMode mode)
        : path_(path), mode_(mode)
    {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (listenFd_ < 0 || path.size() >= sizeof(addr.sun_path))
            fatal("fake node: unusable socket path %s", path.c_str());
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd_, 4) != 0) {
            fatal("fake node: cannot listen on %s", path.c_str());
        }
        thread_ = std::thread([this] { serveOne(); });
    }

    ~FakeNode()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        ::shutdown(listenFd_, SHUT_RDWR);
        thread_.join();
        ::close(listenFd_);
        ::unlink(path_.c_str());
    }

    /** Frames written to the router. */
    size_t served() const { return served_.load(); }

    /** The batch request the fake received (null before one). */
    Json
    request() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return request_;
    }

  private:
    void
    serveOne()
    {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        LineChannel channel(fd);
        if (mode_ == FakeMode::Silent) {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_; });
            return;
        }
        std::string line;
        Json request;
        std::string error;
        if (!channel.readLine(&line) ||
            !Json::parse(line, &request, &error) ||
            request.getString("op", "") != "hello") {
            return;
        }
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("hello", true);
        ok.set("wire", std::string(mode_ == FakeMode::JsonOnly
                                       ? "json"
                                       : "binary"));
        ok.set("protocol", static_cast<uint64_t>(6));
        ok.set("registry",
               mode_ == FakeMode::ForeignRegistry
                   ? std::string("0123456789abcdef")
                   : format("%016llx", static_cast<unsigned long long>(
                                           sweepRegistryHash())));
        if (!channel.writeLine(ok.dump()) ||
            !channel.readLine(&line) ||
            !Json::parse(line, &request, &error)) {
            return;  // a JSON-only node never gets a request
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            request_ = request;
        }
        const uint64_t id = request.get("id").asU64();

        // The points to serve: (seq, spec) in stream order.
        std::vector<std::pair<uint64_t, RunSpec>> points;
        if (request.getString("op") == "run") {
            const auto &specs = request.get("specs").asArray();
            for (size_t seq = 0; seq < specs.size(); ++seq)
                points.emplace_back(
                    seq, RunSpec::parse(specs[seq].asString()));
        } else {
            std::vector<RunSpec> expansion =
                expandSweep(sweepRequestFromJson(request)).take();
            SweepRing ring;
            std::string field;
            if (!sweepRingFromJson(request.get("ring"), &ring, &field,
                                   &error)) {
                return;
            }
            HashRing hashRing(ring.nodes, ring.vnodes);
            for (size_t n = 0; n < ring.nodes.size(); ++n) {
                if (!ring.live[n])
                    hashRing.removeNode(n);
            }
            std::vector<uint64_t> owned;
            std::vector<uint64_t> others;
            for (size_t i = 0; i < expansion.size(); ++i) {
                (hashRing.nodeFor(expansion[i].canonical()) == ring.self
                     ? owned
                     : others)
                    .push_back(i);
            }
            if (mode_ == FakeMode::StrayIndex) {
                // Its owned points up to the first foreign point past
                // its first one, then that foreign point.
                const uint64_t stray = *std::upper_bound(
                    others.begin(), others.end(), owned.at(0));
                owned.erase(std::upper_bound(owned.begin(), owned.end(),
                                             stray),
                            owned.end());
                owned.push_back(stray);
            } else if (mode_ == FakeMode::SkipOwned) {
                owned = {owned.at(1)};
            }
            Json ack = Json::object();
            ack.set("id", id);
            ack.set("ack", true);
            ack.set("total", static_cast<uint64_t>(expansion.size()));
            if (!channel.writeLine(ack.dump()))
                return;
            for (const uint64_t global : owned)
                points.emplace_back(global, expansion[global]);
        }
        if (mode_ == FakeMode::AckThenSilent) {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_; });
            return;
        }

        ExperimentEngine engine;
        uint64_t digest = 0xcbf29ce484222325ull;
        for (const auto &point : points) {
            RunResult result = engine.run(point.second);
            const std::string blob = serializeSimStats(result.stats);
            digest = fnv1a64(blob.data(), blob.size(), digest);
            if (mode_ == FakeMode::WrongSpec)
                result.specCanonical = point.second.canonical() + " ";
            std::string frame;
            appendResultFrame(&frame, result, id, point.first, &blob);
            if (mode_ == FakeMode::TornFrame) {
                // The payload's last byte (the blob's), just before
                // the 8-byte trailer.
                frame[frame.size() - 9] ^= 0x01;
            }
            if (!channel.writeBytes(frame))
                return;
            ++served_;
            // The channel destructor closes the socket mid-stream.
            if (mode_ == FakeMode::HalfDead ||
                mode_ == FakeMode::WrongSpec ||
                mode_ == FakeMode::TornFrame) {
                return;
            }
        }
        if (mode_ == FakeMode::WrongDigest)
            digest ^= 1;
        Json done = Json::object();
        done.set("id", id);
        done.set("done", true);
        done.set("count", static_cast<uint64_t>(points.size()));
        done.set("digest",
                 format("%016llx",
                        static_cast<unsigned long long>(digest)));
        channel.writeLine(done.dump());
        // Hold the connection until the router hangs up.
        channel.readLine(&line);
    }

    std::string path_;
    FakeMode mode_;
    int listenFd_ = -1;
    std::thread thread_;
    /** Written by the serving thread, read by the test thread. */
    std::atomic<size_t> served_{0};
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    Json request_;
};

TEST_F(FleetFixture, NodeDeathMidStreamReroutesUnfinishedPoints)
{
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::HalfDead);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 1u)
        << "test needs the fake node to own >= 2 points (one "
           "served, some abandoned)";

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(fake.served(), 1u);
    // The batch completed bit-identical despite the mid-stream death,
    // and the served point was NOT recomputed: only the abandoned
    // remainder of the fake node's slice rerouted.
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2] - 1);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], fakePath);

    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_EQ(status[2].pointsServed, 1u);
    EXPECT_EQ(status[0].pointsServed + status[1].pointsServed,
              specs.size() - 1);
}

TEST_F(FleetFixture, JsonOnlyNodeIsMarkedDeadAndRerouted)
{
    // Nodes must speak the binary wire: the relay forwards their
    // frames as is. A node that refuses is dead, and the survivors
    // recompute its whole slice.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::JsonOnly);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 0u);

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(fake.served(), 0u);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], fakePath);
    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_EQ(status[2].lastError, "node refused the binary wire");
    EXPECT_EQ(status[2].pointsServed, 0u);
}

TEST_F(FleetFixture, CorruptNodeStreamsMarkTheNodeDead)
{
    // The relay checks frames on their raw bytes; each violation
    // still marks the node dead and the batch still folds the local
    // digest.
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);
    const struct
    {
        FakeMode mode;
        const char *error;
        bool pointsKept;
    } cases[] = {
        {FakeMode::WrongSpec, "wrong spec", false},
        {FakeMode::TornFrame, "bad result frame", false},
        // Every frame was genuine; only the done line lies.
        {FakeMode::WrongDigest, "node digest", true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.error);
        const std::string fakePath = tempPath(8) + ".fake";
        FakeNode fake(fakePath, c.mode);
        FleetRouter router({endpoints_[0], endpoints_[1], fakePath});
        const auto census = ownershipCensus(router, specs, 3);
        ASSERT_GT(census[2], 1u);

        const FleetOutcome outcome = router.runSpecs(specs);
        EXPECT_EQ(outcome.digest, expected.digest);
        EXPECT_EQ(outcome.rerouted, c.pointsKept ? 0u : census[2]);
        const auto status = router.status();
        EXPECT_FALSE(status[2].alive);
        EXPECT_NE(status[2].lastError.find(c.error), std::string::npos)
            << status[2].lastError;
        EXPECT_EQ(status[2].pointsServed, c.pointsKept ? census[2] : 0u);
    }
}

TEST_F(FleetFixture, ForeignRegistryNodeIsMarkedDeadAndRerouted)
{
    // A node built with other sweep families would expand the same
    // request into other points: its hello gives it away, and the
    // survivors recompute its whole slice.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::ForeignRegistry);
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router({endpoints_[0], endpoints_[1], fakePath});
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 0u);

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(fake.served(), 0u);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_NE(status[2].lastError.find("sweep registry mismatch: node "
                                       "0123456789abcdef"),
              std::string::npos)
        << status[2].lastError;
    EXPECT_EQ(status[2].pointsServed, 0u);
}

/** A "latency" sweep of @p points cheap single-job points. */
SweepRequest
cheapLatencySweep(int points)
{
    SweepRequest request;
    request.family = "latency";
    request.scale = testScale;
    request.contexts = 2;
    request.jobs = {"trfd"};
    for (int i = 0; i < points; ++i)
        request.latencies.push_back(30 + i);
    return request;
}

TEST_F(FleetFixture, FirstRoundSendsTheRingAndNoPoints)
{
    // Owner-computes: round 1 carries the family and the ring — no
    // point list — and a third-party node that picks its own share
    // from it serves exactly what the router's ring assigns it.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::Honest);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const SweepRequest sweep = cheapLatencySweep(40);
    SweepBuilder reference = expandSweep(sweep);
    const LocalFold expected = localFold(reference.specs());

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, reference.specs(), 3);
    ASSERT_GT(census[2], 0u);
    const FleetOutcome outcome = router.runSweep(sweep);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, 0u);
    EXPECT_TRUE(outcome.deadNodes.empty());
    EXPECT_EQ(fake.served(), census[2]);
    const auto status = router.status();
    for (size_t n = 0; n < status.size(); ++n)
        EXPECT_EQ(status[n].pointsServed, census[n]) << "node " << n;

    const Json request = fake.request();
    ASSERT_FALSE(request.isNull());
    EXPECT_EQ(request.getString("op"), "sweep");
    EXPECT_FALSE(request.has("points"));
    ASSERT_TRUE(request.has("ring")) << request.dump();
    SweepRing ring;
    std::string field;
    std::string error;
    ASSERT_TRUE(
        sweepRingFromJson(request.get("ring"), &ring, &field, &error))
        << error;
    EXPECT_EQ(ring.nodes, fleet);
    EXPECT_EQ(ring.vnodes, FleetOptions().vnodesPerNode);
    EXPECT_EQ(ring.live, std::vector<bool>(3, true));
    EXPECT_EQ(ring.self, 2u);
}

TEST_F(FleetFixture, LyingRingNodesAreMarkedDeadAndRerouted)
{
    // A node's share is checked against the router's own ring: one
    // that streams a point it does not own, or skips one it owns, is
    // dead, keeps only the checked points it streamed before, and the
    // batch still folds the local digest. Under a watchdog: a node
    // skipping the point the relay's cursor waits on is the case that
    // would deadlock credit if it went unnoticed.
    const SweepRequest sweep = cheapLatencySweep(6 * streamWindowPoints);
    SweepBuilder reference = expandSweep(sweep);
    const LocalFold expected = localFold(reference.specs());
    const struct
    {
        FakeMode mode;
        const char *error;
    } cases[] = {
        {FakeMode::StrayIndex, "does not own"},
        {FakeMode::SkipOwned, "skipped point"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.error);
        const std::string fakePath = tempPath(8) + ".fake";
        FakeNode fake(fakePath, c.mode);
        FleetRouter router({endpoints_[0], endpoints_[1], fakePath});
        const auto census =
            ownershipCensus(router, reference.specs(), 3);
        ASSERT_GT(census[2], 1u);

        FleetOutcome outcome;
        {
            Watchdog watchdog("the relay through a lying node", 120);
            outcome = router.runSweep(sweep);
        }
        EXPECT_EQ(outcome.digest, expected.digest);
        const auto status = router.status();
        EXPECT_FALSE(status[2].alive);
        EXPECT_NE(status[2].lastError.find(c.error), std::string::npos)
            << status[2].lastError;
        // Everything it streamed before the lie was kept; the rest of
        // its share was rerouted.
        EXPECT_EQ(status[2].pointsServed, fake.served() - 1);
        if (c.mode == FakeMode::SkipOwned) {
            EXPECT_EQ(status[2].pointsServed, 0u);
        }
        EXPECT_EQ(outcome.rerouted, census[2] - status[2].pointsServed);
        ASSERT_EQ(outcome.deadNodes.size(), 1u);
        EXPECT_EQ(outcome.deadNodes[0], fakePath);
    }
}

TEST_F(FleetFixture, RoutingDaemonRejectsAClientRing)
{
    // A routing daemon is not a node: like a "points" list, a "ring"
    // from its client answers an error, and the connection stays.
    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });
    {
        std::string error;
        const int fd = connectToDaemon(fleet.socketPath(), &error);
        ASSERT_GE(fd, 0) << error;
        LineChannel channel(fd);
        SweepRing ring;
        ring.nodes = endpoints_;
        ring.vnodes = 64;
        ring.live = {true, true, true};
        Json request = sweepRequestToJson(cheapLatencySweep(4));
        request.set("op", "sweep");
        request.set("id", 70);
        request.set("ring", sweepRingToJson(ring));
        std::string line;
        ASSERT_TRUE(channel.writeLine(request.dump()));
        ASSERT_TRUE(channel.readLine(&line));
        Json answer;
        ASSERT_TRUE(Json::parse(line, &answer, &error)) << error;
        EXPECT_EQ(answer.get("id").asU64(), 70u);
        EXPECT_NE(answer.getString("error").find("ring"),
                  std::string::npos)
            << line;
        Json ping = Json::object();
        ping.set("op", "ping");
        ASSERT_TRUE(channel.writeLine(ping.dump()));
        ASSERT_TRUE(channel.readLine(&line));
        EXPECT_NE(line.find("\"pong\":true"), std::string::npos) << line;
    }
    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, RoutingDaemonOverTcpAnswersWarmSweepsPromptly)
{
    // A routing daemon's accepted TCP sockets carry TCP_NODELAY like a
    // node's. Without it each line after the first of a response
    // waits for the client's delayed ACK: a warm quiet 14-point sweep
    // over TCP took a median of ~44 ms against ~2 ms over the unix
    // socket. The bound is on the difference of the two medians, so
    // it holds in a sanitizer build too, where both paths are slower.
    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.tcpHost = "127.0.0.1";
    options.tcpPort = 0;  // kernel-chosen
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });
    {
        std::string error;
        const int tcpFd = connectToEndpoint(
            Endpoint::tcp("127.0.0.1", fleet.tcpPort()), &error);
        ASSERT_GE(tcpFd, 0) << error;
        LineChannel tcp(tcpFd);
        const int unixFd = connectToDaemon(fleet.socketPath(), &error);
        ASSERT_GE(unixFd, 0) << error;
        LineChannel local(unixFd);
        SweepRequest sweep;
        sweep.family = "ext-multiport";
        sweep.scale = 1e-5;
        uint64_t id = 0;
        const auto sweepMs = [&](LineChannel &channel) {
            Json request = sweepRequestToJson(sweep);
            request.set("op", "sweep");
            request.set("id", ++id);
            request.set("quiet", true);
            const auto start = std::chrono::steady_clock::now();
            EXPECT_TRUE(channel.writeLine(request.dump()));
            std::string line;
            while (channel.readLine(&line)) {
                Json answer;
                EXPECT_TRUE(Json::parse(line, &answer, &error)) << error;
                EXPECT_FALSE(answer.has("error")) << line;
                if (answer.has("error") || answer.getBool("done", false))
                    break;
            }
            return std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };
        const auto median = [](std::vector<double> ms) {
            std::sort(ms.begin(), ms.end());
            return (ms[ms.size() / 2 - 1] + ms[ms.size() / 2]) / 2;
        };
        sweepMs(local);  // cold: fills the nodes' caches
        std::vector<double> tcpMs;
        std::vector<double> unixMs;
        for (int i = 0; i < 10; ++i) {
            tcpMs.push_back(sweepMs(tcp));
            unixMs.push_back(sweepMs(local));
        }
        EXPECT_LT(median(tcpMs) - median(unixMs), 10.0)
            << "TCP median " << median(tcpMs) << " ms, unix median "
            << median(unixMs) << " ms";
    }
    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, SilentNodeTimesOutAPingAndStopReturns)
{
    // A node that accepts a connection and never answers: a ping is
    // bounded, marks it dead, and a routing daemon whose health
    // monitor keeps pinging it still stops promptly.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::Silent);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    Watchdog watchdog("pings of a silent node", 120);
    {
        FleetRouter router(fleet);
        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(router.pingAll(), 2u);
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(10));
        EXPECT_EQ(router.status()[2].lastError, "ping timed out");
    }

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = fleet;
    options.fleet.healthIntervalSeconds = 0.05;
    FleetService service(options);
    std::thread serveThread([&service] { service.serve(); });
    for (int i = 0; i < 400 && service.router().status()[2].alive; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(service.router().status()[2].alive);
    // The monitor goes on pinging the dead node (a healthy pong would
    // revive it); stop() waits for at most one bounded ping.
    const auto stopStart = std::chrono::steady_clock::now();
    service.stop();
    serveThread.join();
    EXPECT_LT(std::chrono::steady_clock::now() - stopStart,
              std::chrono::seconds(10));
}

TEST_F(FleetFixture, SilentNodeTimesOutABatchHelloAndReroutes)
{
    // A node that accepts a batch connection and never answers its
    // hello is dead once a ping's bound has passed; the batch
    // completes on the survivors.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::Silent);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    Watchdog watchdog("a batch over a silent node", 120);
    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 0u);
    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], fakePath);
    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_EQ(status[2].lastError, "hello timed out");
    EXPECT_EQ(status[2].pointsServed, 0u);
}

TEST_F(FleetFixture, NodeSilentAfterItsAckIsEndedByTheHealthMonitor)
{
    // The stream itself has no read timeout (a cold point may take
    // long). A node that acks and then goes silent is ended by the
    // health monitor instead: its pings time out, marking it dead
    // shuts down its batch socket, and its share reroutes.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::AckThenSilent);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const SweepRequest sweep = cheapLatencySweep(40);
    SweepBuilder reference = expandSweep(sweep);
    const LocalFold expected = localFold(reference.specs());

    Watchdog watchdog("a batch over a node silent after its ack", 120);
    FleetOptions options;
    options.healthIntervalSeconds = 0.05;
    FleetRouter router(fleet, options);
    const auto census = ownershipCensus(router, reference.specs(), 3);
    ASSERT_GT(census[2], 0u);
    // The fake serves one connection: ping it only once that is the
    // batch's.
    std::thread monitorStarter([&router, &fake] {
        while (fake.request().isNull())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        router.startHealthMonitor();
    });
    const FleetOutcome outcome = router.runSweep(sweep);
    monitorStarter.join();
    router.stopHealthMonitor();
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], fakePath);
    EXPECT_EQ(fake.served(), 0u);
    const Json request = fake.request();
    ASSERT_FALSE(request.isNull());
    EXPECT_TRUE(request.has("ring")) << request.dump();
    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_EQ(status[2].lastError, "ping timed out");
    EXPECT_EQ(status[2].pointsServed, 0u);
}

/** What a binary client read off one streamed request. */
struct BinaryStream
{
    /** Frame payloads in arrival order. */
    std::vector<std::string> payloads;
    /** Every frame's seq, in arrival order. */
    std::vector<uint64_t> seqs;
    /** FNV-1a over the frames' blobs in arrival order. */
    uint64_t fold = 0xcbf29ce484222325ull;
    Json done;
};

/** Negotiate the binary wire at @p endpoint, send @p request and read
 *  its stream up to the done line, pausing @p perFrame after each
 *  frame (a slow client). */
BinaryStream
streamBinary(const std::string &endpoint, const Json &request,
             std::chrono::microseconds perFrame = {})
{
    BinaryStream out;
    std::string error;
    const int fd = connectToEndpoint(parseEndpoint(endpoint), &error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0)
        return out;
    LineChannel channel(fd);
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", "binary");
    std::string line;
    EXPECT_TRUE(channel.writeLine(hello.dump()));
    EXPECT_TRUE(channel.readLine(&line));
    EXPECT_NE(line.find("\"binary\""), std::string::npos) << line;
    EXPECT_TRUE(channel.writeLine(request.dump()));
    const uint64_t id = request.get("id").asU64();
    std::string message;
    for (;;) {
        const LineChannel::MessageKind kind =
            channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Frame) {
            ResultFrameView frame;
            EXPECT_TRUE(viewResultFrame(message, &frame, &error))
                << error;
            EXPECT_EQ(frame.id, id);
            out.fold = fnv1a64(frame.blob.data(), frame.blob.size(),
                               out.fold);
            out.seqs.push_back(frame.seq);
            out.payloads.push_back(std::move(message));
            if (perFrame.count() > 0)
                std::this_thread::sleep_for(perFrame);
            continue;
        }
        if (kind != LineChannel::MessageKind::Line) {
            ADD_FAILURE() << "stream broke";
            return out;
        }
        Json msg;
        EXPECT_TRUE(Json::parse(message, &msg, &error)) << error;
        if (msg.has("error")) {
            ADD_FAILURE() << msg.getString("error");
            return out;
        }
        if (msg.getBool("done", false)) {
            out.done = msg;
            return out;
        }
    }
}

/** The seq numbers 0..n-1, each once, in order. */
void
expectGlobalOrder(const BinaryStream &stream, size_t n)
{
    ASSERT_EQ(stream.seqs.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(stream.seqs[i], i);
}

TEST_F(FleetFixture, RouterRelaysNodeFramesVerbatimInGlobalOrder)
{
    SweepRequest sweep;
    sweep.family = "groupings";
    sweep.program = "trfd";
    sweep.contexts = 2;
    sweep.scale = testScale;
    SweepBuilder reference = expandSweep(sweep);
    const LocalFold expected = localFold(reference.specs());
    const size_t n = expected.results.size();
    const std::string digestHex = format(
        "%016llx", static_cast<unsigned long long>(expected.digest));

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    Json request = sweepRequestToJson(sweep);
    request.set("op", "sweep");
    request.set("quiet", false);
    {
        // A JSON-wire client gets decoded, re-encoded points with
        // the same digest. This pass also warms every node's cache,
        // so the passes below serve identical cached points.
        std::string error;
        const int fd = connectToDaemon(fleet.socketPath(), &error);
        ASSERT_GE(fd, 0) << error;
        LineChannel channel(fd);
        request.set("id", 40);
        ASSERT_TRUE(channel.writeLine(request.dump()));
        uint64_t fold = 0xcbf29ce484222325ull;
        size_t points = 0;
        std::string line;
        while (channel.readLine(&line)) {
            Json msg;
            ASSERT_TRUE(Json::parse(line, &msg, &error)) << error;
            ASSERT_FALSE(msg.has("error")) << msg.getString("error");
            if (msg.getBool("ack", false))
                continue;
            if (msg.getBool("done", false)) {
                EXPECT_EQ(msg.getString("digest"), digestHex);
                break;
            }
            EXPECT_EQ(msg.get("seq").asU64(), points);
            std::string blob;
            resultFromJson(msg, &blob);
            fold = fnv1a64(blob.data(), blob.size(), fold);
            ++points;
        }
        EXPECT_EQ(points, n);
        EXPECT_EQ(fold, expected.digest);
    }

    // Each node's own frames for the points it owns, straight from it.
    std::vector<std::string> direct(n);
    std::vector<std::vector<size_t>> owned(endpoints_.size());
    for (size_t i = 0; i < n; ++i) {
        owned[fleet.router().nodeForKey(
                  reference.specs()[i].canonical())]
            .push_back(i);
    }
    for (size_t node = 0; node < owned.size(); ++node) {
        if (owned[node].empty())
            continue;  // ring placement varies with the ports
        Json subset = sweepRequestToJson(sweep);
        subset.set("op", "sweep");
        subset.set("id", 50 + node);
        subset.set("quiet", false);
        Json points = Json::array();
        for (const size_t global : owned[node])
            points.push(static_cast<uint64_t>(global));
        subset.set("points", std::move(points));
        const BinaryStream stream =
            streamBinary(endpoints_[node], subset);
        ASSERT_EQ(stream.payloads.size(), owned[node].size());
        for (size_t k = 0; k < owned[node].size(); ++k)
            direct[owned[node][k]] = stream.payloads[k];
    }

    // Through the router: global seq, once each, and every payload
    // past its 16-byte id/seq header byte-equal to the node's own.
    request.set("id", 41);
    const BinaryStream relayed =
        streamBinary(fleet.socketPath(), request);
    expectGlobalOrder(relayed, n);
    ASSERT_EQ(relayed.payloads.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(relayed.payloads[i].substr(16), direct[i].substr(16))
            << "point " << i;
    }
    EXPECT_EQ(relayed.fold, expected.digest);
    EXPECT_EQ(relayed.done.getString("digest"), digestHex);
    EXPECT_EQ(relayed.done.get("count").asU64(), n);
    EXPECT_EQ(relayed.done.get("rerouted").asU64(), 0u);

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, RouterRelaysThroughAHalfDeadNode)
{
    // The routing daemon absorbs a node dying mid-stream: its client
    // still reads every global seq exactly once, in order, with the
    // local digest.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::HalfDead);
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = {endpoints_[0], endpoints_[1], fakePath};
    FleetService fleet(options);
    const auto census = ownershipCensus(fleet.router(), specs, 3);
    ASSERT_GT(census[2], 1u);
    std::thread serveThread([&fleet] { fleet.serve(); });

    Json request = Json::object();
    request.set("op", "run");
    request.set("id", 42);
    Json specArray = Json::array();
    for (const RunSpec &spec : specs)
        specArray.push(spec.canonical());
    request.set("specs", std::move(specArray));
    const BinaryStream relayed =
        streamBinary(fleet.socketPath(), request);
    expectGlobalOrder(relayed, specs.size());
    EXPECT_EQ(fake.served(), 1u);
    EXPECT_EQ(relayed.fold, expected.digest);
    EXPECT_EQ(relayed.done.getString("digest"),
              format("%016llx", static_cast<unsigned long long>(
                                    expected.digest)));
    EXPECT_EQ(relayed.done.get("rerouted").asU64(), census[2] - 1);
    ASSERT_EQ(relayed.done.get("deadNodes").asArray().size(), 1u);
    EXPECT_EQ(relayed.done.get("deadNodes").asArray()[0].asString(),
              fakePath);

    fleet.stop();
    serveThread.join();
}

/** Per-bucket counts of the relay's parked-depth histogram (bounds
 *  in @p bounds; the last count is the overflow bucket). */
std::vector<uint64_t>
parkedDepthCounts(std::vector<uint64_t> *bounds)
{
    for (const HistogramSnapshot &h :
         MetricsRegistry::instance().snapshot().histograms) {
        if (h.name == "fleet_parked_depth") {
            *bounds = h.bounds;
            return h.counts;
        }
    }
    ADD_FAILURE() << "no fleet_parked_depth histogram";
    return {};
}

/** A slow client: one frame per millisecond. */
constexpr std::chrono::microseconds slowReader{1000};

TEST_F(FleetFixture, RouterCreditBoundsParkingForASlowClient)
{
    // Six windows of cached points through the routing daemon to a
    // client that reads one frame per millisecond. The nodes outrun
    // it at once; without credit the relay would park nearly the
    // whole sweep. With it, each node reader holds at most one window
    // of undrained payloads, so a drain never sees more than
    // nodes x window parked.
    SweepRequest sweep;
    sweep.family = "latency";
    sweep.scale = testScale;
    sweep.contexts = 2;
    sweep.jobs = {"trfd"};
    for (size_t i = 0; i < 6 * streamWindowPoints; ++i)
        sweep.latencies.push_back(static_cast<int>(20 + i));
    SweepBuilder reference = expandSweep(sweep);
    const LocalFold expected = localFold(reference.specs());
    const size_t n = expected.results.size();

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    Json request = sweepRequestToJson(sweep);
    request.set("op", "sweep");
    request.set("quiet", false);
    request.set("id", 60);
    const BinaryStream warm = streamBinary(fleet.socketPath(), request);
    ASSERT_EQ(warm.fold, expected.digest);

    std::vector<uint64_t> bounds;
    const std::vector<uint64_t> before = parkedDepthCounts(&bounds);
    request.set("id", 61);
    const BinaryStream slow =
        streamBinary(fleet.socketPath(), request, slowReader);
    const std::vector<uint64_t> after = parkedDepthCounts(&bounds);
    expectGlobalOrder(slow, n);
    EXPECT_EQ(slow.fold, expected.digest);
    EXPECT_EQ(slow.done.get("rerouted").asU64(), 0u);

    // The histogram resolves the bound to its bucket: nothing may
    // land above the one holding nodes x window.
    const uint64_t bound = endpoints_.size() * streamWindowPoints;
    ASSERT_EQ(after.size(), bounds.size() + 1);
    size_t boundBucket = 0;
    while (boundBucket < bounds.size() && bounds[boundBucket] < bound)
        ++boundBucket;
    uint64_t deep = 0;
    for (size_t b = 0; b < after.size(); ++b) {
        const uint64_t observed = after[b] - before[b];
        if (b > boundBucket) {
            EXPECT_EQ(observed, 0u) << "parked depth bucket " << b;
        }
        if (b < bounds.size() && bounds[b] > streamWindowPoints)
            deep += observed;
    }
    // The credit was really exercised: the readers ran a window
    // ahead of the slow client.
    EXPECT_GT(deep, 0u);

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, RouterCreditWaitEndsWhenANodeDies)
{
    // The credit rule's one hazard: a node dies holding the point the
    // cursor needs, while the survivors each have a full window
    // parked past it and wait for credit. Only the next scatter round
    // reroutes that point, and it starts when every reader of this
    // round has exited — so the death must release the credit waits.
    const std::string fakePath = tempPath(8) + ".fake";
    FakeNode fake(fakePath, FakeMode::HalfDead);
    // Cheap points: the test is about flow control, not simulation.
    std::vector<RunSpec> specs =
        distinctSpecs(static_cast<int>(6 * streamWindowPoints));
    for (RunSpec &spec : specs)
        spec.scale = testScale / 10;
    const LocalFold expected = localFold(specs);

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = {endpoints_[0], endpoints_[1], fakePath};
    // The fake serves one connection and never answers a ping, so a
    // health ping would hang on it; this run is long enough to reach
    // one.
    options.fleet.healthIntervalSeconds = 3600;
    FleetService fleet(options);
    const auto census = ownershipCensus(fleet.router(), specs, 3);
    ASSERT_GT(census[0], streamWindowPoints);
    ASSERT_GT(census[1], streamWindowPoints);
    ASSERT_GT(census[2], 1u);
    std::thread serveThread([&fleet] { fleet.serve(); });

    Json request = Json::object();
    request.set("op", "run");
    request.set("id", 62);
    Json specArray = Json::array();
    for (const RunSpec &spec : specs)
        specArray.push(spec.canonical());
    request.set("specs", std::move(specArray));
    BinaryStream relayed;
    {
        Watchdog watchdog("the relay through a dying node", 120);
        relayed = streamBinary(fleet.socketPath(), request, slowReader);
    }
    expectGlobalOrder(relayed, specs.size());
    EXPECT_EQ(fake.served(), 1u);
    EXPECT_EQ(relayed.fold, expected.digest);
    EXPECT_EQ(relayed.done.getString("digest"),
              format("%016llx", static_cast<unsigned long long>(
                                    expected.digest)));
    EXPECT_EQ(relayed.done.get("rerouted").asU64(), census[2] - 1);

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, RouterReapsItsNodeStreamsWhenTheClientVanishes)
{
    // A client of the routing daemon reads the ack and a few points
    // of a long cold sweep, then hangs up. The router's next write to
    // it fails, so it gives the batch up and shuts down its node
    // sockets, and each node reaps its stream: the nodes stop within
    // about a window each, instead of simulating the whole sweep for
    // nobody — and no node is blamed for it.
    SweepRequest sweep;
    sweep.family = "latency";
    sweep.scale = testScale;
    sweep.contexts = 2;
    sweep.jobs = {"trfd"};
    const size_t total = 16 * streamWindowPoints;
    for (size_t i = 0; i < total; ++i)
        sweep.latencies.push_back(static_cast<int>(20 + i));

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    const auto completed = [this] {
        uint64_t points = 0;
        for (const auto &service : services_)
            points += service->completedPoints();
        return points;
    };
    {
        Watchdog watchdog("a sweep its client abandoned", 120);
        {
            std::string error;
            const int fd = connectToEndpoint(
                parseEndpoint(fleet.socketPath()), &error);
            ASSERT_GE(fd, 0) << error;
            LineChannel channel(fd);
            Json request = sweepRequestToJson(sweep);
            request.set("op", "sweep");
            request.set("id", 70);
            request.set("quiet", false);
            ASSERT_TRUE(channel.writeLine(request.dump()));
            std::string line;
            ASSERT_TRUE(channel.readLine(&line));
            EXPECT_NE(line.find("\"ack\""), std::string::npos) << line;
            for (int k = 0; k < 3; ++k) {
                ASSERT_TRUE(channel.readLine(&line));
                EXPECT_NE(line.find("\"seq\""), std::string::npos)
                    << line;
            }
        }  // the client hangs up
        // The nodes settle once no point has completed for 0.5 s.
        uint64_t last = completed();
        for (int still = 0; still < 5;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            const uint64_t now = completed();
            still = now == last ? still + 1 : 0;
            last = now;
        }
    }
    // Each node completes at most its window plus what its stream had
    // written ahead of the router; far from the whole sweep.
    EXPECT_LT(completed(), endpoints_.size() * 2 * streamWindowPoints);
    uint64_t reaped = 0;
    for (const auto &service : services_)
        reaped += service->reapedBatches();
    EXPECT_GE(reaped, 1u);
    for (const FleetNodeStatus &node : fleet.router().status())
        EXPECT_TRUE(node.alive) << node.name << ": " << node.lastError;

    // The fleet serves the next client as before.
    SweepRequest next;
    next.family = "groupings";
    next.program = "trfd";
    next.contexts = 2;
    next.scale = testScale;
    const LocalFold expected = localFold(expandSweep(next).specs());
    Json request = sweepRequestToJson(next);
    request.set("op", "sweep");
    request.set("id", 71);
    request.set("quiet", false);
    const BinaryStream stream = streamBinary(fleet.socketPath(), request);
    expectGlobalOrder(stream, expected.results.size());
    EXPECT_EQ(stream.fold, expected.digest);
    EXPECT_EQ(stream.done.getString("digest"),
              format("%016llx", static_cast<unsigned long long>(
                                    expected.digest)));

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, PingAllRevivesARestartedNode)
{
    FleetRouter router(endpoints_);
    ASSERT_EQ(router.pingAll(), 3u);
    const uint64_t revivesBefore =
        MetricsRegistry::instance()
            .counter("fleet_revives_total")
            ->value();

    // Node 2 goes away; it stays sticky-dead across pings.
    const std::string path = services_[2]->socketPath();
    services_[2]->stop();
    serveThreads_[2].join();
    services_[2].reset();
    EXPECT_EQ(router.pingAll(), 2u);
    EXPECT_FALSE(router.status()[2].alive);
    EXPECT_EQ(router.pingAll(), 2u);

    // A daemon restarted on the same endpoint pongs the next ping:
    // the node rejoins the ring and the revival is counted.
    ServiceOptions options;
    options.socketPath = path;
    options.workers = 2;
    services_[2] = std::make_unique<MtvService>(options);
    serveThreads_[2] =
        std::thread([s = services_[2].get()] { s->serve(); });
    EXPECT_EQ(router.pingAll(), 3u);
    EXPECT_TRUE(router.status()[2].alive)
        << router.status()[2].lastError;
    EXPECT_GE(MetricsRegistry::instance()
                  .counter("fleet_revives_total")
                  ->value(),
              revivesBefore + 1);

    // And the revived node serves points again, bit-identical.
    const auto specs = distinctSpecs(6);
    const LocalFold expected = localFold(specs);
    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_TRUE(outcome.deadNodes.empty());
}

TEST_F(FleetFixture, PingAllMarksUnreachableNodesDead)
{
    const std::string bogus = tempPath(7) + ".nothere";
    FleetRouter router({endpoints_[0], endpoints_[1], bogus});
    EXPECT_EQ(router.pingAll(), 2u);
    const auto status = router.status();
    EXPECT_TRUE(status[0].alive) << status[0].lastError;
    EXPECT_TRUE(status[1].alive) << status[1].lastError;
    EXPECT_FALSE(status[2].alive);

    // The background monitor is the same pingAll on a timer; make
    // sure it starts and stops cleanly (TSan covers the rest).
    router.startHealthMonitor();
    router.stopHealthMonitor();
    EXPECT_EQ(router.aliveCount(), 2u);
}

TEST_F(FleetFixture, MetricsOpAggregatesAcrossNodes)
{
    // A routing daemon over the three fixture nodes: its "metrics"
    // op must gather every node's registry and sum the counters.
    FleetServiceOptions options;
    options.socketPath = tempPath(8);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    std::string error;
    const int fd = connectToDaemon(fleet.socketPath(), &error);
    ASSERT_GE(fd, 0) << error;
    {
        LineChannel channel(fd);
        Json request = Json::object();
        request.set("op", "metrics");
        ASSERT_TRUE(channel.writeLine(request.dump()));
        std::string line;
        ASSERT_TRUE(channel.readLine(&line));
        Json response;
        ASSERT_TRUE(Json::parse(line, &response, &error)) << error;

        EXPECT_TRUE(response.getBool("ok"));
        EXPECT_TRUE(response.getBool("fleet"));
        ASSERT_EQ(response.get("nodes").type(), Json::Type::Array);
        ASSERT_EQ(response.get("nodes").asArray().size(), 3u);
        for (const Json &node : response.get("nodes").asArray()) {
            EXPECT_TRUE(node.getBool("ok"))
                << node.getString("error");
            EXPECT_EQ(node.get("metrics").type(),
                      Json::Type::Object);
        }
        // The router carries its own registry too, with the relay's
        // two bottleneck readouts: client write stall and parked
        // depth.
        const Json &router = response.get("router");
        ASSERT_EQ(router.type(), Json::Type::Object);
        EXPECT_TRUE(router.get("counters").has(
            "fleet_write_stall_us_total"));
        const Json &depth =
            router.get("histograms").get("fleet_parked_depth");
        ASSERT_EQ(depth.type(), Json::Type::Object);
        EXPECT_EQ(depth.get("bounds").asArray().front().asU64(), 0u);

        // The gather itself connects once per node, and all three
        // nodes share this test process's registry — so the summed
        // connection counter is at least one per node. (No exact
        // check: the router's health monitor pings concurrently.)
        const Json &totals = response.get("totals");
        ASSERT_EQ(totals.type(), Json::Type::Object);
        EXPECT_GE(totals.get("service_connections_total").asU64(),
                  3u);
    }

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, CompareOpScattersAndMatchesLocalTable)
{
    // The fleet frontend's "compare" op: scatter the family across
    // the ring, fold router-side, answer one aggregated line whose
    // rows and digest are bit-identical to a local computation.
    SweepRequest request;
    request.family = "ext-compare";
    request.contexts = 2;
    request.jobs = {"flo52", "trfd"};
    request.scale = testScale;
    SweepBuilder reference = expandSweep(request);
    const LocalFold expected = localFold(reference.specs());
    const std::vector<CompareRow> localRows =
        compareDesigns(reference.slices(), expected.results);

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    std::string error;
    const int fd = connectToDaemon(fleet.socketPath(), &error);
    ASSERT_GE(fd, 0) << error;
    {
        LineChannel channel(fd);
        Json line = sweepRequestToJson(request);
        line.set("op", "compare");
        line.set("id", 31);
        ASSERT_TRUE(channel.writeLine(line.dump()));
        std::string text;
        ASSERT_TRUE(channel.readLine(&text));
        Json response;
        ASSERT_TRUE(Json::parse(text, &response, &error)) << error;
        ASSERT_FALSE(response.has("error"))
            << response.getString("error");
        EXPECT_TRUE(response.getBool("ok", false));
        EXPECT_TRUE(response.getBool("compare", false));
        EXPECT_TRUE(response.getBool("fleet", false));
        EXPECT_EQ(response.getString("family"), "ext-compare");
        EXPECT_EQ(response.get("count").asU64(),
                  expected.results.size());
        EXPECT_EQ(response.getString("baseline"),
                  reference.slices()[0].label);
        char digestHex[17];
        std::snprintf(digestHex, sizeof(digestHex), "%016llx",
                      static_cast<unsigned long long>(
                          expected.digest));
        EXPECT_EQ(response.getString("digest"), digestHex);
        const auto &rows = response.get("rows").asArray();
        ASSERT_EQ(rows.size(), localRows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            const CompareRow row = compareRowFromJson(rows[i]);
            EXPECT_EQ(row.design, localRows[i].design)
                << "row " << i;
            EXPECT_EQ(row.cycles, localRows[i].cycles)
                << "row " << i;
            EXPECT_DOUBLE_EQ(row.speedup, localRows[i].speedup)
                << "row " << i;
        }

        // A non-design-parallel family is rejected before any node
        // sees work, same structured error as a single daemon.
        SweepRequest grouping;
        grouping.family = "groupings";
        grouping.program = "trfd";
        grouping.contexts = 2;
        grouping.scale = testScale;
        Json bad = sweepRequestToJson(grouping);
        bad.set("op", "compare");
        bad.set("id", 32);
        ASSERT_TRUE(channel.writeLine(bad.dump()));
        ASSERT_TRUE(channel.readLine(&text));
        Json answer;
        ASSERT_TRUE(Json::parse(text, &answer, &error)) << error;
        EXPECT_TRUE(answer.has("error"));
        EXPECT_EQ(answer.getString("notComparable"), "groupings");
    }

    fleet.stop();
    serveThread.join();
}

TEST(FleetRouterDeath, AllNodesDeadFatals)
{
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("mtv_test_fleet_dead_" + std::to_string(::getpid())))
            .string();
    FleetRouter router({base + "_a.nothere", base + "_b.nothere"});
    ScopedFatalAsException scope;
    EXPECT_THROW(router.runSpecs(distinctSpecs(4)), FatalError);
    EXPECT_EQ(router.aliveCount(), 0u);
}

} // namespace
} // namespace mtv
