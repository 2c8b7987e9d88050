/**
 * @file
 * Tests for src/service: the JSON codec, the protocol encoding, the
 * ScopedFatalAsException guard, and a live in-process mtvd loopback —
 * daemon results must be bit-identical to in-process runs, malformed
 * client input must be answered (not crash the daemon), and request
 * batches must stream back in submission order. The request-envelope
 * tests run twice: against a node and against a routing daemon in
 * front of it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "src/api/engine.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/fleet/fleet_service.hh"
#include "src/fleet/ring.hh"
#include "src/obs/metrics.hh"
#include "src/service/json.hh"
#include "src/service/server.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"
#include "tests/stream_reader.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

// ---------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip)
{
    Json obj = Json::object();
    obj.set("op", "run");
    obj.set("quiet", true);
    obj.set("n", 42);
    obj.set("x", 1.5);
    obj.set("nothing", Json());
    Json arr = Json::array();
    arr.push("a").push(Json(7)).push(false);
    obj.set("list", std::move(arr));

    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(obj.dump(), &back, &error)) << error;
    EXPECT_EQ(back.getString("op"), "run");
    EXPECT_TRUE(back.getBool("quiet"));
    EXPECT_EQ(back.get("n").asU64(), 42u);
    EXPECT_DOUBLE_EQ(back.get("x").asNumber(), 1.5);
    EXPECT_TRUE(back.get("nothing").isNull());
    ASSERT_EQ(back.get("list").asArray().size(), 3u);
    EXPECT_EQ(back.get("list").asArray()[0].asString(), "a");
    EXPECT_FALSE(back.get("list").asArray()[2].asBool());
    // Canonical re-dump.
    EXPECT_EQ(back.dump(), obj.dump());
}

TEST(Json, NumbersDumpAsPrintfAndParseAsStrtod)
{
    // Numbers print as %lld (integral, below 2^53) or %.17g, and
    // parse to the value strtod gives, on every path.
    for (const double v : {0.0, -0.0, 42.0, -42.0, 9.007199254740991e15,
                           9.007199254740992e15, -9.5e15, 1.5, 0.1,
                           1e300, -1e-300, 123456789.125}) {
        const std::string expected =
            v == std::floor(v) && std::fabs(v) < 9.007199254740992e15
                ? format("%lld", static_cast<long long>(v))
                : format("%.17g", v);
        EXPECT_EQ(Json(v).dump(), expected);
    }
    for (const char *text :
         {"0", "-0", "7", "-42", "007", "123456789012345",
          "-123456789012345", "1234567890123456", "9007199254740993",
          "1.5", "-2.25e3", "1e300", "+5"}) {
        Json out;
        std::string error;
        ASSERT_TRUE(Json::parse(text, &out, &error)) << text << error;
        const double expected = std::strtod(text, nullptr);
        EXPECT_EQ(out.asNumber(), expected) << text;
        EXPECT_EQ(std::signbit(out.asNumber()), std::signbit(expected))
            << text;
    }
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("12-3", &out, &error));
    EXPECT_FALSE(Json::parse("-", &out, &error));
}

TEST(Json, StringEscapes)
{
    Json s(std::string("line\n\"quoted\"\ttab\\slash"));
    const std::string dumped = s.dump();
    EXPECT_EQ(dumped.find('\n'), std::string::npos);
    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(dumped, &back, &error)) << error;
    EXPECT_EQ(back.asString(), s.asString());
}

TEST(Json, ParseRejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("{\"a\":", &out, &error));
    EXPECT_FALSE(Json::parse("[1,2,]", &out, &error));
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &out, &error));
    EXPECT_FALSE(Json::parse("nope", &out, &error));
    EXPECT_FALSE(Json::parse("", &out, &error));
    EXPECT_NE(error.find("JSON parse error"), std::string::npos);
}

TEST(Json, ParsesNestedStructures)
{
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse(
        "  {\"a\": [1, {\"b\": \"\\u0041x\"}], \"c\": -2.5e3} ", &out,
        &error))
        << error;
    EXPECT_EQ(out.get("a").asArray()[1].getString("b"), "Ax");
    EXPECT_DOUBLE_EQ(out.getNumber("c"), -2500.0);
}

// ---------------------------------------------------------------------
// ScopedFatalAsException
// ---------------------------------------------------------------------

TEST(FatalScope, FatalThrowsInsideScope)
{
    ScopedFatalAsException scope;
    EXPECT_THROW(fatal("boom %d", 7), FatalError);
    try {
        fatal("boom %d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "boom 7");
    }
}

TEST(FatalScopeDeath, FatalStillExitsOutsideScope)
{
    EXPECT_EXIT(fatal("bye"), testing::ExitedWithCode(1), "bye");
}

// ---------------------------------------------------------------------
// Live daemon loopback
// ---------------------------------------------------------------------

/** An MtvService on a temp socket, served from a background thread. */
class ServiceFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        socketPath_ =
            (std::filesystem::temp_directory_path() /
             ("mtv_test_service_" + std::to_string(::getpid()) +
              ".sock"))
                .string();
        ServiceOptions options;
        options.socketPath = socketPath_;
        options.workers = 2;
        service_ = std::make_unique<MtvService>(options);
        serveThread_ =
            std::thread([this] { service_->serve(); });
    }

    void
    TearDown() override
    {
        service_->stop();
        serveThread_.join();
        service_.reset();
    }

    LineChannel
    connect()
    {
        std::string error;
        const int fd = connectToDaemon(socketPath_, &error);
        EXPECT_GE(fd, 0) << error;
        return LineChannel(fd);
    }

    Json
    roundTrip(LineChannel &channel, const Json &request)
    {
        EXPECT_TRUE(channel.writeLine(request.dump()));
        std::string line;
        EXPECT_TRUE(channel.readLine(&line));
        Json response;
        std::string error;
        EXPECT_TRUE(Json::parse(line, &response, &error)) << error;
        return response;
    }

    /** The "status" answer once the books of a settled batch of
     *  @p count distinct cold specs balance (a skipped task counts
     *  itself just after leaving the queue); asserts that they do
     *  and that no point is left in flight. */
    Json settledStatus(LineChannel &channel, size_t count);

    std::string socketPath_;
    std::unique_ptr<MtvService> service_;
    std::thread serveThread_;
};

TEST_F(ServiceFixture, PingPongs)
{
    LineChannel channel = connect();
    Json ping = Json::object();
    ping.set("op", "ping");
    const Json response = roundTrip(channel, ping);
    EXPECT_TRUE(response.getBool("ok"));
    EXPECT_TRUE(response.getBool("pong"));
    EXPECT_EQ(response.get("protocol").asU64(),
              static_cast<uint64_t>(serviceProtocolVersion));
}

TEST_F(ServiceFixture, RunBatchStreamsInOrderAndBitIdentical)
{
    // The daemon's answers must match a plain in-process engine.
    std::vector<RunSpec> specs;
    specs.push_back(RunSpec::group({"trfd", "swm256"},
                                   MachineParams::multithreaded(2),
                                   testScale));
    specs.push_back(RunSpec::single(
        "dyfesm", MachineParams::reference(), testScale));
    specs.push_back(specs[1]);  // duplicate: served by the cache
    ExperimentEngine local;
    const auto expected = local.runAll(specs);

    LineChannel channel = connect();
    Json request = Json::object();
    request.set("op", "run");
    Json specArray = Json::array();
    for (const RunSpec &spec : specs)
        specArray.push(spec.canonical());
    request.set("specs", std::move(specArray));
    ASSERT_TRUE(channel.writeLine(request.dump()));

    for (size_t i = 0; i < specs.size(); ++i) {
        ResultFrame result;
        ASSERT_TRUE(readFrame(channel, &result));
        EXPECT_EQ(result.seq, i);
        EXPECT_EQ(result.spec, specs[i].canonical());
        const SimStats stats = deserializeSimStats(result.blob);
        EXPECT_EQ(serializeSimStats(stats),
                  serializeSimStats(expected[i].stats));
        if (specs[i].mode == SpecMode::Group) {
            EXPECT_DOUBLE_EQ(result.speedup, expected[i].speedup);
        }
    }
    std::string line;
    ASSERT_TRUE(channel.readLine(&line));
    Json done;
    std::string error;
    ASSERT_TRUE(Json::parse(line, &done, &error)) << error;
    EXPECT_TRUE(done.getBool("done"));
    EXPECT_EQ(done.get("count").asU64(), specs.size());
    // The duplicate third spec was coalesced/served by the cache.
    EXPECT_GE(done.get("cacheServed").asU64(), 1u);
}

TEST_F(ServiceFixture, StatsAndClear)
{
    LineChannel channel = connect();
    Json run = Json::object();
    run.set("op", "run");
    Json specArray = Json::array();
    specArray.push(RunSpec::single("trfd", MachineParams::reference(),
                                   testScale)
                       .canonical());
    run.set("specs", std::move(specArray));
    run.set("quiet", true);
    ASSERT_TRUE(channel.writeLine(run.dump()));
    ResultFrame point;
    ASSERT_TRUE(readFrame(channel, &point));
    ASSERT_TRUE(readUntilDone(channel));

    Json statsRequest = Json::object();
    statsRequest.set("op", "stats");
    Json stats = roundTrip(channel, statsRequest);
    EXPECT_TRUE(stats.getBool("ok"));
    EXPECT_EQ(stats.get("cache").get("size").asU64(), 1u);
    EXPECT_TRUE(stats.get("store").isNull());  // no --store configured

    Json clearRequest = Json::object();
    clearRequest.set("op", "clear");
    EXPECT_TRUE(roundTrip(channel, clearRequest).getBool("ok"));
    stats = roundTrip(channel, statsRequest);
    EXPECT_EQ(stats.get("cache").get("size").asU64(), 0u);
}

TEST_F(ServiceFixture, ConcurrentClientsShareOneEngine)
{
    const RunSpec spec = RunSpec::single(
        "swm256", MachineParams::reference(), testScale);
    auto clientRun = [this, &spec]() {
        LineChannel channel = connect();
        Json request = Json::object();
        request.set("op", "run");
        Json specArray = Json::array();
        specArray.push(spec.canonical());
        request.set("specs", std::move(specArray));
        ASSERT_TRUE(channel.writeLine(request.dump()));
        ResultFrame result;
        ASSERT_TRUE(readFrame(channel, &result));
        EXPECT_EQ(deserializeSimStats(result.blob).cycles,
                  ExperimentEngine().run(spec).stats.cycles);
    };
    std::thread a(clientRun), b(clientRun), c(clientRun);
    a.join();
    b.join();
    c.join();
    // Three identical requests; the engine simulated exactly once
    // (the rest were coalesced or cache-served).
    EXPECT_EQ(service_->engine().cacheMisses(), 1u);
    EXPECT_GE(service_->engine().cacheHits(), 2u);
}

// ---------------------------------------------------------------------
// Sweep op: server-side expansion, streaming, multiplexing
// ---------------------------------------------------------------------

TEST(Protocol, SweepRequestRoundTrip)
{
    SweepRequest request;
    request.family = "latency";
    request.scale = testScale;
    request.program = "swm256";
    request.contexts = 3;
    request.jobs = {"flo52", "trfd"};
    request.latencies = {1, 50, 100};
    const Json encoded = sweepRequestToJson(request);
    const SweepRequest back = sweepRequestFromJson(encoded);
    EXPECT_EQ(back.family, request.family);
    EXPECT_DOUBLE_EQ(back.scale, request.scale);
    EXPECT_EQ(back.program, request.program);
    EXPECT_EQ(back.contexts, request.contexts);
    EXPECT_EQ(back.jobs, request.jobs);
    EXPECT_EQ(back.latencies, request.latencies);

    SweepSlice slice;
    slice.label = "swm256";
    slice.contexts = 3;
    slice.first = 10;
    slice.count = 5;
    const SweepSlice sliceBack = sliceFromJson(sliceToJson(slice));
    EXPECT_EQ(sliceBack.label, "swm256");
    EXPECT_EQ(sliceBack.contexts, 3);
    EXPECT_EQ(sliceBack.first, 10u);
    EXPECT_EQ(sliceBack.count, 5u);
}

namespace
{

/** What one demultiplexed response stream accumulated. */
struct StreamTally
{
    size_t results = 0;
    size_t expected = 0;     ///< count from the ack
    size_t slices = 0;
    bool done = false;
    uint64_t clientDigest = 0xcbf29ce484222325ull;
    std::string serverDigest;
    std::vector<std::string> blobs;  ///< submission order
};

/** Send one sweep request with @p id on @p channel. */
void
sendSweep(LineChannel &channel, uint64_t id,
          const SweepRequest &request)
{
    Json line = sweepRequestToJson(request);
    line.set("op", "sweep");
    line.set("id", id);
    ASSERT_TRUE(channel.writeLine(line.dump()));
}

/**
 * Read response messages, demultiplexing by id, until every stream
 * in @p tallies is done. Verifies per-id seq ordering as it goes.
 */
void
demux(LineChannel &channel,
      std::unordered_map<uint64_t, StreamTally> &tallies)
{
    auto allDone = [&tallies] {
        for (const auto &[id, tally] : tallies) {
            if (!tally.done)
                return false;
        }
        return true;
    };
    while (!allDone()) {
        StreamMessage message;
        ASSERT_TRUE(readStreamMessage(channel, &message));
        if (message.isFrame) {
            // A result point: in submission order within its stream.
            const ResultFrame &frame = message.frame;
            ASSERT_TRUE(tallies.count(frame.id))
                << "unknown stream " << frame.id;
            StreamTally &tally = tallies[frame.id];
            EXPECT_EQ(frame.seq, tally.results);
            tally.clientDigest = fnv1a64(
                frame.blob.data(), frame.blob.size(), tally.clientDigest);
            tally.blobs.push_back(frame.blob);
            ++tally.results;
            continue;
        }
        const Json &line = message.line;
        ASSERT_FALSE(line.has("error")) << line.getString("error");
        const uint64_t id = line.get("id").asU64();
        ASSERT_TRUE(tallies.count(id)) << "unknown stream " << id;
        StreamTally &tally = tallies[id];
        if (line.getBool("ack", false)) {
            tally.expected = line.get("count").asU64();
            tally.slices = line.get("slices").asArray().size();
            continue;
        }
        ASSERT_TRUE(line.getBool("done", false)) << message.raw;
        EXPECT_EQ(line.get("count").asU64(), tally.expected);
        tally.serverDigest = line.getString("digest");
        tally.done = true;
    }
}

/** Hex form of a folded digest, as the done line carries it. */
std::string
digestHex(uint64_t digest)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(digest));
    return text;
}

} // namespace

TEST_F(ServiceFixture, SweepOpExpandsServerSideAndStreams)
{
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;

    // The reference expansion, computed locally.
    SweepBuilder local = expandSweep(request);
    ExperimentEngine localEngine;
    const auto expected = localEngine.runAll(local.specs());

    LineChannel channel = connect();
    sendSweep(channel, 42, request);
    std::unordered_map<uint64_t, StreamTally> tallies;
    tallies[42] = StreamTally();
    demux(channel, tallies);

    const StreamTally &tally = tallies[42];
    EXPECT_EQ(tally.expected, local.size());
    EXPECT_EQ(tally.results, expected.size());
    EXPECT_EQ(tally.slices, local.slices().size());
    // Bit-identical to the in-process run, point by point.
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(tally.blobs[i],
                  serializeSimStats(expected[i].stats))
            << "point " << i;
    }
    EXPECT_EQ(tally.serverDigest, digestHex(tally.clientDigest));
}

TEST_F(ServiceFixture, MultiplexedSweepsInterleaveOneConnection)
{
    // Two sweeps in flight on ONE connection: both must stream to
    // completion, each demultiplexed by id with its own seq order.
    SweepRequest first;
    first.family = "groupings";
    first.program = "trfd";
    first.contexts = 2;
    first.scale = testScale;
    SweepRequest second;
    second.family = "groupings";
    second.program = "swm256";
    second.contexts = 2;
    second.scale = testScale;

    LineChannel channel = connect();
    sendSweep(channel, 1, first);
    sendSweep(channel, 2, second);
    std::unordered_map<uint64_t, StreamTally> tallies;
    tallies[1] = StreamTally();
    tallies[2] = StreamTally();
    demux(channel, tallies);

    EXPECT_EQ(tallies[1].results, 5u);
    EXPECT_EQ(tallies[2].results, 5u);
    // Each stream's digest matches its own in-process run.
    for (const auto &[id, request] :
         std::vector<std::pair<uint64_t, SweepRequest>>{
             {1, first}, {2, second}}) {
        ExperimentEngine localEngine;
        uint64_t digest = 0xcbf29ce484222325ull;
        for (const RunResult &r :
             localEngine.runAll(expandSweep(request).specs())) {
            const std::string blob = serializeSimStats(r.stats);
            digest = fnv1a64(blob.data(), blob.size(), digest);
        }
        EXPECT_EQ(tallies[id].serverDigest, digestHex(digest))
            << "stream " << id;
    }
}

TEST_F(ServiceFixture, ConcurrentClientsOverlapSweepsAndCoalesce)
{
    // N clients race the same sweep: digests must be bit-identical,
    // and the duplicate points must cost ONE simulation (in-flight
    // coalescing), which the engine's counters expose.
    SweepRequest request;
    request.family = "groupings";
    request.program = "dyfesm";
    request.contexts = 2;
    request.scale = testScale;

    // The unique cacheable work of this sweep, measured locally.
    ExperimentEngine localEngine;
    localEngine.runAll(expandSweep(request).specs());
    const uint64_t uniqueMisses = localEngine.cacheMisses();

    constexpr int clients = 4;
    std::vector<std::string> digests(clients);
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        pool.emplace_back([this, &request, &digests, c] {
            LineChannel channel = connect();
            sendSweep(channel, 7, request);
            std::unordered_map<uint64_t, StreamTally> tallies;
            tallies[7] = StreamTally();
            demux(channel, tallies);
            digests[c] = tallies[7].serverDigest;
        });
    }
    for (auto &thread : pool)
        thread.join();

    for (int c = 1; c < clients; ++c)
        EXPECT_EQ(digests[c], digests[0]) << "client " << c;
    // Four overlapping copies of the sweep, one simulation each:
    // every duplicate lookup coalesced onto the first or hit the
    // completed cache.
    EXPECT_EQ(service_->engine().cacheMisses(), uniqueMisses);
    EXPECT_GE(service_->engine().cacheHits(),
              static_cast<uint64_t>(clients - 1) * 5);
    EXPECT_EQ(service_->completedPoints(),
              static_cast<uint64_t>(clients) * 5);
    EXPECT_EQ(service_->activeRequests(), 0u);
}

TEST_F(ServiceFixture, SweepErrorsAnswerWithoutKillingDaemon)
{
    LineChannel channel = connect();
    Json bad = Json::object();
    bad.set("op", "sweep");
    bad.set("id", 9);
    bad.set("family", "no-such-family");
    ASSERT_TRUE(channel.writeLine(bad.dump()));
    std::string text;
    ASSERT_TRUE(channel.readLine(&text));
    Json response;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &response, &error)) << error;
    EXPECT_TRUE(response.has("error"));
    EXPECT_EQ(response.get("id").asU64(), 9u);

    // The error is STRUCTURED: the offending family and the
    // registered ones ride as fields, so fleet routers and scripts
    // can match on them instead of parsing prose.
    EXPECT_EQ(response.getString("badFamily"), "no-such-family");
    const auto &families = response.get("families").asArray();
    ASSERT_FALSE(families.empty());
    bool hasGroupings = false;
    for (const Json &family : families)
        hasGroupings = hasGroupings || family.asString() == "groupings";
    EXPECT_TRUE(hasGroupings);

    // The daemon survived and still serves this connection.
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

TEST_F(ServiceFixture, SweepPointsSubsetStreamsInGivenOrder)
{
    // The fleet reroute path: "points" selects global indices of the
    // server-side expansion, streamed back in the given (strictly
    // ascending) order with seq = the global index.
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    SweepBuilder local = expandSweep(request);
    ExperimentEngine localEngine;
    const auto expected = localEngine.runAll(local.specs());
    ASSERT_EQ(expected.size(), 5u);

    const std::vector<uint64_t> subset = {0, 3, 4};
    LineChannel channel = connect();
    Json line = sweepRequestToJson(request);
    line.set("op", "sweep");
    line.set("id", 5);
    Json points = Json::array();
    for (const uint64_t global : subset)
        points.push(global);
    line.set("points", std::move(points));
    ASSERT_TRUE(channel.writeLine(line.dump()));

    // The ack reports the subset size AND the full expansion size.
    std::string text;
    ASSERT_TRUE(channel.readLine(&text));
    Json ack;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &ack, &error)) << error;
    ASSERT_TRUE(ack.getBool("ack", false)) << text;
    EXPECT_EQ(ack.get("count").asU64(), subset.size());
    EXPECT_EQ(ack.get("total").asU64(), expected.size());

    for (size_t i = 0; i < subset.size(); ++i) {
        ResultFrame result;
        ASSERT_TRUE(readFrame(channel, &result));
        // The i-th point of the stream is global point subset[i].
        EXPECT_EQ(result.seq, subset[i]);
        EXPECT_EQ(result.spec, local.specs()[subset[i]].canonical());
        EXPECT_EQ(result.blob,
                  serializeSimStats(expected[subset[i]].stats));
    }
    ASSERT_TRUE(channel.readLine(&text));
    Json done;
    ASSERT_TRUE(Json::parse(text, &done, &error)) << error;
    EXPECT_TRUE(done.getBool("done", false));
    EXPECT_EQ(done.get("count").asU64(), subset.size());

    // An out-of-range index is a request error, not a daemon death.
    Json bad = sweepRequestToJson(request);
    bad.set("op", "sweep");
    bad.set("id", 6);
    Json badPoints = Json::array();
    badPoints.push(uint64_t{999});
    bad.set("points", std::move(badPoints));
    const Json answer = roundTrip(channel, bad);
    EXPECT_TRUE(answer.has("error"));
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

TEST_F(ServiceFixture, SweepPointsMustBeStrictlyAscendingAndInRange)
{
    // A router's bounded relay relies on each node streaming its
    // subset in ascending global order, so a "points" list that is
    // out of order, repeats an index or leaves the expansion answers
    // one structured error naming the first bad position — no ack,
    // no points — and the connection stays usable.
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    const struct
    {
        std::vector<uint64_t> points;
        uint64_t badPosition;
    } cases[] = {
        {{3, 0, 4}, 1},   // descending step
        {{0, 2, 2}, 2},   // duplicate
        {{1, 5}, 1},      // out of range (the family has 5 points)
        {{999}, 0},
    };
    LineChannel channel = connect();
    uint64_t id = 60;
    for (const auto &c : cases) {
        Json line = sweepRequestToJson(request);
        line.set("op", "sweep");
        line.set("id", id);
        Json points = Json::array();
        for (const uint64_t global : c.points)
            points.push(global);
        line.set("points", std::move(points));
        const Json answer = roundTrip(channel, line);
        ASSERT_TRUE(answer.has("error")) << answer.dump();
        EXPECT_EQ(answer.get("id").asU64(), id);
        EXPECT_EQ(answer.get("badPoints").asU64(), c.badPosition)
            << answer.dump();
        EXPECT_EQ(answer.get("total").asU64(), 5u);
        ++id;
    }
    // Nothing was admitted, and the connection still answers.
    EXPECT_EQ(service_->activeRequests(), 0u);
    EXPECT_EQ(service_->pointsInFlight(), 0u);
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
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

/** A three-node ring as a router would send it to node @p self. */
SweepRing
threeNodeRing(size_t self)
{
    SweepRing ring;
    ring.nodes = {"node-a:1", "node-b:2", "node-c:3"};
    ring.vnodes = 64;
    ring.live = {true, true, true};
    ring.self = self;
    return ring;
}

TEST_F(ServiceFixture, SweepRingStreamsTheNodesShareWithGlobalSeq)
{
    // The owner-computes scatter: a sweep with a "ring" streams
    // exactly the points the ring assigns this node, in ascending
    // global order, with seq = the global index. The hello answer
    // names the family registry the node expands with.
    const SweepRequest request = cheapLatencySweep(40);
    SweepBuilder local = expandSweep(request);
    ExperimentEngine localEngine;
    const auto expected = localEngine.runAll(local.specs());
    const SweepRing ring = threeNodeRing(1);
    HashRing hashRing(ring.nodes, ring.vnodes);
    std::vector<uint64_t> share;
    for (size_t i = 0; i < local.specs().size(); ++i) {
        if (hashRing.nodeFor(local.specs()[i].canonical()) == ring.self)
            share.push_back(i);
    }
    ASSERT_GT(share.size(), 1u);
    ASSERT_LT(share.size(), expected.size());

    LineChannel channel = connect();
    Json hello = Json::object();
    hello.set("op", "hello");
    EXPECT_EQ(roundTrip(channel, hello).getString("registry"),
              format("%016llx", static_cast<unsigned long long>(
                                    sweepRegistryHash())));

    Json line = sweepRequestToJson(request);
    line.set("op", "sweep");
    line.set("id", 8);
    line.set("ring", sweepRingToJson(ring));
    ASSERT_TRUE(channel.writeLine(line.dump()));
    // The share is known only once picked: the ack has no count.
    std::string text;
    ASSERT_TRUE(channel.readLine(&text));
    Json ack;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &ack, &error)) << error;
    ASSERT_TRUE(ack.getBool("ack", false)) << text;
    EXPECT_FALSE(ack.has("count"));
    EXPECT_EQ(ack.get("total").asU64(), expected.size());
    for (const uint64_t global : share) {
        ResultFrame result;
        ASSERT_TRUE(readFrame(channel, &result));
        EXPECT_EQ(result.seq, global);
        EXPECT_EQ(result.spec, local.specs()[global].canonical());
        EXPECT_EQ(result.blob, serializeSimStats(expected[global].stats));
    }
    ASSERT_TRUE(channel.readLine(&text));
    Json done;
    ASSERT_TRUE(Json::parse(text, &done, &error)) << error;
    EXPECT_TRUE(done.getBool("done", false)) << text;
    EXPECT_EQ(done.get("count").asU64(), share.size());
}

TEST_F(ServiceFixture, MalformedRingAnswersAStructuredError)
{
    // A node must survive any "ring" a peer sends: each malformed one
    // answers one error naming the bad member — no ack, no points —
    // and the connection stays usable.
    const SweepRequest request = cheapLatencySweep(5);
    const auto ringWith = [](const std::function<void(Json &)> &edit) {
        Json ring = sweepRingToJson(threeNodeRing(0));
        edit(ring);
        return ring;
    };
    const auto names = [](std::vector<std::string> list) {
        Json array = Json::array();
        for (const std::string &name : list)
            array.push(name);
        return array;
    };
    const struct
    {
        const char *what;
        Json ring;
        const char *field;
    } cases[] = {
        {"self out of range",
         ringWith([](Json &r) { r.set("self", 3); }), "self"},
        {"negative self", ringWith([](Json &r) { r.set("self", -1); }),
         "self"},
        {"self not live",
         ringWith([](Json &r) {
             Json live = Json::array();
             live.push(false).push(true).push(true);
             r.set("live", std::move(live));
         }),
         "self"},
        {"no names", ringWith([&](Json &r) { r.set("nodes", names({})); }),
         "nodes"},
        {"empty name",
         ringWith([&](Json &r) { r.set("nodes", names({"a", "", "c"})); }),
         "nodes"},
        {"duplicate names",
         ringWith([&](Json &r) { r.set("nodes", names({"a", "b", "a"})); }),
         "nodes"},
        {"names not strings",
         ringWith([](Json &r) { r.set("nodes", 7); }), "nodes"},
        {"zero vnodes", ringWith([](Json &r) { r.set("vnodes", 0); }),
         "vnodes"},
        {"fractional vnodes",
         ringWith([](Json &r) { r.set("vnodes", 1.5); }), "vnodes"},
        {"huge vnodes",
         ringWith([](Json &r) { r.set("vnodes", maxRingVnodes + 1); }),
         "vnodes"},
        {"short live mask",
         ringWith([](Json &r) {
             Json live = Json::array();
             live.push(true);
             r.set("live", std::move(live));
         }),
         "live"},
        {"ring not an object", Json(std::string("ring")), "nodes"},
    };
    LineChannel channel = connect();
    uint64_t id = 80;
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        Json line = sweepRequestToJson(request);
        line.set("op", "sweep");
        line.set("id", id);
        line.set("ring", c.ring);
        const Json answer = roundTrip(channel, line);
        ASSERT_TRUE(answer.has("error")) << answer.dump();
        EXPECT_EQ(answer.get("id").asU64(), id);
        EXPECT_EQ(answer.getString("badRing"), c.field) << answer.dump();
        ++id;
    }
    // "points" and "ring" together are refused the same way.
    Json both = sweepRequestToJson(request);
    both.set("op", "sweep");
    both.set("id", id);
    both.set("ring", sweepRingToJson(threeNodeRing(0)));
    Json points = Json::array();
    points.push(uint64_t{0});
    both.set("points", std::move(points));
    const Json answer = roundTrip(channel, both);
    ASSERT_TRUE(answer.has("error")) << answer.dump();
    EXPECT_EQ(answer.getString("badRing"), "points");

    // Nothing was admitted, and the connection still answers.
    EXPECT_EQ(service_->activeRequests(), 0u);
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

// ---------------------------------------------------------------------
// Compare op: server-side cross-design tables (protocol v5)
// ---------------------------------------------------------------------

TEST(Protocol, CompareRowRoundTrip)
{
    CompareRow row;
    row.design = "mth4+rename4";
    row.contexts = 4;
    row.ports = 3;
    row.memLatency = 50;
    row.cycles = 123456;
    row.speedup = 1.75;
    row.occupation = 0.91;
    row.vopc = 2.5;
    const CompareRow back = compareRowFromJson(compareRowToJson(row));
    EXPECT_EQ(back.design, row.design);
    EXPECT_EQ(back.contexts, row.contexts);
    EXPECT_EQ(back.ports, row.ports);
    EXPECT_EQ(back.memLatency, row.memLatency);
    EXPECT_EQ(back.cycles, row.cycles);
    EXPECT_DOUBLE_EQ(back.speedup, row.speedup);
    EXPECT_DOUBLE_EQ(back.occupation, row.occupation);
    EXPECT_DOUBLE_EQ(back.vopc, row.vopc);

    ScopedFatalAsException scope;
    EXPECT_THROW(compareRowFromJson(Json::object()), FatalError);
}

TEST_F(ServiceFixture, CompareOpAggregatesCrossDesignTable)
{
    // The daemon expands the family, runs the same engine path a
    // sweep would, and answers ONE aggregated line whose rows and
    // digest must match the local computation bit-for-bit.
    SweepRequest request;
    request.family = "ext-compare";
    request.contexts = 2;
    request.jobs = {"flo52", "trfd"};
    request.scale = testScale;

    SweepBuilder local = expandSweep(request);
    ExperimentEngine localEngine;
    const auto expected = localEngine.runAll(local.specs());
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const RunResult &r : expected) {
        const std::string blob = serializeSimStats(r.stats);
        digest = fnv1a64(blob.data(), blob.size(), digest);
    }
    const std::vector<CompareRow> localRows =
        compareDesigns(local.slices(), expected);

    LineChannel channel = connect();
    Json line = sweepRequestToJson(request);
    line.set("op", "compare");
    line.set("id", 11);
    ASSERT_TRUE(channel.writeLine(line.dump()));

    std::string text;
    ASSERT_TRUE(channel.readLine(&text));
    Json response;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &response, &error)) << error;
    ASSERT_FALSE(response.has("error"))
        << response.getString("error");
    EXPECT_TRUE(response.getBool("ok", false));
    EXPECT_TRUE(response.getBool("compare", false));
    EXPECT_EQ(response.get("id").asU64(), 11u);
    EXPECT_EQ(response.getString("family"), "ext-compare");
    EXPECT_EQ(response.get("count").asU64(), local.size());
    EXPECT_EQ(response.getString("baseline"),
              local.slices()[0].label);
    // Digest semantics are identical to the equivalent sweep: folded
    // over the stats blobs in submission order.
    EXPECT_EQ(response.getString("digest"), digestHex(digest));

    const auto &rows = response.get("rows").asArray();
    ASSERT_EQ(rows.size(), localRows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        const CompareRow row = compareRowFromJson(rows[i]);
        EXPECT_EQ(row.design, localRows[i].design) << "row " << i;
        EXPECT_EQ(row.cycles, localRows[i].cycles) << "row " << i;
        EXPECT_DOUBLE_EQ(row.speedup, localRows[i].speedup)
            << "row " << i;
    }
    // The baseline row compares against itself.
    EXPECT_DOUBLE_EQ(compareRowFromJson(rows[0]).speedup, 1.0);
}

TEST_F(ServiceFixture, CompareRejectsUnknownAndNonParallelFamilies)
{
    LineChannel channel = connect();

    // Unknown family: same structured badFamily error as sweep.
    Json bad = Json::object();
    bad.set("op", "compare");
    bad.set("id", 21);
    bad.set("family", "no-such-family");
    const Json unknown = roundTrip(channel, bad);
    EXPECT_TRUE(unknown.has("error"));
    EXPECT_EQ(unknown.getString("badFamily"), "no-such-family");

    // A family whose slices are not design-parallel is rejected
    // BEFORE any simulation, with a structured notComparable field.
    SweepRequest grouping;
    grouping.family = "groupings";
    grouping.program = "trfd";
    grouping.contexts = 2;
    grouping.scale = testScale;
    Json line = sweepRequestToJson(grouping);
    line.set("op", "compare");
    line.set("id", 22);
    const Json answer = roundTrip(channel, line);
    EXPECT_TRUE(answer.has("error"));
    EXPECT_EQ(answer.getString("notComparable"), "groupings");

    // The daemon survived both rejections.
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

TEST(TcpTransport, ServesTheSameProtocolAsTheUnixSocket)
{
    ServiceOptions options;
    options.socketPath =
        (std::filesystem::temp_directory_path() /
         ("mtv_test_tcp_" + std::to_string(::getpid()) + ".sock"))
            .string();
    options.tcpHost = "127.0.0.1";
    options.tcpPort = 0;  // ephemeral: the kernel picks, we read back
    options.workers = 2;
    MtvService service(options);
    ASSERT_GT(service.tcpPort(), 0);
    std::thread serveThread([&service] { service.serve(); });

    std::string error;
    const int fd = connectToEndpoint(
        Endpoint::tcp("127.0.0.1", service.tcpPort()), &error);
    ASSERT_GE(fd, 0) << error;
    LineChannel channel(fd);

    Json ping = Json::object();
    ping.set("op", "ping");
    ASSERT_TRUE(channel.writeLine(ping.dump()));
    std::string line;
    ASSERT_TRUE(channel.readLine(&line));
    Json pong;
    ASSERT_TRUE(Json::parse(line, &pong, &error)) << error;
    EXPECT_TRUE(pong.getBool("pong"));
    EXPECT_EQ(pong.get("protocol").asU64(),
              static_cast<uint64_t>(serviceProtocolVersion));

    // A run over TCP answers bit-identical to an in-process engine —
    // the transport changes nothing about the stream.
    const RunSpec spec = RunSpec::single(
        "trfd", MachineParams::reference(), testScale);
    Json request = Json::object();
    request.set("op", "run");
    Json specs = Json::array();
    specs.push(spec.canonical());
    request.set("specs", std::move(specs));
    ASSERT_TRUE(channel.writeLine(request.dump()));
    ResultFrame result;
    ASSERT_TRUE(readFrame(channel, &result));
    EXPECT_EQ(result.blob,
              serializeSimStats(ExperimentEngine().run(spec).stats));

    service.stop();
    serveThread.join();
}

// ---------------------------------------------------------------------
// Request lifecycle: cancel op, reaping on disconnect, fair lanes
// ---------------------------------------------------------------------

namespace
{

/** @p n distinct cheap single-mode specs (unique per @p latencyBase). */
std::vector<RunSpec>
distinctSpecs(int n, int latencyBase)
{
    std::vector<RunSpec> specs;
    specs.reserve(n);
    for (int i = 0; i < n; ++i) {
        MachineParams params = MachineParams::reference();
        params.memLatency = latencyBase + i;
        specs.push_back(RunSpec::single(i % 2 ? "swm256" : "trfd",
                                        params, testScale));
    }
    return specs;
}

/** A "run" request of @p specs tagged @p id. */
Json
runRequest(uint64_t id, const std::vector<RunSpec> &specs, bool quiet)
{
    Json request = Json::object();
    request.set("op", "run");
    request.set("id", id);
    request.set("quiet", quiet);
    Json specArray = Json::array();
    for (const RunSpec &spec : specs)
        specArray.push(spec.canonical());
    request.set("specs", std::move(specArray));
    return request;
}

} // namespace

TEST_F(ServiceFixture, CancelOpStopsInFlightBatch)
{
    // A fat batch on one connection...
    const auto specs = distinctSpecs(400, 10);
    LineChannel victim = connect();
    ASSERT_TRUE(victim.writeLine(runRequest(11, specs, true).dump()));
    // ...streaming for sure (first result arrived)...
    ResultFrame first;
    ASSERT_TRUE(readFrame(victim, &first));

    // ...is cancelled BY REQUEST ID from a different connection.
    LineChannel canceller = connect();
    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("id", 11);
    const Json answer = roundTrip(canceller, cancel);
    EXPECT_TRUE(answer.getBool("ok"));
    EXPECT_EQ(answer.get("cancelled").asU64(), 1u);

    // The victim's stream terminates with a cancelled done line.
    Json done;
    ASSERT_TRUE(readUntilDone(victim, &done));
    EXPECT_TRUE(done.getBool("cancelled"));
    EXPECT_LT(done.get("completed").asU64(), specs.size());

    // The queued remainder is skipped, never simulated: wait for the
    // lane to drain, then check the engine's books.
    for (int i = 0; i < 200 && service_->engine().queueDepth() > 0;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(service_->engine().queueDepth(), 0u);
    EXPECT_GT(service_->engine().cancelledRuns(), 0u);
    EXPECT_LT(service_->engine().cacheMisses(), specs.size());
    EXPECT_EQ(service_->cancelledBatches(), 1u);

    // Both connections (and the daemon) survived.
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(victim, ping).getBool("pong"));
    EXPECT_TRUE(roundTrip(canceller, ping).getBool("pong"));
}

TEST_F(ServiceFixture, DisconnectMidSweepFreesQueuedPoints)
{
    // The ISSUE-5 acceptance scenario: a client vanishing mid-sweep
    // must free its queued points (they never simulate), while a
    // second client's concurrent sweep completes bit-identical to an
    // in-process run.
    const auto abandoned = distinctSpecs(300, 3000);
    {
        LineChannel victim = connect();
        ASSERT_TRUE(
            victim.writeLine(runRequest(1, abandoned, true).dump()));
        // One result proves the batch is streaming; then the client
        // dies without so much as a goodbye (socket closed by the
        // LineChannel destructor).
        ResultFrame first;
        ASSERT_TRUE(readFrame(victim, &first));
    }

    // A live client's sweep, concurrent with the reaping.
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    LineChannel survivor = connect();
    sendSweep(survivor, 2, request);
    std::unordered_map<uint64_t, StreamTally> tallies;
    tallies[2] = StreamTally();
    demux(survivor, tallies);

    // Bit-identical to the in-process expansion of the same sweep.
    ExperimentEngine localEngine;
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const RunResult &r :
         localEngine.runAll(expandSweep(request).specs())) {
        const std::string blob = serializeSimStats(r.stats);
        digest = fnv1a64(blob.data(), blob.size(), digest);
    }
    EXPECT_EQ(tallies[2].serverDigest, digestHex(digest));

    // Wait for the reap to settle, then prove the abandoned points
    // never simulated: far fewer misses than the abandoned batch
    // alone would have cost, and the reap counters show the kill.
    for (int i = 0; i < 500 && (service_->activeRequests() > 0 ||
                                service_->engine().queueDepth() > 0);
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(service_->activeRequests(), 0u);
    EXPECT_EQ(service_->engine().queueDepth(), 0u);
    EXPECT_EQ(service_->reapedBatches(), 1u);
    EXPECT_GT(service_->engine().cancelledRuns() +
                  service_->engine().discardedTasks(),
              0u);
    EXPECT_LT(service_->engine().cacheMisses() +
                  service_->engine().uncachedRuns(),
              abandoned.size() / 2);
}

namespace
{

/** A `latency` sweep of @p points distinct one-job points. */
SweepRequest
windowSweep(size_t points)
{
    SweepRequest request;
    request.family = "latency";
    request.scale = testScale;
    request.contexts = 2;
    request.jobs = {"trfd"};
    for (size_t i = 0; i < points; ++i)
        request.latencies.push_back(static_cast<int>(20 + i));
    return request;
}

/** Sum of the "status" counters' every-point books for a batch of
 *  distinct cold specs: each point simulated, skipped at dequeue,
 *  dropped from the lane or never submitted. */
uint64_t
pointsAccounted(const Json &status, const ExperimentEngine &engine)
{
    const Json &counters = status.get("counters");
    return engine.cacheMisses() +
           counters.get("cancelledPoints").asU64() +
           counters.get("discardedPoints").asU64() +
           counters.get("unsubmittedPoints").asU64();
}

/** Block until the engine's queue is empty and no batch streams. */
void
waitForSettle(MtvService &service)
{
    for (int i = 0; i < 500 && (service.activeRequests() > 0 ||
                                service.engine().queueDepth() > 0);
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(service.activeRequests(), 0u);
    ASSERT_EQ(service.engine().queueDepth(), 0u);
}

} // namespace

Json
ServiceFixture::settledStatus(LineChannel &channel, size_t count)
{
    Json request = Json::object();
    request.set("op", "status");
    Json status = roundTrip(channel, request);
    for (int i = 0;
         i < 100 && pointsAccounted(status, service_->engine()) != count;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        status = roundTrip(channel, request);
    }
    EXPECT_EQ(pointsAccounted(status, service_->engine()), count)
        << status.dump();
    EXPECT_EQ(status.get("pointsInFlight").asU64(), 0u);
    return status;
}

TEST_F(ServiceFixture, SlowClientKeepsAtMostAWindowInFlight)
{
    // A cached sweep of 4 windows streamed to a client that reads one
    // frame per millisecond: the daemon outruns the reader at once,
    // so without the window every point would be submitted (and its
    // result held) before the client read the tenth.
    const SweepRequest request = windowSweep(4 * streamWindowPoints);
    uint64_t expected = 0xcbf29ce484222325ull;
    {
        ExperimentEngine localEngine;
        for (const RunResult &r :
             localEngine.runAll(expandSweep(request).specs())) {
            const std::string blob = serializeSimStats(r.stats);
            expected = fnv1a64(blob.data(), blob.size(), expected);
        }
    }
    {
        // Warm the daemon's cache: the slow pass below is all hits.
        LineChannel warm = connect();
        sendSweep(warm, 1, request);
        std::unordered_map<uint64_t, StreamTally> tallies;
        tallies[1] = StreamTally();
        demux(warm, tallies);
        ASSERT_EQ(tallies[1].serverDigest, digestHex(expected));
    }

    Gauge *gauge =
        MetricsRegistry::instance().gauge("service_points_in_flight");
    LineChannel channel = connect();
    LineChannel observer = connect();
    sendSweep(channel, 2, request);
    Json status = Json::object();
    status.set("op", "status");

    int64_t peak = 0;
    uint64_t frames = 0;
    uint64_t fold = 0xcbf29ce484222325ull;
    Json done;
    for (;;) {
        std::string message;
        const auto kind = channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Frame) {
            ResultFrameView frame;
            std::string error;
            ASSERT_TRUE(viewResultFrame(message, &frame, &error))
                << error;
            EXPECT_EQ(frame.seq, frames);
            fold = fnv1a64(frame.blob.data(), frame.blob.size(), fold);
            ++frames;
            peak = std::max(peak, gauge->value());
            if (frames == streamWindowPoints) {
                // Mid-stream, the status op shows the same window.
                const Json busy = roundTrip(observer, status);
                EXPECT_GT(busy.get("pointsInFlight").asU64(), 0u);
                EXPECT_LE(busy.get("pointsInFlight").asU64(),
                          streamWindowPoints);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        ASSERT_EQ(kind, LineChannel::MessageKind::Line);
        Json line;
        std::string error;
        ASSERT_TRUE(Json::parse(message, &line, &error)) << error;
        ASSERT_FALSE(line.has("error")) << line.getString("error");
        if (line.getBool("done", false)) {
            done = line;
            break;
        }
    }
    EXPECT_EQ(frames, 4 * streamWindowPoints);
    EXPECT_LE(peak, static_cast<int64_t>(streamWindowPoints));
    // The window was really used: the daemon ran ahead of the reader.
    EXPECT_GT(peak, static_cast<int64_t>(streamWindowPoints / 2));
    EXPECT_EQ(done.getString("digest"), digestHex(expected));
    EXPECT_EQ(done.get("cacheServed").asU64(), frames);
    EXPECT_EQ(gauge->value(), 0);
    EXPECT_EQ(service_->pointsInFlight(), 0u);
}

TEST_F(ServiceFixture, CancelledBatchSimulatesAtMostCompletedPlusWindow)
{
    const size_t count = 4 * streamWindowPoints;
    const auto specs = distinctSpecs(static_cast<int>(count), 12000);
    LineChannel victim = connect();
    ASSERT_TRUE(victim.writeLine(runRequest(31, specs, true).dump()));
    ResultFrame first;
    ASSERT_TRUE(readFrame(victim, &first));  // streaming for sure

    LineChannel canceller = connect();
    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("id", 31);
    EXPECT_EQ(roundTrip(canceller, cancel).get("cancelled").asU64(),
              1u);
    Json done;
    ASSERT_TRUE(readUntilDone(victim, &done));
    ASSERT_TRUE(done.getBool("cancelled", false)) << done.dump();
    const uint64_t completed = done.get("completed").asU64();
    waitForSettle(*service_);

    // Only the window beyond the written points ever reached the
    // engine, and the never-submitted rest shows in "status".
    EXPECT_LE(service_->engine().cacheMisses(),
              completed + streamWindowPoints);
    const Json settled = settledStatus(canceller, count);
    EXPECT_GE(settled.get("counters").get("unsubmittedPoints").asU64(),
              count - completed - streamWindowPoints);
}

TEST_F(ServiceFixture, ReapedBatchLeavesItsUnsubmittedPointsInStatus)
{
    // A non-quiet batch to a reader that takes one point and vanishes:
    // the daemon writes until the socket buffer is full, its window
    // drains, and the reap must not submit the rest.
    const size_t count = 4 * streamWindowPoints;
    const auto specs = distinctSpecs(static_cast<int>(count), 15000);
    {
        LineChannel victim = connect();
        ASSERT_TRUE(
            victim.writeLine(runRequest(32, specs, false).dump()));
        ResultFrame first;
        ASSERT_TRUE(readFrame(victim, &first));
    }
    waitForSettle(*service_);
    EXPECT_EQ(service_->reapedBatches(), 1u);

    LineChannel observer = connect();
    const Json settled = settledStatus(observer, count);
    // Every simulated point was submitted, and a submitted point is
    // at most a window ahead of the written ones: with the socket
    // buffer holding far fewer than 2 windows of non-quiet frames,
    // over half the batch never reached the engine.
    EXPECT_GT(settled.get("counters").get("unsubmittedPoints").asU64(),
              count - 2 * streamWindowPoints);
    EXPECT_LT(service_->engine().cacheMisses(),
              2 * streamWindowPoints);
}

TEST_F(ServiceFixture, InteractiveRunNotBlockedBehindBigSweep)
{
    // Per-connection lanes + weighted round-robin: a 150-point batch
    // on one connection must not head-of-line-block a 1-point run on
    // another. Before the lanes this deadlocked on the global FIFO —
    // the interactive run waited out the whole sweep.
    const auto bulk = distinctSpecs(400, 6000);
    LineChannel sweeper = connect();
    ASSERT_TRUE(sweeper.writeLine(runRequest(7, bulk, true).dump()));
    ResultFrame first;
    ASSERT_TRUE(readFrame(sweeper, &first));  // the sweep is streaming

    const std::vector<RunSpec> one = {RunSpec::single(
        "dyfesm", MachineParams::reference(), testScale)};
    LineChannel interactive = connect();
    ASSERT_TRUE(
        interactive.writeLine(runRequest(8, one, false).dump()));
    Json done;
    ASSERT_TRUE(readUntilDone(interactive, &done));
    EXPECT_EQ(done.get("count").asU64(), 1u);
    // The big sweep is still going: the interactive run overtook it.
    EXPECT_GE(service_->activeRequests(), 1u);

    // Drain the sweep so teardown is orderly.
    ASSERT_TRUE(readUntilDone(sweeper));
}

TEST_F(ServiceFixture, StatusOpReportsLifecycle)
{
    LineChannel channel = connect();
    Json status = Json::object();
    status.set("op", "status");
    const Json idle = roundTrip(channel, status);
    EXPECT_TRUE(idle.getBool("ok"));
    EXPECT_EQ(idle.get("queueDepth").asU64(), 0u);
    EXPECT_EQ(idle.get("activeRequests").asU64(), 0u);
    EXPECT_EQ(idle.get("connections").asArray().size(), 0u);
    const Json &counters = idle.get("counters");
    EXPECT_EQ(counters.get("cancelledBatches").asU64(), 0u);
    EXPECT_EQ(counters.get("reapedBatches").asU64(), 0u);

    // With a batch in flight the connection shows up, id and all.
    // The batch is held in flight by backpressure, not by simulation
    // time: it streams non-quiet frames of far more bytes than the
    // socket buffer holds to a client that has read only the first,
    // so it cannot finish before the status round trip.
    const auto specs =
        distinctSpecs(static_cast<int>(4 * streamWindowPoints), 9000);
    LineChannel runner = connect();
    ASSERT_TRUE(runner.writeLine(runRequest(21, specs, false).dump()));
    ResultFrame first;
    ASSERT_TRUE(readFrame(runner, &first));
    const Json busy = roundTrip(channel, status);
    ASSERT_EQ(busy.get("connections").asArray().size(), 1u);
    const Json &conn = busy.get("connections").asArray()[0];
    EXPECT_EQ(conn.get("inflight").asU64(), 1u);
    EXPECT_EQ(conn.get("requests").asArray()[0].asU64(), 21u);

    // Cancel and drain so teardown is orderly.
    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("id", 21);
    EXPECT_EQ(roundTrip(channel, cancel).get("cancelled").asU64(), 1u);
    ASSERT_TRUE(readUntilDone(runner));
}

TEST_F(ServiceFixture, StatusOpReportsPerLaneDepths)
{
    LineChannel channel = connect();
    Json status = Json::object();
    status.set("op", "status");
    const Json s = roundTrip(channel, status);
    ASSERT_EQ(s.get("lanes").type(), Json::Type::Array);
    // The engine's default lane plus this connection's own lane.
    ASSERT_GE(s.get("lanes").asArray().size(), 2u);
    for (const Json &lane : s.get("lanes").asArray()) {
        EXPECT_TRUE(lane.has("lane"));
        EXPECT_EQ(lane.get("depth").asU64(), 0u);  // idle daemon
    }
}

TEST_F(ServiceFixture, MetricsOpReportsRegistryAndProm)
{
    // Move the registry: stream one small batch to completion.
    const auto specs = distinctSpecs(3, 12000);
    LineChannel runner = connect();
    ASSERT_TRUE(runner.writeLine(runRequest(31, specs, true).dump()));
    ASSERT_TRUE(readUntilDone(runner));

    LineChannel channel = connect();
    Json request = Json::object();
    request.set("op", "metrics");
    request.set("prom", true);
    const Json response = roundTrip(channel, request);
    EXPECT_TRUE(response.getBool("ok"));

    // The registry is process-wide, so earlier tests in this binary
    // contribute too — assert lower bounds, not exact values.
    const Json &metrics = response.get("metrics");
    ASSERT_EQ(metrics.type(), Json::Type::Object);
    EXPECT_GE(metrics.get("counters")
                  .get("engine_points_completed_total")
                  .asU64(),
              3u);
    EXPECT_GE(metrics.get("counters")
                  .get("service_connections_total")
                  .asU64(),
              2u);
    const Json &firstPoint = metrics.get("histograms")
                                 .get("service_first_point_us{op=\"run\"}");
    ASSERT_EQ(firstPoint.type(), Json::Type::Object);
    EXPECT_GE(firstPoint.get("count").asU64(), 1u);
    EXPECT_TRUE(firstPoint.has("p50"));
    EXPECT_TRUE(firstPoint.has("p99"));
    const Json &done = metrics.get("histograms")
                           .get("service_done_us{op=\"run\"}");
    ASSERT_EQ(done.type(), Json::Type::Object);
    EXPECT_GE(done.get("count").asU64(), 1u);

    const std::string prom = response.getString("prom");
    EXPECT_NE(
        prom.find("# TYPE engine_points_completed_total counter"),
        std::string::npos);
    EXPECT_NE(prom.find("service_first_point_us_bucket"),
              std::string::npos);
    EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

TEST(ServiceStore, StatusReportsPerShardStoreCounters)
{
    namespace fs = std::filesystem;
    const std::string tag =
        "mtv_test_service_store_" + std::to_string(::getpid());
    const fs::path dir = fs::temp_directory_path() / tag;
    fs::remove_all(dir);
    const std::string sock =
        (fs::temp_directory_path() / (tag + ".sock")).string();

    ServiceOptions options;
    options.socketPath = sock;
    options.storeDir = dir.string();
    options.storeShards = 4;
    options.workers = 2;
    MtvService service(options);
    std::thread serveThread([&service] { service.serve(); });

    {
        std::string error;
        const int fd = connectToDaemon(sock, &error);
        ASSERT_GE(fd, 0) << error;
        LineChannel channel(fd);
        const auto specs = distinctSpecs(6, 20000);
        ASSERT_TRUE(
            channel.writeLine(runRequest(41, specs, true).dump()));
        ASSERT_TRUE(readUntilDone(channel));
        std::string line;

        Json status = Json::object();
        status.set("op", "status");
        ASSERT_TRUE(channel.writeLine(status.dump()));
        ASSERT_TRUE(channel.readLine(&line));
        Json s;
        ASSERT_TRUE(Json::parse(line, &s, &error)) << error;
        ASSERT_EQ(s.get("shards").type(), Json::Type::Array);
        ASSERT_EQ(s.get("shards").asArray().size(), 4u);
        uint64_t appends = 0, records = 0;
        for (const Json &shard : s.get("shards").asArray()) {
            EXPECT_TRUE(shard.has("shard"));
            EXPECT_TRUE(shard.has("hits"));
            EXPECT_TRUE(shard.has("misses"));
            EXPECT_EQ(shard.get("recovered").asU64(), 0u);  // fresh
            EXPECT_EQ(shard.get("dropped").asU64(), 0u);
            appends += shard.get("appends").asU64();
            records += shard.get("records").asU64();
        }
        // All six distinct points simulated fresh and written through.
        EXPECT_EQ(appends, 6u);
        EXPECT_EQ(records, 6u);
    }

    service.stop();
    serveThread.join();
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Protocol v6: binary result frames
// ---------------------------------------------------------------------

namespace
{

/** Little-endian field reads for picking a wire frame apart. */
uint32_t
wireU32(const std::string &bytes, size_t at)
{
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(
                 static_cast<uint8_t>(bytes[at + i]))
             << (8 * i);
    return v;
}

uint64_t
wireU64(const std::string &bytes, size_t at)
{
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(
                 static_cast<uint8_t>(bytes[at + i]))
             << (8 * i);
    return v;
}

/** A representative frame: group extras, flags set, and a blob with
 *  bytes a naive framing would trip on (the marker, newlines, NULs). */
ResultFrame
sampleFrame()
{
    ResultFrame frame;
    frame.id = 7;
    frame.seq = 3;
    frame.cached = true;
    frame.fromStore = true;
    frame.hasGroupExtras = true;
    frame.spec = "mode=group;scale=2e-05;programs=trfd,swm256";
    frame.speedup = 1.75;
    frame.mthOccupation = 0.5;
    frame.refOccupation = -0.25;
    frame.mthVopc = 2.5;
    frame.refVopc = 1e300;
    frame.hasBlob = true;
    frame.blob = std::string("\xbf\n\x00{\"x\"}\x00\xff", 11);
    return frame;
}

/** The payload slice of a full wire encoding (marker, length and
 *  trailer stripped), layout-checked along the way. */
std::string
framePayload(const ResultFrame &frame)
{
    const std::string wire = encodeResultFrame(frame);
    EXPECT_GE(wire.size(), 13u);
    EXPECT_EQ(static_cast<uint8_t>(wire[0]), resultFrameMarker);
    const uint32_t payloadLen = wireU32(wire, 1);
    EXPECT_EQ(wire.size(), 5u + payloadLen + 8u);
    const std::string payload = wire.substr(5, payloadLen);
    EXPECT_EQ(wireU64(wire, 5 + payloadLen),
              frameChecksum(payload.data(), payload.size()));
    return payload;
}

} // namespace

TEST(Protocol, FrameCodecRoundTripAllShapes)
{
    const auto roundTrips = [](const ResultFrame &frame) {
        ResultFrame back;
        std::string error;
        ASSERT_TRUE(decodeResultFrame(framePayload(frame), &back,
                                      &error))
            << error;
        EXPECT_EQ(back.id, frame.id);
        EXPECT_EQ(back.seq, frame.seq);
        EXPECT_EQ(back.cached, frame.cached);
        EXPECT_EQ(back.fromStore, frame.fromStore);
        EXPECT_EQ(back.hasGroupExtras, frame.hasGroupExtras);
        EXPECT_EQ(back.hasBlob, frame.hasBlob);
        EXPECT_EQ(back.spec, frame.spec);
        EXPECT_EQ(back.blob, frame.blob);
        if (frame.hasGroupExtras) {
            EXPECT_DOUBLE_EQ(back.speedup, frame.speedup);
            EXPECT_DOUBLE_EQ(back.mthOccupation,
                             frame.mthOccupation);
            EXPECT_DOUBLE_EQ(back.refOccupation,
                             frame.refOccupation);
            EXPECT_DOUBLE_EQ(back.mthVopc, frame.mthVopc);
            EXPECT_DOUBLE_EQ(back.refVopc, frame.refVopc);
        }

        // A router's relay renumbers payloads in place: rewriting the
        // id/seq header and reframing equals encoding the renumbered
        // frame.
        std::string payload = framePayload(frame);
        setResultFrameHeader(&payload, frame.id + 1, frame.seq + 40);
        std::string relayed;
        appendFramedPayload(&relayed, payload);
        ResultFrame renumbered = frame;
        renumbered.id += 1;
        renumbered.seq += 40;
        EXPECT_EQ(relayed, encodeResultFrame(renumbered));
    };

    // Group extras + binary-hostile blob bytes.
    roundTrips(sampleFrame());

    // A plain single-spec point: no extras, no flags.
    ResultFrame single;
    single.id = 0;
    single.seq = 0;
    single.spec = "mode=single;scale=2e-05;programs=trfd";
    single.hasBlob = true;
    single.blob = "canonical bytes";
    roundTrips(single);

    // Quiet stream: blobLen=0 frames, empty spec allowed too.
    ResultFrame quiet;
    quiet.id = 12;
    quiet.seq = 999;
    quiet.spec = "";
    roundTrips(quiet);
}

TEST(Protocol, AppendResultFrameMatchesTwoStepEncoder)
{
    ExperimentEngine engine;
    RunResult group = engine.run(RunSpec::group(
        {"trfd", "swm256"}, MachineParams::multithreaded(2),
        testScale));
    const RunResult single = engine.run(RunSpec::single(
        "dyfesm", MachineParams::reference(), testScale));
    const std::string groupBlob = serializeSimStats(group.stats);
    const std::string singleBlob = serializeSimStats(single.stats);

    // The one-pass encoder must be byte-identical to the two-step
    // form, appended onto a buffer that already holds other frames.
    const auto matches = [](const RunResult &result, uint64_t id,
                            uint64_t seq, const std::string *blob) {
        std::string streamed = "already-buffered-bytes";
        appendResultFrame(&streamed, result, id, seq, blob);
        const std::string wire =
            encodeResultFrame(resultToFrame(result, id, seq, blob));
        EXPECT_EQ(streamed, "already-buffered-bytes" + wire);
    };
    matches(group, 3, 0, &groupBlob);       // group extras ride along
    matches(single, 3, 1, &singleBlob);     // no extras
    matches(single, 3, 2, nullptr);         // quiet: blobLen=0 frame

    // A carried specCanonical (the wire decoders and the submit fast
    // path set it) must not change a single encoded byte.
    group.specCanonical = group.spec.canonical();
    matches(group, 4, 0, &groupBlob);
}

TEST(Protocol, DecodeResultFrameRejectsMalformedPayloads)
{
    const std::string payload = framePayload(sampleFrame());
    ResultFrame out;
    std::string error;

    // Every proper prefix is a truncation, never a crash.
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        error.clear();
        EXPECT_FALSE(decodeResultFrame(payload.substr(0, cut), &out,
                                       &error))
            << "cut at " << cut;
        EXPECT_FALSE(error.empty()) << "cut at " << cut;
    }

    // Trailing garbage after a complete payload.
    EXPECT_FALSE(decodeResultFrame(payload + 'x', &out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);

    // hasBlob flag contradicting the blob it frames (flags byte sits
    // at payload offset 16, hasBlob is bit 3), both directions.
    std::string lying = payload;
    lying[16] = static_cast<char>(
        static_cast<uint8_t>(lying[16]) & ~uint8_t{0x08});
    EXPECT_FALSE(decodeResultFrame(lying, &out, &error));
    EXPECT_NE(error.find("hasBlob"), std::string::npos);

    ResultFrame quiet;
    quiet.id = 1;
    quiet.spec = "mode=single;scale=1;programs=trfd";
    std::string quietLying = framePayload(quiet);
    quietLying[16] = static_cast<char>(
        static_cast<uint8_t>(quietLying[16]) | uint8_t{0x08});
    EXPECT_FALSE(decodeResultFrame(quietLying, &out, &error));
    EXPECT_NE(error.find("hasBlob"), std::string::npos);
}

TEST(Protocol, ChannelDemuxesFramesAndRejectsCorruption)
{
    const std::string wire = encodeResultFrame(sampleFrame());
    const std::string payload = framePayload(sampleFrame());

    // Write @p bytes into a fresh socketpair, close the writer, and
    // report the first message kind the reading channel sees.
    const auto firstKind = [](const std::string &bytes,
                              std::string *out) {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::write(fds[1], bytes.data() + sent,
                                      bytes.size() - sent);
            EXPECT_GT(n, 0);
            sent += static_cast<size_t>(n);
        }
        ::close(fds[1]);
        LineChannel reader(fds[0]);
        return reader.readMessage(out);
    };

    // Frames and JSON control lines interleave on one stream; the
    // first byte demultiplexes them.
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        const std::string stream =
            wire + "{\"done\":true}\n" + wire;
        ASSERT_EQ(::write(fds[1], stream.data(), stream.size()),
                  static_cast<ssize_t>(stream.size()));
        ::close(fds[1]);
        LineChannel reader(fds[0]);
        std::string message;
        ASSERT_EQ(reader.readMessage(&message),
                  LineChannel::MessageKind::Frame);
        EXPECT_EQ(message, payload);
        ASSERT_EQ(reader.readMessage(&message),
                  LineChannel::MessageKind::Line);
        EXPECT_EQ(message, "{\"done\":true}");
        ASSERT_EQ(reader.readMessage(&message),
                  LineChannel::MessageKind::Frame);
        EXPECT_EQ(message, payload);
        EXPECT_EQ(reader.readMessage(&message),
                  LineChannel::MessageKind::Eof);
    }

    // Any corrupted byte past the marker is caught: either the
    // length claim goes absurd or the trailer checksum disagrees.
    // (Index 0 would flip the marker and reroute to readLine.)
    std::string message;
    for (const size_t at :
         {size_t{1}, size_t{4}, size_t{5}, size_t{16},
          size_t{25}, wire.size() - 9, wire.size() - 8,
          wire.size() - 1}) {
        std::string corrupt = wire;
        corrupt[at] = static_cast<char>(
            static_cast<uint8_t>(corrupt[at]) ^ 0x5a);
        EXPECT_EQ(firstKind(corrupt, &message),
                  LineChannel::MessageKind::BadFrame)
            << "corrupt byte " << at;
    }

    // EOF mid-frame is a short read, not a clean close.
    EXPECT_EQ(firstKind(wire.substr(0, wire.size() - 3), &message),
              LineChannel::MessageKind::BadFrame);
    EXPECT_EQ(firstKind(wire.substr(0, 3), &message),
              LineChannel::MessageKind::BadFrame);

    // A length claim beyond the message cap is framing lost, without
    // waiting for the bytes.
    std::string huge;
    huge.push_back(static_cast<char>(resultFrameMarker));
    huge.append("\xff\xff\xff\xff", 4);
    EXPECT_EQ(firstKind(huge, &message),
              LineChannel::MessageKind::BadFrame);
}

TEST(Protocol, SubmitFastPathCarriesCanonicalBlobZeroCopy)
{
    // The store->wire zero-copy contract: with a canonical
    // serializer installed, a warm memo hit hands out the memoized
    // canonical bytes and the cache key it already computed, so the
    // daemon streams frames without re-encoding or recanonicalizing.
    EngineOptions options;
    options.canonicalSerializer = [](const SimStats &stats) {
        return serializeSimStats(stats);
    };
    ExperimentEngine engine(options);
    const RunSpec spec = RunSpec::single(
        "swm256", MachineParams::reference(), testScale);

    const RunResult cold = engine.submit(spec).get();
    EXPECT_FALSE(cold.cached);

    const RunResult warm = engine.submit(spec).get();
    EXPECT_TRUE(warm.cached);
    ASSERT_TRUE(warm.blob);
    EXPECT_EQ(*warm.blob, serializeSimStats(warm.stats));
    EXPECT_EQ(warm.specCanonical, spec.canonical());

    // Later hits share the same memoized allocation.
    const RunResult again = engine.submit(spec).get();
    ASSERT_TRUE(again.blob);
    EXPECT_EQ(again.blob.get(), warm.blob.get());

    // A store hit streams its stored bytes the same way.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("mtv_test_zerocopy_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        EngineOptions writer;
        writer.backend =
            std::make_shared<ResultStore>(dir.string());
        ExperimentEngine persist(writer);
        persist.run(spec);
    }
    EngineOptions reader;
    reader.backend = std::make_shared<ResultStore>(dir.string());
    ExperimentEngine reload(reader);
    const RunResult fromStore = reload.submit(spec).get();
    EXPECT_TRUE(fromStore.fromStore);
    ASSERT_TRUE(fromStore.blob);
    EXPECT_EQ(*fromStore.blob,
              serializeSimStats(fromStore.stats));
    std::filesystem::remove_all(dir);
}

TEST_F(ServiceFixture, BinarySweepStreamsBitIdenticalFrames)
{
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    ExperimentEngine localEngine;
    const auto expected =
        localEngine.runAll(expandSweep(request).specs());

    // The same sweep on a connection that never says hello, for
    // comparison.
    LineChannel plainChannel = connect();
    sendSweep(plainChannel, 1, request);
    std::unordered_map<uint64_t, StreamTally> tallies;
    tallies[1] = StreamTally();
    demux(plainChannel, tallies);
    const StreamTally &plainTally = tallies[1];
    ASSERT_EQ(plainTally.blobs.size(), expected.size());

    // After a hello the points arrive as the same frames while the
    // ack and done lines stay JSON.
    LineChannel channel = connect();
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", std::string("binary"));
    ASSERT_TRUE(roundTrip(channel, hello).getBool("ok"));
    sendSweep(channel, 2, request);

    uint64_t seq = 0;
    uint64_t clientDigest = 0xcbf29ce484222325ull;
    std::vector<std::string> blobs;
    std::string serverDigest;
    bool sawAck = false;
    bool done = false;
    while (!done) {
        std::string message;
        const auto kind = channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Line) {
            Json line;
            std::string error;
            ASSERT_TRUE(Json::parse(message, &line, &error))
                << error;
            ASSERT_FALSE(line.has("error"))
                << line.getString("error");
            if (line.getBool("ack", false)) {
                EXPECT_EQ(line.get("count").asU64(),
                          expected.size());
                sawAck = true;
                continue;
            }
            ASSERT_TRUE(line.getBool("done", false)) << message;
            serverDigest = line.getString("digest");
            done = true;
            continue;
        }
        ASSERT_EQ(kind, LineChannel::MessageKind::Frame);
        ResultFrame frame;
        std::string error;
        ASSERT_TRUE(decodeResultFrame(message, &frame, &error))
            << error;
        ASSERT_LT(seq, expected.size());
        EXPECT_EQ(frame.id, 2u);
        EXPECT_EQ(frame.seq, seq);
        ASSERT_TRUE(frame.hasBlob);
        EXPECT_EQ(frame.spec, expected[seq].spec.canonical());
        EXPECT_EQ(frame.hasGroupExtras,
                  expected[seq].spec.mode == SpecMode::Group);
        if (frame.hasGroupExtras) {
            EXPECT_DOUBLE_EQ(frame.speedup, expected[seq].speedup);
        }
        clientDigest = fnv1a64(frame.blob.data(),
                               frame.blob.size(), clientDigest);
        blobs.push_back(frame.blob);
        ++seq;
    }

    EXPECT_TRUE(sawAck);
    ASSERT_EQ(blobs.size(), expected.size());
    // Frame blobs byte-identical with and without hello and to the
    // in-process run; both streams fold to one digest.
    for (size_t i = 0; i < blobs.size(); ++i) {
        EXPECT_EQ(blobs[i], plainTally.blobs[i]) << "point " << i;
        EXPECT_EQ(blobs[i], serializeSimStats(expected[i].stats))
            << "point " << i;
    }
    EXPECT_EQ(serverDigest, digestHex(clientDigest));
    EXPECT_EQ(serverDigest, plainTally.serverDigest);
}

TEST_F(ServiceFixture, ClientWithoutHelloReceivesFrames)
{
    // Frames are the only point encoding: a connection's first
    // request streams them, with no hello, quiet or not.
    const auto specs = distinctSpecs(2, 13000);
    LineChannel channel = connect();
    for (const bool quiet : {false, true}) {
        const uint64_t id = quiet ? 2 : 1;
        ASSERT_TRUE(
            channel.writeLine(runRequest(id, specs, quiet).dump()));
        for (size_t i = 0; i < specs.size(); ++i) {
            ResultFrame point;
            ASSERT_TRUE(readFrame(channel, &point)) << "quiet " << quiet;
            EXPECT_EQ(point.id, id);
            EXPECT_EQ(point.seq, i);
            EXPECT_EQ(point.spec, specs[i].canonical());
            EXPECT_EQ(point.hasBlob, !quiet);
            if (!quiet) {
                EXPECT_EQ(point.blob, serializeSimStats(
                                          ExperimentEngine()
                                              .run(specs[i])
                                              .stats));
            }
        }
        Json done;
        ASSERT_TRUE(readUntilDone(channel, &done));
        EXPECT_EQ(done.get("count").asU64(), specs.size());
    }
}

// ---------------------------------------------------------------------
// Request envelope: a node and a routing daemon in front of one node
// answer alike, because both run on the same connection core
// ---------------------------------------------------------------------

/** The fixture's node and, for the "router" parameter, an
 *  `mtvd --route` in front of it; front() connects to whichever
 *  answers the test. */
class EnvelopeFixture : public ServiceFixture,
                        public testing::WithParamInterface<bool>
{
  protected:
    void
    SetUp() override
    {
        ServiceFixture::SetUp();
        if (!GetParam())
            return;
        FleetServiceOptions options;
        options.socketPath = socketPath_ + ".router";
        options.nodes = {socketPath_};
        router_ = std::make_unique<FleetService>(options);
        routerThread_ = std::thread([this] { router_->serve(); });
    }

    void
    TearDown() override
    {
        if (router_) {
            router_->stop();
            routerThread_.join();
            router_.reset();
        }
        ServiceFixture::TearDown();
    }

    LineChannel
    front()
    {
        if (!router_)
            return connect();
        std::string error;
        const int fd = connectToDaemon(router_->socketPath(), &error);
        EXPECT_GE(fd, 0) << error;
        return LineChannel(fd);
    }

    /** The thread serving front(). */
    std::thread &
    frontThread()
    {
        return router_ ? routerThread_ : serveThread_;
    }

    std::unique_ptr<FleetService> router_;
    std::thread routerThread_;
};

INSTANTIATE_TEST_SUITE_P(Daemons, EnvelopeFixture, testing::Bool(),
                         [](const testing::TestParamInfo<bool> &info) {
                             return info.param ? "router" : "node";
                         });

TEST_P(EnvelopeFixture, MalformedInputAnswersWithoutDying)
{
    LineChannel channel = front();

    // Broken JSON.
    ASSERT_TRUE(channel.writeLine("{not json"));
    std::string line;
    ASSERT_TRUE(channel.readLine(&line));
    EXPECT_NE(line.find("error"), std::string::npos);

    // Valid JSON, unknown op.
    Json bad = Json::object();
    bad.set("op", "explode");
    Json response = roundTrip(channel, bad);
    EXPECT_TRUE(response.has("error"));

    // Valid op, malformed spec (unknown program) — validation runs
    // through fatal() and must come back as an error line.
    Json run = Json::object();
    run.set("op", "run");
    Json specArray = Json::array();
    specArray.push("mode=single;scale=0.001;max=0;"
                   "programs=doesnotexist;machine=contexts=1");
    run.set("specs", std::move(specArray));
    response = roundTrip(channel, run);
    EXPECT_TRUE(response.has("error"));

    // The daemon survived all of it.
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

TEST_P(EnvelopeFixture, MalformedIdsAnswerAsIdZeroAndARunNeedsNoId)
{
    // One request-id rule: an id that is not an integer in [0, 2^53]
    // answers as id 0, with the very line a node gives, and the
    // connection stays open.
    LineChannel channel = front();
    LineChannel node = connect();
    for (const char *id : {"-1", "2.5", "1e300"}) {
        const std::string request = format(
            "{\"op\":\"run\",\"id\":%s,\"specs\":[\"bogus\"]}", id);
        std::string line;
        std::string nodeLine;
        ASSERT_TRUE(channel.writeLine(request));
        ASSERT_TRUE(channel.readLine(&line));
        ASSERT_TRUE(node.writeLine(request));
        ASSERT_TRUE(node.readLine(&nodeLine));
        EXPECT_EQ(line, nodeLine) << id;
        Json answer;
        std::string error;
        ASSERT_TRUE(Json::parse(line, &answer, &error)) << error;
        EXPECT_TRUE(answer.has("error")) << line;
        EXPECT_EQ(answer.get("id").asU64(), 0u) << line;
    }

    // A run without an id is served, as id 0.
    Json run = Json::object();
    run.set("op", "run");
    run.set("quiet", true);
    Json specArray = Json::array();
    specArray.push(RunSpec::single("trfd", MachineParams::reference(),
                                   testScale)
                       .canonical());
    run.set("specs", std::move(specArray));
    ASSERT_TRUE(channel.writeLine(run.dump()));
    size_t points = 0;
    for (;;) {
        StreamMessage message;
        ASSERT_TRUE(readStreamMessage(channel, &message));
        if (message.isFrame) {
            EXPECT_EQ(message.frame.id, 0u);
            ++points;
            continue;
        }
        const Json &answer = message.line;
        ASSERT_FALSE(answer.has("error")) << message.raw;
        EXPECT_EQ(answer.get("id").asU64(), 0u) << message.raw;
        ASSERT_TRUE(answer.getBool("done", false)) << message.raw;
        EXPECT_EQ(answer.get("count").asU64(), 1u);
        break;
    }
    EXPECT_EQ(points, 1u);

    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
}

TEST_P(EnvelopeFixture, SweepWithAZeroLastLatencyErrorsBeforeTheAck)
{
    // The expansion is indexed, yet every latency is still checked
    // before the ack: a sweep whose last latency is 0 answers one
    // error line for its id — the very line a node gives — and no
    // ack, no point runs, and the connection stays open.
    LineChannel channel = front();
    LineChannel node = connect();
    SweepRequest bad;
    bad.family = "latency";
    bad.scale = testScale;
    bad.jobs = {"trfd"};
    bad.latencies = {20, 50, 0};
    Json request = sweepRequestToJson(bad);
    request.set("op", "sweep");
    request.set("id", 31);
    std::string line;
    std::string nodeLine;
    ASSERT_TRUE(channel.writeLine(request.dump()));
    ASSERT_TRUE(channel.readLine(&line));
    ASSERT_TRUE(node.writeLine(request.dump()));
    ASSERT_TRUE(node.readLine(&nodeLine));
    EXPECT_EQ(line, nodeLine);
    Json answer;
    std::string error;
    ASSERT_TRUE(Json::parse(line, &answer, &error)) << error;
    EXPECT_FALSE(answer.getBool("ack", false)) << line;
    EXPECT_EQ(answer.getString("error"),
              "sweep latency must be positive, got 0");
    EXPECT_EQ(answer.get("id").asU64(), 31u);

    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(channel, ping).getBool("pong"));
    EXPECT_TRUE(roundTrip(node, ping).getBool("pong"));
    EXPECT_EQ(service_->completedPoints(), 0u);
}

TEST_P(EnvelopeFixture, HelloNegotiatesWireFormat)
{
    // hello is a handshake: with no wire, or the binary one, it
    // names the one wire there is, the protocol and the registry.
    LineChannel channel = front();
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", std::string("binary"));
    const Json confirm = roundTrip(channel, hello);
    EXPECT_TRUE(confirm.getBool("ok"));
    EXPECT_TRUE(confirm.getBool("hello"));
    EXPECT_EQ(confirm.getString("wire"), "binary");
    EXPECT_EQ(confirm.get("protocol").asU64(),
              static_cast<uint64_t>(serviceProtocolVersion));
    Json bare = Json::object();
    bare.set("op", "hello");
    const Json bareConfirm = roundTrip(channel, bare);
    EXPECT_TRUE(bareConfirm.getBool("ok"));
    EXPECT_EQ(bareConfirm.getString("wire"), "binary");
    // Both daemons report the sweep registry the node does.
    LineChannel node = connect();
    const std::string registry =
        roundTrip(node, hello).getString("registry");
    EXPECT_EQ(registry.size(), 16u);
    EXPECT_EQ(confirm.getString("registry"), registry);

    // Any other wire, JSON included, is a structured error, and the
    // connection keeps working: control ops answer lines and a run
    // streams frames.
    for (const char *wire : {"json", "carrier-pigeon"}) {
        LineChannel other = front();
        Json bad = Json::object();
        bad.set("op", "hello");
        bad.set("wire", std::string(wire));
        const Json refused = roundTrip(other, bad);
        EXPECT_EQ(refused.getString("badWire"), wire) << refused.dump();
        EXPECT_FALSE(refused.getBool("ok", false)) << wire;
        Json ping = Json::object();
        ping.set("op", "ping");
        EXPECT_TRUE(roundTrip(other, ping).getBool("pong")) << wire;
        Json run = Json::object();
        run.set("op", "run");
        run.set("id", 5);
        Json specs = Json::array();
        specs.push(RunSpec::single("trfd", MachineParams::reference(),
                                   testScale)
                       .canonical());
        run.set("specs", std::move(specs));
        ASSERT_TRUE(other.writeLine(run.dump()));
        ResultFrame point;
        ASSERT_TRUE(readFrame(other, &point)) << wire;
        EXPECT_EQ(point.id, 5u);
        EXPECT_TRUE(point.hasBlob);
        ASSERT_TRUE(readUntilDone(other)) << wire;
    }
}

TEST_P(EnvelopeFixture, FrameOnRequestChannelAnswersBadFrame)
{
    // Clients never send frames; a frame marker on the request
    // channel means framing is lost. The daemon answers a structured
    // badFrame error, closes the connection, and keeps serving
    // everyone else.
    LineChannel channel = front();
    std::string garbage;
    garbage.push_back(static_cast<char>(resultFrameMarker));
    garbage.append("\x03\x00\x00\x00", 4);
    garbage.append("abc");
    const uint64_t checksum = frameChecksum("abc", 3);
    for (size_t i = 0; i < 8; ++i)
        garbage.push_back(
            static_cast<char>((checksum >> (8 * i)) & 0xff));
    ASSERT_TRUE(channel.writeBytes(garbage));

    std::string line;
    ASSERT_TRUE(channel.readLine(&line));
    Json response;
    std::string error;
    ASSERT_TRUE(Json::parse(line, &response, &error)) << error;
    EXPECT_TRUE(response.has("error"));
    EXPECT_TRUE(response.getBool("badFrame", false));
    EXPECT_FALSE(channel.readLine(&line));  // connection closed

    // The daemon survived.
    LineChannel fresh = front();
    Json ping = Json::object();
    ping.set("op", "ping");
    EXPECT_TRUE(roundTrip(fresh, ping).getBool("pong"));
}

TEST_P(EnvelopeFixture, ShutdownOpStopsServe)
{
    LineChannel channel = front();
    Json request = Json::object();
    request.set("op", "shutdown");
    const Json response = roundTrip(channel, request);
    EXPECT_TRUE(response.getBool("stopping"));
    frontThread().join();                   // serve() returns on its own
    frontThread() = std::thread([] {});     // keep TearDown joinable
}

} // namespace
} // namespace mtv
