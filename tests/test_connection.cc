/**
 * @file
 * Tests for src/service/connection_core: the connection server both
 * mtvd and mtvd --route run on, driven here by fake op tables. The
 * core must set TCP_NODELAY on every accepted TCP connection, frame
 * each connection with its open/close hooks, answer hello, shutdown
 * and unknown ops itself, turn a fatal() in an op into an error line
 * under one request-id rule, and call the write-failure hook once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/connection_core.hh"

namespace mtv
{
namespace
{

std::string
tempSocket(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("mtv_test_connection_" + std::to_string(::getpid()) + "_" +
             tag + ".sock"))
        .string();
}

/** A ConnectionCore over a fake op table, served from a thread. */
class CoreRunner
{
  public:
    CoreRunner(ListenOptions listen, ConnectionCore::Service service)
        : core_(listen, std::move(service)),
          thread_([this] { core_.serve(); })
    {
    }

    ~CoreRunner()
    {
        core_.stop();
        thread_.join();
    }

    ConnectionCore &core() { return core_; }

    /** Wait for serve() to return on its own (a shutdown op). */
    void join() { thread_.join(); thread_ = std::thread([] {}); }

    LineChannel
    connectUnix()
    {
        std::string error;
        const int fd = connectToDaemon(core_.socketPath(), &error);
        EXPECT_GE(fd, 0) << error;
        return LineChannel(fd);
    }

  private:
    ConnectionCore core_;
    std::thread thread_;
};

Json
roundTrip(LineChannel &channel, const std::string &request)
{
    EXPECT_TRUE(channel.writeLine(request));
    std::string line;
    EXPECT_TRUE(channel.readLine(&line));
    Json response;
    std::string error;
    EXPECT_TRUE(Json::parse(line, &response, &error)) << line;
    return response;
}

TEST(ConnectionCore, AcceptedTcpConnectionsSetNoDelay)
{
    // The op reports the option on the server's side of the socket —
    // the side a service writes its response lines through.
    ConnectionCore::Service service;
    service.ops["nodelay"] = [](const Json &, Connection &conn) {
        int value = 0;
        socklen_t length = sizeof(value);
        Json ok = Json::object();
        ok.set("ok", ::getsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY,
                                  &value, &length) == 0);
        ok.set("nodelay", value != 0);
        return conn.writeLine(ok.dump());
    };
    ListenOptions listen;
    listen.socketPath = tempSocket("nodelay");
    listen.tcpHost = "127.0.0.1";
    CoreRunner runner(listen, std::move(service));
    ASSERT_GT(runner.core().tcpPort(), 0);

    for (int i = 0; i < 2; ++i) {
        std::string error;
        const int fd = connectToEndpoint(
            Endpoint::tcp("127.0.0.1", runner.core().tcpPort()), &error);
        ASSERT_GE(fd, 0) << error;
        LineChannel channel(fd);
        const Json answer = roundTrip(channel, "{\"op\":\"nodelay\"}");
        EXPECT_TRUE(answer.getBool("ok"));
        EXPECT_TRUE(answer.getBool("nodelay"));
    }
}

/** Per-connection state of the hook test. */
struct CountingState : Connection::State
{
    int requests = 0;
};

TEST(ConnectionCore, HooksFrameEveryConnectionAndOpsSeeTheirState)
{
    std::atomic<int> opened{0};
    std::atomic<int> closed{0};
    ConnectionCore::Service service;
    service.open = [&opened](Connection &conn) {
        conn.state = std::make_unique<CountingState>();
        ++opened;
    };
    service.close = [&closed](Connection &conn) {
        EXPECT_TRUE(conn.state != nullptr);
        ++closed;
    };
    service.ops["count"] = [](const Json &, Connection &conn) {
        auto &state = static_cast<CountingState &>(*conn.state);
        Json ok = Json::object();
        ok.set("requests", ++state.requests);
        return conn.writeLine(ok.dump());
    };
    ListenOptions listen;
    listen.socketPath = tempSocket("hooks");
    CoreRunner runner(listen, std::move(service));

    {
        LineChannel first = runner.connectUnix();
        LineChannel second = runner.connectUnix();
        EXPECT_EQ(roundTrip(first, "{\"op\":\"count\"}").getNumber(
                      "requests"),
                  1);
        EXPECT_EQ(roundTrip(first, "{\"op\":\"count\"}").getNumber(
                      "requests"),
                  2);
        // State is per connection.
        EXPECT_EQ(roundTrip(second, "{\"op\":\"count\"}").getNumber(
                      "requests"),
                  1);
        // Empty lines are skipped; malformed JSON is answered.
        ASSERT_TRUE(first.writeLine(""));
        EXPECT_TRUE(roundTrip(first, "{nope").has("error"));
        EXPECT_EQ(opened.load(), 2);
    }
    for (int i = 0; i < 200 && closed.load() < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(closed.load(), 2);
}

TEST(ConnectionCore, EnvelopeAnswersHelloUnknownOpsAndShutdown)
{
    ConnectionCore::Service service;
    service.ops["wire"] = [](const Json &, Connection &conn) {
        Json ok = Json::object();
        ok.set("binary", conn.wire() == WireFormat::Binary);
        return conn.writeLine(ok.dump());
    };
    ListenOptions listen;
    listen.socketPath = tempSocket("envelope");
    CoreRunner runner(listen, std::move(service));
    LineChannel channel = runner.connectUnix();

    EXPECT_FALSE(roundTrip(channel, "{\"op\":\"wire\"}").getBool("binary"));
    const Json hello =
        roundTrip(channel, "{\"op\":\"hello\",\"wire\":\"binary\"}");
    EXPECT_TRUE(hello.getBool("hello"));
    EXPECT_EQ(hello.getString("wire"), "binary");
    EXPECT_EQ(hello.get("protocol").asU64(),
              static_cast<uint64_t>(serviceProtocolVersion));
    EXPECT_EQ(hello.getString("registry"),
              format("%016llx", static_cast<unsigned long long>(
                                    sweepRegistryHash())));
    EXPECT_TRUE(roundTrip(channel, "{\"op\":\"wire\"}").getBool("binary"));
    // An unknown wire is an error and changes nothing.
    EXPECT_TRUE(
        roundTrip(channel, "{\"op\":\"hello\",\"wire\":\"morse\"}")
            .has("error"));
    EXPECT_TRUE(roundTrip(channel, "{\"op\":\"wire\"}").getBool("binary"));

    EXPECT_EQ(roundTrip(channel, "{\"op\":\"explode\"}").getString("error"),
              "unknown op 'explode'");
    EXPECT_EQ(roundTrip(channel, "{\"id\":3}").getString("error"),
              "request names no op");

    EXPECT_TRUE(
        roundTrip(channel, "{\"op\":\"shutdown\"}").getBool("stopping"));
    runner.join();  // serve() returns on its own
    EXPECT_TRUE(runner.core().stopping());
}

TEST(ConnectionCore, FatalInAnOpAnswersUnderOneRequestIdRule)
{
    ConnectionCore::Service service;
    service.ops["boom"] = [](const Json &, Connection &) {
        fatal("boom");
        return false;
    };
    ListenOptions listen;
    listen.socketPath = tempSocket("fatal");
    CoreRunner runner(listen, std::move(service));
    LineChannel channel = runner.connectUnix();

    // Ids that are not integers in [0, 2^53] answer as id 0.
    for (const char *id : {"-1", "2.5", "1e300", "\"7\""}) {
        const Json answer = roundTrip(
            channel, format("{\"op\":\"boom\",\"id\":%s}", id));
        EXPECT_EQ(answer.getString("error"), "boom") << id;
        EXPECT_EQ(answer.get("id").type(), Json::Type::Number) << id;
        EXPECT_EQ(answer.get("id").asU64(), 0u) << id;
    }
    EXPECT_EQ(roundTrip(channel, "{\"op\":\"boom\",\"id\":9007199254740992}")
                  .get("id")
                  .asU64(),
              9007199254740992ull);
    // Without an id the error line carries none.
    EXPECT_FALSE(roundTrip(channel, "{\"op\":\"boom\"}").has("id"));
    // The connection stayed open through all of it.
    EXPECT_TRUE(
        roundTrip(channel, "{\"op\":\"hello\"}").getBool("hello"));
}

TEST(ConnectionCore, WriteFailedHookFiresOnceAtTheFirstFailedWrite)
{
    std::atomic<int> failures{0};
    std::atomic<bool> flooded{false};
    ConnectionCore::Service service;
    service.writeFailed = [&failures](Connection &) { ++failures; };
    service.ops["flood"] = [&flooded](const Json &, Connection &conn) {
        const std::string line(4096, 'x');
        conn.writeLine("{\"ok\":true}");
        while (conn.writeLine(line)) {
        }
        EXPECT_TRUE(conn.writeFailed());
        EXPECT_FALSE(conn.live());
        EXPECT_FALSE(conn.writeLine(line));  // sticky, no second hook
        flooded = true;
        return true;  // the read loop ends on writeFailed anyway
    };
    ListenOptions listen;
    listen.socketPath = tempSocket("writefail");
    CoreRunner runner(listen, std::move(service));
    {
        LineChannel channel = runner.connectUnix();
        ASSERT_TRUE(channel.writeLine("{\"op\":\"flood\"}"));
        std::string line;
        ASSERT_TRUE(channel.readLine(&line));
    }  // the client goes away mid-flood
    for (int i = 0; i < 500 && !flooded.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(flooded.load());
    EXPECT_EQ(failures.load(), 1);
}

TEST(ConnectionCore, LiveDaemonOwnsItsSocketAndAStaleFileIsReplaced)
{
    ListenOptions listen;
    listen.socketPath = tempSocket("stale");
    {
        CoreRunner runner(listen, {});
        ScopedFatalAsException scope;
        EXPECT_THROW(ConnectionCore(listen, {}), FatalError);
    }
    // A socket file nobody accepts on is unlinked and rebound.
    ::close(listenOnEndpoint(Endpoint::unixSocket(listen.socketPath),
                             nullptr));
    ASSERT_TRUE(std::filesystem::exists(listen.socketPath));
    CoreRunner runner(listen, {});
    LineChannel channel = runner.connectUnix();
    EXPECT_TRUE(roundTrip(channel, "{\"op\":\"hello\"}").getBool("ok"));
}

} // namespace
} // namespace mtv
