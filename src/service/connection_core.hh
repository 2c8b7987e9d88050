/**
 * @file
 * ConnectionCore: the connection server that `mtvd` (MtvService) and
 * `mtvd --route` (FleetService) share. It owns everything between a
 * listening socket and one parsed request:
 *
 *  - the stale-socket probe, the unix listener and the optional TCP
 *    listener;
 *  - one poll()-based accept loop over them, with a back-off on
 *    transient accept errors and TCP_NODELAY on every TCP connection;
 *  - one thread per connection, retired to a finished list and joined
 *    cheaply on the next accept, and the teardown that joins the rest;
 *  - the read loop (badFrame, JSON parse errors, empty lines);
 *  - the write funnel of each connection (one write mutex, a sticky
 *    write failure, byte and write-stall accounting);
 *  - the request envelope: "hello" handshake, "shutdown",
 *    unknown or missing ops, and ScopedFatalAsException turning a
 *    fatal() into an error line under one request-id rule.
 *
 * A service passes an op table plus hooks for its per-connection
 * state; the core calls them on the connection's own thread.
 */

#ifndef MTV_SERVICE_CONNECTION_CORE_HH
#define MTV_SERVICE_CONNECTION_CORE_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.hh"
#include "src/service/json.hh"
#include "src/service/protocol.hh"

namespace mtv
{

class ConnectionCore;

/** Where a daemon listens; both services' options extend it. */
struct ListenOptions
{
    /** Unix socket path to listen on. Empty = defaultSocketPath(). */
    std::string socketPath;
    /**
     * TCP listen host ("mtvd --tcp HOST:PORT"); empty = unix socket
     * only. Both listeners serve the identical protocol; TCP is what
     * lets mtvd nodes form a fleet across machines (src/fleet/).
     */
    std::string tcpHost;
    /** TCP listen port; 0 = ephemeral (tests/smoke read the bound
     *  port back via tcpPort()). */
    int tcpPort = 0;
};

/**
 * The request id a response echoes: the "id" member when it is an
 * integer in [0, 2^53], else 0. It never fatal()s, so the error path
 * can always tag its line.
 */
uint64_t safeRequestId(const Json &request);

/** {"error": message}. */
Json errorJson(const std::string &message);

/** An error that belongs to one multiplexed request. */
Json requestErrorJson(uint64_t id, const std::string &message);

/** One client connection of a ConnectionCore. */
class Connection
{
  public:
    /** Base of the per-connection state a service's open hook
     *  attaches (see ConnectionCore::Service). */
    struct State
    {
        State() = default;
        State(const State &) = delete;
        State &operator=(const State &) = delete;
        virtual ~State() = default;
    };

    /** Thread-safe line write; false once the peer is gone. */
    bool writeLine(const std::string &line) { return write(line, false); }

    /** Thread-safe write of pre-encoded frame bytes (no newline). */
    bool writeBytes(const std::string &bytes) { return write(bytes, true); }

    /** Sticky: some write to this peer has failed. */
    bool writeFailed() const { return writeFailed_.load(); }

    /** False once a write has failed or the daemon is stopping: the
     *  connection admits no more work. */
    bool live() const;

    /** The socket (for socket options; writes go through write*()). */
    int fd() const { return channel_.fd(); }

    /** The service's per-connection state, set by its open hook and
     *  destroyed with the connection, after the close hook. */
    std::unique_ptr<State> state;

  private:
    friend class ConnectionCore;

    Connection(ConnectionCore &core, int fd) : core_(core), channel_(fd)
    {
    }

    bool write(const std::string &bytes, bool frame);

    ConnectionCore &core_;
    LineChannel channel_;
    std::mutex writeMutex_;
    std::atomic<bool> writeFailed_{false};
    /** channel_.bytesWritten() already counted (under writeMutex_). */
    uint64_t lastBytesSent_ = 0;
};

/** Listener, accept loop, connection threads and request envelope. */
class ConnectionCore
{
  public:
    /**
     * Serve one request on @p conn; false closes the connection. Runs
     * on the connection's thread under ScopedFatalAsException: a
     * fatal() answers {"error":...,"id":safeRequestId} when the
     * request carries an "id", and the connection stays open.
     */
    using Op = std::function<bool(const Json &request, Connection &conn)>;

    /** What a service plugs into the core. Every hook is optional. */
    struct Service
    {
        /** Ops by name. "hello" and "shutdown" are the core's. */
        std::unordered_map<std::string, Op> ops;
        /** On the connection's thread, before its first request. */
        std::function<void(Connection &)> open;
        /** On the connection's thread, after its last request and
         *  before the socket closes; must join whatever still writes
         *  to the connection. */
        std::function<void(Connection &)> close;
        /** At the connection's first failed write, under its write
         *  mutex, on whichever thread wrote. */
        std::function<void(Connection &)> writeFailed;
        /** At teardown, before the connections are shut down. */
        std::function<void()> teardown;
        /** Receives the microseconds spent in writes, write-mutex wait
         *  included; null = not counted. */
        Counter *writeStallUs = nullptr;
        /** Appended to each "listening on ENDPOINT" startup line. */
        std::string banner;
    };

    /**
     * Bind and listen. fatal()s on an unusable socket path or TCP
     * endpoint, or when another live daemon already serves the
     * socket; a leftover socket file nobody accepts on is unlinked.
     */
    ConnectionCore(const ListenOptions &listen, Service service);
    ~ConnectionCore();

    ConnectionCore(const ConnectionCore &) = delete;
    ConnectionCore &operator=(const ConnectionCore &) = delete;

    /** Accept and serve clients until stop() (or a client's shutdown
     *  request), then tear every connection down. Blocks. */
    void serve();

    /** Ask serve() to return. Async-signal-safe (a flag and
     *  shutdown() calls); joining happens on the serve() thread. */
    void stop();

    bool stopping() const { return stopping_.load(); }

    /** Path of the unix listener. */
    const std::string &socketPath() const { return socketPath_; }

    /** Bound TCP port (the kernel's choice for an ephemeral bind),
     *  or 0 when no TCP listener was configured. */
    int tcpPort() const { return tcpPort_; }

  private:
    friend class Connection;

    struct Listener
    {
        int fd = -1;
        Endpoint endpoint;
    };

    void handleConnection(int fd);
    bool handleRequest(const Json &request, Connection &conn);
    bool hello(const Json &request, Connection &conn);
    /** Join threads whose connections have ended. Caller holds
     *  clientsMutex_. */
    void joinFinishedLocked();
    /** Run the teardown hook, shut down every connection and join
     *  every connection thread. Idempotent. */
    void teardownClients();

    Service service_;
    std::string socketPath_;
    std::vector<Listener> listeners_;
    int tcpPort_ = 0;
    std::atomic<bool> stopping_{false};

    std::mutex clientsMutex_;
    /** Live connections: fd -> serving thread. */
    std::unordered_map<int, std::thread> activeClients_;
    /** Threads whose connection ended, awaiting a cheap join. */
    std::vector<std::thread> finishedClients_;

    Gauge *obsConnections_ = nullptr;
    Counter *obsConnectionsTotal_ = nullptr;
    Counter *obsWriteFailures_ = nullptr;
    Counter *obsBytesSent_ = nullptr;
    Counter *obsBytesReceived_ = nullptr;
};

} // namespace mtv

#endif // MTV_SERVICE_CONNECTION_CORE_HH
