#include "src/service/connection_core.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"

namespace mtv
{

uint64_t
safeRequestId(const Json &request)
{
    const Json &id = request.get("id");
    if (id.type() != Json::Type::Number)
        return 0;
    const double v = id.asNumber();
    if (v < 0 || v != std::floor(v) || v > 9.007199254740992e15)
        return 0;
    return static_cast<uint64_t>(v);
}

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

bool
Connection::live() const
{
    return !writeFailed_.load() && !core_.stopping();
}

bool
Connection::write(const std::string &bytes, bool frame)
{
    // Write-stall accounting covers the whole funnel: waiting on the
    // write mutex (another stream holds it) plus the blocking send
    // itself (slow reader, full socket buffer).
    const uint64_t startUs = monotonicMicros();
    bool ok;
    {
        std::lock_guard<std::mutex> lock(writeMutex_);
        if (writeFailed_.load())
            return false;
        ok = frame ? channel_.writeBytes(bytes) : channel_.writeLine(bytes);
        const uint64_t sent = channel_.bytesWritten();
        core_.obsBytesSent_->inc(sent - lastBytesSent_);
        lastBytesSent_ = sent;
        if (!ok) {
            // Sticky: once the peer is gone the read loop stops
            // admitting its pipelined requests and closes.
            writeFailed_.store(true);
            core_.obsWriteFailures_->inc();
            if (core_.service_.writeFailed)
                core_.service_.writeFailed(*this);
        }
    }
    if (core_.service_.writeStallUs)
        core_.service_.writeStallUs->inc(monotonicMicros() - startUs);
    return ok;
}

ConnectionCore::ConnectionCore(const ListenOptions &listen,
                               Service service)
    : service_(std::move(service))
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    obsConnections_ = reg.gauge("service_connections");
    obsConnectionsTotal_ = reg.counter("service_connections_total");
    obsWriteFailures_ = reg.counter("service_write_failures_total");
    obsBytesSent_ = reg.counter("service_bytes_sent");
    obsBytesReceived_ = reg.counter("service_bytes_received");

    socketPath_ = listen.socketPath.empty() ? defaultSocketPath()
                                            : listen.socketPath;
    // A leftover socket file from a killed daemon would block bind();
    // only a *connectable* socket means a live daemon.
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
    unixListener.fd = listenOnEndpoint(unixListener.endpoint, nullptr);
    listeners_.push_back(unixListener);

    if (!listen.tcpHost.empty()) {
        Listener tcpListener;
        tcpListener.fd =
            listenOnEndpoint(Endpoint::tcp(listen.tcpHost, listen.tcpPort),
                             &tcpListener.endpoint);
        tcpPort_ = tcpListener.endpoint.port;
        listeners_.push_back(tcpListener);
    }
}

ConnectionCore::~ConnectionCore()
{
    stop();
    // serve() may never have run; teardown is idempotent.
    teardownClients();
    for (const Listener &listener : listeners_) {
        if (listener.fd >= 0)
            ::close(listener.fd);
    }
    ::unlink(socketPath_.c_str());
}

void
ConnectionCore::stop()
{
    stopping_.store(true);
    for (const Listener &listener : listeners_) {
        if (listener.fd >= 0)
            ::shutdown(listener.fd, SHUT_RDWR);
    }
}

void
ConnectionCore::joinFinishedLocked()
{
    for (auto &thread : finishedClients_)
        thread.join();
    finishedClients_.clear();
}

void
ConnectionCore::teardownClients()
{
    if (service_.teardown)
        service_.teardown();
    // Joins happen outside clientsMutex_: a connection thread's last
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
ConnectionCore::serve()
{
    for (const Listener &listener : listeners_) {
        inform("mtvd: listening on %s%s",
               listener.endpoint.describe().c_str(),
               service_.banner.c_str());
    }
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
            break;  // the listen set is genuinely broken
        }
        for (size_t i = 0; ready > 0 && i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            const int fd = ::accept(listeners_[i].fd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping_.load())
                    break;
                if (errno == EMFILE || errno == ENFILE ||
                    errno == ECONNABORTED || errno == EPROTO) {
                    // Transient pressure (fd exhaustion, aborted
                    // handshake) must not take the daemon down; back
                    // off and keep serving.
                    warn("mtvd: accept failed: %s — retrying",
                         std::strerror(errno));
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                }
                continue;
            }
            if (listeners_[i].endpoint.kind == Endpoint::Kind::Tcp) {
                // Nagle would hold every small line behind the peer's
                // delayed ACK (~40 ms); the protocol is latency-bound
                // lines.
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            std::lock_guard<std::mutex> lock(clientsMutex_);
            joinFinishedLocked();  // no dead-thread accumulation
            activeClients_.emplace(
                fd, std::thread([this, fd] { handleConnection(fd); }));
        }
    }
    teardownClients();
}

void
ConnectionCore::handleConnection(int fd)
{
    Connection conn(*this, fd);
    obsConnections_->add(1);
    obsConnectionsTotal_->inc();
    if (service_.open)
        service_.open(conn);
    std::string line;
    uint64_t lastBytesReceived = 0;
    while (conn.live()) {
        const LineChannel::MessageKind kind =
            conn.channel_.readMessage(&line);
        const uint64_t received = conn.channel_.bytesRead();
        obsBytesReceived_->inc(received - lastBytesReceived);
        lastBytesReceived = received;
        if (kind == LineChannel::MessageKind::Eof)
            break;
        if (kind != LineChannel::MessageKind::Line) {
            // Frames flow server->client only; a frame (or marker
            // garbage) on the request channel means the peer lost the
            // framing, and an unframed byte stream cannot be
            // resynchronized. One structured error, then a clean
            // close.
            Json err = errorJson("binary frame on the request channel");
            err.set("badFrame", true);
            conn.writeLine(err.dump());
            break;
        }
        if (line.empty())
            continue;
        Json request;
        std::string parseError;
        if (!Json::parse(line, &request, &parseError)) {
            if (!conn.writeLine(errorJson(parseError).dump()))
                break;
            continue;
        }
        if (!handleRequest(request, conn))
            break;
    }
    if (service_.close)
        service_.close(conn);
    obsConnections_->add(-1);
    // Move our own thread handle to the finished list (joined by the
    // accept loop or teardown) while the descriptor is still open, so
    // teardown can never shutdown() a recycled fd; conn closes it
    // after. During teardown the entry may already be gone — the
    // teardown thread owns the handle then.
    std::lock_guard<std::mutex> lock(clientsMutex_);
    auto self = activeClients_.find(fd);
    if (self != activeClients_.end()) {
        finishedClients_.push_back(std::move(self->second));
        activeClients_.erase(self);
    }
}

bool
ConnectionCore::handleRequest(const Json &request, Connection &conn)
{
    try {
        // Client input flows through fatal()-reporting validation
        // (JSON shape, RunSpec::parse, expandSweep, a fleet with no
        // live node left); it must answer this client, not kill the
        // daemon.
        ScopedFatalAsException fatalScope;
        const std::string op = request.getString("op");
        if (op == "hello")
            return hello(request, conn);
        if (op == "shutdown") {
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("stopping", true);
            conn.writeLine(ok.dump());
            inform("mtvd: shutdown requested by client");
            stop();
            return false;
        }
        const auto entry = service_.ops.find(op);
        if (entry != service_.ops.end())
            return entry->second(request, conn);
        return conn.writeLine(errorJson(op.empty()
                                            ? "request names no op"
                                            : "unknown op '" + op + "'")
                                  .dump());
    } catch (const FatalError &e) {
        // A request id, when present, routes the error to its sender.
        Json j = errorJson(e.what());
        if (request.has("id"))
            j.set("id", safeRequestId(request));
        return conn.writeLine(j.dump());
    }
}

bool
ConnectionCore::hello(const Json &request, Connection &conn)
{
    // A handshake: result points are binary frames on every
    // connection, so the only wire a client may name is "binary".
    // Anything else answers an error and the connection stays open.
    const std::string wire =
        request.has("wire") ? request.getString("wire") : "binary";
    if (wire != "binary") {
        Json error = errorJson("unknown wire format '" + wire +
                               "' (result points are binary frames)");
        error.set("badWire", wire);
        return conn.writeLine(error.dump());
    }
    static const std::string registry = format(
        "%016llx", static_cast<unsigned long long>(sweepRegistryHash()));
    Json ok = Json::object();
    ok.set("ok", true);
    ok.set("hello", true);
    ok.set("wire", "binary");
    ok.set("protocol", serviceProtocolVersion);
    ok.set("registry", registry);
    return conn.writeLine(ok.dump());
}

} // namespace mtv
