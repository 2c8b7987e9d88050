#include "src/client.hh"

#include <sys/socket.h>
#include <sys/time.h>

#include <cstdio>
#include <cstdlib>

#include "src/bench.hh"
#include "src/common/strutil.hh"
#include "src/store/stats_codec.hh"

namespace bench
{

uint64_t
foldDigest(uint64_t digest, const std::string &blob)
{
    return mtv::fnv1a64(blob.data(), blob.size(), digest);
}

uint64_t
parseDigest(const std::string &hex)
{
    if (hex.size() != 16)
        return 0;
    char *end = nullptr;
    const uint64_t value = std::strtoull(hex.c_str(), &end, 16);
    return end == hex.c_str() + hex.size() ? value : 0;
}

std::string
formatDigest(uint64_t digest)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(digest));
    return text;
}

std::unique_ptr<Client>
Client::connect(const std::string &socket, std::string *error)
{
    const int fd = mtv::connectToDaemon(socket, error);
    if (fd < 0)
        return nullptr;
    // A daemon that stops answering must fail the run, not hang it.
    timeval timeout{};
    timeout.tv_sec = 120;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::unique_ptr<Client> client(new Client(fd));
    mtv::Json hello = mtv::Json::object();
    hello.set("op", "hello");
    hello.set("wire", "binary");
    mtv::Json response;
    if (!client->control(hello, &response) ||
        response.getString("wire", "") != "binary") {
        *error = "the daemon did not negotiate the binary wire";
        return nullptr;
    }
    return client;
}

bool
Client::control(const mtv::Json &request, mtv::Json *response)
{
    std::string line;
    if (!channel_.writeLine(request.dump()) || !channel_.readLine(&line))
        return false;
    std::string parseError;
    return mtv::Json::parse(line, response, &parseError) &&
           response->type() == mtv::Json::Type::Object &&
           !response->has("error");
}

bool
Client::sendSweep(const mtv::SweepRequest &request, uint64_t id,
                  bool quiet)
{
    mtv::Json line = mtv::sweepRequestToJson(request);
    line.set("op", "sweep");
    line.set("id", id);
    line.set("quiet", quiet);
    return channel_.writeLine(line.dump());
}

StreamResult
Client::sweep(const mtv::SweepRequest &request, uint64_t id, bool quiet,
              const StreamOptions &options)
{
    const double sentS = nowS();
    if (!sendSweep(request, id, quiet)) {
        StreamResult result;
        result.error = "cannot send the sweep request";
        return result;
    }
    StreamResult result = readStream(id, quiet, options);
    result.sentS = sentS;
    result.slotS = options.slotS > 0 ? options.slotS : sentS;
    return result;
}

StreamResult
Client::run(const std::vector<mtv::RunSpec> &specs, uint64_t id,
            const StreamOptions &options)
{
    mtv::Json line = mtv::Json::object();
    line.set("op", "run");
    line.set("id", id);
    line.set("quiet", false);
    mtv::Json list = mtv::Json::array();
    for (const mtv::RunSpec &spec : specs)
        list.push(spec.canonical());
    line.set("specs", std::move(list));
    const double sentS = nowS();
    if (!channel_.writeLine(line.dump())) {
        StreamResult result;
        result.error = "cannot send the run request";
        return result;
    }
    StreamResult result = readStream(id, false, options);
    result.expected = specs.size();
    result.sentS = sentS;
    result.slotS = options.slotS > 0 ? options.slotS : sentS;
    if (result.ok && !result.cancelled &&
        result.points != result.expected) {
        result.ok = false;
        result.error = mtv::format("run returned %llu of %llu points",
                                   (unsigned long long)result.points,
                                   (unsigned long long)result.expected);
    }
    return result;
}

StreamResult
Client::readStream(uint64_t id, bool quiet, const StreamOptions &options,
                   const std::function<void(double)> &onPoint)
{
    StreamResult result;
    uint64_t blobs = 0;
    std::string message;
    mtv::ResultFrame frame;
    std::string frameError;
    for (;;) {
        const double readStart = options.traced ? nowS() : 0.0;
        const mtv::LineChannel::MessageKind kind =
            channel_.readMessage(&message);
        const double arrived = nowS();
        if (options.traced)
            result.readWaitS += arrived - readStart;

        if (kind == mtv::LineChannel::MessageKind::Frame) {
            if (!mtv::decodeResultFrame(message, &frame, &frameError) ||
                frame.id != id) {
                result.error = "malformed or foreign result frame";
                return result;
            }
            if (frame.hasBlob) {
                ++blobs;
                result.digest = foldDigest(result.digest, frame.blob);
                if (options.keepBlobs)
                    result.blobs.push_back(std::move(frame.blob));
            }
            if (options.traced)
                result.decodeS += nowS() - arrived;
            if (result.points == 0)
                result.firstPointS = arrived;
            ++result.points;
            result.arrivalS.push_back(arrived);
            if (onPoint)
                onPoint(arrived);
            if (result.points == options.stopAfter) {
                result.ok = true;
                return result;
            }
            continue;
        }
        if (kind != mtv::LineChannel::MessageKind::Line) {
            result.error = mtv::format(
                "stream broke after %llu points",
                (unsigned long long)result.points);
            return result;
        }
        mtv::Json response;
        std::string parseError;
        if (!mtv::Json::parse(message, &response, &parseError)) {
            result.error = "malformed response line: " + parseError;
            return result;
        }
        if (response.has("error")) {
            result.error = "daemon error: " + response.getString("error");
            return result;
        }
        if (response.getBool("ack", false)) {
            result.expected = response.get("count").asU64();
            continue;
        }
        if (!response.getBool("done", false)) {
            // A JSON result line: the binary wire was negotiated, so
            // the daemon broke its own contract.
            result.error = "JSON result line on a binary connection";
            return result;
        }
        result.doneS = arrived;
        if (response.getBool("cancelled", false)) {
            result.cancelled = true;
            result.ok = true;
            return result;
        }
        result.serverDigest = parseDigest(response.getString("digest", ""));
        const uint64_t count = response.get("count").asU64();
        if (result.expected == 0)
            result.expected = count;
        if (result.points != result.expected || count != result.points) {
            result.error = mtv::format(
                "short stream: %llu of %llu points",
                (unsigned long long)result.points,
                (unsigned long long)result.expected);
            return result;
        }
        // Quiet streams carry no blobs; their digest is the server's.
        if (!quiet && blobs != result.points) {
            result.error = "result frames without their blobs";
            return result;
        }
        if (!quiet && result.serverDigest != result.digest) {
            result.error = "digest mismatch: client " +
                           formatDigest(result.digest) + ", done line " +
                           formatDigest(result.serverDigest);
            return result;
        }
        result.ok = true;
        return result;
    }
}

} // namespace bench
