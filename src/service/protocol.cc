#include "src/service/protocol.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/common/endian.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/** A line longer than this is not a protocol message; the same
 *  bound caps a binary frame's length prefix. */
constexpr size_t maxLineBytes = 64u * 1024 * 1024;

/** Bytes before a frame's payload: marker + u32 length prefix. */
constexpr size_t frameHeaderBytes = 1 + 4;

/** Bytes after a frame's payload: the u64 frameChecksum(). */
constexpr size_t frameTrailerBytes = 8;

/** ResultFrame flag bits (payload byte 16). */
constexpr uint8_t frameFlagCached = 1u << 0;
constexpr uint8_t frameFlagFromStore = 1u << 1;
constexpr uint8_t frameFlagGroupExtras = 1u << 2;
constexpr uint8_t frameFlagHasBlob = 1u << 3;

void
appendFrameU32(std::string *out, uint32_t v)
{
    uint8_t raw[4];
    writeLe32(raw, v);
    out->append(reinterpret_cast<const char *>(raw), sizeof(raw));
}

void
appendFrameU64(std::string *out, uint64_t v)
{
    uint8_t raw[8];
    writeLe64(raw, v);
    out->append(reinterpret_cast<const char *>(raw), sizeof(raw));
}

} // namespace

uint64_t
frameChecksum(const void *data, size_t size)
{
    // FNV-1a over little-endian u64 words (see the declaration for
    // why word-wise): one multiply per 8 bytes instead of one per
    // byte. The trailing 0-7 bytes are zero-padded into a final
    // word, and the length is mixed last so "abc" + zero padding
    // and "abc\0" + shorter padding cannot collide.
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint64_t h = 0xcbf29ce484222325ull;
    constexpr uint64_t prime = 0x100000001b3ull;
    size_t i = 0;
    for (; i + 8 <= size; i += 8)
        h = (h ^ readLe64(bytes + i)) * prime;
    if (i < size) {
        uint64_t tail = 0;
        for (size_t j = 0; i + j < size; ++j)
            tail |= static_cast<uint64_t>(bytes[i + j]) << (8 * j);
        h = (h ^ tail) * prime;
    }
    return (h ^ static_cast<uint64_t>(size)) * prime;
}

namespace
{

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** Bounds-checked cursor over a frame payload; unlike the stats
 *  codec's BlobReader a truncated payload is a recoverable protocol
 *  error (the peer sent garbage), not a fatal(). */
struct FrameReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    bool need(size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        return true;
    }

    uint64_t u64()
    {
        if (!need(8))
            return 0;
        const uint64_t v = readLe64(data + pos);
        pos += 8;
        return v;
    }

    uint32_t u32()
    {
        if (!need(4))
            return 0;
        const uint32_t v = readLe32(data + pos);
        pos += 4;
        return v;
    }

    uint8_t u8()
    {
        if (!need(1))
            return 0;
        return data[pos++];
    }

    std::string_view bytes(size_t n)
    {
        if (!need(n))
            return std::string_view();
        std::string_view v(reinterpret_cast<const char *>(data + pos),
                           n);
        pos += n;
        return v;
    }
};

} // namespace

const char *
defaultSocketPath()
{
    if (const char *env = std::getenv("MTV_SOCKET"))
        return env;
    return "/tmp/mtvd.sock";
}

Endpoint
Endpoint::unixSocket(std::string socketPath)
{
    Endpoint e;
    e.kind = Kind::Unix;
    e.path = std::move(socketPath);
    return e;
}

Endpoint
Endpoint::tcp(std::string host, int port)
{
    Endpoint e;
    e.kind = Kind::Tcp;
    e.host = std::move(host);
    e.port = port;
    return e;
}

std::string
Endpoint::describe() const
{
    if (kind == Kind::Unix)
        return path;
    return format("%s:%d", host.c_str(), port);
}

std::string
Endpoint::startHint() const
{
    if (kind == Kind::Unix)
        return "mtvd --socket " + path;
    return "mtvd --tcp " + describe();
}

Endpoint
parseEndpoint(const std::string &text)
{
    if (text.find(':') == std::string::npos)
        return Endpoint::unixSocket(text);
    const HostPort hp = parseHostPort(text.c_str(), "endpoint");
    return Endpoint::tcp(hp.host, hp.port);
}

Json
resultToJson(const RunResult &result, uint64_t id, size_t seq,
             bool includeBlob, const std::string *serialized)
{
    Json line = Json::object();
    line.set("id", id);
    line.set("seq", static_cast<uint64_t>(seq));
    line.set("spec", result.specCanonical.empty()
                         ? result.spec.canonical()
                         : result.specCanonical);
    line.set("cached", result.cached);
    line.set("store", result.fromStore);
    // Headline numbers for human consumption; the blob is the source
    // of truth (JSON doubles cannot carry full 64-bit counters).
    line.set("cycles", result.stats.cycles);
    line.set("dispatches", result.stats.dispatches);
    if (result.spec.mode == SpecMode::Group) {
        line.set("speedup", result.speedup);
        line.set("mthOccupation", result.mthOccupation);
        line.set("refOccupation", result.refOccupation);
        line.set("mthVopc", result.mthVopc);
        line.set("refVopc", result.refVopc);
    }
    if (includeBlob) {
        line.set("blob",
                 hexEncode(serialized
                               ? *serialized
                               : serializeSimStats(result.stats)));
    }
    return line;
}

RunResult
resultFromJson(const Json &line, std::string *blob)
{
    RunResult result;
    result.specCanonical = line.getString("spec");
    result.spec = RunSpec::parse(result.specCanonical);
    result.cached = line.getBool("cached");
    result.fromStore = line.getBool("store");
    result.stats.cycles = line.get("cycles").asU64();
    result.stats.dispatches = line.get("dispatches").asU64();
    result.speedup = line.getNumber("speedup");
    result.mthOccupation = line.getNumber("mthOccupation");
    result.refOccupation = line.getNumber("refOccupation");
    result.mthVopc = line.getNumber("mthVopc");
    result.refVopc = line.getNumber("refVopc");
    if (line.has("blob")) {
        const std::string bytes = hexDecode(line.getString("blob"));
        result.stats = deserializeSimStats(bytes);
        if (blob)
            *blob = bytes;
    }
    return result;
}

std::string
encodeResultFrame(const ResultFrame &frame)
{
    std::string payload;
    payload.reserve(8 + 8 + 1 + 4 + frame.spec.size() +
                    (frame.hasGroupExtras ? 40 : 0) + 4 +
                    frame.blob.size());
    appendFrameU64(&payload, frame.id);
    appendFrameU64(&payload, frame.seq);
    uint8_t flags = 0;
    if (frame.cached)
        flags |= frameFlagCached;
    if (frame.fromStore)
        flags |= frameFlagFromStore;
    if (frame.hasGroupExtras)
        flags |= frameFlagGroupExtras;
    if (frame.hasBlob)
        flags |= frameFlagHasBlob;
    payload.push_back(static_cast<char>(flags));
    appendFrameU32(&payload,
                   static_cast<uint32_t>(frame.spec.size()));
    payload.append(frame.spec);
    if (frame.hasGroupExtras) {
        appendFrameU64(&payload, doubleBits(frame.speedup));
        appendFrameU64(&payload, doubleBits(frame.mthOccupation));
        appendFrameU64(&payload, doubleBits(frame.refOccupation));
        appendFrameU64(&payload, doubleBits(frame.mthVopc));
        appendFrameU64(&payload, doubleBits(frame.refVopc));
    }
    appendFrameU32(&payload,
                   static_cast<uint32_t>(frame.blob.size()));
    payload.append(frame.blob);

    std::string wire;
    wire.reserve(frameHeaderBytes + payload.size() +
                 frameTrailerBytes);
    appendFramedPayload(&wire, payload);
    return wire;
}

void
appendResultFrame(std::string *out, const RunResult &result,
                  uint64_t id, uint64_t seq, const std::string *blob)
{
    std::string computed;
    if (result.specCanonical.empty())
        computed = result.spec.canonical();
    const std::string &spec =
        computed.empty() ? result.specCanonical : computed;
    const bool groupExtras = result.spec.mode == SpecMode::Group;
    const size_t blobLen = blob ? blob->size() : 0;
    const size_t payloadLen = 8 + 8 + 1 + 4 + spec.size() +
                              (groupExtras ? 40 : 0) + 4 + blobLen;
    out->reserve(out->size() + frameHeaderBytes + payloadLen +
                 frameTrailerBytes);
    out->push_back(static_cast<char>(resultFrameMarker));
    appendFrameU32(out, static_cast<uint32_t>(payloadLen));
    const size_t payloadStart = out->size();
    appendFrameU64(out, id);
    appendFrameU64(out, seq);
    uint8_t flags = 0;
    if (result.cached)
        flags |= frameFlagCached;
    if (result.fromStore)
        flags |= frameFlagFromStore;
    if (groupExtras)
        flags |= frameFlagGroupExtras;
    if (blob)
        flags |= frameFlagHasBlob;
    out->push_back(static_cast<char>(flags));
    appendFrameU32(out, static_cast<uint32_t>(spec.size()));
    out->append(spec);
    if (groupExtras) {
        appendFrameU64(out, doubleBits(result.speedup));
        appendFrameU64(out, doubleBits(result.mthOccupation));
        appendFrameU64(out, doubleBits(result.refOccupation));
        appendFrameU64(out, doubleBits(result.mthVopc));
        appendFrameU64(out, doubleBits(result.refVopc));
    }
    appendFrameU32(out, static_cast<uint32_t>(blobLen));
    if (blob)
        out->append(*blob);
    appendFrameU64(out, frameChecksum(out->data() + payloadStart,
                                      out->size() - payloadStart));
}

bool
viewResultFrame(const std::string &payload, ResultFrameView *out,
                std::string *error)
{
    FrameReader r{
        reinterpret_cast<const uint8_t *>(payload.data()),
        payload.size()};
    ResultFrameView view;
    view.id = r.u64();
    view.seq = r.u64();
    const uint8_t flags = r.u8();
    view.cached = (flags & frameFlagCached) != 0;
    view.fromStore = (flags & frameFlagFromStore) != 0;
    view.hasGroupExtras = (flags & frameFlagGroupExtras) != 0;
    view.hasBlob = (flags & frameFlagHasBlob) != 0;
    view.spec = r.bytes(r.u32());
    if (view.hasGroupExtras) {
        view.speedup = bitsDouble(r.u64());
        view.mthOccupation = bitsDouble(r.u64());
        view.refOccupation = bitsDouble(r.u64());
        view.mthVopc = bitsDouble(r.u64());
        view.refVopc = bitsDouble(r.u64());
    }
    view.blob = r.bytes(r.u32());
    if (!r.ok || r.pos != r.size) {
        if (error) {
            *error = r.ok ? format("frame payload carries %zu "
                                   "trailing bytes",
                                   r.size - r.pos)
                          : "truncated frame payload";
        }
        return false;
    }
    if (view.hasBlob == view.blob.empty()) {
        if (error)
            *error = "frame blob contradicts its hasBlob flag";
        return false;
    }
    *out = view;
    return true;
}

bool
decodeResultFrame(const std::string &payload, ResultFrame *out,
                  std::string *error)
{
    ResultFrameView view;
    if (!viewResultFrame(payload, &view, error))
        return false;
    out->id = view.id;
    out->seq = view.seq;
    out->cached = view.cached;
    out->fromStore = view.fromStore;
    out->hasGroupExtras = view.hasGroupExtras;
    out->hasBlob = view.hasBlob;
    out->spec.assign(view.spec);
    out->speedup = view.speedup;
    out->mthOccupation = view.mthOccupation;
    out->refOccupation = view.refOccupation;
    out->mthVopc = view.mthVopc;
    out->refVopc = view.refVopc;
    out->blob.assign(view.blob);
    return true;
}

void
setResultFrameHeader(std::string *payload, uint64_t id, uint64_t seq)
{
    uint8_t *raw = reinterpret_cast<uint8_t *>(payload->data());
    writeLe64(raw, id);
    writeLe64(raw + 8, seq);
}

void
appendFramedPayload(std::string *out, const std::string &payload)
{
    out->push_back(static_cast<char>(resultFrameMarker));
    appendFrameU32(out, static_cast<uint32_t>(payload.size()));
    out->append(payload);
    appendFrameU64(out, frameChecksum(payload.data(), payload.size()));
}

RunResult
resultFromPayload(const std::string &payload, std::string *blob)
{
    ResultFrame frame;
    std::string error;
    if (!decodeResultFrame(payload, &frame, &error))
        fatal("bad result frame: %s", error.c_str());
    RunResult result = resultFromFrame(frame);
    if (blob)
        *blob = std::move(frame.blob);
    return result;
}

ResultFrame
resultToFrame(const RunResult &result, uint64_t id, uint64_t seq,
              const std::string *blob)
{
    ResultFrame frame;
    frame.id = id;
    frame.seq = seq;
    frame.cached = result.cached;
    frame.fromStore = result.fromStore;
    frame.spec = result.specCanonical.empty()
                     ? result.spec.canonical()
                     : result.specCanonical;
    if (result.spec.mode == SpecMode::Group) {
        frame.hasGroupExtras = true;
        frame.speedup = result.speedup;
        frame.mthOccupation = result.mthOccupation;
        frame.refOccupation = result.refOccupation;
        frame.mthVopc = result.mthVopc;
        frame.refVopc = result.refVopc;
    }
    if (blob) {
        frame.hasBlob = true;
        frame.blob = *blob;
    }
    return frame;
}

RunResult
resultFromFrame(const ResultFrame &frame)
{
    RunResult result;
    result.spec = RunSpec::parse(frame.spec);
    // Keep the wire string: re-encoders (a router's quiet or JSON
    // client) forward it verbatim instead of recanonicalizing.
    result.specCanonical = frame.spec;
    result.cached = frame.cached;
    result.fromStore = frame.fromStore;
    if (frame.hasGroupExtras) {
        result.speedup = frame.speedup;
        result.mthOccupation = frame.mthOccupation;
        result.refOccupation = frame.refOccupation;
        result.mthVopc = frame.mthVopc;
        result.refVopc = frame.refVopc;
    }
    if (frame.hasBlob)
        result.stats = deserializeSimStats(frame.blob);
    return result;
}

Json
sweepRequestToJson(const SweepRequest &request)
{
    Json j = Json::object();
    j.set("family", request.family);
    j.set("scale", request.scale);
    if (!request.program.empty())
        j.set("program", request.program);
    if (request.contexts != 0)
        j.set("contexts", request.contexts);
    if (!request.jobs.empty()) {
        Json jobs = Json::array();
        for (const auto &job : request.jobs)
            jobs.push(job);
        j.set("jobs", std::move(jobs));
    }
    if (!request.latencies.empty()) {
        Json lats = Json::array();
        for (const int lat : request.latencies)
            lats.push(lat);
        j.set("latencies", std::move(lats));
    }
    return j;
}

SweepRequest
sweepRequestFromJson(const Json &request)
{
    SweepRequest out;
    out.family = request.getString("family");
    if (out.family.empty())
        fatal("sweep request names no family");
    out.scale = request.getNumber("scale", workloadDefaultScale);
    out.program = request.getString("program");
    out.contexts =
        static_cast<int>(request.getNumber("contexts", 0));
    if (request.has("jobs")) {
        for (const Json &job : request.get("jobs").asArray())
            out.jobs.push_back(job.asString());
    }
    if (request.has("latencies")) {
        for (const Json &lat : request.get("latencies").asArray())
            out.latencies.push_back(
                static_cast<int>(lat.asNumber()));
    }
    return out;
}

Json
sweepRingToJson(const SweepRing &ring)
{
    Json j = Json::object();
    Json nodes = Json::array();
    for (const std::string &name : ring.nodes)
        nodes.push(name);
    j.set("nodes", std::move(nodes));
    j.set("vnodes", ring.vnodes);
    Json live = Json::array();
    for (const bool alive : ring.live)
        live.push(alive);
    j.set("live", std::move(live));
    j.set("self", static_cast<uint64_t>(ring.self));
    return j;
}

bool
sweepRingFromJson(const Json &json, SweepRing *out, std::string *field,
                  std::string *error)
{
    const auto fail = [field, error](const char *name,
                                     std::string message) {
        *field = name;
        *error = "bad ring: " + std::move(message);
        return false;
    };
    if (json.type() != Json::Type::Object)
        return fail("nodes", "not an object");
    SweepRing ring;

    const Json &nodes = json.get("nodes");
    if (nodes.type() != Json::Type::Array || nodes.asArray().empty())
        return fail("nodes", "no node list");
    if (nodes.asArray().size() > maxRingNodes)
        return fail("nodes", format("more than %zu nodes", maxRingNodes));
    std::unordered_set<std::string> seen;
    for (const Json &name : nodes.asArray()) {
        if (name.type() != Json::Type::String || name.asString().empty())
            return fail("nodes", "empty node name");
        if (!seen.insert(name.asString()).second)
            return fail("nodes",
                        "duplicate node name '" + name.asString() + "'");
        ring.nodes.push_back(name.asString());
    }

    const Json &vnodes = json.get("vnodes");
    const double v = vnodes.type() == Json::Type::Number
                         ? vnodes.asNumber()
                         : 0.0;
    if (v < 1 || v > maxRingVnodes || v != std::floor(v))
        return fail("vnodes", format("vnode count must be an integer "
                                     "in [1, %d]",
                                     maxRingVnodes));
    ring.vnodes = static_cast<int>(v);

    const Json &live = json.get("live");
    if (live.type() != Json::Type::Array ||
        live.asArray().size() != ring.nodes.size())
        return fail("live", "live mask needs one boolean per node");
    for (const Json &alive : live.asArray()) {
        if (alive.type() != Json::Type::Bool)
            return fail("live", "live mask needs one boolean per node");
        ring.live.push_back(alive.asBool());
    }

    const Json &self = json.get("self");
    const double s = self.type() == Json::Type::Number
                         ? self.asNumber()
                         : -1.0;
    if (s < 0 || s >= static_cast<double>(ring.nodes.size()) ||
        s != std::floor(s))
        return fail("self", "self index out of range");
    ring.self = static_cast<size_t>(s);
    if (!ring.live[ring.self])
        return fail("self", "self is not live on the ring");

    *out = std::move(ring);
    return true;
}

Json
sliceToJson(const SweepSlice &slice)
{
    Json j = Json::object();
    j.set("label", slice.label);
    j.set("contexts", slice.contexts);
    j.set("first", static_cast<uint64_t>(slice.first));
    j.set("count", static_cast<uint64_t>(slice.count));
    return j;
}

SweepSlice
sliceFromJson(const Json &json)
{
    SweepSlice slice;
    slice.label = json.getString("label");
    slice.contexts = static_cast<int>(json.getNumber("contexts"));
    slice.first = json.get("first").asU64();
    slice.count = json.get("count").asU64();
    return slice;
}

Json
compareRowToJson(const CompareRow &row)
{
    Json j = Json::object();
    j.set("design", row.design);
    j.set("contexts", row.contexts);
    j.set("ports", row.ports);
    j.set("latency", row.memLatency);
    j.set("cycles", row.cycles);
    j.set("speedup", row.speedup);
    j.set("occupation", row.occupation);
    j.set("vopc", row.vopc);
    return j;
}

CompareRow
compareRowFromJson(const Json &json)
{
    CompareRow row;
    row.design = json.getString("design");
    if (row.design.empty())
        fatal("compare row names no design");
    row.contexts = static_cast<int>(json.getNumber("contexts"));
    row.ports = static_cast<int>(json.getNumber("ports"));
    row.memLatency = static_cast<int>(json.getNumber("latency"));
    row.cycles = json.get("cycles").asU64();
    row.speedup = json.getNumber("speedup");
    row.occupation = json.getNumber("occupation");
    row.vopc = json.getNumber("vopc");
    return row;
}

Json
engineStatsToJson(const ExperimentEngine &engine)
{
    Json j = Json::object();
    j.set("size", static_cast<uint64_t>(engine.cacheSize()));
    j.set("capacity", static_cast<uint64_t>(engine.maxCacheEntries()));
    j.set("hits", engine.cacheHits());
    j.set("misses", engine.cacheMisses());
    j.set("storeHits", engine.storeHits());
    j.set("evictions", engine.cacheEvictions());
    j.set("uncached", engine.uncachedRuns());
    j.set("queueDepth", static_cast<uint64_t>(engine.queueDepth()));
    j.set("cancelled", engine.cancelledRuns());
    j.set("discarded", engine.discardedTasks());
    return j;
}

Json
storeStatsToJson(const ResultStore &store)
{
    const ResultStore::Stats s = store.stats();
    Json j = Json::object();
    j.set("directory", store.directory());
    j.set("records", static_cast<uint64_t>(store.size()));
    j.set("shards", static_cast<uint64_t>(s.shards));
    j.set("segments", static_cast<uint64_t>(s.segments));
    j.set("staleSegments", static_cast<uint64_t>(s.staleSegments));
    j.set("badSegments", static_cast<uint64_t>(s.badSegments));
    j.set("loadedRecords", s.loadedRecords);
    j.set("droppedRecords", s.droppedRecords);
    j.set("appends", s.appends);
    j.set("hits", s.hits);
    j.set("misses", s.misses);
    return j;
}

Json
metricsToJson(const MetricsSnapshot &snapshot)
{
    Json counters = Json::object();
    for (const auto &kv : snapshot.counters)
        counters.set(kv.first, kv.second);
    Json gauges = Json::object();
    for (const auto &kv : snapshot.gauges)
        gauges.set(kv.first, static_cast<double>(kv.second));
    Json histograms = Json::object();
    for (const HistogramSnapshot &h : snapshot.histograms) {
        Json hist = Json::object();
        hist.set("count", h.count);
        hist.set("sum", h.sum);
        hist.set("p50", h.quantile(0.50));
        hist.set("p95", h.quantile(0.95));
        hist.set("p99", h.quantile(0.99));
        Json bounds = Json::array();
        for (const uint64_t b : h.bounds)
            bounds.push(b);
        hist.set("bounds", std::move(bounds));
        Json counts = Json::array();
        for (const uint64_t c : h.counts)
            counts.push(c);
        hist.set("counts", std::move(counts));
        histograms.set(h.name, std::move(hist));
    }
    Json j = Json::object();
    j.set("counters", std::move(counters));
    j.set("gauges", std::move(gauges));
    j.set("histograms", std::move(histograms));
    return j;
}

LineChannel::LineChannel(int fd) : fd_(fd) {}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::fillMore()
{
    char chunk[65536];
    for (;;) {
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;  // EOF or error
        buffer_.append(chunk, static_cast<size_t>(got));
        bytesRead_ += static_cast<uint64_t>(got);
        return true;
    }
}

void
LineChannel::consume(size_t n)
{
    head_ += n;
    if (head_ == buffer_.size()) {
        buffer_.clear();
        head_ = 0;
    } else if (head_ >= 4u * 1024 * 1024) {
        // Bound memory when the peer outruns the parser for a long
        // stretch: reclaim the parsed prefix in one move.
        buffer_.erase(0, head_);
        head_ = 0;
    }
    searchPos_ = head_;
}

bool
LineChannel::readLine(std::string *line)
{
    for (;;) {
        // Scan only bytes not examined on previous iterations, so a
        // line arriving in many chunks costs linear, not quadratic,
        // work.
        const size_t newline = buffer_.find('\n', searchPos_);
        if (newline != std::string::npos) {
            line->assign(buffer_, head_, newline - head_);
            consume(newline + 1 - head_);
            return true;
        }
        searchPos_ = buffer_.size();
        if (buffer_.size() - head_ > maxLineBytes) {
            warn("service: dropping connection with a %zu-byte "
                 "unterminated line",
                 buffer_.size() - head_);
            return false;
        }
        if (!fillMore())
            return false;
    }
}

LineChannel::MessageKind
LineChannel::readMessage(std::string *out)
{
    while (head_ == buffer_.size()) {
        if (!fillMore())
            return MessageKind::Eof;
    }
    if (static_cast<uint8_t>(buffer_[head_]) != resultFrameMarker) {
        return readLine(out) ? MessageKind::Line : MessageKind::Eof;
    }
    // A frame. EOF from here on is a SHORT READ — the peer vanished
    // (or lied) mid-frame — which is a framing error, not a clean
    // close.
    while (buffer_.size() - head_ < frameHeaderBytes) {
        if (!fillMore())
            return MessageKind::BadFrame;
    }
    const uint32_t payloadLen = readLe32(
        reinterpret_cast<const uint8_t *>(buffer_.data()) + head_ +
        1);
    if (payloadLen > maxLineBytes) {
        warn("service: frame claims a %u-byte payload; framing lost",
             payloadLen);
        return MessageKind::BadFrame;
    }
    const size_t total =
        frameHeaderBytes + payloadLen + frameTrailerBytes;
    while (buffer_.size() - head_ < total) {
        if (!fillMore())
            return MessageKind::BadFrame;
    }
    const char *payload = buffer_.data() + head_ + frameHeaderBytes;
    const uint64_t want = readLe64(
        reinterpret_cast<const uint8_t *>(payload) + payloadLen);
    if (frameChecksum(payload, payloadLen) != want) {
        warn("service: frame checksum mismatch; framing lost");
        return MessageKind::BadFrame;
    }
    out->assign(payload, payloadLen);
    consume(total);
    return MessageKind::Frame;
}

bool
LineChannel::writeBytes(const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
        bytesWritten_ += static_cast<uint64_t>(n);
    }
    return true;
}

bool
LineChannel::writeLine(const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    return writeBytes(framed);
}

namespace
{

/** getaddrinfo over the endpoint's host/port, SOCK_STREAM. Returns
 *  null (with @p error set) on resolution failure. */
addrinfo *
resolveTcp(const Endpoint &endpoint, bool passive, std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (passive)
        hints.ai_flags = AI_PASSIVE;
    const std::string port = std::to_string(endpoint.port);
    addrinfo *info = nullptr;
    const int rc = ::getaddrinfo(endpoint.host.c_str(), port.c_str(),
                                 &hints, &info);
    if (rc != 0) {
        if (error) {
            *error = endpoint.describe() + ": " + ::gai_strerror(rc);
        }
        return nullptr;
    }
    return info;
}

/** Disable Nagle on a connected/accepted TCP socket: the protocol
 *  exchanges small request lines and a 40ms coalescing delay per
 *  round trip would dominate every ping/ack. */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** Bound every blocking connect, send and recv on @p fd (no-op for
 *  @p timeoutMs <= 0). */
void
setTimeouts(int fd, int timeoutMs)
{
    if (timeoutMs <= 0)
        return;
    timeval tv{};
    tv.tv_sec = timeoutMs / 1000;
    tv.tv_usec = (timeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

int
connectTcp(const Endpoint &endpoint, std::string *error, int timeoutMs)
{
    addrinfo *info = resolveTcp(endpoint, /*passive=*/false, error);
    if (!info)
        return -1;
    int fd = -1;
    int lastErrno = ECONNREFUSED;
    for (addrinfo *ai = info; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        setTimeouts(fd, timeoutMs);
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        lastErrno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(info);
    if (fd < 0) {
        if (error) {
            *error = endpoint.describe() + ": " +
                     std::strerror(lastErrno) +
                     " (is mtvd running?)";
        }
        return -1;
    }
    setNoDelay(fd);
    return fd;
}

int
connectUnix(const std::string &socketPath, std::string *error,
            int timeoutMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + socketPath;
        return -1;
    }
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::strerror(errno);
        return -1;
    }
    setTimeouts(fd, timeoutMs);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error) {
            *error = socketPath + ": " + std::strerror(errno) +
                     " (is mtvd running?)";
        }
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

int
connectToDaemon(const std::string &socketPath, std::string *error)
{
    return connectUnix(socketPath, error, 0);
}

int
connectToEndpoint(const Endpoint &endpoint, std::string *error,
                  int timeoutMs)
{
    if (endpoint.kind == Endpoint::Kind::Unix)
        return connectUnix(endpoint.path, error, timeoutMs);
    return connectTcp(endpoint, error, timeoutMs);
}

int
listenOnEndpoint(const Endpoint &endpoint, Endpoint *bound,
                 int backlog)
{
    if (bound)
        *bound = endpoint;

    if (endpoint.kind == Endpoint::Kind::Unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (endpoint.path.size() >= sizeof(addr.sun_path)) {
            fatal("socket path too long (%zu bytes): %s",
                  endpoint.path.size(), endpoint.path.c_str());
        }
        std::strncpy(addr.sun_path, endpoint.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            fatal("cannot create server socket: %s",
                  std::strerror(errno));
        }
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            fatal("cannot bind '%s': %s", endpoint.path.c_str(),
                  std::strerror(errno));
        }
        if (::listen(fd, backlog) != 0) {
            fatal("cannot listen on '%s': %s", endpoint.path.c_str(),
                  std::strerror(errno));
        }
        return fd;
    }

    std::string error;
    addrinfo *info = resolveTcp(endpoint, /*passive=*/true, &error);
    if (!info)
        fatal("cannot resolve %s", error.c_str());
    int fd = -1;
    std::string lastError = "no usable address";
    for (addrinfo *ai = info; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0) {
            lastError = std::strerror(errno);
            continue;
        }
        // Restarting a node must not wait out TIME_WAIT of its own
        // previous life (the fleet failover scenario restarts nodes
        // on their old ports).
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0) {
            break;
        }
        lastError = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(info);
    if (fd < 0) {
        fatal("cannot listen on %s: %s", endpoint.describe().c_str(),
              lastError.c_str());
    }
    if (bound) {
        // Report the kernel-chosen port of an ephemeral (port 0)
        // bind, so tests and smoke scripts get collision-free ports.
        sockaddr_storage addr{};
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0) {
            if (addr.ss_family == AF_INET) {
                bound->port = ntohs(
                    reinterpret_cast<sockaddr_in *>(&addr)->sin_port);
            } else if (addr.ss_family == AF_INET6) {
                bound->port = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&addr)
                        ->sin6_port);
            }
        }
    }
    return fd;
}

} // namespace mtv
