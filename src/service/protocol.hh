/**
 * @file
 * The mtvd wire protocol: newline-delimited JSON objects over a
 * stream socket. Since v2 the protocol is *multiplexed and
 * streaming*: a client tags each batch request with an `id`, may keep
 * several requests in flight on one connection, and receives each
 * point's result as a separate id-tagged line as it completes.
 *
 * Requests (client -> server):
 *   {"op":"ping"}
 *   {"op":"run","id":n,"specs":["<RunSpec::canonical()>",...],
 *    "quiet":b}
 *   {"op":"sweep","id":n,"family":"<name>","scale":g,"quiet":b,
 *    "program":"...","contexts":n,"jobs":[...],"latencies":[...],
 *    "points":[i,...] | "ring":{...}}
 *     — a named sweep family (see sweepFamilies()), expanded
 *     *server-side*: the client sends ~100 bytes naming the sweep
 *     instead of megabytes of expanded specs. Family-specific fields
 *     beyond "family" and "scale" are optional. "points" or "ring"
 *     selects a subset of the expansion — the fleet scatter path
 *     (src/fleet/). "ring" (SweepRing) is a router's first round:
 *     the node streams the points whose canonical spec the ring
 *     assigns it (its ack then has "total" but no "count"; a
 *     malformed ring answers a structured "badRing" error).
 *     "points" names global indices explicitly — a reroute round —
 *     and must be strictly ascending and in range (otherwise a
 *     structured "badPoints" error). Either way the connection is
 *     kept on error, the subset streams in ascending global order
 *     (the router's bounded relay relies on it) with seq = the
 *     global index, and the ack echoes the full expansion size as
 *     "total", so the router folds one fleet-wide digest in global
 *     submission order.
 *   {"op":"compare","id":n,"family":"<name>","scale":g,
 *    "program":"...","contexts":n,"jobs":[...],"latencies":[...]}
 *     — v5: cross-design comparison. The daemon expands the family,
 *     runs every point (same engine path as a sweep, identical
 *     caching/coalescing), then pairs every slice row-wise against
 *     slice 0 (the baseline design) via compareDesigns() and answers
 *     with ONE aggregated line instead of a result stream — the
 *     table is the product, not the points. Only design-parallel
 *     families (every slice the same row count — all ext-* families
 *     qualify; suite-grouping does not) are comparable; others get a
 *     protocol error.
 *   {"op":"stats"}
 *   {"op":"status"}
 *     — request-lifecycle snapshot: engine queue depth, per-
 *     connection in-flight batch counts, cancelled/reaped counters,
 *     per-lane queue depths ("lanes") and, when a store is attached,
 *     per-shard append/hit/recovery counts ("shards").
 *   {"op":"metrics","prom":b}
 *     — v4: full dump of the process metrics registry (src/obs/):
 *     {"ok":true,"metrics":{"counters":{name:v,...},
 *      "gauges":{name:v,...},"histograms":{name:{"count":c,"sum":s,
 *      "p50":x,"p95":x,"p99":x,"bounds":[...],"counts":[...]}}}}
 *     (histogram "counts" has one entry per bound plus a final
 *     overflow bucket). With "prom":true the response additionally
 *     carries "prom": the Prometheus text exposition as one string.
 *     Against a routing daemon (mtvd --route) the op fans out:
 *     {"ok":true,"fleet":true,"router":{...own registry...},
 *      "nodes":[{"endpoint":e,"ok":true,"metrics":{...}} |
 *               {"endpoint":e,"ok":false,"error":m},...],
 *      "totals":{counter name: sum over reachable nodes}}.
 *   {"op":"cancel","id":n}
 *     — cancel every in-flight batch tagged with request id n, on
 *     ANY connection (cancellation is cooperative: queued points are
 *     skipped, points already simulating finish and stay cached).
 *   {"op":"hello","wire":"json"|"binary"}
 *     — v6: per-connection content negotiation. The answer
 *     {"ok":true,"hello":true,"wire":w,"protocol":6,"registry":h}
 *     confirms the wire format this connection's streamed RESULT
 *     POINTS will use from then on; h is sweepRegistryHash() in hex,
 *     which a fleet router requires to match its own. "binary" switches result lines to length-
 *     prefixed canonical SimStats frames (see ResultFrame below);
 *     every control message (requests, acks, done lines, errors,
 *     compare answers) stays a JSON line in either mode. A client
 *     that never sends hello gets pure v5-style JSON — old clients
 *     keep working unchanged. An unknown "wire" value answers an
 *     error and leaves the connection on JSON.
 *   {"op":"clear"}
 *   {"op":"shutdown"}
 *
 * Responses (server -> client). Lines for *different* request ids
 * interleave arbitrarily; lines for one id arrive in submission
 * order, numbered by "seq":
 *   sweep ack (first line of a sweep response — the expansion's
 *     shape, so the client can track progress and map results back
 *     to figure bars):
 *       {"id":n,"ack":true,"count":c,
 *        "slices":[{"label":s,"contexts":k,"first":i,"count":m},...]}
 *   run / sweep result, one line per spec as results finish:
 *       {"id":n,"seq":i,"spec":"...","cached":b,"store":b,
 *        "cycles":x,"dispatches":x,"speedup":x,...,"blob":"<hex>"}
 *     ("blob" is the full hex-encoded serializeSimStats() record and
 *     is omitted for quiet requests). On a connection negotiated to
 *     wire=binary the same points arrive as ResultFrame frames
 *     instead — raw canonical blob bytes, no hex, no JSON — and the
 *     two encodings fold to bit-identical digests. Then a terminator
 *       {"id":n,"done":true,"count":c,"simulated":a,"cacheServed":b,
 *        "storeServed":c2,"digest":"<16 hex>"}
 *     where "digest" is FNV-1a folded over the canonical stats blobs
 *     in submission order — computed server-side, so even quiet
 *     requests get the bit-identity check. A batch ended by a
 *     "cancel" op terminates with a cancelled done line instead:
 *       {"id":n,"done":true,"cancelled":true,"count":c,
 *        "completed":k} (k results were delivered before the cancel
 *     took effect; no digest — the stream is deliberately partial).
 *   compare: one aggregated line
 *       {"id":n,"ok":true,"compare":true,"family":"...","count":c,
 *        "baseline":"<slice 0 label>","digest":"<16 hex>",
 *        "simulated":a,"cacheServed":b,"storeServed":c2,
 *        "rows":[{"design":s,"contexts":k,"ports":p,"latency":l,
 *                 "cycles":x,"speedup":g,"occupation":g,
 *                 "vopc":g},...]}
 *     ("digest" folds the underlying expansion's stats blobs in
 *     submission order, exactly as the equivalent sweep would — so a
 *     compare against a daemon, a fleet and --local can be checked
 *     for bit-identity).
 *   ping / stats / status / cancel / clear / shutdown: one
 *     {"ok":true,...} object. "cancel" reports how many batches it
 *     hit: {"ok":true,"cancelled":k}. "status" reports
 *     {"ok":true,"queueDepth":q,"activeRequests":a,
 *      "completedPoints":p,"pointsInFlight":f,
 *      "counters":{"cancelledBatches":...,
 *      "reapedBatches":...,"cancelledPoints":...,
 *      "discardedPoints":...,"unsubmittedPoints":...},
 *      "connections":[{"client":c,"inflight":k,"requests":[n,...]}]}
 *     (connections lists only clients with batches in flight).
 *   any error: {"error":"message","id":n?} (the connection stays
 *     open; "id" is present when the error belongs to one request).
 *
 * Request lifecycle: every admitted batch carries a CancelToken. The
 * daemon reaps a connection's tokens the moment its peer vanishes —
 * a write fails (sticky writeFailed) or the socket closes — and
 * drops the connection's queued engine work, so abandoned sweeps
 * free their worker slots instead of simulating for nobody. Each
 * connection schedules on its own engine lane, drained weighted
 * round-robin, so a huge sweep cannot head-of-line-block another
 * client's interactive run.
 *
 * Backpressure: a connection may have at most
 * maxInflightRequestsPerConnection batch requests streaming; the
 * server stops reading further requests until a slot frees, which
 * pushes back through the socket's receive buffer. Each batch keeps
 * at most streamWindowPoints points submitted ahead of its write
 * cursor, so a slow reader throttles its own sweeps and daemon
 * memory holds a window of results, not the sweep.
 *
 * Identical specs submitted concurrently — by one request, several
 * in-flight sweeps, or many clients — coalesce onto a single
 * simulation inside the engine.
 */

#ifndef MTV_SERVICE_PROTOCOL_HH
#define MTV_SERVICE_PROTOCOL_HH

#include <string>
#include <string_view>
#include <vector>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/service/json.hh"
#include "src/store/result_store.hh"

namespace mtv
{

/** Protocol revision spoken by this build (bump on changes). */
constexpr int serviceProtocolVersion = 6;

/** Batch requests one connection may keep streaming concurrently;
 *  further requests are not read until a slot frees (backpressure). */
constexpr int maxInflightRequestsPerConnection = 8;

/** A streaming writer (a daemon's batch, a router's relay) coalesces
 *  encoded points into one write while the next point is already
 *  ready, up to this many bytes. */
constexpr size_t streamOutboxBytes = 256u * 1024;

/**
 * The streaming window, in points. A daemon's batch keeps at most
 * this many points submitted to the engine ahead of its write cursor
 * and refills in one go once half of them are written; a router's
 * node reader stops reading once this many of its payloads wait for
 * the relay. It covers one full outbox (~145 non-quiet points) and
 * every figure family (at most 250 points), so neither is ever cut
 * short.
 */
constexpr size_t streamWindowPoints = 256;

/** Wire format of a connection's streamed result points (v6). The
 *  default — and the only format v5 clients ever see — is Json. */
enum class WireFormat : uint8_t
{
    Json,
    Binary
};

/**
 * First byte of every binary result frame. Deliberately NOT a byte a
 * JSON line can start with ('{' is 0x7b), so a reader can tell the
 * two apart by peeking one byte: frames and JSON control lines
 * interleave on the same stream.
 */
constexpr uint8_t resultFrameMarker = 0xBF;

/**
 * One streamed result point on a wire=binary connection — the binary
 * twin of a resultToJson() line. On the wire:
 *
 *     [0xBF][u32 payloadLen][payload][u64 frameChecksum(payload)]
 *
 * (all integers little-endian; no trailing newline). Payload layout:
 *
 *     u64 id | u64 seq | u8 flags | u32 specLen | spec bytes
 *     | 5 x u64 group-metric doubles (bit patterns, iff flags bit 2)
 *     | u32 blobLen | blob bytes
 *
 * flags: bit 0 = cached, bit 1 = fromStore, bit 2 = group extras
 * present (SpecMode::Group points), bit 3 = blob present (quiet
 * requests stream blobLen=0 frames). The blob is the canonical
 * serializeSimStats() record, byte-for-byte the digest fold input —
 * a store hit streams its stored bytes without re-encoding.
 */
struct ResultFrame
{
    uint64_t id = 0;
    uint64_t seq = 0;
    bool cached = false;
    bool fromStore = false;
    /** SpecMode::Group extras (speedup etc.) are carried. */
    bool hasGroupExtras = false;
    /** False on quiet streams (digest comes from the done line). */
    bool hasBlob = false;
    std::string spec;  ///< RunSpec::canonical()
    double speedup = 0.0;
    double mthOccupation = 0.0;
    double refOccupation = 0.0;
    double mthVopc = 0.0;
    double refVopc = 0.0;
    /** Canonical serializeSimStats() bytes (empty when !hasBlob). */
    std::string blob;
};

/**
 * The frame trailer checksum: FNV-1a folded over little-endian
 * 64-bit words (trailing bytes zero-padded into a final word), with
 * the length mixed in last. Word-wise instead of the store digest's
 * byte-wise FNV because the trailer is computed AND verified for
 * every streamed point — at streaming rates the byte loop costs
 * more than the rest of the encoder. Guards transport framing only;
 * the cross-transport digest contract stays byte-wise fnv1a64 over
 * the blobs.
 */
uint64_t frameChecksum(const void *data, size_t size);

/** Encode a frame to its full wire bytes (marker, length prefix,
 *  payload, checksum). */
std::string encodeResultFrame(const ResultFrame &frame);

/**
 * Decode a frame *payload* (the bytes LineChannel::readMessage()
 * returns for MessageKind::Frame — marker, length and checksum
 * already stripped and verified). Returns false with @p error set on
 * a malformed payload (truncated field, trailing garbage).
 */
bool decodeResultFrame(const std::string &payload, ResultFrame *out,
                       std::string *error);

/**
 * The fields of a frame payload as views into it — what a relay
 * needs to check and forward a point without copying or decoding the
 * spec and the stats. Valid only while the payload string lives
 * unchanged.
 */
struct ResultFrameView
{
    uint64_t id = 0;
    uint64_t seq = 0;
    bool cached = false;
    bool fromStore = false;
    bool hasGroupExtras = false;
    bool hasBlob = false;
    std::string_view spec;
    double speedup = 0.0;
    double mthOccupation = 0.0;
    double refOccupation = 0.0;
    double mthVopc = 0.0;
    double refVopc = 0.0;
    std::string_view blob;
};

/** Parse a frame payload in place, with decodeResultFrame()'s
 *  rules; false with @p error set on a malformed payload. */
bool viewResultFrame(const std::string &payload, ResultFrameView *out,
                     std::string *error);

/** Overwrite a payload's leading id and seq words — how a router
 *  renumbers a node's subset seq into its client's global seq. */
void setResultFrameHeader(std::string *payload, uint64_t id,
                          uint64_t seq);

/** Append @p payload's full wire frame to @p out: marker, length
 *  prefix, payload, frameChecksum() trailer. */
void appendFramedPayload(std::string *out, const std::string &payload);

/**
 * Decode a frame payload all the way to a RunResult — the one path
 * for a relay's consumers that want results rather than bytes
 * (compare, `mtvctl --fleet`, a JSON-wire or quiet router client).
 * @p blob, if non-null, receives the raw blob. fatal()s on a
 * malformed payload or blob.
 */
RunResult resultFromPayload(const std::string &payload,
                            std::string *blob = nullptr);

/** Build the frame for one result (the binary twin of
 *  resultToJson()). @p blob carries the canonical stats bytes, or
 *  null for a quiet stream. */
ResultFrame resultToFrame(const RunResult &result, uint64_t id,
                          uint64_t seq, const std::string *blob);

/**
 * Append one result's full wire frame to @p out in a single pass —
 * the streaming hot path's encoder. Byte-identical to appending
 * encodeResultFrame(resultToFrame(result, id, seq, blob)), without
 * the intermediate ResultFrame or the payload/wire copies.
 */
void appendResultFrame(std::string *out, const RunResult &result,
                       uint64_t id, uint64_t seq,
                       const std::string *blob);

/** Decode a frame into a RunResult (stats decoded from the blob when
 *  present). fatal()s on a malformed embedded blob. */
RunResult resultFromFrame(const ResultFrame &frame);

/** Default daemon socket path (overridden by --socket / MTV_SOCKET). */
const char *defaultSocketPath();

/**
 * Where a daemon listens (or a client connects): a unix socket path
 * or a TCP host:port. Both speak the identical newline-delimited
 * protocol framing — TCP exists so mtvd nodes can form a fleet
 * across machines (src/fleet/).
 */
struct Endpoint
{
    enum class Kind : uint8_t
    {
        Unix,
        Tcp
    };

    Kind kind = Kind::Unix;
    /** Unix: the socket path. */
    std::string path;
    /** Tcp: host (name or literal) and port (0 = ephemeral bind,
     *  tests only — parseEndpoint() rejects it). */
    std::string host;
    int port = 0;

    static Endpoint unixSocket(std::string socketPath);
    static Endpoint tcp(std::string host, int port);

    /** Human-readable form: the path, or "host:port". */
    std::string describe() const;

    /** The mtvd invocation that would serve this endpoint — for
     *  actionable "daemon not running" messages. */
    std::string startHint() const;
};

/**
 * Parse an endpoint string (fleet node lists, --route): text with a
 * ':' is TCP "HOST:PORT" — parsed strictly via parseHostPort(), so
 * "host:abc" fatal()s instead of degrading to a unix path — anything
 * else is a unix socket path.
 */
Endpoint parseEndpoint(const std::string &text);

/**
 * One result line of a streamed response. @p includeBlob attaches the
 * hex serializeSimStats() blob (lossless; JSON numbers alone could
 * not round-trip 64-bit counters); a caller that already serialized
 * the stats (the daemon folds the digest over the same bytes) passes
 * them as @p serialized to skip re-encoding.
 */
Json resultToJson(const RunResult &result, uint64_t id, size_t seq,
                  bool includeBlob,
                  const std::string *serialized = nullptr);

/**
 * Inverse of resultToJson(): decode one streamed result line. When
 * the line carries a blob, the stats are decoded losslessly from it
 * and @p blob (if non-null) receives the raw blob bytes — the digest
 * fold input. fatal()s on malformed lines.
 */
RunResult resultFromJson(const Json &line, std::string *blob = nullptr);

/** Encode a named-sweep request ("op","id","quiet" added by caller). */
Json sweepRequestToJson(const SweepRequest &request);

/** Decode the family fields of a sweep request line. fatal()s on
 *  malformed fields (the daemon answers that as a protocol error). */
SweepRequest sweepRequestFromJson(const Json &request);

/**
 * The "ring" member of an owner-computes sweep request: the fleet's
 * consistent-hash ring as the router saw it when the scatter round
 * started, plus the receiving node's own place on it. The node builds
 * the identical HashRing (src/fleet/ring.hh) and streams exactly the
 * points whose canonical key that ring assigns to node @c self.
 */
struct SweepRing
{
    /** Ring identities (endpoint texts), in the router's order. */
    std::vector<std::string> nodes;
    /** Virtual points per node. */
    int vnodes = 0;
    /** Per node: still on the ring. */
    std::vector<bool> live;
    /** The receiving node's index into nodes (must be live). */
    size_t self = 0;
};

/** Bounds a node enforces on a "ring" (its ring holds nodes x vnodes
 *  points). */
constexpr size_t maxRingNodes = 4096;
constexpr int maxRingVnodes = 4096;

Json sweepRingToJson(const SweepRing &ring);

/**
 * Decode and validate a "ring" member. Returns false, with @p field
 * naming the offending member ("nodes", "vnodes", "live" or "self")
 * and @p error saying what is wrong, for: a missing or empty node
 * list, an empty or duplicate name, a vnode count outside
 * [1, maxRingVnodes], a live mask that is not one boolean per node,
 * or a self index that is out of range or not live. Never fatal()s.
 */
bool sweepRingFromJson(const Json &json, SweepRing *out,
                       std::string *field, std::string *error);

/** One slice of a sweep ack line. */
Json sliceToJson(const SweepSlice &slice);

/** Inverse of sliceToJson(). */
SweepSlice sliceFromJson(const Json &json);

/** One row of a compare response's "rows" array. */
Json compareRowToJson(const CompareRow &row);

/** Inverse of compareRowToJson(). fatal()s on malformed rows. */
CompareRow compareRowFromJson(const Json &json);

/** Engine counters as the "cache" member of a stats response. */
Json engineStatsToJson(const ExperimentEngine &engine);

/** Store counters as the "store" member of a stats response. */
Json storeStatsToJson(const ResultStore &store);

/**
 * A registry snapshot as the "metrics" member of a metrics response:
 * counters/gauges keyed by full metric name (labels embedded),
 * histograms with count/sum, p50/p95/p99 readout and the raw
 * bounds/counts arrays (counts includes the final overflow bucket).
 */
Json metricsToJson(const MetricsSnapshot &snapshot);

/**
 * Buffered line IO over a connected stream socket — the framing layer
 * both ends of the protocol share. Not thread-safe; writers on
 * several threads must serialize (the server wraps writes in a
 * per-connection mutex).
 */
class LineChannel
{
  public:
    /** Takes ownership of connected socket @p fd. */
    explicit LineChannel(int fd);
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /** What readMessage() pulled off the stream. */
    enum class MessageKind : uint8_t
    {
        Line,     ///< a JSON line (newline stripped)
        Frame,    ///< a binary result frame (payload, verified)
        Eof,      ///< clean EOF / transport error between messages
        BadFrame  ///< malformed frame: bad length, checksum
                  ///< mismatch, or EOF mid-frame (short read)
    };

    /**
     * Read one newline-terminated line (the newline is stripped).
     * Returns false on EOF or error. Lines over 64 MiB abort the
     * connection (a stream that long is not a protocol message).
     */
    bool readLine(std::string *line);

    /**
     * Read the next message of a v6 stream, whichever kind it is: a
     * peek at the first byte dispatches between a JSON line (any
     * byte but the frame marker) and a binary result frame. For
     * Frame, @p out receives the verified payload (feed it to
     * decodeResultFrame()); for Line, the line. BadFrame means the
     * stream is unrecoverable (framing lost) — close the connection.
     */
    MessageKind readMessage(std::string *out);

    /** Write @p line plus a newline; false on error (peer gone). */
    bool writeLine(const std::string &line);

    /** Write raw bytes as-is (frame writes — no newline added);
     *  false on error (peer gone). */
    bool writeBytes(const std::string &bytes);

    /** The underlying file descriptor (for poll/shutdown). */
    int fd() const { return fd_; }

    /** Total bytes received / sent over this channel — the
     *  service_bytes_* counters' and MB/s readouts' source. */
    uint64_t bytesRead() const { return bytesRead_; }
    uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    /** recv() one more chunk into buffer_; false on EOF/error. */
    bool fillMore();

    /**
     * Retire @p n parsed bytes by advancing head_ instead of
     * erasing: an erase memmoves every byte still buffered, which
     * at streaming rates (tens of messages per recv chunk) costs
     * more than the messages themselves. The prefix is reclaimed
     * in one move when the buffer drains or head_ grows large.
     */
    void consume(size_t n);

    int fd_ = -1;
    std::string buffer_;
    /** Bytes of buffer_ already parsed and handed out. */
    size_t head_ = 0;
    /** First buffer_ position not yet scanned for '\n'. */
    size_t searchPos_ = 0;
    uint64_t bytesRead_ = 0;
    uint64_t bytesWritten_ = 0;
};

/**
 * Connect to the daemon at @p socketPath. Returns the connected fd or
 * -1 (with @p error set) when the daemon is not reachable.
 */
int connectToDaemon(const std::string &socketPath, std::string *error);

/**
 * Connect to a daemon endpoint of either kind. TCP connections get
 * TCP_NODELAY (the protocol is small request lines; Nagle would add
 * 40ms stalls to every ping). @p timeoutMs > 0 bounds the connect
 * and every later send and receive on the socket: one that waits
 * longer fails with errno EAGAIN, like a lost connection. Returns the
 * connected fd or -1 (with @p error set).
 */
int connectToEndpoint(const Endpoint &endpoint, std::string *error,
                      int timeoutMs = 0);

/**
 * Bound every later blocking send and receive on @p fd by
 * @p timeoutMs, as connectToEndpoint() does; 0 lifts the bound.
 */
void setSocketTimeouts(int fd, int timeoutMs);

/**
 * Bind + listen on @p endpoint. fatal()s when the address is
 * unusable. For TCP, @p endpoint.port may be 0 (ephemeral); the
 * returned Endpoint carries the actually-bound port — how tests and
 * the fleet smoke script get collision-free ports. @p backlog is the
 * listen(2) queue. The unix-socket variant does NOT unlink or probe
 * the path; MtvService owns that policy.
 */
int listenOnEndpoint(const Endpoint &endpoint, Endpoint *bound,
                     int backlog = 64);

} // namespace mtv

#endif // MTV_SERVICE_PROTOCOL_HH
