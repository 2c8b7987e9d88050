/**
 * @file
 * The benchmark's protocol client: one connection negotiated to the
 * binary result wire with `hello` (as mtvctl does), streaming sweeps
 * and single-point runs while checking every result it receives.
 *
 * Checks per stream: no error line, an unbroken stream ending in a
 * `done` line, every announced point present, and the FNV-1a fold of
 * the received blobs equal to the `done` line's digest.
 */

#ifndef MTVBENCH_CLIENT_HH
#define MTVBENCH_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/service/json.hh"
#include "src/service/protocol.hh"

namespace bench
{

/** FNV-1a offset basis: the empty digest. */
constexpr uint64_t digestSeed = 0xcbf29ce484222325ull;

/** What to keep from a stream beyond its counts and digest. */
struct StreamOptions
{
    /** Keep every received blob (in-process byte comparison). */
    bool keepBlobs = false;
    /** Time frame decoding and socket reads (traced runs only). */
    bool traced = false;
    /** The time the request was due; 0 = when it is sent. */
    double slotS = 0;
    /** Stop reading after this many points (0 = read to `done`);
     *  the caller then drops the connection. */
    uint64_t stopAfter = 0;
};

/** One streamed request, as the client saw it. */
struct StreamResult
{
    bool ok = false;
    std::string error;
    /** Points announced by the ack (sweeps) or requested (runs). */
    uint64_t expected = 0;
    uint64_t points = 0;
    /** FNV-1a over the received blobs, in arrival order. */
    uint64_t digest = digestSeed;
    /** The `done` line's server-side digest (0 when absent). */
    uint64_t serverDigest = 0;
    bool cancelled = false;
    /** Clock readings (nowS()): due, sent, first point, done. */
    double slotS = 0;
    double sentS = 0;
    double firstPointS = 0;
    double doneS = 0;
    /** Arrival time of every point (nowS()). */
    std::vector<double> arrivalS;
    /** Received blobs (StreamOptions::keepBlobs). */
    std::vector<std::string> blobs;
    /** Traced spans: frame decode + digest fold, and time blocked in
     *  LineChannel::readMessage(), in seconds. */
    double decodeS = 0;
    double readWaitS = 0;
};

class Client
{
  public:
    /**
     * Connect to the daemon at @p socket and negotiate the binary
     * result wire. Null (with @p error set) when either fails.
     */
    static std::unique_ptr<Client> connect(const std::string &socket,
                                           std::string *error);

    /** Stream a named sweep. */
    StreamResult sweep(const mtv::SweepRequest &request, uint64_t id,
                       bool quiet, const StreamOptions &options = {});

    /** Send a sweep request without reading its stream (the caller
     *  reads it with readStream()). */
    bool sendSweep(const mtv::SweepRequest &request, uint64_t id,
                   bool quiet);

    /** Run explicit specs (the per-request `run` op path). */
    StreamResult run(const std::vector<mtv::RunSpec> &specs,
                     uint64_t id, const StreamOptions &options = {});

    /**
     * Read one request's stream to its `done` line. @p onPoint, when
     * set, is called at every point arrival (background counting).
     */
    StreamResult
    readStream(uint64_t id, bool quiet, const StreamOptions &options,
               const std::function<void(double)> &onPoint = nullptr);

    /** One request/response control exchange (`metrics`, `cancel`,
     *  ...). False when the connection broke or the answer is not a
     *  JSON object without an "error" member. */
    bool control(const mtv::Json &request, mtv::Json *response);

  private:
    explicit Client(int fd) : channel_(fd) {}

    mtv::LineChannel channel_;
};

/** Fold @p blob into @p digest (the protocol's digest rule). */
uint64_t foldDigest(uint64_t digest, const std::string &blob);

/** Parse a 16-hex-digit digest; 0 on malformed input. */
uint64_t parseDigest(const std::string &hex);

/** Format a digest the way `done` lines do. */
std::string formatDigest(uint64_t digest);

} // namespace bench

#endif // MTVBENCH_CLIENT_HH
