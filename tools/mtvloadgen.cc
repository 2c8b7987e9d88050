/**
 * @file
 * mtvloadgen — closed-loop load generator for the mtvd daemon.
 *
 * Drives N concurrent client connections, each issuing single-point
 * interactive "run" requests back-to-back (closed loop) or paced to
 * a target aggregate request rate (--rps), optionally while a big
 * quiet background sweep streams on its own connection — the
 * interactive-latency-under-load scenario the engine's weighted
 * lane scheduling exists for. Prints a latency report (exact
 * percentiles over every measured request) and, with --json, one
 * machine-readable line the CI loadgen-smoke job parses.
 *
 * Usage:
 *   mtvloadgen [--socket PATH | --tcp HOST:PORT]
 *              [--clients N] [--requests N] [--rps R] [--scale S]
 *              [--spec-space M] [--sweep-points N]
 *              [--wire binary|json] [--stream-bench N] [--json]
 *
 * Defaults: 8 clients x 50 requests, unpaced, scale 2e-5, 32
 * distinct specs per client, no background sweep. Each client draws
 * its specs from its own memory-latency band, so the flows exercise
 * simulation, the memory cache and (when the daemon has one) the
 * store rather than one endlessly-cached point.
 *
 * --wire picks the v6 result-point encoding (binary negotiates the
 * frame wire, falling back to JSON on old daemons); the report then
 * carries the received byte count and MB/s.
 *
 * --stream-bench N replaces the closed-loop run with a streaming
 * throughput measurement: warm an N-point sweep once (quiet), then
 * stream it non-quiet twice — once per wire format — and report
 * points/s for each. With --json the output is bench-shaped
 * ({"benchmarks":[{"name":"stream_binary","sim_cycles/s":p},...]}),
 * so tools/perf_gate.py --min-ratio can ratchet binary >= k x JSON
 * in CI. Two more rows carry the best binary pass's time to its
 * first point and its whole time as reciprocals
 * (stream_binary_first_point, stream_binary_pass), so the same gate
 * can ratchet how early a warm stream starts.
 *
 * Exit status: 0 on success, 1 when any request failed or nothing
 * completed (the smoke job treats that as a hard failure).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/obs/metrics.hh"
#include "src/service/protocol.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace mtv;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mtvloadgen [--socket PATH | --tcp HOST:PORT]\n"
        "                  [--clients N] [--requests N] [--rps R]\n"
        "                  [--scale S] [--spec-space M]\n"
        "                  [--sweep-points N] [--wire binary|json]\n"
        "                  [--stream-bench N] [--json]\n");
    return 2;
}

/** Result-point wire the clients ask for (--wire). */
WireFormat requestedWire = WireFormat::Binary;

/** Send the v6 hello on a fresh connection when binary was
 *  requested; false = the stream stays JSON (explicit --wire json,
 *  or an old daemon answered "unknown op"). */
bool
negotiateWire(LineChannel &channel, bool binary)
{
    if (!binary)
        return false;
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", "binary");
    std::string line;
    if (!channel.writeLine(hello.dump()) ||
        !channel.readLine(&line)) {
        return false;
    }
    Json response;
    std::string parseError;
    if (!Json::parse(line, &response, &parseError))
        return false;
    return response.getBool("ok", false) &&
           response.getString("wire", "") == "binary";
}

/** One client thread's tally, merged after the run. */
struct ClientTally
{
    std::vector<uint64_t> latenciesUs;  ///< request -> done, per request
    uint64_t errors = 0;
    uint64_t bytesRead = 0;  ///< wire bytes received on the connection
};

/**
 * Run one closed-loop client: @p requests single-point runs on its
 * own connection, request->done latency measured around each. A
 * non-zero @p intervalUs paces the loop (open-loop-ish): the next
 * request fires on schedule even when the previous one was slow,
 * without ever pipelining more than one request per connection.
 */
ClientTally
runClient(const Endpoint &endpoint, int index, int requests,
          int specSpace, double scale, uint64_t intervalUs)
{
    ClientTally tally;
    std::string error;
    const int fd = connectToEndpoint(endpoint, &error);
    if (fd < 0) {
        warn("client %d: connect failed: %s", index, error.c_str());
        tally.errors = static_cast<uint64_t>(requests);
        return tally;
    }
    LineChannel channel(fd);
    negotiateWire(channel, requestedWire == WireFormat::Binary);
    tally.latenciesUs.reserve(requests);

    const uint64_t startUs = monotonicMicros();
    for (int i = 0; i < requests; ++i) {
        if (intervalUs > 0) {
            const uint64_t slotUs = startUs + i * intervalUs;
            const uint64_t nowUs = monotonicMicros();
            if (nowUs < slotUs) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(slotUs - nowUs));
            }
        }
        // Each client owns a disjoint memory-latency band, cycling
        // through specSpace distinct points: the first lap simulates,
        // later laps hit the cache/store — mixed traffic, like real
        // interactive use.
        MachineParams params = MachineParams::reference();
        params.memLatency = 1000 + index * specSpace + i % specSpace;
        const RunSpec spec = RunSpec::single(
            i % 2 ? "swm256" : "trfd", params, scale);

        Json request = Json::object();
        request.set("op", "run");
        request.set("id", static_cast<uint64_t>(i + 1));
        request.set("quiet", true);
        Json specs = Json::array();
        specs.push(spec.canonical());
        request.set("specs", std::move(specs));

        const uint64_t sentUs = monotonicMicros();
        if (!channel.writeLine(request.dump())) {
            tally.errors += requests - i;
            break;
        }
        bool done = false;
        bool failed = false;
        std::string line;
        while (!done) {
            const LineChannel::MessageKind kind =
                channel.readMessage(&line);
            if (kind == LineChannel::MessageKind::Eof ||
                kind == LineChannel::MessageKind::BadFrame) {
                failed = true;
                break;
            }
            if (kind == LineChannel::MessageKind::Frame) {
                // A binary result point; "done" is a JSON line in
                // either wire mode, so just keep reading.
                continue;
            }
            Json response;
            std::string parseError;
            if (!Json::parse(line, &response, &parseError)) {
                warn("client %d: malformed response: %s", index,
                     parseError.c_str());
                failed = true;
                break;
            }
            if (response.has("error")) {
                warn("client %d: daemon error: %s", index,
                     response.getString("error").c_str());
                failed = true;
                break;
            }
            done = response.getBool("done", false);
        }
        if (failed) {
            ++tally.errors;
            break;  // the connection is suspect; stop this client
        }
        tally.latenciesUs.push_back(monotonicMicros() - sentUs);
    }
    tally.bytesRead = channel.bytesRead();
    return tally;
}

/** Tally of the background sweep consumer thread. */
struct SweepTally
{
    uint64_t pointsStreamed = 0;
    bool requestFailed = false;
    bool sawTerminator = false;
};

/** The N-point latency-family sweep the stream bench measures (the
 *  family expands one job-queue run per latency, so one synthetic
 *  latency per requested point). */
SweepRequest
benchSweep(int points, double scale)
{
    SweepRequest sweep;
    sweep.family = "latency";
    sweep.scale = scale;
    // Stream points carrying a loaded queue — the section-7 order
    // three times over — so every result hauls a realistically full
    // set of job records. The bench measures result *streaming*, and
    // a near-empty payload would mostly measure per-point fixed
    // overhead that both wires share.
    for (int rep = 0; rep < 3; ++rep)
        for (const auto &job : jobQueueOrder())
            sweep.jobs.push_back(job);
    for (int lat = 1; lat <= points; ++lat)
        sweep.latencies.push_back(200000 + lat);
    return sweep;
}

/** One measured pass of the stream bench. */
struct StreamPass
{
    bool ok = false;
    bool binary = false;  ///< what the connection actually negotiated
    uint64_t points = 0;
    uint64_t bytes = 0;
    double seconds = 0;
    /** Request sent -> first point read. */
    double firstPointSeconds = 0;
};

/**
 * Stream @p sweep once on a fresh connection negotiated to the
 * requested wire, timing ack -> done. Non-quiet unless @p quiet, so
 * the measured passes carry the full per-point stats payload — the
 * thing the two wire formats encode differently.
 */
StreamPass
streamOnce(const Endpoint &endpoint, const SweepRequest &sweep,
           bool binary, bool quiet)
{
    StreamPass pass;
    std::string error;
    const int fd = connectToEndpoint(endpoint, &error);
    if (fd < 0) {
        warn("stream bench: connect failed: %s", error.c_str());
        return pass;
    }
    LineChannel channel(fd);
    pass.binary = negotiateWire(channel, binary);
    if (binary && !pass.binary) {
        warn("stream bench: daemon refused the binary wire");
        return pass;
    }
    Json request = sweepRequestToJson(sweep);
    request.set("op", "sweep");
    request.set("id", static_cast<uint64_t>(1));
    request.set("quiet", quiet);
    if (!channel.writeLine(request.dump())) {
        warn("stream bench: cannot send sweep (daemon gone?)");
        return pass;
    }
    const uint64_t startUs = monotonicMicros();
    const auto countPoint = [&] {
        if (pass.points++ == 0) {
            pass.firstPointSeconds =
                static_cast<double>(monotonicMicros() - startUs) / 1e6;
        }
    };
    std::string message;
    for (;;) {
        const LineChannel::MessageKind kind =
            channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Eof ||
            kind == LineChannel::MessageKind::BadFrame) {
            warn("stream bench: stream broke after %llu points",
                 static_cast<unsigned long long>(pass.points));
            return pass;
        }
        if (kind == LineChannel::MessageKind::Frame) {
            countPoint();
            continue;
        }
        Json response;
        std::string parseError;
        if (!Json::parse(message, &response, &parseError)) {
            warn("stream bench: malformed response: %s",
                 parseError.c_str());
            return pass;
        }
        if (response.has("error")) {
            warn("stream bench: daemon error: %s",
                 response.getString("error").c_str());
            return pass;
        }
        if (response.getBool("ack", false))
            continue;
        if (response.getBool("done", false)) {
            if (response.getBool("cancelled", false))
                return pass;
            break;
        }
        countPoint();
    }
    pass.seconds =
        static_cast<double>(monotonicMicros() - startUs) / 1e6;
    pass.bytes = channel.bytesRead();
    pass.ok = pass.points > 0;
    return pass;
}

/**
 * The --stream-bench mode: warm the sweep once (quiet, JSON — the
 * results land in cache/store so the measured passes stream finished
 * points and the wire is the only variable), then stream it
 * non-quiet once per wire format and report points/s for each.
 */
int
runStreamBench(const Endpoint &endpoint, int points, double scale,
               bool json)
{
    const SweepRequest sweep = benchSweep(points, scale);
    const StreamPass warm =
        streamOnce(endpoint, sweep, /*binary=*/false, /*quiet=*/true);
    if (!warm.ok)
        return 1;
    // Best of three alternating passes per wire: every point is a
    // warm cache hit, so pass time is pure streaming cost and the
    // fastest pass is the least scheduler-perturbed sample.
    constexpr int benchPasses = 3;
    StreamPass jsonPass{};
    StreamPass binaryPass{};
    for (int pass = 0; pass < benchPasses; ++pass) {
        const StreamPass j = streamOnce(
            endpoint, sweep, /*binary=*/false, /*quiet=*/false);
        if (!j.ok)
            return 1;
        if (!jsonPass.ok || j.seconds < jsonPass.seconds)
            jsonPass = j;
        const StreamPass b = streamOnce(
            endpoint, sweep, /*binary=*/true, /*quiet=*/false);
        if (!b.ok || !b.binary)
            return 1;
        if (!binaryPass.ok || b.seconds < binaryPass.seconds)
            binaryPass = b;
    }
    const double jsonRate = static_cast<double>(jsonPass.points) /
                            std::max(jsonPass.seconds, 1e-9);
    const double binaryRate =
        static_cast<double>(binaryPass.points) /
        std::max(binaryPass.seconds, 1e-9);
    if (json) {
        // Bench-shaped on purpose: perf_gate.py --min-ratio reads
        // benchmarks[].{name, sim_cycles/s} (here points/s — the
        // gate only ever compares the two rates to each other).
        Json out = Json::object();
        Json benches = Json::array();
        // The first-point rows are reciprocal times of the best
        // binary pass, so --min-ratio
        // "stream_binary_first_point:stream_binary_pass=R" requires
        // the pass to take >= R x its time to the first point.
        const struct
        {
            const char *name;
            double rate;
        } rows[] = {
            {"stream_binary", binaryRate},
            {"stream_json", jsonRate},
            {"stream_binary_first_point",
             1.0 / std::max(binaryPass.firstPointSeconds, 1e-9)},
            {"stream_binary_pass",
             1.0 / std::max(binaryPass.seconds, 1e-9)}};
        for (const auto &row : rows) {
            Json bench = Json::object();
            bench.set("name", std::string(row.name));
            bench.set("sim_cycles/s", row.rate);
            benches.push(std::move(bench));
        }
        out.set("benchmarks", std::move(benches));
        std::printf("%s\n", out.dump().c_str());
    } else {
        std::printf("stream bench: %llu warmed points on %s\n",
                    static_cast<unsigned long long>(warm.points),
                    endpoint.describe().c_str());
        std::printf("json:   %.0f points/s (%llu bytes, %.1f MB/s)\n",
                    jsonRate,
                    static_cast<unsigned long long>(jsonPass.bytes),
                    static_cast<double>(jsonPass.bytes) /
                        std::max(jsonPass.seconds, 1e-9) / 1e6);
        std::printf("binary: %.0f points/s (%llu bytes, %.1f MB/s), "
                    "%.2fx json\n",
                    binaryRate,
                    static_cast<unsigned long long>(binaryPass.bytes),
                    static_cast<double>(binaryPass.bytes) /
                        std::max(binaryPass.seconds, 1e-9) / 1e6,
                    binaryRate / std::max(jsonRate, 1e-9));
        std::printf("binary first point: %.2f ms of a %.2f ms pass "
                    "(pass/first %.1fx)\n",
                    binaryPass.firstPointSeconds * 1e3,
                    binaryPass.seconds * 1e3,
                    binaryPass.seconds /
                        std::max(binaryPass.firstPointSeconds, 1e-9));
    }
    return 0;
}

/** Exact q-quantile of a sorted sample (nearest-rank). */
uint64_t
percentileUs(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const double rank =
        std::ceil(q * static_cast<double>(sorted.size()));
    const size_t index = rank < 1.0
        ? 0
        : std::min(sorted.size() - 1,
                   static_cast<size_t>(rank) - 1);
    return sorted[index];
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtv;

    Endpoint endpoint = Endpoint::unixSocket(defaultSocketPath());
    int clients = 8;
    int requests = 50;
    double rps = 0;
    double scale = 2e-5;
    int specSpace = 32;
    int sweepPoints = 0;
    int streamBench = 0;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            endpoint = Endpoint::unixSocket(value());
        } else if (arg == "--tcp") {
            const HostPort hp = parseHostPort(value(), "--tcp");
            endpoint = Endpoint::tcp(hp.host, hp.port);
        } else if (arg == "--clients") {
            clients = static_cast<int>(
                parseIntFlag(value(), "--clients", 1, 10000));
        } else if (arg == "--requests") {
            requests = static_cast<int>(
                parseIntFlag(value(), "--requests", 1, 1000000));
        } else if (arg == "--rps") {
            rps = parsePositiveFlag(value(), "--rps");
        } else if (arg == "--scale") {
            scale = parsePositiveFlag(value(), "--scale");
        } else if (arg == "--spec-space") {
            specSpace = static_cast<int>(
                parseIntFlag(value(), "--spec-space", 1, 1000000));
        } else if (arg == "--sweep-points") {
            sweepPoints = static_cast<int>(
                parseIntFlag(value(), "--sweep-points", 0, 10000000));
        } else if (arg == "--wire") {
            const std::string wanted = value();
            if (wanted == "json")
                requestedWire = WireFormat::Json;
            else if (wanted == "binary")
                requestedWire = WireFormat::Binary;
            else
                fatal("--wire expects json or binary, got '%s'",
                      wanted.c_str());
        } else if (arg == "--stream-bench") {
            streamBench = static_cast<int>(
                parseIntFlag(value(), "--stream-bench", 1, 10000000));
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr,
                         "mtvloadgen: unknown argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    if (streamBench > 0)
        return runStreamBench(endpoint, streamBench, scale, json);

    // -------- background sweep (its own connection + thread) --------
    constexpr uint64_t sweepId = 900000001;
    SweepTally sweepTally;
    std::thread sweepThread;
    std::unique_ptr<LineChannel> sweepChannel;
    if (sweepPoints > 0) {
        std::string error;
        const int fd = connectToEndpoint(endpoint, &error);
        if (fd < 0)
            fatal("sweep connection failed: %s", error.c_str());
        sweepChannel = std::make_unique<LineChannel>(fd);

        // The latency family expands jobs x latencies points; one
        // synthetic latency per needed batch of jobs gives at least
        // the requested point count.
        SweepRequest sweep;
        sweep.family = "latency";
        sweep.scale = scale;
        const size_t jobs = jobQueueOrder().size();
        const int bands = static_cast<int>(
            (static_cast<size_t>(sweepPoints) + jobs - 1) / jobs);
        for (int lat = 1; lat <= bands; ++lat)
            sweep.latencies.push_back(100000 + lat);
        Json request = sweepRequestToJson(sweep);
        request.set("op", "sweep");
        request.set("id", sweepId);
        request.set("quiet", true);
        if (!sweepChannel->writeLine(request.dump()))
            fatal("cannot send sweep request (daemon gone?)");

        sweepThread = std::thread([&sweepTally, &sweepChannel] {
            std::string line;
            while (sweepChannel->readLine(&line)) {
                Json response;
                std::string parseError;
                if (!Json::parse(line, &response, &parseError)) {
                    sweepTally.requestFailed = true;
                    return;
                }
                if (response.has("error")) {
                    warn("sweep: daemon error: %s",
                         response.getString("error").c_str());
                    sweepTally.requestFailed = true;
                    return;
                }
                if (response.getBool("ack", false))
                    continue;
                if (response.getBool("done", false)) {
                    // Completed or cancelled: both are clean ends
                    // for a background-load sweep.
                    sweepTally.sawTerminator = true;
                    return;
                }
                ++sweepTally.pointsStreamed;
            }
            sweepTally.requestFailed = true;
        });
    }

    // -------- interactive clients --------
    const uint64_t intervalUs = rps > 0
        ? static_cast<uint64_t>(1e6 * clients / rps)
        : 0;
    const uint64_t startUs = monotonicMicros();
    std::vector<ClientTally> tallies(clients);
    {
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                tallies[c] = runClient(endpoint, c, requests,
                                       specSpace, scale, intervalUs);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const double durationS =
        static_cast<double>(monotonicMicros() - startUs) / 1e6;

    // -------- stop the background sweep --------
    if (sweepPoints > 0) {
        // Cancel by request id from a control connection; the sweep
        // stream then terminates with a cancelled done line (or it
        // already finished and the cancel hits nothing).
        std::string error;
        const int fd = connectToEndpoint(endpoint, &error);
        if (fd >= 0) {
            LineChannel control(fd);
            Json cancel = Json::object();
            cancel.set("op", "cancel");
            cancel.set("id", sweepId);
            std::string line;
            if (control.writeLine(cancel.dump()))
                control.readLine(&line);
        }
        sweepThread.join();
        sweepChannel.reset();
        if (sweepTally.requestFailed)
            warn("background sweep failed mid-stream");
    }

    // -------- the report --------
    std::vector<uint64_t> merged;
    uint64_t errors = 0;
    uint64_t bytesRead = 0;
    for (const ClientTally &tally : tallies) {
        merged.insert(merged.end(), tally.latenciesUs.begin(),
                      tally.latenciesUs.end());
        errors += tally.errors;
        bytesRead += tally.bytesRead;
    }
    std::sort(merged.begin(), merged.end());
    const uint64_t completed = merged.size();
    uint64_t sumUs = 0;
    for (const uint64_t us : merged)
        sumUs += us;
    const double meanMs = completed
        ? static_cast<double>(sumUs) / completed / 1e3
        : 0.0;
    const double throughput =
        durationS > 0 ? completed / durationS : 0.0;
    const uint64_t p50 = percentileUs(merged, 0.50);
    const uint64_t p95 = percentileUs(merged, 0.95);
    const uint64_t p99 = percentileUs(merged, 0.99);

    if (json) {
        Json out = Json::object();
        out.set("clients", static_cast<uint64_t>(clients));
        out.set("requestsPerClient",
                static_cast<uint64_t>(requests));
        out.set("completed", completed);
        out.set("errors", errors);
        out.set("durationS", durationS);
        out.set("throughputRps", throughput);
        out.set("meanMs", meanMs);
        out.set("p50Ms", static_cast<double>(p50) / 1e3);
        out.set("p95Ms", static_cast<double>(p95) / 1e3);
        out.set("p99Ms", static_cast<double>(p99) / 1e3);
        out.set("minMs", completed
                             ? static_cast<double>(merged.front()) / 1e3
                             : 0.0);
        out.set("maxMs", completed
                             ? static_cast<double>(merged.back()) / 1e3
                             : 0.0);
        out.set("wire", std::string(requestedWire == WireFormat::Binary
                                        ? "binary"
                                        : "json"));
        out.set("bytesRead", bytesRead);
        out.set("mbPerS", durationS > 0
                              ? static_cast<double>(bytesRead) /
                                    durationS / 1e6
                              : 0.0);
        out.set("sweepPoints", sweepTally.pointsStreamed);
        out.set("sweepFailed", sweepTally.requestFailed);
        std::printf("%s\n", out.dump().c_str());
    } else {
        std::printf("loadgen: %d clients x %d requests against %s\n",
                    clients, requests,
                    endpoint.describe().c_str());
        std::printf(
            "completed: %llu requests in %.2fs (%.1f req/s), "
            "%llu errors\n",
            static_cast<unsigned long long>(completed), durationS,
            throughput, static_cast<unsigned long long>(errors));
        std::printf("latency: mean=%.2fms p50=%.2fms p95=%.2fms "
                    "p99=%.2fms max=%.2fms\n",
                    meanMs, static_cast<double>(p50) / 1e3,
                    static_cast<double>(p95) / 1e3,
                    static_cast<double>(p99) / 1e3,
                    completed
                        ? static_cast<double>(merged.back()) / 1e3
                        : 0.0);
        std::printf("wire: %s received=%llu bytes (%.1f MB/s)\n",
                    requestedWire == WireFormat::Binary ? "binary"
                                                        : "json",
                    static_cast<unsigned long long>(bytesRead),
                    durationS > 0 ? static_cast<double>(bytesRead) /
                                        durationS / 1e6
                                  : 0.0);
        if (sweepPoints > 0) {
            std::printf("background sweep: %llu points streamed "
                        "while measuring%s\n",
                        static_cast<unsigned long long>(
                            sweepTally.pointsStreamed),
                        sweepTally.requestFailed ? " (FAILED)" : "");
        }
    }

    if (errors > 0 || completed == 0 || sweepTally.requestFailed)
        return 1;
    return 0;
}
