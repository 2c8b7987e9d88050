/**
 * @file
 * mtvctl — client CLI of the mtvd experiment daemon.
 *
 * Usage (global flags first: --socket PATH (default $MTV_SOCKET or
 * /tmp/mtvd.sock), --tcp HOST:PORT to reach a TCP daemon, or
 * --fleet EP1,EP2,... to scatter sweeps across several nodes
 * client-side — consistent-hash routing with mid-sweep failover, the
 * digest staying bit-identical to --local):
 *   mtvctl ping                         is the daemon up?
 *   mtvctl run <program> [--contexts N] [--scale S]
 *                                       one single-mode point
 *   mtvctl sweep [--scale S] [--family F] [--program P]
 *                [--contexts N] [--follow] [--local]
 *                                       a named sweep, expanded
 *                                       *server-side*: the client
 *                                       sends one ~100-byte request
 *                                       naming the family (default
 *                                       suite-grouping, the Figure 6
 *                                       sweep) and consumes the
 *                                       result stream. --follow
 *                                       prints each point as it
 *                                       arrives (in submission
 *                                       order, --fleet included: the
 *                                       router relays points in
 *                                       global order); --local runs the
 *                                       identical sweep in-process
 *                                       (no daemon) for comparison.
 *   mtvctl compare [--scale S] [--family F] [--contexts N] [--local]
 *                                       cross-design comparison: the
 *                                       daemon expands a design-
 *                                       parallel family (default
 *                                       ext-compare), runs it, pairs
 *                                       every design slice row-wise
 *                                       against slice 0 server-side,
 *                                       and answers one aggregated
 *                                       speedup table (the paper's
 *                                       Figure 6/12 rendering).
 *                                       --local computes the same
 *                                       table in-process; with
 *                                       --fleet the expansion is
 *                                       scattered across the nodes.
 *                                       All three print the same
 *                                       digest as the equivalent
 *                                       sweep — bit-identity is
 *                                       checkable across transports.
 *   mtvctl warm [--scale S] [--family F]
 *                                       run the sweep quietly, just to
 *                                       populate the daemon's store
 *   mtvctl cancel <id>                  cancel the in-flight batch(es)
 *                                       tagged with request id <id>,
 *                                       on any connection; queued
 *                                       points are skipped, points
 *                                       already simulating finish and
 *                                       stay cached
 *   mtvctl status                       request-lifecycle snapshot:
 *                                       queue depth, per-lane queue
 *                                       depths, per-connection
 *                                       in-flight batches,
 *                                       cancelled/reaped counters,
 *                                       per-shard store counters
 *   mtvctl metrics [--prom]             the daemon's full metrics
 *                                       registry (counters, gauges,
 *                                       latency histograms) as JSON;
 *                                       --prom prints Prometheus text
 *                                       exposition instead. Against a
 *                                       fleet router (or with
 *                                       --fleet), per-node trees plus
 *                                       fleet-wide counter totals.
 *   mtvctl stats                        cache/store counters
 *   mtvctl clear                        drop the daemon's memory cache
 *   mtvctl shutdown                     stop the daemon
 *
 * Numeric flags parse strictly (a typo like "--contexts abc" is a
 * fatal error, never a silent 0).
 *
 * The digest is FNV-1a over the canonical binary SimStats blobs in
 * submission order: two invocations printing the same digest produced
 * bit-identical results, which is how the service smoke test checks
 * determinism across daemon restarts and against --local. The daemon
 * folds the same digest server-side and reports it on the done line,
 * so quiet (warm) requests get it too; when both sides computed one,
 * mtvctl verifies they agree.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/common/table.hh"
#include "src/fleet/router.hh"
#include "src/service/protocol.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace mtv;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mtvctl [--socket PATH | --tcp HOST:PORT | "
        "--fleet EP1,EP2,...] [--wire binary|json] <command> "
        "[options]\n"
        "  ping | stats | status | clear | shutdown\n"
        "  run <program> [--contexts N] [--scale S]\n"
        "  sweep [--scale S] [--family F] [--program P] "
        "[--contexts N] [--follow] [--local]\n"
        "  compare [--scale S] [--family F] [--contexts N] "
        "[--local]\n"
        "  warm [--scale S] [--family F]\n"
        "  cancel <request-id>\n"
        "  metrics [--prom]\n"
        "(--fleet applies to sweep, compare, warm and metrics;\n"
        " --wire picks the result-point encoding — binary "
        "negotiates\n"
        " the v6 frame wire and falls back to json on old "
        "daemons)\n");
    return 2;
}

/** Result-point wire the client asks for (global --wire flag).
 *  Binary is the default; negotiation falls back to JSON against a
 *  daemon that does not speak it. */
WireFormat requestedWire = WireFormat::Binary;

/**
 * Negotiate the result-point wire on a fresh connection (streaming
 * commands only — one-line answers have no result points). Returns
 * true when the daemon confirmed binary frames; false means the
 * connection stays on JSON — either by request (--wire json) or
 * because an old daemon answered "unknown op" (the v5 fallback).
 */
bool
negotiateWire(LineChannel &channel)
{
    if (requestedWire != WireFormat::Binary)
        return false;
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", "binary");
    if (!channel.writeLine(hello.dump()))
        fatal("cannot send hello (daemon gone?)");
    std::string line;
    if (!channel.readLine(&line))
        fatal("daemon closed the connection during hello");
    Json response;
    std::string error;
    if (!Json::parse(line, &response, &error))
        fatal("malformed hello response: %s", error.c_str());
    return response.getBool("ok", false) &&
           response.getString("wire", "") == "binary";
}

/** Outcome of one streamed batch (run or sweep) from the daemon. */
struct StreamOutcome
{
    std::vector<RunResult> results;  ///< submission order
    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    uint64_t storeServed = 0;
    /** Folded over blobs client-side; for quiet batches the daemon's
     *  server-folded digest (reported on the done line) instead. */
    uint64_t digest = 0;
    /** True when the stream ended with a cancelled terminator (a
     *  `mtvctl cancel` from elsewhere hit this batch); results then
     *  hold only the points delivered before the cancel. */
    bool cancelled = false;
};

Json
readResponse(LineChannel &channel)
{
    std::string line;
    if (!channel.readLine(&line))
        fatal("daemon closed the connection");
    Json response;
    std::string error;
    if (!Json::parse(line, &response, &error))
        fatal("malformed response: %s", error.c_str());
    if (response.has("error"))
        fatal("daemon error: %s",
              response.getString("error").c_str());
    return response;
}

LineChannel
connectChannel(const Endpoint &endpoint)
{
    std::string error;
    const int fd = connectToEndpoint(endpoint, &error);
    if (fd < 0) {
        // One actionable line, not a raw connect errno: the common
        // case is simply that no daemon is up at that socket path /
        // TCP endpoint (or the socket file is stale).
        std::fprintf(stderr,
                     "mtvctl: daemon not running at %s (start it "
                     "with: %s)\n",
                     endpoint.describe().c_str(),
                     endpoint.startHint().c_str());
        std::exit(1);
    }
    return LineChannel(fd);
}

/** Called per result line, in submission order. */
using PointHook =
    std::function<void(const RunResult &result, size_t seq)>;

/**
 * Consume the streamed response of request @p id until its done
 * line: result lines are decoded (blob and all), the digest folded,
 * and @p hook invoked per point. @p expected is the point count from
 * the request (run) or the ack (sweep).
 */
StreamOutcome
consumeStream(LineChannel &channel, uint64_t id, size_t expected,
              const PointHook &hook)
{
    StreamOutcome outcome;
    outcome.digest = 0xcbf29ce484222325ull;
    outcome.results.reserve(expected);
    bool sawBlobs = false;
    for (;;) {
        // A v6 stream interleaves two message kinds: binary result
        // frames (wire=binary points) and JSON lines (every point of
        // a JSON stream, plus acks/done/errors in either mode).
        std::string msg;
        const LineChannel::MessageKind kind =
            channel.readMessage(&msg);
        if (kind == LineChannel::MessageKind::Eof)
            fatal("daemon closed the connection");
        if (kind == LineChannel::MessageKind::BadFrame)
            fatal("malformed binary frame from the daemon");
        if (kind == LineChannel::MessageKind::Frame) {
            ResultFrame frame;
            std::string frameError;
            if (!decodeResultFrame(msg, &frame, &frameError))
                fatal("bad result frame: %s", frameError.c_str());
            if (frame.id != id)
                fatal("frame for unknown request id %llu",
                      static_cast<unsigned long long>(frame.id));
            const size_t seq = frame.seq;
            if (seq != outcome.results.size() || seq >= expected)
                fatal("result stream out of order (seq %zu)", seq);
            if (frame.hasBlob) {
                // Same fold as the JSON path: raw canonical bytes,
                // here straight from the frame — no hex decode.
                outcome.digest = fnv1a64(frame.blob.data(),
                                         frame.blob.size(),
                                         outcome.digest);
                sawBlobs = true;
            }
            RunResult result = resultFromFrame(frame);
            if (hook)
                hook(result, seq);
            outcome.results.push_back(std::move(result));
            continue;
        }
        Json line;
        std::string parseError;
        if (!Json::parse(msg, &line, &parseError))
            fatal("malformed response: %s", parseError.c_str());
        if (line.has("error"))
            fatal("daemon error: %s",
                  line.getString("error").c_str());
        if (line.get("id").asU64() != id)
            fatal("response for unknown request id %llu",
                  static_cast<unsigned long long>(
                      line.get("id").asU64()));
        if (line.getBool("done", false) &&
            line.getBool("cancelled", false)) {
            outcome.cancelled = true;
            break;
        }
        if (line.getBool("done", false)) {
            outcome.simulated = line.get("simulated").asU64();
            outcome.cacheServed = line.get("cacheServed").asU64();
            outcome.storeServed = line.get("storeServed").asU64();
            const std::string server = line.getString("digest");
            if (!sawBlobs) {
                // Quiet batch: adopt the server-folded digest.
                outcome.digest =
                    std::strtoull(server.c_str(), nullptr, 16);
            } else if (server !=
                       format("%016llx",
                              static_cast<unsigned long long>(
                                  outcome.digest))) {
                fatal("server digest %s != client digest %016llx",
                      server.c_str(),
                      static_cast<unsigned long long>(
                          outcome.digest));
            }
            break;
        }
        const size_t seq = line.get("seq").asU64();
        if (seq != outcome.results.size() || seq >= expected)
            fatal("result stream out of order (seq %zu)", seq);
        std::string blob;
        RunResult result = resultFromJson(line, &blob);
        if (!blob.empty()) {
            outcome.digest =
                fnv1a64(blob.data(), blob.size(), outcome.digest);
            sawBlobs = true;
        }
        if (hook)
            hook(result, seq);
        outcome.results.push_back(std::move(result));
    }
    if (!outcome.cancelled && outcome.results.size() != expected)
        fatal("daemon returned %zu of %zu results",
              outcome.results.size(), expected);
    return outcome;
}

void
printSliceReport(const std::vector<SweepSlice> &slices,
                 const std::vector<RunResult> &results)
{
    if (slices.empty())
        return;
    Table t({"label", "contexts", "speedup", "runs"});
    for (const SweepSlice &slice : slices) {
        if (slice.count == 0 ||
            results[slice.first].spec.mode != SpecMode::Group) {
            // Non-group slices (e.g. the latency family) have no
            // speedup average; print cycles of each point instead
            // via --follow.
            continue;
        }
        const GroupAverages avg = averageOf(slice, results);
        t.row()
            .add(avg.program)
            .add(avg.contexts)
            .add(avg.speedup, 3)
            .add(avg.runs);
    }
    t.print();
}

void
printServed(uint64_t simulated, uint64_t cache, uint64_t store)
{
    std::printf("served: simulated=%llu cache=%llu store=%llu\n",
                static_cast<unsigned long long>(simulated),
                static_cast<unsigned long long>(cache),
                static_cast<unsigned long long>(store));
}

void
printDigest(uint64_t digest)
{
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(digest));
}

/** The --follow per-point line. */
void
printPoint(const RunResult &r, size_t seq, size_t total)
{
    std::printf("point %zu/%zu %s: %llu cycles%s%s\n", seq + 1,
                total, r.spec.programs[0].c_str(),
                static_cast<unsigned long long>(r.stats.cycles),
                r.spec.mode == SpecMode::Group
                    ? format(", speedup %.3f", r.speedup).c_str()
                    : "",
                r.cached ? " (cache)"
                         : (r.fromStore ? " (store)" : ""));
}

/** Render a compare response's rows (the Figure 6/12 table). */
void
printCompareTable(const std::string &baseline,
                  const std::vector<CompareRow> &rows)
{
    Table t({"design", "contexts", "ports", "latency", "cycles (k)",
             "speedup", "occupation", "VOPC"});
    for (const CompareRow &row : rows) {
        t.row()
            .add(row.design)
            .add(row.contexts)
            .add(row.ports)
            .add(row.memLatency)
            .add(static_cast<double>(row.cycles) / 1e3, 1)
            .add(row.speedup, 3)
            .add(row.occupation, 3)
            .add(row.vopc, 3);
    }
    t.print();
    std::printf("speedup: row-wise vs the '%s' slice\n",
                baseline.c_str());
}

int
cmdCompareLocal(const SweepRequest &request)
{
    SweepBuilder sweep = expandSweep(request);
    ExperimentEngine engine;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunResult> results =
        engine.runAll(sweep.specs());
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    uint64_t digest = 0xcbf29ce484222325ull;
    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    for (const RunResult &r : results) {
        const std::string blob = serializeSimStats(r.stats);
        digest = fnv1a64(blob.data(), blob.size(), digest);
        if (r.cached)
            ++cacheServed;
        else
            ++simulated;
    }
    // compareDesigns fatal()s (with the offending slice named) when
    // the family is not design-parallel — the right CLI behavior.
    printCompareTable(sweep.slices().at(0).label,
                      compareDesigns(sweep.slices(), results));
    std::printf("compare: %zu points in %.2fs (family %s, local, no "
                "daemon)\n",
                results.size(), seconds, request.family.c_str());
    printServed(simulated, cacheServed, 0);
    printDigest(digest);
    return 0;
}

int
cmdCompare(const Endpoint &endpoint, const SweepRequest &request)
{
    LineChannel channel = connectChannel(endpoint);
    Json line = sweepRequestToJson(request);
    line.set("op", "compare");
    line.set("id", 1);
    if (!channel.writeLine(line.dump()))
        fatal("cannot send request (daemon gone?)");

    const Json response = readResponse(channel);
    if (!response.getBool("compare", false))
        fatal("expected a compare response, got: %s",
              response.dump().c_str());
    std::vector<CompareRow> rows;
    for (const Json &row : response.get("rows").asArray())
        rows.push_back(compareRowFromJson(row));
    printCompareTable(response.getString("baseline"), rows);
    std::printf("compare: %llu points (family %s%s)\n",
                static_cast<unsigned long long>(
                    response.get("count").asU64()),
                response.getString("family").c_str(),
                response.getBool("fleet", false) ? ", via fleet router"
                                                 : "");
    printServed(response.get("simulated").asU64(),
                response.get("cacheServed").asU64(),
                response.get("storeServed").asU64());
    std::printf("digest: %s\n",
                response.getString("digest").c_str());
    return 0;
}

/** Client-side fleet compare: scatter the expansion, gather, fold
 *  the table locally — same digest as a daemon or --local compare. */
int
cmdCompareFleet(const std::vector<std::string> &fleetNodes,
                const SweepRequest &request)
{
    FleetRouter router(fleetNodes);
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results;
    const FleetOutcome outcome = router.runSweep(
        request, [&results](size_t, std::string &payload, bool) {
            results.push_back(resultFromPayload(payload));
        });
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    printCompareTable(
        outcome.slices.at(0).label,
        compareDesigns(outcome.slices, results));
    std::printf("compare: %zu points in %.2fs (family %s, fleet of "
                "%zu nodes)\n",
                outcome.count, seconds,
                request.family.c_str(), router.nodeCount());
    printServed(outcome.simulated, outcome.cacheServed,
                outcome.storeServed);
    printDigest(outcome.digest);
    return 0;
}

int
cmdSweepLocal(const SweepRequest &request)
{
    SweepBuilder sweep = expandSweep(request);
    ExperimentEngine engine;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunResult> results =
        engine.runAll(sweep.specs());
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    uint64_t digest = 0xcbf29ce484222325ull;
    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    for (const RunResult &r : results) {
        const std::string blob = serializeSimStats(r.stats);
        digest = fnv1a64(blob.data(), blob.size(), digest);
        if (r.cached)
            ++cacheServed;
        else
            ++simulated;
    }
    printSliceReport(sweep.slices(), results);
    std::printf("sweep: %zu points in %.2fs (local, no daemon)\n",
                results.size(), seconds);
    printServed(simulated, cacheServed, 0);
    printDigest(digest);
    return 0;
}

int
cmdSweep(const Endpoint &endpoint, const SweepRequest &request,
         bool quiet, bool follow)
{
    LineChannel channel = connectChannel(endpoint);
    const bool binaryWire = negotiateWire(channel);
    constexpr uint64_t id = 1;
    Json line = sweepRequestToJson(request);
    line.set("op", "sweep");
    line.set("id", id);
    line.set("quiet", quiet);
    if (!channel.writeLine(line.dump()))
        fatal("cannot send request (daemon gone?)");

    // The ack carries the server-side expansion's shape: how many
    // points are coming and which slices they average into.
    const Json ack = readResponse(channel);
    if (!ack.getBool("ack", false) || ack.get("id").asU64() != id)
        fatal("expected sweep ack, got: %s", ack.dump().c_str());
    const size_t count = ack.get("count").asU64();
    std::vector<SweepSlice> slices;
    for (const Json &slice : ack.get("slices").asArray())
        slices.push_back(sliceFromJson(slice));

    const auto start = std::chrono::steady_clock::now();
    const StreamOutcome outcome = consumeStream(
        channel, id, count,
        [follow, count](const RunResult &r, size_t seq) {
            if (follow)
                printPoint(r, seq, count);
        });
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    if (outcome.cancelled) {
        std::fprintf(stderr,
                     "mtvctl: sweep cancelled by the daemon after "
                     "%zu/%zu points (%.2fs)\n",
                     outcome.results.size(), count, seconds);
        return 3;
    }
    if (!quiet)
        printSliceReport(slices, outcome.results);
    std::printf("sweep: %zu points in %.2fs (family %s)\n",
                outcome.results.size(), seconds,
                request.family.c_str());
    // The stream's wire throughput, client-side: every byte the
    // daemon sent this connection (results AND control lines).
    std::printf("wire: %s received=%llu bytes (%.1f MB/s)\n",
                binaryWire ? "binary" : "json",
                static_cast<unsigned long long>(channel.bytesRead()),
                seconds > 0
                    ? static_cast<double>(channel.bytesRead()) /
                          seconds / 1e6
                    : 0.0);
    printServed(outcome.simulated, outcome.cacheServed,
                outcome.storeServed);
    printDigest(outcome.digest);
    return 0;
}

/**
 * The client-side fleet path: expand the family once, consistent-
 * hash every point across the nodes, stream all subsets in parallel,
 * and fold one digest in global submission order. A node dying
 * mid-sweep (SIGKILL and all) is absorbed: its unfinished points are
 * rerouted to the survivors and the sweep completes with the same
 * digest a single node (or --local) would print.
 */
int
cmdSweepFleet(const std::vector<std::string> &fleetNodes,
              const SweepRequest &request, bool quiet, bool follow)
{
    FleetRouter router(fleetNodes);

    size_t count = 0;
    std::vector<SweepSlice> slices;
    std::vector<RunResult> results;
    const auto start = std::chrono::steady_clock::now();
    const FleetOutcome outcome = router.runSweep(
        request,
        [quiet, follow, &count, &results](
            size_t global, std::string &payload, bool) {
            if (quiet)
                return;  // nothing reads the points
            // The relay delivers in global submission order, so
            // --follow reads exactly as it does against one daemon.
            results.push_back(resultFromPayload(payload));
            if (follow)
                printPoint(results.back(), global, count);
        },
        [&](size_t total, const std::vector<SweepSlice> &expanded) {
            count = total;
            slices = expanded;
        });
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    if (!quiet)
        printSliceReport(slices, results);
    std::printf("sweep: %zu points in %.2fs (family %s, fleet of "
                "%zu nodes)\n",
                outcome.count, seconds,
                request.family.c_str(), router.nodeCount());
    // One machine-friendly line (fleet_smoke.sh greps it): how much
    // failover the sweep absorbed.
    std::string dead;
    for (const FleetNodeStatus &node : router.status()) {
        if (node.alive)
            continue;
        if (!dead.empty())
            dead += ",";
        dead += node.name;
    }
    std::printf("fleet: nodes=%zu alive=%zu rerouted=%llu dead=%s\n",
                router.nodeCount(), router.aliveCount(),
                static_cast<unsigned long long>(outcome.rerouted),
                dead.empty() ? "none" : dead.c_str());
    printServed(outcome.simulated, outcome.cacheServed,
                outcome.storeServed);
    printDigest(outcome.digest);
    return 0;
}

int
cmdRun(const Endpoint &endpoint, const std::string &program,
       int contexts, double scale)
{
    const MachineParams params =
        contexts <= 1 ? MachineParams::reference()
                      : MachineParams::multithreaded(contexts);
    const RunSpec spec = RunSpec::single(program, params, scale);
    LineChannel channel = connectChannel(endpoint);
    negotiateWire(channel);
    Json request = Json::object();
    request.set("op", "run");
    request.set("id", 1);
    Json specArray = Json::array();
    specArray.push(spec.canonical());
    request.set("specs", std::move(specArray));
    if (!channel.writeLine(request.dump()))
        fatal("cannot send request (daemon gone?)");
    const StreamOutcome outcome =
        consumeStream(channel, 1, 1, nullptr);
    if (outcome.cancelled) {
        std::fprintf(stderr, "mtvctl: run cancelled by the daemon\n");
        return 3;
    }
    const RunResult &r = outcome.results.at(0);
    std::printf("%s @ %d context%s: %llu cycles, %llu dispatches "
                "(%s)\n",
                program.c_str(), contexts, contexts == 1 ? "" : "s",
                static_cast<unsigned long long>(r.stats.cycles),
                static_cast<unsigned long long>(r.stats.dispatches),
                r.cached ? "cache"
                         : (r.fromStore ? "store" : "simulated"));
    printDigest(outcome.digest);
    return 0;
}

int
cmdSimple(const Endpoint &endpoint, const std::string &op)
{
    LineChannel channel = connectChannel(endpoint);
    Json request = Json::object();
    request.set("op", op);
    if (!channel.writeLine(request.dump()))
        fatal("cannot send request (daemon gone?)");
    const Json response = readResponse(channel);
    std::printf("%s\n", response.dump().c_str());
    return 0;
}

int
cmdCancel(const Endpoint &endpoint, uint64_t requestId)
{
    LineChannel channel = connectChannel(endpoint);
    Json request = Json::object();
    request.set("op", "cancel");
    request.set("id", requestId);
    if (!channel.writeLine(request.dump()))
        fatal("cannot send request (daemon gone?)");
    const Json response = readResponse(channel);
    const uint64_t hit = response.get("cancelled").asU64();
    std::printf("cancelled %llu batch%s tagged with request id "
                "%llu\n",
                static_cast<unsigned long long>(hit),
                hit == 1 ? "" : "es",
                static_cast<unsigned long long>(requestId));
    // "Nothing matched" is worth a nonzero exit: the id was probably
    // mistyped or the batch already finished.
    return hit > 0 ? 0 : 1;
}

/**
 * Dump the daemon's metrics registry: raw JSON (machine-friendly,
 * like `mtvctl stats`), or the Prometheus text exposition with
 * --prom. A fleet router answers with per-node trees and counter
 * totals; those are printed as JSON too (prom is per-node — scrape
 * the nodes directly for exposition).
 */
int
cmdMetrics(const Endpoint &endpoint, bool prom)
{
    LineChannel channel = connectChannel(endpoint);
    Json request = Json::object();
    request.set("op", "metrics");
    request.set("prom", prom);
    if (!channel.writeLine(request.dump()))
        fatal("cannot send request (daemon gone?)");
    const Json response = readResponse(channel);
    if (prom && response.has("prom")) {
        std::fputs(response.getString("prom").c_str(), stdout);
        return 0;
    }
    std::printf("%s\n", response.dump().c_str());
    return 0;
}

/**
 * The client-side fleet analogue: ask every node for its registry
 * and print the same response shape a fleet router's "metrics" op
 * produces (per-node trees + counter totals), minus the "router"
 * entry — this process has no router registry worth reporting.
 * Unreachable nodes degrade to error entries; exits 1 only when NO
 * node answered.
 */
int
cmdMetricsFleet(const std::vector<std::string> &fleetNodes)
{
    std::map<std::string, uint64_t> totals;
    Json nodes = Json::array();
    size_t gatheredCount = 0;
    for (const std::string &name : fleetNodes) {
        Json node = Json::object();
        node.set("endpoint", name);
        Json metrics;
        bool gathered = false;
        std::string error;
        const int fd =
            connectToEndpoint(parseEndpoint(name), &error);
        if (fd >= 0) {
            LineChannel channel(fd);
            Json request = Json::object();
            request.set("op", "metrics");
            std::string line;
            if (channel.writeLine(request.dump()) &&
                channel.readLine(&line)) {
                Json response;
                std::string parseError;
                if (!Json::parse(line, &response, &parseError)) {
                    error = "malformed metrics response: " +
                            parseError;
                } else if (!response.getBool("ok")) {
                    error = response.getString("error",
                                               response.dump());
                } else if (response.get("metrics").type() ==
                           Json::Type::Object) {
                    metrics = response.get("metrics");
                    gathered = true;
                } else {
                    error = "metrics response carries no metrics "
                            "object";
                }
            } else {
                error = "node closed the connection";
            }
        }
        node.set("ok", gathered);
        if (gathered) {
            ++gatheredCount;
            if (metrics.get("counters").type() ==
                Json::Type::Object) {
                for (const auto &counter :
                     metrics.get("counters").asMembers()) {
                    totals[counter.first] += static_cast<uint64_t>(
                        counter.second.asNumber());
                }
            }
            node.set("metrics", std::move(metrics));
        } else {
            node.set("error", error);
        }
        nodes.push(std::move(node));
    }
    Json out = Json::object();
    out.set("ok", gatheredCount > 0);
    out.set("fleet", true);
    out.set("nodes", std::move(nodes));
    Json totalsJson = Json::object();
    for (const auto &total : totals)
        totalsJson.set(total.first, total.second);
    out.set("totals", std::move(totalsJson));
    std::printf("%s\n", out.dump().c_str());
    return gatheredCount > 0 ? 0 : 1;
}

int
cmdStatus(const Endpoint &endpoint)
{
    LineChannel channel = connectChannel(endpoint);
    Json request = Json::object();
    request.set("op", "status");
    if (!channel.writeLine(request.dump()))
        fatal("cannot send request (daemon gone?)");
    const Json s = readResponse(channel);
    if (s.getBool("fleet", false)) {
        // A fleet router answers with its membership/health table
        // instead of engine counters.
        for (const Json &node : s.get("nodes").asArray()) {
            std::printf("node %s: %s served=%llu%s%s\n",
                        node.getString("endpoint").c_str(),
                        node.getBool("alive") ? "alive" : "dead",
                        static_cast<unsigned long long>(
                            node.get("served").asU64()),
                        node.has("error") ? " error=" : "",
                        node.getString("error").c_str());
        }
        return 0;
    }
    if (s.has("kernel"))
        std::printf("kernel: %s\n", s.getString("kernel").c_str());
    std::printf("queue depth: %llu\n",
                static_cast<unsigned long long>(
                    s.get("queueDepth").asU64()));
    if (s.get("lanes").type() == Json::Type::Array) {
        for (const Json &lane : s.get("lanes").asArray()) {
            std::printf("lane %llu: depth=%llu\n",
                        static_cast<unsigned long long>(
                            lane.get("lane").asU64()),
                        static_cast<unsigned long long>(
                            lane.get("depth").asU64()));
        }
    }
    std::printf("active requests: %llu\n",
                static_cast<unsigned long long>(
                    s.get("activeRequests").asU64()));
    std::printf("completed points: %llu\n",
                static_cast<unsigned long long>(
                    s.get("completedPoints").asU64()));
    // Older daemons predate the streaming window's two fields.
    std::printf("points in flight: %.0f\n",
                s.getNumber("pointsInFlight"));
    const Json &counters = s.get("counters");
    // One machine-friendly line (service_smoke.sh greps it).
    std::printf("counters: cancelledBatches=%llu reapedBatches=%llu "
                "cancelledPoints=%llu discardedPoints=%llu "
                "unsubmittedPoints=%.0f\n",
                static_cast<unsigned long long>(
                    counters.get("cancelledBatches").asU64()),
                static_cast<unsigned long long>(
                    counters.get("reapedBatches").asU64()),
                static_cast<unsigned long long>(
                    counters.get("cancelledPoints").asU64()),
                static_cast<unsigned long long>(
                    counters.get("discardedPoints").asU64()),
                counters.getNumber("unsubmittedPoints"));
    if (s.get("shards").type() == Json::Type::Array) {
        for (const Json &shard : s.get("shards").asArray()) {
            std::printf(
                "shard %llu: appends=%llu hits=%llu misses=%llu "
                "records=%llu recovered=%llu dropped=%llu\n",
                static_cast<unsigned long long>(
                    shard.get("shard").asU64()),
                static_cast<unsigned long long>(
                    shard.get("appends").asU64()),
                static_cast<unsigned long long>(
                    shard.get("hits").asU64()),
                static_cast<unsigned long long>(
                    shard.get("misses").asU64()),
                static_cast<unsigned long long>(
                    shard.get("records").asU64()),
                static_cast<unsigned long long>(
                    shard.get("recovered").asU64()),
                static_cast<unsigned long long>(
                    shard.get("dropped").asU64()));
        }
    }
    for (const Json &conn : s.get("connections").asArray()) {
        std::string ids;
        for (const Json &id : conn.get("requests").asArray()) {
            if (!ids.empty())
                ids += " ";
            ids += format("%llu", static_cast<unsigned long long>(
                                      id.asU64()));
        }
        std::printf("connection %llu: %llu in flight (request ids: "
                    "%s)\n",
                    static_cast<unsigned long long>(
                        conn.get("client").asU64()),
                    static_cast<unsigned long long>(
                        conn.get("inflight").asU64()),
                    ids.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtv;

    Endpoint endpoint = Endpoint::unixSocket(defaultSocketPath());
    std::vector<std::string> fleetNodes;
    int i = 1;
    while (i + 1 < argc) {
        if (std::strcmp(argv[i], "--socket") == 0) {
            endpoint = Endpoint::unixSocket(argv[i + 1]);
            i += 2;
        } else if (std::strcmp(argv[i], "--tcp") == 0) {
            const HostPort hp = parseHostPort(argv[i + 1], "--tcp");
            endpoint = Endpoint::tcp(hp.host, hp.port);
            i += 2;
        } else if (std::strcmp(argv[i], "--fleet") == 0) {
            for (const std::string &node :
                 split(argv[i + 1], ',')) {
                if (node.empty())
                    continue;
                // Validate eagerly: a typo'd "host:abc" node must
                // die here, not when the sweep first routes to it.
                parseEndpoint(node);
                fleetNodes.push_back(node);
            }
            if (fleetNodes.empty())
                fatal("--fleet expects a comma-separated node list");
            i += 2;
        } else if (std::strcmp(argv[i], "--wire") == 0) {
            const std::string wanted = argv[i + 1];
            if (wanted == "json")
                requestedWire = WireFormat::Json;
            else if (wanted == "binary")
                requestedWire = WireFormat::Binary;
            else
                fatal("--wire expects json or binary, got '%s'",
                      wanted.c_str());
            i += 2;
        } else {
            break;
        }
    }
    if (i >= argc)
        return usage();
    const std::string command = argv[i++];

    SweepRequest sweepRequest;
    sweepRequest.family = "suite-grouping";
    bool familySet = false;
    bool local = false;
    bool follow = false;
    bool prom = false;
    int contexts = 0;  // 0 = not specified (family/run defaults)
    std::string program;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--scale")
            sweepRequest.scale = parsePositiveFlag(value(), "--scale");
        else if (arg == "--family") {
            sweepRequest.family = value();
            familySet = true;
        }
        else if (arg == "--program")
            program = value();
        else if (arg == "--local")
            local = true;
        else if (arg == "--follow")
            follow = true;
        else if (arg == "--prom")
            prom = true;
        else if (arg == "--contexts")
            // MachineParams::validate() accepts [1,8] (the paper
            // stops at 4, the extension benches go to 8).
            contexts = static_cast<int>(
                parseIntFlag(value(), "--contexts", 1, 8));
        else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "mtvctl: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else if (program.empty())
            program = arg;
        else
            return usage();
    }
    sweepRequest.program = program;
    // An explicit --contexts is forwarded verbatim (1 = the
    // reference machine's count); 0 keeps the family defaults.
    sweepRequest.contexts = contexts;
    // compare defaults to the one family built for it; an explicit
    // --family (any design-parallel one, e.g. ext-renaming) wins.
    if (command == "compare" && !familySet)
        sweepRequest.family = "ext-compare";

    if (!fleetNodes.empty() && command != "sweep" &&
        command != "compare" && command != "warm" &&
        command != "metrics") {
        fatal("--fleet applies to sweep, compare, warm and metrics "
              "only (use --socket or --tcp to address one node)");
    }

    if (command == "ping" || command == "stats" ||
        command == "clear" || command == "shutdown") {
        return cmdSimple(endpoint, command);
    }
    if (command == "status")
        return cmdStatus(endpoint);
    if (command == "metrics") {
        return fleetNodes.empty() ? cmdMetrics(endpoint, prom)
                                  : cmdMetricsFleet(fleetNodes);
    }
    if (command == "cancel") {
        // The "program" slot caught the positional argument; it is
        // really the request id to cancel.
        if (program.empty())
            return usage();
        return cmdCancel(endpoint,
                         static_cast<uint64_t>(parseIntFlag(
                             program.c_str(), "cancel <request-id>",
                             1, std::numeric_limits<long long>::max())));
    }
    if (command == "run") {
        if (program.empty())
            return usage();
        return cmdRun(endpoint, program,
                      contexts == 0 ? 1 : contexts,
                      sweepRequest.scale);
    }
    if (command == "compare") {
        if (local)
            return cmdCompareLocal(sweepRequest);
        return fleetNodes.empty()
                   ? cmdCompare(endpoint, sweepRequest)
                   : cmdCompareFleet(fleetNodes, sweepRequest);
    }
    if (command == "sweep") {
        if (local)
            return cmdSweepLocal(sweepRequest);
        return fleetNodes.empty()
                   ? cmdSweep(endpoint, sweepRequest,
                              /*quiet=*/false, follow)
                   : cmdSweepFleet(fleetNodes, sweepRequest,
                                   /*quiet=*/false, follow);
    }
    if (command == "warm") {
        return fleetNodes.empty()
                   ? cmdSweep(endpoint, sweepRequest, /*quiet=*/true,
                              /*follow=*/false)
                   : cmdSweepFleet(fleetNodes, sweepRequest,
                                   /*quiet=*/true, /*follow=*/false);
    }
    return usage();
}
