#include "src/harness.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/api/engine.hh"
#include "src/common/strutil.hh"
#include "src/store/result_store.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace bench
{

namespace fs = std::filesystem;

std::string
inputsFingerprint()
{
    return mtv::format(
        "cold=%g fixture=%g/%d interactive=%g background=%g/%d",
        coldScale, fixtureScale, fixturePoints, interactiveScale,
        backgroundScale, backgroundPoints);
}

void
note(const std::string &workload, const std::string &what)
{
    std::fprintf(stderr, "mtvbench %s: %s\n", workload.c_str(),
                 what.c_str());
}

std::vector<std::string>
permutedJobs(Rng &rng)
{
    std::vector<std::string> jobs = mtv::jobQueueOrder();
    for (size_t i = jobs.size() - 1; i > 0; --i)
        std::swap(jobs[i], jobs[rng.below(i + 1)]);
    return jobs;
}

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    Rng coldRng(seed, 1);
    const std::vector<std::string> coldJobs = permutedJobs(coldRng);
    for (const char *family : coldFamilies) {
        mtv::SweepRequest request;
        request.family = family;
        request.scale = coldScale;
        if (request.family != "suite-grouping")
            request.jobs = coldJobs;
        in.cold.push_back(request);
    }

    // The fixture and the background keep the paper's job order, so
    // every seed streams records of one size (the warm workloads
    // measure bytes moved) and costs one amount of simulation.
    Rng fixtureRng(seed, 2);
    in.fixture.family = "latency";
    in.fixture.scale = fixtureScale;
    const int fixtureBase = 1000 + static_cast<int>(fixtureRng.below(1000));
    for (int i = 1; i <= fixturePoints; ++i)
        in.fixture.latencies.push_back(fixtureBase + i);

    Rng backgroundRng(seed, 3);
    in.background.family = "latency";
    in.background.scale = backgroundScale;
    const int backgroundBase =
        100000 + static_cast<int>(backgroundRng.below(1000));
    for (int i = 1; i <= backgroundPoints; ++i)
        in.background.latencies.push_back(backgroundBase + i);

    Rng interactiveRng(seed, 4);
    in.interactiveLatencyBase =
        1000 + static_cast<int>(interactiveRng.below(1000));
    return in;
}

Pins
loadPins(const Options &options, std::string *error)
{
    Pins pins;
    std::ifstream in(options.pinFile);
    std::stringstream text;
    text << in.rdbuf();
    mtv::Json json;
    std::string parseError;
    if (!in || !mtv::Json::parse(text.str(), &json, &parseError)) {
        *error = "cannot read " + options.pinFile;
        return pins;
    }
    if (json.getString("inputs", "") != inputsFingerprint()) {
        *error = options.pinFile + " pins other inputs (\"" +
                 json.getString("inputs", "") + "\" vs \"" +
                 inputsFingerprint() + "\"): run mtvbench --pin";
        return pins;
    }
    for (const char *family : coldFamilies)
        pins.cold[family] =
            parseDigest(json.get("figures-cold").getString(family, ""));
    pins.fixture = parseDigest(json.getString("fixture", ""));
    for (const mtv::Json &digest : json.get("interactive").asArray())
        pins.interactive.push_back(parseDigest(digest.asString()));
    pins.loaded = true;
    return pins;
}

Launch
launch(const Options &options, const std::vector<DaemonSpec> &specs)
{
    Launch result;
    for (const DaemonSpec &spec : specs)
        ::unlink(spec.socket.c_str());
    const double start = nowS();
    std::vector<Daemon *> raw;
    for (const DaemonSpec &spec : specs) {
        std::string error;
        auto daemon = Daemon::spawn(options.mtvd, spec.socket, spec.args,
                                    options.runDir + "/daemons.log",
                                    &error);
        if (!daemon) {
            note(options.workload, error);
            return result;
        }
        raw.push_back(daemon.get());
        result.daemons.push_back(std::move(daemon));
    }
    result.ok = waitAllReady(raw, 60.0);
    result.setupS = nowS() - start;
    if (!result.ok)
        note(options.workload, "daemons did not answer ping in 60 s");
    return result;
}

std::string
socketPath(const Options &options, const std::string &name)
{
    return options.runDir + "/" + name + ".sock";
}

Fingerprint
fingerprint(const std::string &dir)
{
    Fingerprint files;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        files[fs::relative(entry.path(), dir).string()] = {
            bytes.size(), mtv::fnv1a64(bytes.data(), bytes.size())};
    }
    return files;
}

Fixture
buildFixture(const std::string &dir, const mtv::SweepRequest &request)
{
    Fixture fixture;
    fixture.dir = dir;
    const double start = nowS();
    {
        mtv::EngineOptions options;
        options.backend = std::make_shared<mtv::ResultStore>(dir);
        mtv::ExperimentEngine engine(options);
        const mtv::SweepBuilder sweep = mtv::expandSweep(request);
        for (const mtv::RunResult &result : engine.runAll(sweep.specs())) {
            fixture.digest = foldDigest(
                fixture.digest, result.blob
                                    ? *result.blob
                                    : mtv::serializeSimStats(result.stats));
        }
    }
    fixture.buildS = nowS() - start;
    fixture.files = fingerprint(dir);
    return fixture;
}

std::string
copyFixture(const Fixture &fixture, const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(fs::path(dir).parent_path());
    fs::copy(fixture.dir, dir, fs::copy_options::recursive);
    return dir;
}

Registry
parseRegistry(const mtv::Json &metrics)
{
    Registry registry;
    if (metrics.has("counters")) {
        for (const auto &c : metrics.get("counters").asMembers())
            registry.counters[c.first] = c.second.asNumber();
    }
    if (metrics.has("histograms")) {
        for (const auto &h : metrics.get("histograms").asMembers()) {
            registry.histograms[h.first] = {h.second.getNumber("sum"),
                                            h.second.getNumber("count")};
        }
    }
    return registry;
}

bool
fetchRegistry(Client &client, Registry *out)
{
    mtv::Json request = mtv::Json::object();
    request.set("op", "metrics");
    mtv::Json response;
    if (!client.control(request, &response) || !response.has("metrics"))
        return false;
    *out = parseRegistry(response.get("metrics"));
    return true;
}

bool
fetchFleet(Client &client, Registry *router, std::vector<Registry> *nodes)
{
    mtv::Json request = mtv::Json::object();
    request.set("op", "metrics");
    mtv::Json response;
    if (!client.control(request, &response) || !response.has("nodes"))
        return false;
    *router = parseRegistry(response.get("router"));
    nodes->clear();
    for (const mtv::Json &node : response.get("nodes").asArray()) {
        if (!node.getBool("ok", false))
            return false;
        nodes->push_back(parseRegistry(node.get("metrics")));
    }
    return true;
}

namespace
{

struct MetricName
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics, all reported on every workload (0 where the
 *  layer does no work on it — see README.md). */
const MetricName layerMetrics[] = {
    {"core.kernel_ms_per_point", "ms"},
    {"core.kernel_s.suite-grouping", "s"},
    {"core.kernel_s.latency", "s"},
    {"core.kernel_s.ext-compare", "s"},
    {"core.sim_minst_per_s", "Minst/s"},
    {"core.sim_cycles", "count"},
    {"api.engine.simulations", "count"},
    {"api.engine.reference_runs", "count"},
    {"api.engine.worker_util", "ratio"},
    {"api.engine.lane_wait_ms_mean", "ms"},
    {"api.engine.cache_hit_ratio", "ratio"},
    {"api.sweep.expand_ms", "ms"},
    {"workload.program_build_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.load_us_mean", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.append_us_mean", "us"},
    {"store.bytes_per_record", "B"},
    {"codec.encode_us_per_point", "us"},
    {"codec.decode_us_per_point", "us"},
    {"service.encode_us_per_point", "us"},
    {"service.bytes_per_point", "B"},
    {"service.write_stall_ms", "ms"},
    {"service.first_point_ms_mean", "ms"},
    {"service.done_ms_mean", "ms"},
    {"service.client_decode_us_per_point", "us"},
    {"service.client_read_wait_ms", "ms"},
    {"fleet.router_gap_ms", "ms"},
    {"fleet.node_max_share", "ratio"},
    {"fleet.reroutes", "count"},
    {"bench.gen_lag_ms_p99", "ms"},
    {"bench.explained_ratio", "ratio"},
    {"bench.tracing_overhead", "ratio"},
    {"bench.fixture_build_s", "s"},
};

} // namespace

void
setLayer(Outcome &out, const std::string &name, double value)
{
    for (const MetricName &metric : layerMetrics) {
        if (name == metric.name) {
            out.set(name, value, metric.unit);
            return;
        }
    }
    note("layers", "unknown per-layer metric " + name);
    out.checksOk = false;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
pointP95Ms(const std::vector<const StreamResult *> &streams)
{
    std::vector<double> ms;
    for (const StreamResult *stream : streams) {
        for (double arrived : stream->arrivalS)
            ms.push_back((arrived - stream->slotS) * 1e3);
    }
    return quantile(ms, 0.95);
}

void
topUpSetups(const Options &options,
            const std::function<std::vector<DaemonSpec>()> &prepare,
            std::vector<double> *setupS)
{
    while (setupS->size() < minSetups) {
        Launch daemons = launch(options, prepare());
        if (!daemons.ok) {
            daemons.stop();
            return;
        }
        setupS->push_back(daemons.setupS);
        daemons.stop();
    }
}

std::vector<std::pair<std::string, double>>
programsOf(const std::vector<mtv::RunSpec> &specs)
{
    std::set<std::pair<std::string, double>> programs;
    for (const mtv::RunSpec &spec : specs) {
        for (const std::string &program : spec.programs)
            programs.emplace(program, spec.scale);
    }
    return {programs.begin(), programs.end()};
}

void
reportReplay(Outcome &out, const ReplayResult &replay)
{
    const auto &sims = replay.backend.simulations;
    double simS = 0;
    double dispatches = 0;
    std::map<std::string, double> perFamily;
    std::map<std::string, uint64_t> distinctCycles;
    for (const auto &sim : sims) {
        simS += sim.seconds;
        dispatches += static_cast<double>(sim.dispatches);
        perFamily[sim.label] += sim.seconds;
        distinctCycles.emplace(sim.key, sim.cycles);
    }
    double cycles = 0;
    for (const auto &sim : distinctCycles)
        cycles += static_cast<double>(sim.second);
    setLayer(out, "core.kernel_ms_per_point",
             ratio(simS * 1e3, static_cast<double>(sims.size())));
    for (const char *family : coldFamilies)
        setLayer(out, std::string("core.kernel_s.") + family,
                 perFamily[family]);
    setLayer(out, "core.sim_minst_per_s", ratio(dispatches / 1e6, simS));
    setLayer(out, "core.sim_cycles", cycles);
    setLayer(out, "api.engine.simulations",
             static_cast<double>(distinctCycles.size()));
    setLayer(out, "api.engine.worker_util",
             ratio(simS, replay.workers * replay.wallS));
    setLayer(out, "store.open_ms", replay.openS * 1e3);
    setLayer(out, "store.load_us_mean",
             ratio(replay.backend.loadS * 1e6,
                   static_cast<double>(replay.backend.loads)));
    setLayer(out, "store.hit_ratio",
             ratio(static_cast<double>(replay.backend.loadHits),
                   static_cast<double>(replay.backend.loads)));
    setLayer(out, "store.append_us_mean",
             ratio(replay.backend.appendS * 1e6,
                   static_cast<double>(replay.backend.appends)));
    setLayer(out, "store.bytes_per_record",
             ratio(static_cast<double>(replay.storeBytes),
                   static_cast<double>(replay.storeRecords)));
    setLayer(out, "codec.encode_us_per_point",
             ratio(replay.encodeS * 1e6,
                   static_cast<double>(replay.encodes)));
    setLayer(out, "codec.decode_us_per_point",
             ratio(replay.decodeS * 1e6,
                   static_cast<double>(replay.decodes)));
    if (replay.codecMismatch) {
        note("layers", "a result's canonical bytes did not re-encode");
        out.checksOk = false;
    }
}

void
reportReferenceRuns(Outcome &out, const ReplayResult &replay,
                    const std::vector<mtv::RunSpec> &requestedSpecs)
{
    size_t requestedSingles = 0;
    std::set<std::string> seen;
    for (const mtv::RunSpec &spec : requestedSpecs) {
        if (spec.mode == mtv::SpecMode::Single &&
            seen.insert(spec.canonical()).second) {
            ++requestedSingles;
        }
    }
    std::set<std::string> singleKeys;
    for (const auto &sim : replay.backend.simulations) {
        if (sim.single)
            singleKeys.insert(sim.key);
    }
    const size_t singles = singleKeys.size();
    setLayer(out, "api.engine.reference_runs",
             static_cast<double>(singles - std::min(singles,
                                                    requestedSingles)));
}

void
reportService(Outcome &out, const Registry &delta, double points,
              double streams)
{
    const auto laneWait = delta.histogram("engine_lane_wait_us");
    setLayer(out, "api.engine.lane_wait_ms_mean",
             ratio(laneWait.first, laneWait.second) / 1e3);
    const double hits = delta.counter("engine_cache_hits_total");
    const double misses = delta.counter("engine_cache_misses_total");
    setLayer(out, "api.engine.cache_hit_ratio", ratio(hits, hits + misses));
    setLayer(out, "service.encode_us_per_point",
             delta.mean("service_encode_us{"));
    setLayer(out, "service.bytes_per_point",
             ratio(delta.counter("service_bytes_sent"), points));
    setLayer(out, "service.write_stall_ms",
             ratio(delta.counter("service_write_stall_us_total") / 1e3,
                   streams));
    setLayer(out, "service.first_point_ms_mean",
             delta.mean("service_first_point_us{") / 1e3);
    setLayer(out, "service.done_ms_mean",
             delta.mean("service_done_us{") / 1e3);
}

void
reportClient(Outcome &out, const std::vector<const StreamResult *> &streams)
{
    double decodeS = 0;
    double readWaitS = 0;
    double points = 0;
    for (const StreamResult *stream : streams) {
        decodeS += stream->decodeS;
        readWaitS += stream->readWaitS;
        points += static_cast<double>(stream->points);
    }
    setLayer(out, "service.client_decode_us_per_point",
             ratio(decodeS * 1e6, points));
    setLayer(out, "service.client_read_wait_ms",
             ratio(readWaitS * 1e3, static_cast<double>(streams.size())));
}

void
zeroLayers(Outcome &out)
{
    for (const MetricName &metric : layerMetrics)
        out.set(metric.name, 0.0, metric.unit);
}

} // namespace bench
