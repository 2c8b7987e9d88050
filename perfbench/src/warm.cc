#include "src/harness.hh"

#include <algorithm>
#include <cstdio>

namespace bench
{

namespace
{

struct WarmIteration
{
    bool ok = false;
    double setupS = 0;
    double rssMb = 0;
    std::vector<StreamResult> passes;
    /** Traced: per pass, each node's registry delta (one entry for a
     *  single daemon) and the router's. */
    std::vector<std::vector<Registry>> nodeDeltas;
    std::vector<Registry> routerDeltas;
};

/**
 * The run's store copies, one per daemon that opens a store (the
 * single mtvd, or each node), made once outside every timed phase.
 * Every daemon run on them is read-only and is checked to leave them
 * byte-identical, so each launch opens the fixture's bytes without
 * rewriting tens of megabytes per launch (whose writeback would
 * disturb the timed passes that follow).
 */
std::vector<std::string>
makeCopies(const Options &options, const Fixture &fixture, int nodes)
{
    std::vector<std::string> copies;
    for (int n = 0; n < std::max(nodes, 1); ++n) {
        copies.push_back(copyFixture(
            fixture, options.runDir + "/copy-" + std::to_string(n)));
    }
    return copies;
}

/** The daemon set over @p copies: a single mtvd (@p nodes == 0), or
 *  @p nodes node daemons followed by an `mtvd --route` router. */
std::vector<DaemonSpec>
warmDaemons(const Options &options, const std::vector<std::string> &copies,
            int nodes)
{
    if (nodes == 0)
        return {{socketPath(options, "d"), {"--store", copies[0]}}};
    std::vector<DaemonSpec> specs;
    std::string route;
    for (int n = 0; n < nodes; ++n) {
        const std::string socket =
            socketPath(options, "n" + std::to_string(n));
        specs.push_back({socket, {"--store", copies[n]}});
        route += (n ? "," : "") + socket;
    }
    specs.push_back({socketPath(options, "router"), {"--route", route}});
    return specs;
}

/** Fixture hygiene: a read-only run leaves every copy byte-identical
 *  to the fixture. */
void
checkCopies(const Options &options, const Fixture &fixture,
            const std::vector<std::string> &copies, Outcome &out)
{
    for (const std::string &copy : copies) {
        if (fingerprint(copy) != fixture.files) {
            note(options.workload,
                 "a read-only run changed its store copy " + copy);
            out.checksOk = false;
        }
    }
}

/**
 * One daemon set from warmDaemons(). Streams the fixture sweep
 * warmPasses times over one connection, then checks the copies.
 */
WarmIteration
warmIteration(const Options &options, const Inputs &in,
              const Fixture &fixture, const std::vector<std::string> &copies,
              const Pins &pins, int nodes, bool traced, Outcome &out)
{
    WarmIteration it;
    const std::vector<DaemonSpec> specs =
        warmDaemons(options, copies, nodes);
    // The client talks to the last daemon: the router, if any.
    const std::string endpoint = specs.back().socket;

    Launch daemons = launch(options, specs);
    it.setupS = daemons.setupS;
    std::string error;
    std::unique_ptr<Client> client =
        daemons.ok ? Client::connect(endpoint, &error) : nullptr;
    if (!client) {
        note(options.workload, "no daemon connection: " + error);
        out.count(false);
        daemons.stop();
        return it;
    }

    auto snapshot = [&](Registry *router, std::vector<Registry> *regs) {
        bool ok = nodes == 0 ? fetchRegistry(*client, &(*regs)[0])
                             : fetchFleet(*client, router, regs);
        if (!ok)
            out.checksOk = false;
    };
    it.ok = true;
    for (int pass = 0; pass < warmPasses; ++pass) {
        Registry routerBefore;
        std::vector<Registry> before(1);
        if (traced)
            snapshot(&routerBefore, &before);
        StreamOptions streamOptions;
        streamOptions.traced = traced;
        streamOptions.keepBlobs = traced && pass == 0;
        StreamResult stream =
            client->sweep(in.fixture, pass + 1, false, streamOptions);
        bool ok = stream.ok;
        if (!ok)
            note(options.workload, "pass " + std::to_string(pass + 1) +
                                       ": " + stream.error);
        if (ok && stream.digest != fixture.digest) {
            note(options.workload, "pass digest " +
                                       formatDigest(stream.digest) +
                                       " != the fixture's " +
                                       formatDigest(fixture.digest));
            ok = false;
        }
        if (ok && options.seed == defaultSeed && pins.loaded &&
            stream.digest != pins.fixture) {
            note(options.workload, "fixture digest differs from the pin");
            ok = false;
        }
        out.count(ok);
        it.ok = it.ok && ok;
        if (traced) {
            Registry routerAfter;
            std::vector<Registry> after(1);
            snapshot(&routerAfter, &after);
            std::vector<Registry> deltas;
            for (size_t n = 0; n < after.size() && n < before.size(); ++n)
                deltas.push_back(after[n].minus(before[n]));
            it.nodeDeltas.push_back(std::move(deltas));
            it.routerDeltas.push_back(routerAfter.minus(routerBefore));
        }
        it.passes.push_back(std::move(stream));
    }
    it.rssMb = daemons.peakRssMb();
    client.reset();
    if (!daemons.stop())
        note(options.workload, "daemon did not shut down cleanly");
    checkCopies(options, fixture, copies, out);
    return it;
}

double
passRate(const StreamResult &pass)
{
    return static_cast<double>(pass.points) / (pass.doneS - pass.sentS);
}

} // namespace

Outcome
runWarm(const Options &options, const Pins &pins, int nodes)
{
    Outcome out;
    const Inputs in = makeInputs(options.seed);
    if (options.trace)
        zeroLayers(out);

    // Traced: expansion and program builds before the fixture build
    // touches them in this process.
    std::vector<mtv::SweepBuilder> expanded;
    double expandS = 0;
    double programS = 0;
    if (options.trace) {
        expandS = expandSeconds({in.fixture}, &expanded);
        programS = programBuildSeconds(programsOf(expanded[0].specs()));
    }

    const Fixture fixture =
        buildFixture(options.runDir + "/fixture", in.fixture);
    out.info["fixture_build_s"] = fixture.buildS;
    std::fprintf(stderr, "mtvbench %s: fixture of %d points built in "
                         "%.2f s (%.1f MB)\n",
                 options.workload.c_str(), fixturePoints, fixture.buildS,
                 static_cast<double>(directoryBytes(fixture.dir)) / 1e6);
    const std::vector<std::string> copies =
        makeCopies(options, fixture, nodes);

    auto storeRate = [](const WarmIteration &it) {
        return passRate(it.passes[0]);
    };
    auto laterRates = [](const WarmIteration &it) {
        std::vector<double> rates;
        for (size_t p = 1; p < it.passes.size(); ++p)
            rates.push_back(passRate(it.passes[p]));
        return rates;
    };

    if (!options.trace) {
        EndToEnd e2e;
        std::vector<double> storeRates;
        std::vector<double> cacheRates;
        const double start = nowS();
        do {
            const WarmIteration it = warmIteration(
                options, in, fixture, copies, pins, nodes, false, out);
            e2e.setupS.push_back(it.setupS);
            if (!it.ok)
                continue;
            for (const StreamResult &pass : it.passes) {
                e2e.firstPointMs.push_back(
                    (pass.firstPointS - pass.sentS) * 1e3);
                e2e.pointP95Ms.push_back(pointP95Ms({&pass}));
            }
            storeRates.push_back(storeRate(it));
            for (double rate : laterRates(it))
                cacheRates.push_back(rate);
            e2e.rates.push_back(nodes == 0 ? storeRate(it)
                                           : median(laterRates(it)));
            e2e.rssMb.push_back(it.rssMb);
        } while (nowS() - start < options.seconds);
        topUpSetups(options, [&] {
            return warmDaemons(options, copies, nodes);
        }, &e2e.setupS);
        checkCopies(options, fixture, copies, out);
        e2e.report(out);
        if (nodes == 0) {
            out.info["store_pass_points_per_s"] = median(storeRates);
            out.info["cache_pass_points_per_s"] = median(cacheRates);
        } else {
            out.info["fleet_points_per_s"] = median(cacheRates);
        }
    } else {
        setLayer(out, "api.sweep.expand_ms", expandS * 1e3);
        setLayer(out, "workload.program_build_ms", programS * 1e3);
        setLayer(out, "bench.fixture_build_s", fixture.buildS);
        const WarmIteration plain = warmIteration(
            options, in, fixture, copies, pins, nodes, false, out);
        const WarmIteration traced = warmIteration(
            options, in, fixture, copies, pins, nodes, true, out);

        // In process: a copy of the fixture served twice — once from
        // the store, once from the memory cache.
        const std::string copy =
            copyFixture(fixture, options.runDir + "/replay-store");
        const ReplayResult local =
            replay(copy, {{"store", expanded[0].specs()},
                          {"cache", expanded[0].specs()}});
        if (traced.ok && traced.passes[0].blobs != local.blobs[0]) {
            note(options.workload,
                 "streamed bytes differ from the in-process results");
            out.count(false);
        }
        reportReplay(out, local);
        reportReferenceRuns(out, local, expanded[0].specs());

        std::vector<const StreamResult *> streams;
        double clientS = 0;
        double explainedS = 0;
        double gapS = 0;
        double points = 0;
        Registry nodeTotal;
        std::vector<double> nodeCompleted(std::max(nodes, 1), 0.0);
        double reroutes = 0;
        for (size_t p = 0; p < traced.passes.size() &&
                           p < traced.nodeDeltas.size();
             ++p) {
            const StreamResult &pass = traced.passes[p];
            streams.push_back(&pass);
            const double passS = pass.doneS - pass.sentS;
            clientS += passS;
            points += static_cast<double>(pass.points);
            double slowestNodeS = 0;
            for (size_t n = 0; n < traced.nodeDeltas[p].size(); ++n) {
                const Registry &delta = traced.nodeDeltas[p][n];
                slowestNodeS = std::max(
                    slowestNodeS,
                    delta.histogram("service_done_us{").first / 1e6);
                if (n < nodeCompleted.size())
                    nodeCompleted[n] +=
                        delta.counter("engine_points_completed_total");
                // Sum the nodes' deltas for the service figures.
                for (const auto &c : delta.counters)
                    nodeTotal.counters[c.first] += c.second;
                for (const auto &h : delta.histograms) {
                    nodeTotal.histograms[h.first].first += h.second.first;
                    nodeTotal.histograms[h.first].second += h.second.second;
                }
            }
            explainedS += slowestNodeS;
            gapS += passS - slowestNodeS;
            reroutes += traced.routerDeltas[p].counter("fleet_reroutes_total");
        }
        reportService(out, nodeTotal, points,
                      static_cast<double>(streams.size()));
        reportClient(out, streams);
        setLayer(out, "bench.explained_ratio", ratio(explainedS, clientS));
        double plainS = 0;
        for (const StreamResult &pass : plain.passes)
            plainS += pass.doneS - pass.sentS;
        setLayer(out, "bench.tracing_overhead", ratio(clientS, plainS));
        if (nodes > 0) {
            setLayer(out, "fleet.router_gap_ms",
                     ratio(gapS * 1e3, static_cast<double>(streams.size())));
            const double total = sum(nodeCompleted);
            setLayer(out, "fleet.node_max_share",
                     ratio(*std::max_element(nodeCompleted.begin(),
                                             nodeCompleted.end()),
                           total));
            setLayer(out, "fleet.reroutes", reroutes);
            // Every node is up for the whole run: a reroute means the
            // router marked a healthy node dead.
            if (reroutes > 0) {
                note(options.workload, "the router rerouted points");
                out.checksOk = false;
            }
        }
        if (!plain.passes.empty()) {
            out.info["store_pass_points_per_s"] = storeRate(plain);
            out.info["later_pass_points_per_s"] = median(laterRates(plain));
        }
    }

    if (fingerprint(fixture.dir) != fixture.files) {
        note(options.workload, "the fixture changed during the run");
        out.checksOk = false;
    }
    return out;
}

} // namespace bench
