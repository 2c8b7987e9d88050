#include "src/harness.hh"

#include <filesystem>

namespace bench
{

namespace fs = std::filesystem;

namespace
{

struct ColdIteration
{
    bool ok = false;
    double setupS = 0;
    double sweepS = 0;
    double rssMb = 0;
    std::vector<StreamResult> streams;
    /** Server-side registry delta (traced iterations). */
    Registry delta;
};

ColdIteration
coldIteration(const Options &options, const Inputs &in, const Pins &pins,
              DigestBook &book, int index, bool traced, Outcome &out)
{
    ColdIteration it;
    const std::string dir =
        options.runDir + "/cold-" + std::to_string(index);
    fs::create_directories(dir);
    Launch daemons = launch(
        options, {{socketPath(options, "d"), {"--store", dir + "/store"}}});
    it.setupS = daemons.setupS;
    std::string error;
    std::unique_ptr<Client> client =
        daemons.ok ? Client::connect(socketPath(options, "d"), &error)
                   : nullptr;
    if (!client) {
        note(options.workload, "no daemon connection: " + error);
        out.count(false);
        daemons.stop();
        return it;
    }
    Registry before;
    if (traced && !fetchRegistry(*client, &before))
        out.checksOk = false;
    const double start = nowS();
    it.ok = true;
    for (size_t f = 0; f < in.cold.size(); ++f) {
        StreamOptions streamOptions;
        streamOptions.traced = traced;
        streamOptions.keepBlobs = traced;
        StreamResult stream =
            client->sweep(in.cold[f], f + 1, false, streamOptions);
        const std::string family = in.cold[f].family;
        bool ok = stream.ok;
        if (!ok)
            note(options.workload, family + ": " + stream.error);
        if (ok && !book.check(family, stream.digest)) {
            note(options.workload, family + ": digest differs from an "
                                   "earlier run of the same sweep");
            ok = false;
        }
        if (ok && options.seed == defaultSeed && pins.loaded &&
            stream.digest != pins.cold.at(family)) {
            note(options.workload, family + ": digest " +
                                       formatDigest(stream.digest) +
                                       " != pinned " +
                                       formatDigest(pins.cold.at(family)));
            ok = false;
        }
        out.count(ok);
        it.ok = it.ok && ok;
        it.streams.push_back(std::move(stream));
    }
    it.sweepS = it.streams.back().doneS - start;
    if (traced) {
        Registry after;
        if (fetchRegistry(*client, &after))
            it.delta = after.minus(before);
        else
            out.checksOk = false;
    }
    it.rssMb = daemons.peakRssMb();
    client.reset();
    if (!daemons.stop())
        note(options.workload, "daemon did not shut down cleanly");
    fs::remove_all(dir);
    return it;
}

/**
 * A fresh daemon asked for the suite-grouping sweep, timed to its
 * first point; the connection is then dropped (the daemon reaps the
 * rest of the sweep). Adds a set-up and a first-point sample.
 */
void
firstPointProbe(const Options &options, const Inputs &in, int index,
                EndToEnd &e2e, Outcome &out)
{
    const std::string dir =
        options.runDir + "/probe-" + std::to_string(index);
    fs::create_directories(dir);
    Launch daemons = launch(
        options, {{socketPath(options, "d"), {"--store", dir + "/store"}}});
    std::string error;
    std::unique_ptr<Client> client =
        daemons.ok ? Client::connect(socketPath(options, "d"), &error)
                   : nullptr;
    bool ok = client != nullptr;
    if (client) {
        StreamOptions streamOptions;
        streamOptions.stopAfter = 1;
        const StreamResult stream =
            client->sweep(in.cold[0], 1, false, streamOptions);
        ok = stream.ok && stream.points == 1;
        if (ok) {
            e2e.setupS.push_back(daemons.setupS);
            e2e.firstPointMs.push_back(
                (stream.firstPointS - stream.sentS) * 1e3);
        } else {
            note(options.workload, "first-point probe: " + stream.error);
        }
    }
    out.count(ok);
    client.reset();
    daemons.stop();
    fs::remove_all(dir);
}

} // namespace

Outcome
runFiguresCold(const Options &options, const Pins &pins)
{
    Outcome out;
    const Inputs in = makeInputs(options.seed);
    DigestBook book;
    const double pointsPerIteration = [&] {
        double points = 0;
        for (const auto &request : in.cold)
            points += static_cast<double>(mtv::expandSweep(request).size());
        return points;
    }();

    auto reportIteration = [&](const ColdIteration &it, EndToEnd &e2e) {
        e2e.setupS.push_back(it.setupS);
        if (!it.ok)
            return;
        const StreamResult &lead = it.streams.front();
        e2e.firstPointMs.push_back((lead.firstPointS - lead.sentS) * 1e3);
        std::vector<const StreamResult *> streams;
        for (const StreamResult &stream : it.streams)
            streams.push_back(&stream);
        e2e.pointP95Ms.push_back(pointP95Ms(streams));
        e2e.rates.push_back(pointsPerIteration / it.sweepS);
        e2e.rssMb.push_back(it.rssMb);
    };

    if (!options.trace) {
        EndToEnd e2e;
        std::vector<double> sweepS;
        const double start = nowS();
        int index = 0;
        while (index == 0 || nowS() - start < options.seconds) {
            const ColdIteration it = coldIteration(options, in, pins, book,
                                                   index++, false, out);
            reportIteration(it, e2e);
            if (it.ok)
                sweepS.push_back(it.sweepS);
        }
        for (size_t probe = 0; e2e.firstPointMs.size() < minFirstPoints &&
                               probe < 2 * minFirstPoints;
             ++probe) {
            firstPointProbe(options, in, static_cast<int>(probe), e2e, out);
        }
        e2e.report(out);
        out.info["cold_sweep_s"] = median(sweepS);
        out.info["first_point_ms"] = median(e2e.firstPointMs);
        return out;
    }

    // Traced: expansion and program builds first (this process has
    // built nothing yet), then an untraced and a traced iteration,
    // then the in-process replay of the same three sweeps.
    zeroLayers(out);
    std::vector<mtv::SweepBuilder> expanded;
    const double expandS = expandSeconds(in.cold, &expanded);
    std::vector<mtv::RunSpec> allSpecs;
    std::vector<ReplayStep> steps;
    for (size_t f = 0; f < expanded.size(); ++f) {
        steps.push_back({in.cold[f].family, expanded[f].specs()});
        allSpecs.insert(allSpecs.end(), expanded[f].specs().begin(),
                        expanded[f].specs().end());
    }
    setLayer(out, "api.sweep.expand_ms", expandS * 1e3);
    setLayer(out, "workload.program_build_ms",
             programBuildSeconds(programsOf(allSpecs)) * 1e3);

    const ColdIteration plain =
        coldIteration(options, in, pins, book, 0, false, out);
    const ColdIteration traced =
        coldIteration(options, in, pins, book, 1, true, out);
    const ReplayResult local =
        replay(options.runDir + "/replay-store", steps);

    if (traced.ok) {
        for (size_t f = 0; f < steps.size(); ++f) {
            if (traced.streams[f].blobs != local.blobs[f]) {
                note(options.workload, steps[f].label +
                                           ": streamed bytes differ from "
                                           "the in-process results");
                out.count(false);
            }
        }
    }
    reportReplay(out, local);
    reportReferenceRuns(out, local, allSpecs);
    std::vector<const StreamResult *> streams;
    double points = 0;
    double clientS = 0;
    for (const StreamResult &stream : traced.streams) {
        streams.push_back(&stream);
        points += static_cast<double>(stream.points);
        clientS += stream.doneS - stream.sentS;
    }
    const double serverDoneS =
        traced.delta.histogram("service_done_us{").first / 1e6;
    reportService(out, traced.delta, points,
                  static_cast<double>(streams.size()));
    reportClient(out, streams);
    setLayer(out, "bench.explained_ratio", ratio(serverDoneS, clientS));
    setLayer(out, "bench.tracing_overhead",
             ratio(traced.sweepS, plain.sweepS));
    out.info["cold_sweep_s"] = plain.sweepS;
    out.info["traced_cold_sweep_s"] = traced.sweepS;
    return out;
}

} // namespace bench
