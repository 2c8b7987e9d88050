#include "src/harness.hh"

#include <condition_variable>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

namespace bench
{

namespace fs = std::filesystem;

namespace
{

struct InteractiveIteration
{
    bool ok = false;
    double setupS = 0;
    double rssMb = 0;
    /** Per slot: latency (inf when failed), generator lag. */
    std::vector<double> latencyMs;
    std::vector<double> lagMs;
    std::vector<StreamResult> requests;
    /** Background points streamed in all. */
    uint64_t backgroundPoints = 0;
    /** Background points that arrived inside the window. */
    uint64_t backgroundInWindow = 0;
    double windowS = 0;
    /** Server-side registry delta (traced iterations). */
    Registry delta;
    /** Specs of the slots, in slot order. */
    std::vector<mtv::RunSpec> specs;

    double
    backgroundRate() const
    {
        return static_cast<double>(backgroundInWindow) / windowS;
    }
};

InteractiveIteration
interactiveIteration(const Options &options, const Inputs &in,
                     const Pins &pins, int index, bool traced, Outcome &out)
{
    InteractiveIteration it;
    const std::string dir =
        options.runDir + "/interactive-" + std::to_string(index);
    const std::string endpoint = socketPath(options, "d");
    fs::create_directories(dir);
    Launch daemons =
        launch(options, {{endpoint, {"--store", dir + "/store"}}});
    it.setupS = daemons.setupS;
    std::string error;
    std::unique_ptr<Client> background =
        daemons.ok ? Client::connect(endpoint, &error) : nullptr;
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; background && c < interactiveClients; ++c) {
        clients.push_back(Client::connect(endpoint, &error));
        if (!clients.back())
            background.reset();
    }
    if (!background) {
        note(options.workload, "no daemon connection: " + error);
        out.count(false);
        daemons.stop();
        return it;
    }
    Registry before;
    if (traced && !fetchRegistry(*background, &before))
        out.checksOk = false;

    // The open-loop schedule: slot k is due at t0 + k / rate, served
    // round-robin by the clients; each request is timed from its
    // slot, so a stalled reply delays (and is charged to) later slots.
    constexpr uint64_t backgroundId = 1;
    if (!background->sendSweep(in.background, backgroundId, true)) {
        out.count(false);
        daemons.stop();
        return it;
    }
    const double t0 = nowS() + backgroundLeadS;
    const size_t slots =
        static_cast<size_t>(options.seconds * interactiveRate);
    const double tEnd = t0 + options.seconds;
    it.windowS = options.seconds;
    it.latencyMs.assign(slots, std::numeric_limits<double>::infinity());
    it.lagMs.assign(slots, 0.0);
    it.requests.resize(slots);
    for (size_t k = 0; k < slots; ++k)
        it.specs.push_back(in.interactive(k));

    std::mutex doneMutex;
    std::condition_variable doneCv;
    int finished = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < interactiveClients; ++c) {
        threads.emplace_back([&, c] {
            for (size_t k = c; k < slots; k += interactiveClients) {
                const double slot = t0 + static_cast<double>(k) /
                                             interactiveRate;
                const double wait = slot - nowS();
                if (wait > 0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(wait));
                it.lagMs[k] = std::max(0.0, (nowS() - slot) * 1e3);
                StreamOptions streamOptions;
                streamOptions.slotS = slot;
                streamOptions.traced = traced;
                streamOptions.keepBlobs = traced;
                StreamResult result =
                    clients[c]->run({it.specs[k]}, k + 1, streamOptions);
                if (result.ok)
                    it.latencyMs[k] = (result.firstPointS - slot) * 1e3;
                it.requests[k] = std::move(result);
            }
            std::unique_lock<std::mutex> lock(doneMutex);
            ++finished;
            doneCv.notify_all();
            if (c != 0)
                return;
            // The first client stops the background sweep once every
            // client is through its slots and the window has closed.
            doneCv.wait(lock, [&] { return finished == interactiveClients; });
            lock.unlock();
            const double untilEnd = tEnd - nowS();
            if (untilEnd > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(untilEnd));
            mtv::Json cancel = mtv::Json::object();
            cancel.set("op", "cancel");
            cancel.set("id", backgroundId);
            mtv::Json response;
            // Without the cancel the background stream only ends at the
            // socket's receive timeout, and the run fails there.
            if (!clients[0]->control(cancel, &response))
                note(options.workload, "cannot cancel the background sweep");
        });
    }
    StreamOptions backgroundOptions;
    backgroundOptions.traced = traced;
    const StreamResult bg = background->readStream(
        backgroundId, true, backgroundOptions, [&](double arrived) {
            if (arrived >= t0 && arrived < tEnd)
                ++it.backgroundInWindow;
        });
    for (std::thread &thread : threads)
        thread.join();
    it.backgroundPoints = bg.points;

    it.ok = true;
    if (!bg.ok) {
        note(options.workload, "background sweep: " + bg.error);
        it.ok = false;
    } else if (!bg.cancelled || bg.doneS < tEnd) {
        note(options.workload, "the background sweep ran dry before the "
                               "window closed");
        it.ok = false;
    }
    out.count(it.ok);
    for (size_t k = 0; k < slots; ++k) {
        const StreamResult &request = it.requests[k];
        bool ok = request.ok;
        if (!ok)
            note(options.workload, "request " + std::to_string(k) + ": " +
                                       request.error);
        if (ok && options.seed == defaultSeed && pins.loaded &&
            k < pins.interactive.size() &&
            request.digest != pins.interactive[k]) {
            note(options.workload, "request " + std::to_string(k) +
                                       ": digest differs from the pin");
            ok = false;
            it.latencyMs[k] = std::numeric_limits<double>::infinity();
        }
        out.count(ok);
    }
    if (traced) {
        Registry after;
        if (fetchRegistry(*background, &after))
            it.delta = after.minus(before);
        else
            out.checksOk = false;
    }
    it.rssMb = daemons.peakRssMb();
    background.reset();
    clients.clear();
    if (!daemons.stop())
        note(options.workload, "daemon did not shut down cleanly");
    fs::remove_all(dir);
    return it;
}

} // namespace

Outcome
runInteractive(const Options &options, const Pins &pins)
{
    Outcome out;
    const Inputs in = makeInputs(options.seed);
    if (!options.trace) {
        EndToEnd e2e;
        const InteractiveIteration it =
            interactiveIteration(options, in, pins, 0, false, out);
        e2e.setupS.push_back(it.setupS);
        e2e.firstPointMs = it.latencyMs;
        e2e.pointP95Ms.push_back(quantile(it.latencyMs, 0.95));
        e2e.rates.push_back(it.backgroundRate());
        e2e.rssMb.push_back(it.rssMb);
        const std::string probe = options.runDir + "/probe";
        topUpSetups(options, [&] {
            fs::remove_all(probe);
            return std::vector<DaemonSpec>{
                {socketPath(options, "d"), {"--store", probe}}};
        }, &e2e.setupS);
        e2e.report(out);
        out.info["interactive_p50_ms"] = median(it.latencyMs);
        out.info["interactive_p95_ms"] = quantile(it.latencyMs, 0.95);
        out.info["interactive_samples"] =
            static_cast<double>(it.latencyMs.size());
        out.info["background_points_per_s"] = e2e.rates.front();
        out.info["gen_lag_ms_p99"] = quantile(it.lagMs, 0.99);
        return out;
    }

    zeroLayers(out);
    std::vector<mtv::SweepBuilder> expanded;
    setLayer(out, "api.sweep.expand_ms",
             expandSeconds({in.background}, &expanded) * 1e3);
    std::vector<mtv::RunSpec> programSpecs = {expanded[0].specs().front()};
    for (size_t k = 0; k < mtv::jobQueueOrder().size(); ++k)
        programSpecs.push_back(in.interactive(k));
    setLayer(out, "workload.program_build_ms",
             programBuildSeconds(programsOf(programSpecs)) * 1e3);
    const InteractiveIteration plain =
        interactiveIteration(options, in, pins, 0, false, out);
    const InteractiveIteration traced =
        interactiveIteration(options, in, pins, 1, true, out);

    // In process: the interactive specs, each simulated once.
    const ReplayResult local = replay(options.runDir + "/replay-store",
                                      {{"interactive", traced.specs}});
    for (size_t k = 0; k < traced.requests.size(); ++k) {
        if (traced.requests[k].ok &&
            traced.requests[k].blobs !=
                std::vector<std::string>{local.blobs[0][k]}) {
            note(options.workload, "request " + std::to_string(k) +
                                       ": streamed bytes differ from the "
                                       "in-process result");
            out.count(false);
        }
    }
    reportReplay(out, local);
    reportReferenceRuns(out, local, traced.specs);

    std::vector<const StreamResult *> streams;
    double points = 0;
    double clientS = 0;
    for (const StreamResult &request : traced.requests) {
        streams.push_back(&request);
        points += static_cast<double>(request.points);
        clientS += request.doneS - request.sentS;
    }
    // Bytes per point counts the background points too: they share
    // the byte counter.
    reportService(out, traced.delta,
                  points + static_cast<double>(traced.backgroundPoints),
                  static_cast<double>(streams.size()));
    // The interactive requests are the foreground: their own stage
    // means (op="run"), not the background sweep's.
    setLayer(out, "service.first_point_ms_mean",
             traced.delta.mean("service_first_point_us{op=\"run\"") / 1e3);
    setLayer(out, "service.done_ms_mean",
             traced.delta.mean("service_done_us{op=\"run\"") / 1e3);
    reportClient(out, streams);
    setLayer(out, "bench.gen_lag_ms_p99", quantile(traced.lagMs, 0.99));
    const double serverDoneS =
        traced.delta.histogram("service_done_us{op=\"run\"").first / 1e6;
    setLayer(out, "bench.explained_ratio", ratio(serverDoneS, clientS));
    setLayer(out, "bench.tracing_overhead",
             ratio(median(traced.latencyMs), median(plain.latencyMs)));
    out.info["interactive_p50_ms"] = median(plain.latencyMs);
    out.info["traced_interactive_p50_ms"] = median(traced.latencyMs);
    return out;
}

} // namespace bench
