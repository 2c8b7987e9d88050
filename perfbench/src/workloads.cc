#include "src/workloads.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/api/engine.hh"
#include "src/harness.hh"
#include "src/store/stats_codec.hh"

namespace bench
{

namespace fs = std::filesystem;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figures-cold", "stream-warm", "interactive-under-sweep",
        "fleet-stream-warm"};
    return names;
}

Outcome
runWorkload(const Options &options)
{
    fs::remove_all(options.runDir);
    fs::create_directories(options.runDir);
    // One untimed start first: the binary's first start pays page-cache
    // misses that no later start of the run pays.
    launch(options, {{socketPath(options, "d"), {}}}).stop();
    std::string pinError;
    const Pins pins = loadPins(options, &pinError);
    Outcome out;
    if (options.workload == "figures-cold")
        out = runFiguresCold(options, pins);
    else if (options.workload == "stream-warm")
        out = runWarm(options, pins, 0);
    else if (options.workload == "interactive-under-sweep")
        out = runInteractive(options, pins);
    else
        out = runWarm(options, pins, 2);
    if (options.seed == defaultSeed && !pins.loaded) {
        note(options.workload, pinError);
        out.checksOk = false;
    }
    // A failed run keeps its directory (daemon logs) for inspection.
    if (out.checksOk && out.failed == 0)
        fs::remove_all(options.runDir);
    return out;
}

int
pinDigests(const Options &options)
{
    const Inputs in = makeInputs(defaultSeed);
    mtv::ExperimentEngine engine;
    auto digestOf = [&](const std::vector<mtv::RunSpec> &specs) {
        uint64_t digest = digestSeed;
        for (const mtv::RunResult &result : engine.runAll(specs))
            digest = foldDigest(digest,
                                mtv::serializeSimStats(result.stats));
        return digest;
    };
    mtv::Json pins = mtv::Json::object();
    pins.set("seed", defaultSeed);
    pins.set("inputs", inputsFingerprint());
    mtv::Json cold = mtv::Json::object();
    for (const mtv::SweepRequest &request : in.cold)
        cold.set(request.family,
                 formatDigest(digestOf(mtv::expandSweep(request).specs())));
    pins.set("figures-cold", std::move(cold));
    pins.set("fixture",
             formatDigest(digestOf(mtv::expandSweep(in.fixture).specs())));
    mtv::Json interactive = mtv::Json::array();
    for (int k = 0; k < pinnedRequests; ++k)
        interactive.push(formatDigest(digestOf({in.interactive(k)})));
    pins.set("interactive", std::move(interactive));

    std::ofstream out(options.pinFile);
    out << pins.dump() << "\n";
    if (!out) {
        std::fprintf(stderr, "mtvbench: cannot write %s\n",
                     options.pinFile.c_str());
        return 1;
    }
    std::printf("pinned the default seed's digests in %s\n",
                options.pinFile.c_str());
    return 0;
}

} // namespace bench
