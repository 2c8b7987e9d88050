#include "src/layers.hh"

#include <filesystem>
#include <future>

#include "src/api/engine.hh"
#include "src/bench.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace bench
{

namespace
{

/** The last backend miss of this thread: the engine simulates right
 *  after a miss and appends the result before its next lookup. */
thread_local std::string lastMissKey;
thread_local double lastMissAt = 0;

} // namespace

std::shared_ptr<const mtv::SimStats>
TimingBackend::load(const std::string &key)
{
    return loadRecord(key).stats;
}

mtv::StoredRecord
TimingBackend::loadRecord(const std::string &key)
{
    const double start = nowS();
    mtv::StoredRecord record = store_->loadRecord(key);
    const double end = nowS();
    if (!record.stats) {
        lastMissKey = key;
        lastMissAt = end;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++tally_.loads;
    tally_.loadS += end - start;
    if (record.stats)
        ++tally_.loadHits;
    return record;
}

void
TimingBackend::store(const std::string &key, const mtv::SimStats &stats)
{
    const double start = nowS();
    store_->store(key, stats);
    const double end = nowS();
    Simulation sim;
    sim.key = key;
    // Keys are RunSpec::canonical() strings, which lead with the mode.
    sim.single = key.rfind("mode=single;", 0) == 0;
    sim.seconds = key == lastMissKey ? start - lastMissAt : 0.0;
    sim.cycles = stats.cycles;
    sim.dispatches = stats.dispatches;
    lastMissKey.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    sim.label = label_;
    ++tally_.appends;
    tally_.appendS += end - start;
    tally_.simulations.push_back(std::move(sim));
}

void
TimingBackend::setLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    label_ = label;
}

TimingBackend::Tally
TimingBackend::tally() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tally_;
}

ReplayResult
replay(const std::string &storeDir, const std::vector<ReplayStep> &steps)
{
    ReplayResult result;
    const double openStart = nowS();
    auto store = std::make_shared<mtv::ResultStore>(storeDir);
    result.openS = nowS() - openStart;
    auto backend = std::make_shared<TimingBackend>(store);

    std::mutex serializerMutex;
    uint64_t serializerCalls = 0;
    double serializerS = 0;
    mtv::EngineOptions options;
    options.backend = backend;
    options.canonicalSerializer = [&](const mtv::SimStats &stats) {
        const double start = nowS();
        std::string blob = mtv::serializeSimStats(stats);
        const double spent = nowS() - start;
        std::lock_guard<std::mutex> lock(serializerMutex);
        ++serializerCalls;
        serializerS += spent;
        return blob;
    };

    std::vector<std::vector<mtv::RunResult>> results;
    {
        mtv::ExperimentEngine engine(options);
        result.workers = engine.workers();
        const double wallStart = nowS();
        for (const ReplayStep &step : steps) {
            backend->setLabel(step.label);
            // submit() per spec, consumed in order: the daemon's path.
            std::vector<std::future<mtv::RunResult>> futures;
            futures.reserve(step.specs.size());
            for (const mtv::RunSpec &spec : step.specs)
                futures.push_back(engine.submit(spec));
            results.emplace_back();
            for (auto &future : futures)
                results.back().push_back(future.get());
        }
        result.wallS = nowS() - wallStart;
    }

    for (const auto &stepResults : results) {
        result.blobs.emplace_back();
        for (const mtv::RunResult &run : stepResults) {
            const double start = nowS();
            std::string blob = mtv::serializeSimStats(run.stats);
            result.encodeS += nowS() - start;
            ++result.encodes;
            if (run.blob && *run.blob != blob)
                result.codecMismatch = true;
            result.blobs.back().push_back(std::move(blob));
        }
    }
    for (const auto &stepBlobs : result.blobs) {
        for (const std::string &blob : stepBlobs) {
            const double start = nowS();
            const mtv::SimStats decoded = mtv::deserializeSimStats(blob);
            result.decodeS += nowS() - start;
            ++result.decodes;
            if (decoded.cycles == 0 && decoded.dispatches == 0)
                result.codecMismatch = true;
        }
    }
    result.encodes += serializerCalls;
    result.encodeS += serializerS;
    result.backend = backend->tally();
    result.storeRecords = store->size();
    result.storeBytes = directoryBytes(storeDir);
    return result;
}

double
programBuildSeconds(
    const std::vector<std::pair<std::string, double>> &programs)
{
    double total = 0;
    for (const auto &program : programs) {
        const double start = nowS();
        auto built = mtv::makeProgram(program.first, program.second);
        total += nowS() - start;
    }
    return total;
}

double
expandSeconds(const std::vector<mtv::SweepRequest> &requests,
              std::vector<mtv::SweepBuilder> *out)
{
    double total = 0;
    for (const mtv::SweepRequest &request : requests) {
        const double start = nowS();
        out->push_back(mtv::expandSweep(request));
        total += nowS() - start;
    }
    return total;
}

uint64_t
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

} // namespace bench
