/**
 * @file
 * In-process layer probes of the traced run. Every span here is taken
 * by the benchmark around calls into a layer's public functions —
 * nothing inside src/ is instrumented:
 *
 *  - workload: the first makeProgram() of every program a workload
 *    uses (the build every fresh daemon pays once);
 *  - api.sweep: expandSweep();
 *  - store: ResultStore construction, and every loadRecord()/store()
 *    the engine issues, through TimingBackend;
 *  - core + api.engine: an ExperimentEngine with default options
 *    replays the workload's specs through that backend. The engine
 *    looks a spec up in the backend, simulates on a miss and appends
 *    the result, all on one worker thread, so the span from the miss
 *    to the append is the simulation itself — reference-term runs
 *    included;
 *  - codec: serializeSimStats()/deserializeSimStats() over every
 *    replayed result, plus the engine's canonicalSerializer calls.
 *
 * The replay also yields every result's canonical bytes, which the
 * traced run compares with the bytes the daemon streamed.
 */

#ifndef MTVBENCH_LAYERS_HH
#define MTVBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/api/backend.hh"
#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/store/result_store.hh"

namespace bench
{

/** A ResultBackend that times every call into a ResultStore. */
class TimingBackend : public mtv::ResultBackend
{
  public:
    /** One simulation, as seen from the backend. */
    struct Simulation
    {
        std::string key;       ///< RunSpec::canonical()
        std::string label;     ///< replay step that caused it
        bool single = false;   ///< a single-mode spec
        double seconds = 0;    ///< miss -> append on one thread
        uint64_t cycles = 0;
        uint64_t dispatches = 0;
    };

    /** Counts and times, in seconds. */
    struct Tally
    {
        uint64_t loads = 0;
        uint64_t loadHits = 0;
        double loadS = 0;
        uint64_t appends = 0;
        double appendS = 0;
        std::vector<Simulation> simulations;
    };

    explicit TimingBackend(std::shared_ptr<mtv::ResultStore> store)
        : store_(std::move(store))
    {
    }

    std::shared_ptr<const mtv::SimStats>
    load(const std::string &key) override;

    mtv::StoredRecord loadRecord(const std::string &key) override;

    void store(const std::string &key,
               const mtv::SimStats &stats) override;

    size_t size() const override { return store_->size(); }

    /** Label the simulations of the next replay step. */
    void setLabel(const std::string &label);

    Tally tally() const;

  private:
    std::shared_ptr<mtv::ResultStore> store_;
    mutable std::mutex mutex_;
    std::string label_;
    Tally tally_;
};

/** One step of a replay: a labelled batch of specs. */
struct ReplayStep
{
    std::string label;
    std::vector<mtv::RunSpec> specs;
};

/** What a replay measured. Times in seconds. */
struct ReplayResult
{
    double openS = 0;      ///< ResultStore construction
    double wallS = 0;      ///< all steps, submit to last result
    int workers = 0;
    TimingBackend::Tally backend;
    /** serializeSimStats() calls (direct + engine serializer). */
    uint64_t encodes = 0;
    double encodeS = 0;
    uint64_t decodes = 0;
    double decodeS = 0;
    /** Canonical bytes of every result, per step, submission order. */
    std::vector<std::vector<std::string>> blobs;
    /** Bytes of the store's segment files and its record count. */
    uint64_t storeBytes = 0;
    uint64_t storeRecords = 0;
    /** A result's bytes disagreed with their own re-encoding. */
    bool codecMismatch = false;
};

/**
 * Open a ResultStore at @p storeDir (empty = fresh, or a fixture copy)
 * and replay @p steps in order through a default-option engine.
 */
ReplayResult replay(const std::string &storeDir,
                    const std::vector<ReplayStep> &steps);

/** Total first-build time of every (program, scale) pair, seconds. */
double programBuildSeconds(
    const std::vector<std::pair<std::string, double>> &programs);

/** Time expandSweep() on every request; specs land in @p out. */
double expandSeconds(const std::vector<mtv::SweepRequest> &requests,
                     std::vector<mtv::SweepBuilder> *out);

/** Bytes of the files under @p dir (recursive). */
uint64_t directoryBytes(const std::string &dir);

} // namespace bench

#endif // MTVBENCH_LAYERS_HH
