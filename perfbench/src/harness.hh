/**
 * @file
 * What the four workloads share: their shapes and seeded inputs, the
 * pinned digests, daemon launches, the warm-store fixture, metrics-op
 * deltas, and the metric tables with their report helpers.
 */

#ifndef MTVBENCH_HARNESS_HH
#define MTVBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/bench.hh"
#include "src/client.hh"
#include "src/daemon.hh"
#include "src/layers.hh"
#include "src/service/json.hh"
#include "src/workload/suite.hh"
#include "src/workloads.hh"

namespace bench
{

// ---------------------------------------------------------------------
// Workload shapes. Changing any of them changes the inputs, so the
// pinned digests must be regenerated (mtvbench --pin).
// ---------------------------------------------------------------------

/** figures-cold: scale of the three cold figure sweeps. */
constexpr double coldScale = 2e-4;
inline const char *const coldFamilies[] = {"suite-grouping", "latency",
                                           "ext-compare"};
/** Warm fixture: an N-point latency sweep of 10-job queues. */
constexpr double fixtureScale = 2e-6;
constexpr int fixturePoints = 20000;
/** Streams of the fixture sweep per daemon: 1 store + 3 cache. */
constexpr int warmPasses = 4;
/** interactive-under-sweep: open-loop aggregate rate and clients. */
constexpr double interactiveRate = 60;
constexpr int interactiveClients = 3;
constexpr double interactiveScale = 2e-5;
/** The background sweep: far more points than a window completes. */
constexpr double backgroundScale = 2e-5;
constexpr int backgroundPoints = 40000;
/** Head start of the background sweep before the first slot. */
constexpr double backgroundLeadS = 0.3;
/** Interactive requests whose digests are pinned. */
constexpr int pinnedRequests = 64;
/** Set-ups measured per run, at least (setup_s is their median). */
constexpr size_t minSetups = 30;
/** figures-cold: first points measured per run, at least. */
constexpr size_t minFirstPoints = 40;

/** The shape constants above as one string; pinned digests record it
 *  so a pin of other inputs is refused, never silently compared. */
std::string inputsFingerprint();

/** One diagnostic line on stderr. */
void note(const std::string &workload, const std::string &what);

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/** mt19937_64's output sequence is fixed by the standard, so a seed
 *  names the same inputs on every compiler. */
class Rng
{
  public:
    Rng(uint64_t seed, uint64_t stream)
        : gen_(seed * 0x9e3779b97f4a7c15ull ^ (stream << 32 | stream))
    {
    }
    uint64_t below(uint64_t n) { return gen_() % n; }

  private:
    std::mt19937_64 gen_;
};

/** The paper's job-queue order, shuffled by @p rng. */
std::vector<std::string> permutedJobs(Rng &rng);

struct Inputs
{
    /** figures-cold: suite-grouping, latency, ext-compare. */
    std::vector<mtv::SweepRequest> cold;
    /** The warm fixture's sweep. */
    mtv::SweepRequest fixture;
    /** interactive-under-sweep's background sweep. */
    mtv::SweepRequest background;
    int interactiveLatencyBase = 0;

    /** The distinct single-point spec of interactive slot @p k. */
    mtv::RunSpec
    interactive(uint64_t k) const
    {
        const std::vector<std::string> &jobs = mtv::jobQueueOrder();
        mtv::MachineParams params = mtv::MachineParams::reference();
        params.memLatency = interactiveLatencyBase + static_cast<int>(k);
        return mtv::RunSpec::single(jobs[k % jobs.size()], params,
                                    interactiveScale);
    }
};

/**
 * The seed permutes the job queues of the figure sweeps and picks
 * every synthetic memory latency; sweep sizes, scales and programs
 * stay fixed, so every seed asks for about the same work.
 */
Inputs makeInputs(uint64_t seed);

// ---------------------------------------------------------------------
// Pinned digests of the default seed
// ---------------------------------------------------------------------

struct Pins
{
    bool loaded = false;
    std::map<std::string, uint64_t> cold;
    uint64_t fixture = 0;
    std::vector<uint64_t> interactive;
};

/** Read Options::pinFile; Pins::loaded stays false (with @p error
 *  set) when it is missing or pins other inputs. */
Pins loadPins(const Options &options, std::string *error);

/** Remembers the first digest seen under each key; later ones must
 *  match (the same request always yields the same bytes). */
class DigestBook
{
  public:
    bool
    check(const std::string &key, uint64_t digest)
    {
        auto inserted = digests_.emplace(key, digest);
        return inserted.first->second == digest;
    }

  private:
    std::map<std::string, uint64_t> digests_;
};

// ---------------------------------------------------------------------
// Daemons, fixtures, server-side metrics
// ---------------------------------------------------------------------

struct DaemonSpec
{
    std::string socket;
    std::vector<std::string> args;
};

struct Launch
{
    bool ok = false;
    double setupS = 0;
    std::vector<std::unique_ptr<Daemon>> daemons;

    double
    peakRssMb() const
    {
        uint64_t kb = 0;
        for (const auto &daemon : daemons)
            kb += daemon->peakRssKb();
        return static_cast<double>(kb) / 1024.0;
    }

    /** Stop in reverse start order (a router before its nodes). */
    bool
    stop()
    {
        bool clean = true;
        for (auto it = daemons.rbegin(); it != daemons.rend(); ++it)
            clean = (*it)->stop() && clean;
        daemons.clear();
        return clean;
    }
};

/** Spawn @p specs and time launch -> every daemon answers ping. */
Launch launch(const Options &options, const std::vector<DaemonSpec> &specs);

/** The unix socket of daemon @p name inside the run directory. */
std::string socketPath(const Options &options, const std::string &name);

/** Relative path -> (size, FNV-1a of the bytes), every file. */
using Fingerprint = std::map<std::string, std::pair<uint64_t, uint64_t>>;

Fingerprint fingerprint(const std::string &dir);

/** The warm-store fixture, built once per invocation. */
struct Fixture
{
    std::string dir;
    double buildS = 0;
    uint64_t digest = digestSeed;
    Fingerprint files;
};

/** Simulate the fixture sweep in process into a fresh store. */
Fixture buildFixture(const std::string &dir, const mtv::SweepRequest &request);

/** A daemon's private copy of the fixture. */
std::string copyFixture(const Fixture &fixture, const std::string &dir);

/** Counters and histogram (sum, count) pairs of one registry. */
struct Registry
{
    std::map<std::string, double> counters;
    std::map<std::string, std::pair<double, double>> histograms;

    Registry
    minus(const Registry &before) const
    {
        Registry delta = *this;
        for (auto &counter : delta.counters) {
            auto it = before.counters.find(counter.first);
            if (it != before.counters.end())
                counter.second -= it->second;
        }
        for (auto &histogram : delta.histograms) {
            auto it = before.histograms.find(histogram.first);
            if (it != before.histograms.end()) {
                histogram.second.first -= it->second.first;
                histogram.second.second -= it->second.second;
            }
        }
        return delta;
    }

    double
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    }

    /**
     * Sum and count over every histogram whose name starts with
     * @p prefix (all label sets of one metric). Stage means come from
     * these, never from the p50/p95/p99 fields, whose fixed bucket
     * tables misread stages that sit below their first bound.
     */
    std::pair<double, double>
    histogram(const std::string &prefix) const
    {
        std::pair<double, double> total{0, 0};
        for (const auto &histogram : histograms) {
            if (histogram.first.rfind(prefix, 0) == 0) {
                total.first += histogram.second.first;
                total.second += histogram.second.second;
            }
        }
        return total;
    }

    double
    mean(const std::string &prefix) const
    {
        const auto h = histogram(prefix);
        return h.second > 0 ? h.first / h.second : 0.0;
    }
};

/** The "metrics" member of a metrics-op answer. */
Registry parseRegistry(const mtv::Json &metrics);

/** A daemon's registry over @p client's connection. */
bool fetchRegistry(Client &client, Registry *out);

/** A routing daemon's own registry and each node's. */
bool fetchFleet(Client &client, Registry *router,
                std::vector<Registry> *nodes);

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

/** Set a per-layer metric by name, with its unit from the table. */
void setLayer(Outcome &out, const std::string &name, double value);

/** @p num / @p den, or 0 when nothing was counted. */
double ratio(double num, double den);

/** The end-to-end metrics every workload reports. */
struct EndToEnd
{
    std::vector<double> setupS;
    std::vector<double> firstPointMs;
    /** Per stream unit (a cold iteration, a pass, an interactive
     *  window): the p95 of its points' latencies. */
    std::vector<double> pointP95Ms;
    std::vector<double> rates;
    std::vector<double> rssMb;

    void
    report(Outcome &out) const
    {
        out.set("setup_s", median(setupS), "s");
        out.set("first_point_ms", median(firstPointMs), "ms");
        out.set("point_p95_ms", median(pointP95Ms), "ms");
        out.set("points_per_s", median(rates), "points/s");
        out.set("peak_rss_mb", median(rssMb), "MB");
        out.set("success_ratio",
                1.0 - ratio(static_cast<double>(out.failed),
                            static_cast<double>(out.attempted)),
                "ratio");
        out.info["setup_s"] = median(setupS);
        out.info["peak_rss_mb"] = median(rssMb);
        out.info["error_rate"] =
            ratio(static_cast<double>(out.failed),
                  static_cast<double>(out.attempted));
    }
};

/** The p95 of the point latencies of @p streams (each point timed
 *  from its own stream's request or slot). */
double pointP95Ms(const std::vector<const StreamResult *> &streams);

/** Launch-and-ping set-ups with nothing else measured, until the run
 *  holds minSetups samples. @p prepare readies a fresh daemon set. */
void topUpSetups(const Options &options,
                 const std::function<std::vector<DaemonSpec>()> &prepare,
                 std::vector<double> *setupS);

/** (program, scale) pairs the specs instantiate. */
std::vector<std::pair<std::string, double>>
programsOf(const std::vector<mtv::RunSpec> &specs);

/**
 * Per-layer metrics of an in-process replay. Times cover every
 * simulation the engine ran; counts cover distinct specs, which repeat
 * exactly (two workers may race to simulate the same uncached
 * reference term — a store hit when they do not overlap).
 */
void reportReplay(Outcome &out, const ReplayResult &replay);

/** reference_runs: distinct single-mode specs simulated that nobody
 *  asked for (the C_i / F_i terms of the group accounting). */
void reportReferenceRuns(Outcome &out, const ReplayResult &replay,
                    const std::vector<mtv::RunSpec> &requestedSpecs);

/** Server-side stage figures of one daemon's registry delta. */
void reportService(Outcome &out, const Registry &delta, double points,
              double streams);

/** Client-side spans of traced streams. */
void reportClient(Outcome &out,
                  const std::vector<const StreamResult *> &streams);

/** Every per-layer metric at 0 (a layer that does no work on a
 *  workload keeps it). */
void zeroLayers(Outcome &out);

// ---------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------

/** figures-cold (cold.cc). */
Outcome runFiguresCold(const Options &options, const Pins &pins);

/** stream-warm (@p nodes == 0) or fleet-stream-warm over @p nodes
 *  node daemons (warm.cc). */
Outcome runWarm(const Options &options, const Pins &pins, int nodes);

/** interactive-under-sweep (interactive.cc). */
Outcome runInteractive(const Options &options, const Pins &pins);

} // namespace bench

#endif // MTVBENCH_HARNESS_HH
