/**
 * @file
 * The four benchmark workloads (see perfbench/README.md for why each
 * exists and which per-layer metric should move which end-to-end
 * metric on it) and the digest pinning mode.
 */

#ifndef MTVBENCH_WORKLOADS_HH
#define MTVBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/bench.hh"

namespace bench
{

/** The seed whose digests are pinned in pinned_digests.json. */
constexpr uint64_t defaultSeed = 1;

struct Options
{
    std::string workload;
    uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    /** The mtvd binary of this build. */
    std::string mtvd;
    /** Scratch directory of this run (wiped first). */
    std::string runDir;
    /** perfbench/pinned_digests.json. */
    std::string pinFile;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload: end-to-end metrics, or per-layer ones when
 *  Options::trace is set. */
Outcome runWorkload(const Options &options);

/** Compute the default seed's digests in process and write them to
 *  Options::pinFile. Returns a process exit code. */
int pinDigests(const Options &options);

} // namespace bench

#endif // MTVBENCH_WORKLOADS_HH
