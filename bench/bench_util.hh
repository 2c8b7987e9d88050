/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 */

#ifndef MTV_BENCH_BENCH_UTIL_HH
#define MTV_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/store/result_store.hh"
#include "src/workload/program.hh"
#include "src/workload/suite.hh"

namespace mtv
{

/**
 * Workload scale for a bench: the default, overridable with the
 * MTV_SCALE environment variable (e.g. MTV_SCALE=1e-5 for a quick
 * smoke run, MTV_SCALE=1e-3 for a higher-fidelity one).
 */
inline double
benchScale()
{
    if (const char *env = std::getenv("MTV_SCALE")) {
        const double v = std::atof(env);
        if (v > 0)
            return v;
        std::fprintf(stderr, "warn: ignoring invalid MTV_SCALE '%s'\n",
                     env);
    }
    return workloadDefaultScale;
}

/**
 * Engine worker threads for a bench: every hardware thread by
 * default, overridable with MTV_WORKERS (e.g. MTV_WORKERS=1 to
 * measure the serial baseline of a sweep).
 */
inline int
benchWorkers()
{
    if (const char *env = std::getenv("MTV_WORKERS")) {
        const int v = std::atoi(env);
        if (v > 0)
            return v;
        std::fprintf(stderr,
                     "warn: ignoring invalid MTV_WORKERS '%s'\n", env);
    }
    return 0;  // engine default: one per hardware thread
}

/**
 * Simulation kernel for a bench: the engine default (the batched
 * fast lane), overridable with MTV_KERNEL=stepped|batched. Both
 * kernels produce bit-identical figures (the CI kernel-parity job
 * diffs a bench's output under each), so this knob exists for A/B
 * validation and speedup measurement only.
 */
inline SimKernel
benchKernel()
{
    if (const char *env = std::getenv("MTV_KERNEL")) {
        const std::string v = env;
        if (v == "stepped")
            return SimKernel::Stepped;
        if (v == "batched")
            return SimKernel::Batched;
        if (!v.empty()) {
            std::fprintf(stderr,
                         "warn: ignoring invalid MTV_KERNEL '%s' "
                         "(want stepped|batched)\n",
                         env);
        }
    }
    return EngineOptions{}.kernel;
}

/**
 * Engine configured from the environment: MTV_WORKERS caps the pool,
 * MTV_KERNEL selects the simulation kernel, and MTV_STORE=<dir>
 * attaches the persistent result store — point consecutive bench
 * invocations at the same directory and every already-simulated
 * point is served from disk (the warm-store fast path; the engine
 * summary line shows the store hits).
 */
inline ExperimentEngine
benchEngine()
{
    EngineOptions options;
    options.workers = benchWorkers();
    options.kernel = benchKernel();
    if (const char *dir = std::getenv("MTV_STORE")) {
        if (*dir)
            options.backend = std::make_shared<ResultStore>(dir);
    }
    return ExperimentEngine(options);
}

/** Uniform banner so EXPERIMENTS.md can quote outputs verbatim. */
inline void
benchBanner(const char *experiment, const char *paperRef,
            double scale)
{
    std::printf("== %s ==\n", experiment);
    std::printf("reproduces: %s\n", paperRef);
    std::printf("workload scale: %g of the paper's dynamic "
                "instruction counts\n\n",
                scale);
}

/** One-line engine utilization summary for a finished sweep. */
inline void
benchEngineSummary(const ExperimentEngine &engine, double seconds)
{
    std::printf("\n[engine: %d worker%s, %zu cached runs, "
                "%llu hits / %llu misses / %llu uncacheable, "
                "%llu store-served, %.2fs wall]\n",
                engine.workers(), engine.workers() == 1 ? "" : "s",
                engine.cacheSize(),
                static_cast<unsigned long long>(engine.cacheHits()),
                static_cast<unsigned long long>(engine.cacheMisses()),
                static_cast<unsigned long long>(
                    engine.uncachedRuns()),
                static_cast<unsigned long long>(engine.storeHits()),
                seconds);
}

} // namespace mtv

#endif // MTV_BENCH_BENCH_UTIL_HH
