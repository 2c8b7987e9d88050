/**
 * @file
 * Tests for src/api: RunSpec serialization/hash round-trips, the
 * ExperimentEngine's shared result cache, worker-count-independent
 * determinism, SweepBuilder expansion, and the custom-program
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <mutex>
#include <unordered_map>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/driver/experiments.hh"
#include "src/service/server.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

/** Field-by-field SimStats equality (bit-identical runs). */
void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.vecOpsFu1, b.vecOpsFu1);
    EXPECT_EQ(a.vecOpsFu2, b.vecOpsFu2);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.decodeIdle, b.decodeIdle);
    EXPECT_EQ(a.stateHist, b.stateHist);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t i = 0; i < a.threads.size(); ++i) {
        EXPECT_EQ(a.threads[i].instructions, b.threads[i].instructions);
        EXPECT_EQ(a.threads[i].runsCompleted,
                  b.threads[i].runsCompleted);
        EXPECT_EQ(a.threads[i].instructionsThisRun,
                  b.threads[i].instructionsThisRun);
    }
}

// ---------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------

TEST(RunSpec, CanonicalRoundTripSingle)
{
    MachineParams p = MachineParams::reference();
    p.memLatency = 73;
    const RunSpec spec = RunSpec::single("tomcatv", p, 1e-4, 123);
    const RunSpec back = RunSpec::parse(spec.canonical());
    EXPECT_EQ(spec, back);
    EXPECT_EQ(spec.canonical(), back.canonical());
    EXPECT_EQ(spec.key(), back.key());
}

TEST(RunSpec, CanonicalRoundTripGroup)
{
    MachineParams p = MachineParams::multithreaded(3);
    p.sched = SchedPolicy::FairLru;
    p.renaming = true;
    const RunSpec spec =
        RunSpec::group({"swm256", "hydro2d", "trfd"}, p, testScale);
    const RunSpec back = RunSpec::parse(spec.canonical());
    EXPECT_EQ(spec, back);
    EXPECT_EQ(back.mode, SpecMode::Group);
    EXPECT_EQ(back.params.contexts, 3);
    EXPECT_EQ(back.params.sched, SchedPolicy::FairLru);
    EXPECT_TRUE(back.params.renaming);
}

TEST(RunSpec, CanonicalRoundTripJobQueue)
{
    MachineParams p = MachineParams::crayStyle(4);
    p.decodeWidth = 2;
    p.bankedMemory = true;
    const RunSpec spec = RunSpec::jobQueue(jobQueueOrder(), p, 3e-5);
    const RunSpec back = RunSpec::parse(spec.canonical());
    EXPECT_EQ(spec, back);
    EXPECT_EQ(back.programs.size(), jobQueueOrder().size());
    EXPECT_EQ(back.params.loadPorts, 2);
    EXPECT_EQ(back.params.storePorts, 1);
}

TEST(RunSpec, AbbreviationsCanonicalize)
{
    const RunSpec a =
        RunSpec::single("sw", MachineParams::reference(), testScale);
    const RunSpec b = RunSpec::single("swm256",
                                      MachineParams::reference(),
                                      testScale);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.programs[0], "swm256");
}

TEST(RunSpec, KeyDiscriminates)
{
    const RunSpec a =
        RunSpec::single("swm256", MachineParams::reference(),
                        testScale);
    MachineParams p = MachineParams::reference();
    p.memLatency = 51;
    const RunSpec b = RunSpec::single("swm256", p, testScale);
    const RunSpec c =
        RunSpec::single("hydro2d", MachineParams::reference(),
                        testScale);
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(a.canonical(), b.canonical());
}

TEST(RunSpec, MachineParamsCanonicalRoundTrip)
{
    MachineParams p = MachineParams::multithreaded(4);
    p.sched = SchedPolicy::RoundRobin;
    p.decodeWidth = 2;
    p.readXbar = 3;
    p.memLatency = 87;
    p.bankedMemory = true;
    p.memBanks = 128;
    p.decoupleDepth = 6;
    const MachineParams q = MachineParams::fromCanonical(p.canonical());
    EXPECT_EQ(p.canonical(), q.canonical());
    EXPECT_EQ(q.sched, SchedPolicy::RoundRobin);
    EXPECT_EQ(q.memBanks, 128);
    EXPECT_EQ(q.decoupleDepth, 6);
}

TEST(RunSpecDeath, UnknownProgram)
{
    EXPECT_EXIT(
        {
            RunSpec::single("nonesuch", MachineParams::reference(),
                            testScale);
        },
        testing::ExitedWithCode(1), "unknown");
}

TEST(RunSpecDeath, MalformedParse)
{
    EXPECT_EXIT({ RunSpec::parse("mode=single;oops"); },
                testing::ExitedWithCode(1), "malformed");
}

TEST(RunSpecDeath, GarbageNumericFieldsRejected)
{
    const RunSpec good = RunSpec::single(
        "tomcatv", MachineParams::reference(), testScale);
    std::string withBadMax = good.canonical();
    withBadMax.replace(withBadMax.find(";max=0;"), 7, ";max=10k;");
    EXPECT_EXIT({ RunSpec::parse(withBadMax); },
                testing::ExitedWithCode(1), "not an unsigned");

    std::string withBadScale = good.canonical();
    const size_t at = withBadScale.find(";max=");
    withBadScale =
        "mode=single;scale=fast" + withBadScale.substr(at);
    EXPECT_EXIT({ RunSpec::parse(withBadScale); },
                testing::ExitedWithCode(1), "not a number");
}

TEST(RunSpec, ReferenceStripsMultithreading)
{
    MachineParams p = MachineParams::fujitsuDualScalar();
    p.memLatency = 70;
    const MachineParams ref = referenceMachineOf(p);
    EXPECT_EQ(ref.contexts, 1);
    EXPECT_EQ(ref.decodeWidth, 1);
    EXPECT_FALSE(ref.dualScalar);
    EXPECT_EQ(ref.memLatency, 70);  // non-MT knobs preserved
}

// ---------------------------------------------------------------------
// ExperimentEngine: cache behaviour
// ---------------------------------------------------------------------

TEST(Engine, CacheHitReturnsIdenticalStats)
{
    ExperimentEngine engine(EngineOptions{1});
    const RunSpec spec =
        RunSpec::single("flo52", MachineParams::reference(), testScale);

    const RunResult first = engine.run(spec);
    EXPECT_FALSE(first.cached);
    const RunResult second = engine.run(spec);
    EXPECT_TRUE(second.cached);
    expectSameStats(first.stats, second.stats);
    EXPECT_GE(engine.cacheHits(), 1u);

    // statsFor returns the same cached object both times.
    const SimStats &a = engine.statsFor(spec);
    const SimStats &b = engine.statsFor(spec);
    EXPECT_EQ(&a, &b);
}

TEST(Engine, CacheKeyedByMachine)
{
    ExperimentEngine engine(EngineOptions{1});
    MachineParams p70 = MachineParams::reference();
    p70.memLatency = 70;
    const SimStats &fast = engine.statsFor(
        RunSpec::single("trfd", MachineParams::reference(), testScale));
    const SimStats &slow =
        engine.statsFor(RunSpec::single("trfd", p70, testScale));
    EXPECT_LT(fast.cycles, slow.cycles);
    EXPECT_EQ(engine.cacheSize(), 2u);
}

TEST(Engine, GroupReferenceRunsAreShared)
{
    // The 5 two-thread groupings of one program share reference runs;
    // the cache should hold far fewer entries than naive re-running.
    ExperimentEngine engine(EngineOptions{2});
    SweepBuilder sweep(testScale);
    sweep.addGroupings("trfd", 2, MachineParams::multithreaded(2));
    const auto results = engine.runAll(sweep.specs());
    ASSERT_EQ(results.size(), 5u);
    for (const auto &r : results)
        EXPECT_GT(r.speedup, 0.0);
    EXPECT_GE(engine.cacheHits(), 1u);

    // Re-running the identical batch is served entirely from the
    // caches (group metrics included) with identical values.
    const uint64_t missesBefore = engine.cacheMisses();
    const auto again = engine.runAll(sweep.specs());
    EXPECT_EQ(engine.cacheMisses(), missesBefore);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(again[i].cached);
        EXPECT_DOUBLE_EQ(again[i].speedup, results[i].speedup);
        EXPECT_DOUBLE_EQ(again[i].refVopc, results[i].refVopc);
    }
}

TEST(Engine, UncachedModeNeverHits)
{
    EngineOptions options;
    options.workers = 1;
    options.memoize = false;
    ExperimentEngine engine(options);
    const RunSpec spec =
        RunSpec::single("dyfesm", MachineParams::reference(),
                        testScale);
    const RunResult a = engine.run(spec);
    const RunResult b = engine.run(spec);
    EXPECT_FALSE(a.cached);
    EXPECT_FALSE(b.cached);
    EXPECT_EQ(engine.cacheSize(), 0u);
    expectSameStats(a.stats, b.stats);
}

TEST(Engine, KernelSelectionIsBitIdentical)
{
    // The A/B knob behind the fast lane: an engine pinned to the
    // stepped reference must reproduce the default engine's stats
    // field for field, on every run methodology.
    const std::vector<RunSpec> specs = {
        RunSpec::single("flo52", MachineParams::reference(),
                        testScale),
        RunSpec::group({"swm256", "tomcatv"},
                       MachineParams::multithreaded(2), testScale),
        RunSpec::jobQueue({"trfd", "dyfesm", "flo52"},
                          MachineParams::multithreaded(3), testScale),
    };
    EngineOptions stepped;
    stepped.workers = 1;
    stepped.kernel = SimKernel::Stepped;
    ExperimentEngine a(stepped);
    ExperimentEngine c(1);
    EXPECT_EQ(a.kernel(), SimKernel::Stepped);
    EXPECT_EQ(c.kernel(), SimKernel::Batched);
    for (const RunSpec &spec : specs) {
        SCOPED_TRACE(spec.canonical());
        const SimStats reference = a.run(spec).stats;
        expectSameStats(reference, c.run(spec).stats);
    }
}

TEST(Engine, BatchedKernelIsTheDefaultEverywhere)
{
    // In-process engines (mtvctl --local, the benches) and the daemon
    // (ServiceOptions) all run the batched fast lane unless a caller
    // picks another kernel.
    EXPECT_EQ(EngineOptions{}.kernel, SimKernel::Batched);
    EXPECT_EQ(EngineOptions(2).kernel, SimKernel::Batched);
    EXPECT_EQ(ServiceOptions{}.kernel, SimKernel::Batched);
    EXPECT_EQ(ExperimentEngine().kernel(), SimKernel::Batched);
}

// ---------------------------------------------------------------------
// ExperimentEngine: determinism across worker counts
// ---------------------------------------------------------------------

TEST(Engine, BatchDeterministicAcrossWorkerCounts)
{
    // A mixed 4-spec batch: single, group, job queue, truncated
    // single. 1 worker and 4 workers must produce bit-identical
    // results in the same (submission) order.
    MachineParams mth2 = MachineParams::multithreaded(2);
    MachineParams ref = MachineParams::reference();
    const std::vector<RunSpec> specs = {
        RunSpec::single("tomcatv", ref, testScale),
        RunSpec::group({"trfd", "swm256"}, mth2, testScale),
        RunSpec::jobQueue({"flo52", "dyfesm", "trfd"}, mth2,
                          testScale),
        RunSpec::single("dyfesm", ref, testScale, 500),
    };

    ExperimentEngine serial(EngineOptions{1});
    ExperimentEngine parallel4(EngineOptions{4});
    const auto a = serial.runAll(specs);
    const auto b = parallel4.runAll(specs);
    ASSERT_EQ(a.size(), specs.size());
    ASSERT_EQ(b.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(a[i].spec, b[i].spec);
        expectSameStats(a[i].stats, b[i].stats);
        EXPECT_DOUBLE_EQ(a[i].speedup, b[i].speedup);
        EXPECT_DOUBLE_EQ(a[i].refOccupation, b[i].refOccupation);
        EXPECT_DOUBLE_EQ(a[i].refVopc, b[i].refVopc);
    }
}

TEST(Engine, MatchesDriverAdapter)
{
    // The Runner adapter and the engine must agree exactly.
    Runner runner(testScale, 1);
    ExperimentEngine engine(EngineOptions{1});

    MachineParams mth2 = MachineParams::multithreaded(2);
    const GroupResult viaRunner =
        runner.runGroup({"tomcatv", "swm256"}, mth2);
    const RunResult viaEngine = engine.run(
        RunSpec::group({"tomcatv", "swm256"}, mth2, testScale));
    expectSameStats(viaRunner.mth, viaEngine.stats);
    EXPECT_DOUBLE_EQ(viaRunner.speedup, viaEngine.speedup);
    EXPECT_DOUBLE_EQ(viaRunner.mthOccupation, viaEngine.mthOccupation);
    EXPECT_DOUBLE_EQ(viaRunner.refVopc, viaEngine.refVopc);
}

TEST(Engine, SequentialReferenceCyclesIsSumOfRuns)
{
    ExperimentEngine engine(EngineOptions{2});
    const std::vector<std::string> jobs = {"flo52", "trfd", "dyfesm"};
    const MachineParams ref = MachineParams::reference();
    uint64_t expected = 0;
    for (const auto &job : jobs)
        expected +=
            engine.statsFor(RunSpec::reference(job, ref, testScale))
                .cycles;
    EXPECT_EQ(engine.sequentialReferenceCycles(jobs, ref, testScale),
              expected);
}

// ---------------------------------------------------------------------
// SweepBuilder
// ---------------------------------------------------------------------

TEST(Sweep, GroupingSliceShapes)
{
    SweepBuilder sweep(testScale);
    sweep.addGroupings("swm256", 2, MachineParams::multithreaded(2));
    sweep.addGroupings("swm256", 3, MachineParams::multithreaded(3));
    sweep.addGroupings("swm256", 4, MachineParams::multithreaded(4));
    ASSERT_EQ(sweep.slices().size(), 3u);
    EXPECT_EQ(sweep.slices()[0].count, 5u);
    EXPECT_EQ(sweep.slices()[1].count, 10u);
    EXPECT_EQ(sweep.slices()[2].count, 10u);
    EXPECT_EQ(sweep.size(), 25u);
    // Every spec's thread 0 is the measured program.
    for (const auto &spec : sweep.specs())
        EXPECT_EQ(spec.programs[0], "swm256");
}

TEST(Sweep, AverageOfMatchesAveragesFor)
{
    Runner runner(testScale, 2);
    const MachineParams p = MachineParams::multithreaded(2);
    const ProgramAverages viaDriver =
        averagesFor(runner, "trfd", 2, p);

    SweepBuilder sweep(testScale);
    sweep.addGroupings("trfd", 2, p);
    const auto results = runner.engine().runAll(sweep.specs());
    const GroupAverages viaSweep =
        averageOf(sweep.slices().front(), results);

    EXPECT_EQ(viaDriver.runs, viaSweep.runs);
    EXPECT_DOUBLE_EQ(viaDriver.speedup, viaSweep.speedup);
    EXPECT_DOUBLE_EQ(viaDriver.mthVopc, viaSweep.mthVopc);
}

TEST(Sweep, LatencySweepExpansion)
{
    SweepBuilder sweep(testScale);
    sweep.addLatencySweep({"flo52", "trfd"},
                          MachineParams::multithreaded(2),
                          {1, 50, 100}, "mth2");
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep.specs()[0].params.memLatency, 1);
    EXPECT_EQ(sweep.specs()[2].params.memLatency, 100);
    EXPECT_EQ(sweep.slices().front().label, "mth2");
    EXPECT_EQ(sweep.slices().front().count, 3u);
}

// ---------------------------------------------------------------------
// Custom-program registry
// ---------------------------------------------------------------------

TEST(Registry, CustomProgramRunsByName)
{
    ProgramSpec daxpy = makeDaxpySpec(64 * 1024);
    daxpy.name = "testdaxpy";
    daxpy.abbrev = "td";
    registerProgram(daxpy);

    ExperimentEngine engine(EngineOptions{1});
    const RunResult r = engine.run(
        RunSpec::single("testdaxpy", MachineParams::reference(), 1.0));
    EXPECT_GT(r.stats.cycles, 0u);
    EXPECT_GT(r.stats.dispatches, 0u);

    // Round-trips like a suite program.
    const RunSpec spec = RunSpec::single(
        "td", MachineParams::reference(), 1.0);
    EXPECT_EQ(spec.programs[0], "testdaxpy");
    EXPECT_EQ(RunSpec::parse(spec.canonical()), spec);
}

TEST(RegistryDeath, SuiteCollisionRejected)
{
    ProgramSpec clash = makeDaxpySpec(1024);
    clash.name = "swm256";
    EXPECT_EXIT({ registerProgram(clash); },
                testing::ExitedWithCode(1), "collides");
}

TEST(RegistryDeath, NameVsAbbreviationCollisionRejected)
{
    // A custom *name* equal to a suite *abbreviation* would be
    // silently shadowed by the suite lookup; it must be rejected.
    ProgramSpec clash = makeDaxpySpec(1024);
    clash.name = "sw";
    clash.abbrev = "zz";
    EXPECT_EXIT({ registerProgram(clash); },
                testing::ExitedWithCode(1), "collides");
}

TEST(RegistryDeath, DelimiterInNameRejected)
{
    // ',' / ';' / '=' are RunSpec canonical-form structure; an
    // identifier containing them would serialize ambiguously.
    ProgramSpec bad = makeDaxpySpec(1024);
    bad.name = "my,prog";
    bad.abbrev = "mp";
    EXPECT_EXIT({ registerProgram(bad); },
                testing::ExitedWithCode(1), "invalid character");
}

TEST(RegistryDeath, ReRegistrationRejected)
{
    // Registrations are permanent: findProgram hands out references
    // into the registry and cached results are keyed by name.
    ProgramSpec spec = makeDaxpySpec(1024);
    spec.name = "permanent";
    spec.abbrev = "pm";
    EXPECT_EXIT(
        {
            registerProgram(spec);
            registerProgram(spec);
        },
        testing::ExitedWithCode(1), "already-registered");
}

// ---------------------------------------------------------------------
// Cache bounding (for long-lived daemons) and streaming submission
// ---------------------------------------------------------------------

/** Distinct single-mode specs (memory latency varied). */
std::vector<RunSpec>
distinctSpecs(int n)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < n; ++i) {
        MachineParams p = MachineParams::reference();
        p.memLatency = 10 + i;
        specs.push_back(RunSpec::single("trfd", p, testScale));
    }
    return specs;
}

TEST(Engine, CacheCapEvictsLeastRecentlyUsed)
{
    EngineOptions options;
    options.workers = 1;
    options.maxCacheEntries = 2;
    ExperimentEngine engine(options);
    const auto specs = distinctSpecs(3);

    const RunResult r0 = engine.run(specs[0]);
    engine.run(specs[1]);
    EXPECT_EQ(engine.cacheSize(), 2u);
    EXPECT_EQ(engine.cacheEvictions(), 0u);

    // Touch spec 0 so spec 1 is the LRU victim of the overflow.
    EXPECT_TRUE(engine.run(specs[0]).cached);
    engine.run(specs[2]);
    EXPECT_EQ(engine.cacheSize(), 2u);
    EXPECT_EQ(engine.cacheEvictions(), 1u);

    EXPECT_TRUE(engine.run(specs[0]).cached);   // survived
    const RunResult r1Again = engine.run(specs[1]);
    EXPECT_FALSE(r1Again.cached);               // evicted, re-simulated
    // Eviction changes cost, never results.
    const RunResult r0Again = engine.run(specs[0]);
    expectSameStats(r0Again.stats, r0.stats);
}

TEST(Engine, CacheLruKeysSurviveTouchReinsertAndClear)
{
    // The LRU list points at each cache entry's own key, so every
    // touch, eviction, re-insert and clear() must keep list and map
    // in step (a dangling key shows up under ASan).
    EngineOptions options;
    options.workers = 1;
    options.maxCacheEntries = 2;
    ExperimentEngine engine(options);
    const auto specs = distinctSpecs(4);
    const RunResult r1 = engine.run(specs[1]);

    // Touch through submit()'s fast path: spec 1 becomes the victim.
    engine.run(specs[0]);
    EXPECT_TRUE(engine.submit(specs[1]).get().cached);
    EXPECT_TRUE(engine.submit(specs[0]).get().cached);
    engine.run(specs[2]);
    EXPECT_EQ(engine.cacheEvictions(), 1u);

    // Re-inserting the evicted key evicts the new LRU entry (0).
    const RunResult r1Again = engine.run(specs[1]);
    EXPECT_FALSE(r1Again.cached);
    expectSameStats(r1Again.stats, r1.stats);
    EXPECT_EQ(engine.cacheEvictions(), 2u);
    EXPECT_TRUE(engine.run(specs[2]).cached);
    EXPECT_FALSE(engine.run(specs[0]).cached);  // evicts 1
    EXPECT_EQ(engine.cacheEvictions(), 3u);
    EXPECT_TRUE(engine.run(specs[2]).cached);

    // clear() drops every entry and its LRU slot; the cap and the
    // order work as before on reuse.
    engine.clear();
    EXPECT_EQ(engine.cacheSize(), 0u);
    EXPECT_FALSE(engine.run(specs[3]).cached);
    EXPECT_FALSE(engine.run(specs[0]).cached);
    EXPECT_TRUE(engine.run(specs[3]).cached);
    EXPECT_FALSE(engine.run(specs[1]).cached);  // evicts 0
    EXPECT_EQ(engine.cacheSize(), 2u);
    EXPECT_EQ(engine.cacheEvictions(), 4u);
    EXPECT_TRUE(engine.run(specs[3]).cached);
    EXPECT_TRUE(engine.run(specs[1]).cached);
    EXPECT_FALSE(engine.run(specs[0]).cached);
}

TEST(Engine, ClearDropsEntriesButNotDeterminism)
{
    ExperimentEngine engine;
    const auto specs = distinctSpecs(2);
    const RunResult before = engine.run(specs[0]);
    engine.run(specs[1]);
    EXPECT_EQ(engine.cacheSize(), 2u);

    engine.clear();
    EXPECT_EQ(engine.cacheSize(), 0u);
    const RunResult after = engine.run(specs[0]);
    EXPECT_FALSE(after.cached);
    expectSameStats(after.stats, before.stats);
}

TEST(EngineDeath, StatsForRejectsCappedEngine)
{
    EngineOptions options;
    options.maxCacheEntries = 8;
    EXPECT_EXIT(
        {
            ExperimentEngine engine(options);
            engine.statsFor(RunSpec::single(
                "trfd", MachineParams::reference(), testScale));
        },
        testing::ExitedWithCode(1), "unbounded");
}

TEST(Engine, SubmitStreamsResultsInSubmissionOrder)
{
    ExperimentEngine engine;
    const auto specs = distinctSpecs(4);
    const auto expected = engine.runAll(specs);

    ExperimentEngine fresh;
    std::vector<std::future<RunResult>> futures;
    for (const auto &spec : specs)
        futures.push_back(fresh.submit(spec));
    for (size_t i = 0; i < specs.size(); ++i) {
        const RunResult streamed = futures[i].get();
        EXPECT_EQ(streamed.spec, specs[i]);
        expectSameStats(streamed.stats, expected[i].stats);
    }
}

TEST(Engine, SubmitHookFiresOncePerSpecBeforeFutureReady)
{
    ExperimentEngine engine;
    const auto specs = distinctSpecs(4);
    std::atomic<int> completed{0};
    std::mutex seenMutex;
    std::vector<std::string> seen;
    std::vector<std::future<RunResult>> futures;
    for (const auto &spec : specs) {
        futures.push_back(engine.submit(
            spec, [&completed, &seenMutex, &seen](const RunResult &r) {
                ++completed;
                std::lock_guard<std::mutex> lock(seenMutex);
                seen.push_back(r.spec.canonical());
            }));
    }
    for (auto &future : futures)
        future.get();
    // Each future became ready only after its hook ran, so by now
    // every hook has fired exactly once.
    EXPECT_EQ(completed.load(), 4);
    std::sort(seen.begin(), seen.end());
    std::vector<std::string> want;
    for (const auto &spec : specs)
        want.push_back(spec.canonical());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen, want);
}

TEST(Engine, SubmitAllMatchesSubmitAndFiresEveryHook)
{
    // A mixed run: half the points already cached (settled inline),
    // half queued in one burst. Futures come back in order, each
    // spec moved into its task, and the hook fires once per point.
    const auto specs = distinctSpecs(6);
    ExperimentEngine reference;
    const auto expected = reference.runAll(specs);

    ExperimentEngine engine;
    for (size_t i = 0; i < specs.size(); i += 2)
        engine.run(specs[i]);
    std::vector<RunSpec> moved = specs;
    std::atomic<int> completed{0};
    auto futures = engine.submitAll(
        moved, 1, specs.size() - 1,
        [&completed](const RunResult &) { ++completed; }, nullptr,
        ExperimentEngine::defaultLane);
    ASSERT_EQ(futures.size(), specs.size() - 1);
    for (size_t k = 0; k < futures.size(); ++k) {
        const RunResult streamed = futures[k].get();
        EXPECT_EQ(streamed.spec, specs[k + 1]);
        EXPECT_EQ(streamed.cached, (k + 1) % 2 == 0);
        expectSameStats(streamed.stats, expected[k + 1].stats);
    }
    EXPECT_EQ(completed.load(), static_cast<int>(specs.size() - 1));
    EXPECT_EQ(moved[0], specs[0]);  // outside the run: untouched

    // On a closed lane the whole burst is abandoned and counted.
    const LaneId lane = engine.openLane();
    engine.closeLane(lane);
    std::vector<RunSpec> fresh = distinctSpecs(3);
    for (RunSpec &spec : fresh)
        spec.scale *= 2;  // not cached yet
    auto dropped =
        engine.submitAll(fresh, 0, fresh.size(), nullptr, nullptr, lane);
    for (auto &future : dropped)
        EXPECT_THROW(future.get(), std::future_error);
    EXPECT_EQ(engine.discardedTasks(), fresh.size());
}

namespace
{

/**
 * A thread-safe in-memory backend that counts store() calls, for
 * asserting that cancelled work never writes through.
 */
class CountingBackend : public ResultBackend
{
  public:
    std::shared_ptr<const SimStats>
    load(const std::string &key) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second;
    }

    void
    store(const std::string &key, const SimStats &stats) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_[key] = std::make_shared<SimStats>(stats);
        ++stores_;
    }

    size_t
    size() const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    int
    stores() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stores_;
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const SimStats>>
        map_;
    int stores_ = 0;
};

/**
 * Parks a 1-worker engine: submits one spec whose completion hook
 * blocks until release(), so everything submitted afterwards stays
 * queued — the deterministic setup for the cancellation and lane
 * scheduling tests.
 */
class WorkerGate
{
  public:
    explicit WorkerGate(ExperimentEngine &engine)
    {
        MachineParams params = MachineParams::reference();
        params.memLatency = 199;  // distinct from every other spec
        std::shared_future<void> released =
            gate_.get_future().share();
        done_ = engine.submit(
            RunSpec::single("trfd", params, testScale),
            [released](const RunResult &) { released.wait(); });
    }

    void
    release()
    {
        gate_.set_value();
        done_.get();
    }

  private:
    std::promise<void> gate_;
    std::future<RunResult> done_;
};

} // namespace

TEST(Engine, CancelledBatchNeverSimulatesOrWritesBackend)
{
    auto backend = std::make_shared<CountingBackend>();
    EngineOptions options(1);
    options.backend = backend;
    ExperimentEngine engine(options);
    WorkerGate gate(engine);

    const auto specs = distinctSpecs(5);
    auto token = std::make_shared<CancelToken>();
    std::vector<std::future<RunResult>> futures;
    for (const auto &spec : specs)
        futures.push_back(engine.submit(spec, nullptr, token));
    EXPECT_GE(engine.queueDepth(), specs.size());

    // Cancelled while every point still sits in the lane: the worker
    // must skip them all — no simulation, no backend write-through.
    token->cancel();
    gate.release();
    for (auto &future : futures)
        EXPECT_THROW(future.get(), CancelledError);
    EXPECT_EQ(engine.cancelledRuns(), specs.size());
    EXPECT_EQ(engine.cacheMisses(), 1u);  // the gate spec only
    EXPECT_EQ(backend->stores(), 1);
    EXPECT_EQ(engine.queueDepth(), 0u);

    // The engine is healthy: the same specs run normally afterwards.
    const auto results = engine.runAll(specs);
    EXPECT_EQ(results.size(), specs.size());
    EXPECT_EQ(backend->stores(), 1 + static_cast<int>(specs.size()));
}

TEST(Engine, LaneRoundRobinAvoidsHeadOfLineBlocking)
{
    ExperimentEngine engine(1);
    WorkerGate gate(engine);

    const LaneId bulkLane = engine.openLane();
    const LaneId interactiveLane = engine.openLane();

    std::mutex orderMutex;
    std::vector<std::string> order;
    auto record = [&orderMutex, &order](const RunResult &r) {
        std::lock_guard<std::mutex> lock(orderMutex);
        order.push_back(r.spec.canonical());
    };

    // A 6-point "sweep" queued first on its own lane, then one
    // interactive point on another: round-robin must run the
    // interactive point next-ish, not after the whole sweep.
    const auto bulk = distinctSpecs(6);
    std::vector<std::future<RunResult>> futures;
    for (const auto &spec : bulk)
        futures.push_back(
            engine.submit(spec, record, nullptr, bulkLane));
    MachineParams params = MachineParams::reference();
    params.memLatency = 177;
    const RunSpec interactive =
        RunSpec::single("swm256", params, testScale);
    futures.push_back(engine.submit(interactive, record, nullptr,
                                    interactiveLane));

    gate.release();
    for (auto &future : futures)
        future.get();

    ASSERT_EQ(order.size(), bulk.size() + 1);
    const auto pos = std::find(order.begin(), order.end(),
                               interactive.canonical());
    ASSERT_NE(pos, order.end());
    EXPECT_LT(pos - order.begin(), 2)
        << "interactive run was head-of-line blocked by the sweep";
}

TEST(Engine, CloseLaneDropsQueuedTasksAndAbandonsLateSubmits)
{
    ExperimentEngine engine(1);
    WorkerGate gate(engine);

    const LaneId lane = engine.openLane();
    const auto specs = distinctSpecs(4);
    std::vector<std::future<RunResult>> futures;
    for (const auto &spec : specs)
        futures.push_back(
            engine.submit(spec, nullptr, nullptr, lane));

    EXPECT_EQ(engine.closeLane(lane), specs.size());
    EXPECT_EQ(engine.discardedTasks(), specs.size());
    // A submit racing the close is abandoned, not lost in limbo.
    auto late = engine.submit(specs[0], nullptr, nullptr, lane);

    gate.release();
    for (auto &future : futures)
        EXPECT_THROW(future.get(), std::future_error);
    EXPECT_THROW(late.get(), std::future_error);
    EXPECT_EQ(engine.cacheMisses(), 1u);  // the gate spec only
}

// ---------------------------------------------------------------------
// Named sweep families
// ---------------------------------------------------------------------

TEST(SweepRegistry, FamiliesAreRegistered)
{
    std::vector<std::string> names;
    for (const auto &family : sweepFamilies())
        names.push_back(family.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "suite-grouping"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "groupings"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "latency"),
              names.end());
}

TEST(SweepRegistry, SuiteGroupingExpandsIdentically)
{
    SweepRequest request;
    request.family = "suite-grouping";
    request.scale = testScale;
    const SweepBuilder expanded = expandSweep(request);
    const SweepBuilder direct = suiteGroupingSweep(testScale);
    ASSERT_EQ(expanded.size(), direct.size());
    for (size_t i = 0; i < expanded.size(); ++i)
        EXPECT_EQ(expanded.specs()[i], direct.specs()[i]);
    EXPECT_EQ(expanded.slices().size(), direct.slices().size());
}

TEST(SweepRegistry, GroupingsAndLatencyFamilies)
{
    SweepRequest groupings;
    groupings.family = "groupings";
    groupings.scale = testScale;
    groupings.program = "swm256";
    groupings.contexts = 3;
    const SweepBuilder bar = expandSweep(groupings);
    EXPECT_EQ(bar.size(), 10u);
    ASSERT_EQ(bar.slices().size(), 1u);
    EXPECT_EQ(bar.slices().front().label, "swm256");

    SweepRequest latency;
    latency.family = "latency";
    latency.scale = testScale;
    latency.jobs = {"flo52", "trfd"};
    latency.latencies = {1, 100};
    latency.contexts = 2;
    const SweepBuilder lats = expandSweep(latency);
    ASSERT_EQ(lats.size(), 2u);
    EXPECT_EQ(lats.specs()[0].params.memLatency, 1);
    EXPECT_EQ(lats.specs()[1].params.memLatency, 100);
    EXPECT_EQ(lats.specs()[0].mode, SpecMode::JobQueue);

    // Defaults: the paper's job-queue order and latency list.
    SweepRequest defaults;
    defaults.family = "latency";
    defaults.scale = testScale;
    const SweepBuilder fig10 = expandSweep(defaults);
    EXPECT_EQ(fig10.size(), sweepLatencies().size());
    EXPECT_EQ(fig10.specs()[0].params.contexts, 4);
}

/** Spec i built by index and the materialized batch agree byte for
 *  byte, point by point. */
void
expectIndexedMatchesMaterialized(const SweepBuilder &sweep)
{
    const std::vector<RunSpec> &specs = sweep.specs();
    ASSERT_EQ(specs.size(), sweep.size());
    for (size_t i = 0; i < sweep.size(); ++i)
        ASSERT_EQ(sweep.spec(i).canonical(), specs[i].canonical()) << i;
}

TEST(SweepRegistry, IndexedExpansionMatchesEveryRegisteredFamily)
{
    // The registry hash folds every family's slices and point keys at
    // its representative request; this is its value from before the
    // expansion became indexed, so every family still expands to
    // exactly the same points.
    EXPECT_EQ(sweepRegistryHash(), 0xec9550e3c34afa31ull);
    for (const SweepFamilyInfo &family : sweepFamilies()) {
        SweepRequest request;
        request.family = family.name;
        if (family.name == "groupings") {
            request.program = "trfd";
            request.contexts = 2;
        }
        SCOPED_TRACE(family.name);
        expectIndexedMatchesMaterialized(expandSweep(request));
    }
}

TEST(SweepRegistry, IndexedLatencyAxesMatchTheEagerExpansion)
{
    // A 20000-point latency sweep: one base spec plus the latency
    // list, point i the job queue at latency i — as building every
    // spec through RunSpec::jobQueue() would give it.
    SweepRequest latency;
    latency.family = "latency";
    latency.scale = testScale;
    for (int i = 1; i <= 20000; ++i)
        latency.latencies.push_back(1000 + i);
    const SweepBuilder lats = expandSweep(latency);
    ASSERT_EQ(lats.size(), 20000u);
    ASSERT_EQ(lats.slices().size(), 1u);
    EXPECT_EQ(lats.slices()[0].count, 20000u);
    for (size_t i = 0; i < lats.size(); ++i) {
        MachineParams p = MachineParams::multithreaded(4);
        p.memLatency = latency.latencies[i];
        ASSERT_EQ(lats.spec(i).canonical(),
                  RunSpec::jobQueue(jobQueueOrder(), p, testScale)
                      .canonical())
            << i;
    }
    expectIndexedMatchesMaterialized(lats);

    // ext-decoupled with custom latencies: four design slices, each
    // its own latency axis with the design's extension axes.
    SweepRequest decoupled;
    decoupled.family = "ext-decoupled";
    decoupled.scale = testScale;
    decoupled.contexts = 3;
    decoupled.jobs = {"trfd", "flo52"};
    decoupled.latencies = {7, 1, 300, 42};
    const SweepBuilder designs = expandSweep(decoupled);
    const struct
    {
        MachineParams params;
        int decouple;
    } expected[] = {
        {MachineParams::reference(), 0},
        {MachineParams::reference(), 4},
        {MachineParams::multithreaded(3), 0},
        {MachineParams::multithreaded(3), 4},
    };
    ASSERT_EQ(designs.size(), 16u);
    ASSERT_EQ(designs.slices().size(), 4u);
    size_t i = 0;
    for (const auto &design : expected) {
        for (const int lat : decoupled.latencies) {
            MachineParams p = design.params;
            p.memLatency = lat;
            EXPECT_EQ(designs.spec(i).canonical(),
                      RunSpec::jobQueue(decoupled.jobs, p, testScale)
                          .withExtensions(0, 0, design.decouple)
                          .canonical())
                << i;
            ++i;
        }
    }
    expectIndexedMatchesMaterialized(designs);

    // take() moves the materialized batch out; indexing still works.
    SweepBuilder taken = expandSweep(decoupled);
    const std::vector<RunSpec> moved = taken.take();
    ASSERT_EQ(moved.size(), 16u);
    EXPECT_EQ(moved[5].canonical(), taken.spec(5).canonical());
}

TEST(SweepRegistryDeath, InvalidLatencyFailsTheExpansion)
{
    // Every latency is checked when the axis is added, the last one
    // too, though no spec is built for it yet.
    SweepRequest latency;
    latency.family = "latency";
    latency.latencies = {20, 50, 0};
    EXPECT_EXIT(expandSweep(latency), testing::ExitedWithCode(1),
                "sweep latency must be positive, got 0");
    SweepRequest decoupled;
    decoupled.family = "ext-decoupled";
    decoupled.latencies = {1, -5};
    EXPECT_EXIT(expandSweep(decoupled), testing::ExitedWithCode(1),
                "sweep latency must be positive, got -5");
    SweepBuilder direct(testScale);
    EXPECT_EXIT(direct.addLatencySweep({"trfd"},
                                       MachineParams::reference(),
                                       {30, 0}),
                testing::ExitedWithCode(1), "memLatency must be >= 1");
}

TEST(SweepRegistryDeath, UnknownFamilyAndMissingParamsRejected)
{
    SweepRequest bogus;
    bogus.family = "no-such-family";
    EXPECT_EXIT(expandSweep(bogus), testing::ExitedWithCode(1),
                "unknown sweep family");
    SweepRequest incomplete;
    incomplete.family = "groupings";
    EXPECT_EXIT(expandSweep(incomplete), testing::ExitedWithCode(1),
                "needs a program");
    incomplete.program = "trfd";
    EXPECT_EXIT(expandSweep(incomplete), testing::ExitedWithCode(1),
                "needs contexts");
}

} // namespace
} // namespace mtv
