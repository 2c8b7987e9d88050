/**
 * @file
 * Tests for the batched kernel's per-point fast lane
 * (src/core/batch_kernel.hh) behind the engine: runAll() and submit()
 * on a SimKernel::Batched engine match the stepped kernel field for
 * field (the invariant tests/test_golden.cc pins with digests; here
 * pinned with the stats codec), cancellation fails only its own
 * point, and the fast lane pins no program stream it no longer runs.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/core/sim.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

RunSpec
floAtLatency(int latency, uint64_t maxInstructions = 0)
{
    MachineParams p = MachineParams::reference();
    p.memLatency = latency;
    return RunSpec::single("flo52", p, testScale, maxInstructions);
}

EngineOptions
batchedOptions()
{
    EngineOptions options(1);
    options.kernel = SimKernel::Batched;
    return options;
}

/** Bit-identical stats via the lossless store codec. */
void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(serializeSimStats(a), serializeSimStats(b));
}

// ---------------------------------------------------------------------
// runAll
// ---------------------------------------------------------------------

TEST(BatchEngine, RunAllMixedFamiliesMatchSteppedReference)
{
    // Two interleaved program families plus the awkward members: a
    // fetch-truncated point (cache-exempt) and a dual-scalar machine
    // (the fast lane's multi-slot decode).
    MachineParams dyf1 = MachineParams::reference();
    dyf1.memLatency = 1;
    MachineParams dyf20 = MachineParams::reference();
    dyf20.memLatency = 20;
    const std::vector<RunSpec> specs = {
        floAtLatency(1),
        RunSpec::single("dyfesm", dyf1, testScale),
        floAtLatency(20),
        RunSpec::single("dyfesm", dyf20, testScale),
        floAtLatency(40, 800),
        RunSpec::single("flo52", MachineParams::fujitsuDualScalar(),
                        testScale),
        floAtLatency(60),
        floAtLatency(100),
    };

    ExperimentEngine batched(batchedOptions());
    const auto results = batched.runAll(specs);

    EngineOptions steppedOptions(1);
    steppedOptions.kernel = SimKernel::Stepped;
    ExperimentEngine reference(steppedOptions);  // spec at a time
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].spec, specs[i]);
        expectIdenticalStats(results[i].stats,
                             reference.run(specs[i]).stats);
    }
}

// ---------------------------------------------------------------------
// submit() and per-point cancellation
// ---------------------------------------------------------------------

/**
 * Parks a 1-worker engine behind a spec whose completion hook blocks
 * until release(), so everything submitted afterwards queues behind
 * it (the test_api.cc WorkerGate, on the batched engine).
 */
class BatchWorkerGate
{
  public:
    explicit BatchWorkerGate(ExperimentEngine &engine)
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

TEST(BatchEngine, SubmitCoalescesFamilyAndSplitsCancellation)
{
    ExperimentEngine engine(batchedOptions());
    BatchWorkerGate gate(engine);

    // One pre-cancelled point queued between two live points:
    // it alone fails, and the survivors simulate normally.
    auto token = std::make_shared<CancelToken>();
    token->cancel();
    auto live = engine.submit(floAtLatency(1));
    auto cancelled = engine.submit(floAtLatency(20), nullptr, token);
    auto alsoLive = engine.submit(floAtLatency(40));
    gate.release();

    EXPECT_THROW(cancelled.get(), CancelledError);
    EXPECT_EQ(engine.cancelledRuns(), 1u);

    ExperimentEngine reference;
    expectIdenticalStats(live.get().stats,
                         reference.run(floAtLatency(1)).stats);
    expectIdenticalStats(alsoLive.get().stats,
                         reference.run(floAtLatency(40)).stats);
}

// ---------------------------------------------------------------------
// Stream lifetime
// ---------------------------------------------------------------------

TEST(BatchKernel, DecodeCacheReleasesDroppedStreams)
{
    // The fast lane walks each program's packed stream directly and
    // holds it only while a run is in flight. Once the makeProgram()
    // stream cache has dropped a stream, nothing may pin it, or a
    // daemon fed many (program, scale) pairs grows without bound.
    const MachineParams params = MachineParams::reference();
    const auto runAt = [&params](double scale) {
        auto source = makeProgram("flo52", scale);
        VectorSim(params, SimKernel::Batched).runSingle(*source);
        return std::weak_ptr<const PackedStream>(source->sharedStream());
    };
    const auto first = runAt(1e-6);
    ASSERT_FALSE(first.expired());  // still in the stream cache
    // More distinct scales than the stream cache holds (64 entries).
    for (int i = 1; i <= 70; ++i)
        runAt(1e-6 * (1 + i / 128.0));
    EXPECT_TRUE(first.expired());
}

} // namespace
} // namespace mtv
