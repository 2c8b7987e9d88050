/**
 * @file
 * Differential kernel test: every registered sweep family, under
 * every scheduling policy, simulated by the batched fast lane and by
 * the stepped kernel (the executable spec), must produce
 * byte-identical canonical SimStats.
 *
 * Where test_golden.cc pins one hand-picked configuration per bench,
 * this test crosses the whole sweep surface the service serves —
 * group runs at 2-4 contexts, job queues across memory latencies, the
 * multi-port, renaming and decoupled extensions — with the three
 * thread-switch policies, and adds the shapes the families do not
 * reach on their own: dual-scalar and decode-width-2 job queues, and
 * the fetch-truncated single runs behind every group point's speedup
 * (the F_i reference terms of section 4.1).
 *
 * The stepped side is slow, so CMakeLists.txt runs this binary as
 * several ctest entries, each a gtest filter over a group of
 * families.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/api/sweep.hh"
#include "src/core/sim.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/program.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace mtv;

/** Small enough that the whole surface simulates in seconds. */
constexpr double diffScale = 2e-5;

const SchedPolicy allPolicies[] = {SchedPolicy::UnfairLowest,
                                   SchedPolicy::FairLru,
                                   SchedPolicy::RoundRobin};

SimStats
simulate(const RunSpec &spec, SimKernel kernel)
{
    std::vector<std::unique_ptr<SyntheticProgram>> sources;
    std::vector<InstructionSource *> raw;
    for (const auto &name : spec.programs) {
        sources.push_back(makeProgram(name, spec.scale));
        raw.push_back(sources.back().get());
    }
    VectorSim sim(spec.effectiveParams(), kernel);
    switch (spec.mode) {
      case SpecMode::Single:
        return sim.runSingle(*raw[0], spec.maxInstructions);
      case SpecMode::Group:
        return sim.runGroup(raw);
      case SpecMode::JobQueue:
        return sim.runJobQueue(raw);
    }
    return {};
}

/**
 * Run @p spec under both kernels and compare the canonical bytes.
 * A group spec also checks the truncated reference runs its speedup
 * needs: one per companion that stopped mid-run.
 */
void
expectKernelsAgree(const RunSpec &spec)
{
    const SimStats stepped = simulate(spec, SimKernel::Stepped);
    const SimStats batched = simulate(spec, SimKernel::Batched);
    EXPECT_EQ(serializeSimStats(stepped), serializeSimStats(batched))
        << "batched differs from stepped on " << spec.canonical();
    if (spec.mode != SpecMode::Group)
        return;
    for (size_t i = 1; i < spec.programs.size(); ++i) {
        const uint64_t partial = stepped.threads[i].instructionsThisRun;
        if (partial == 0)
            continue;
        expectKernelsAgree(RunSpec::reference(
            spec.programs[i], spec.effectiveParams(), spec.scale,
            partial));
    }
}

/** @p family's default expansion (groupings: one program at 3). */
std::vector<RunSpec>
familySpecs(const std::string &family)
{
    SweepRequest request;
    request.family = family;
    request.scale = diffScale;
    if (family == "groupings") {
        request.program = "swm256";
        request.contexts = 3;
    }
    return expandSweep(request).specs();
}

class KernelDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelDiff, BatchedMatchesSteppedUnderEveryPolicy)
{
    const std::vector<RunSpec> specs = familySpecs(GetParam());
    ASSERT_FALSE(specs.empty());
    for (const SchedPolicy policy : allPolicies) {
        for (RunSpec spec : specs) {
            spec.params.sched = policy;
            expectKernelsAgree(spec);
            if (HasFailure())
                return;  // one spec's diff is enough to debug from
        }
    }
}

std::vector<std::string>
familyNames()
{
    std::vector<std::string> names;
    for (const auto &family : sweepFamilies())
        names.push_back(family.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, KernelDiff, ::testing::ValuesIn(familyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(KernelDiffShapes, MultiSlotJobQueuesMatchStepped)
{
    MachineParams width2 = MachineParams::multithreaded(4);
    width2.decodeWidth = 2;
    const MachineParams shapes[] = {MachineParams::fujitsuDualScalar(),
                                    width2};
    for (const MachineParams &shape : shapes) {
        for (const SchedPolicy policy : allPolicies) {
            MachineParams p = shape;
            p.sched = policy;
            for (const int latency : {1, 50, 100}) {
                p.memLatency = latency;
                expectKernelsAgree(
                    RunSpec::jobQueue(jobQueueOrder(), p, diffScale));
            }
        }
    }
}

TEST(KernelDiffShapes, TruncatedSingleRunsMatchStepped)
{
    // Fetch budgets that stop a run at its first instruction, inside
    // a decoupled window and near the end of the program.
    MachineParams decoupled = MachineParams::reference();
    decoupled.decoupleDepth = 4;
    MachineParams bounded = MachineParams::reference();
    bounded.renameDepth = 2;
    const MachineParams machines[] = {MachineParams::reference(),
                                      decoupled, bounded};
    for (const MachineParams &p : machines) {
        for (const std::string program : {"flo52", "trfd", "bdna"}) {
            const uint64_t full =
                simulate(RunSpec::single(program, p, diffScale),
                         SimKernel::Stepped)
                    .dispatches;
            for (const uint64_t budget :
                 {uint64_t{1}, uint64_t{3}, full / 2, full - 1}) {
                expectKernelsAgree(
                    RunSpec::single(program, p, diffScale, budget));
            }
        }
    }
}

} // namespace
