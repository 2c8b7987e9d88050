/**
 * @file
 * Golden-digest regression test: pins the FNV-1a digest of the
 * canonical SimStats blob for one representative configuration of
 * every figure/table/ablation/extension bench, and checks that BOTH
 * kernels — the cycle-stepped spec and the batched fast lane —
 * reproduce each digest bit-exactly.
 *
 * This is the end-to-end guard behind the fast lane: any change to
 * dispatch order, idle accounting, the joint-state histogram or the
 * stats codec shows up as a digest mismatch here, long before a
 * figure quietly drifts.
 *
 * The pinned values are a contract: they only change when the
 * *model* deliberately changes. To regenerate after such a change,
 * run with MTV_GOLDEN_PRINT=1 and paste the printed table:
 *
 *   MTV_GOLDEN_PRINT=1 ./test_golden --gtest_filter='*Pinned*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/api/run_spec.hh"
#include "src/core/sim.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/program.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace mtv;

/** Small scale so the whole table simulates in seconds. */
constexpr double goldenScale = 2e-5;

/** The 4-job queue slice shared by most job-queue cases. */
std::vector<std::string>
shortJobs()
{
    return {"flo52", "tomcatv", "trfd", "dyfesm"};
}

SimStats
simulate(const RunSpec &spec, SimKernel kernel)
{
    std::vector<std::unique_ptr<SyntheticProgram>> sources;
    std::vector<InstructionSource *> raw;
    sources.reserve(spec.programs.size());
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

uint64_t
digestOf(const SimStats &stats)
{
    const std::string blob = serializeSimStats(stats);
    return fnv1a64(blob.data(), blob.size());
}

struct GoldenCase
{
    const char *name;   ///< which bench this configuration mirrors
    RunSpec spec;
    uint64_t digest;    ///< pinned stepped==batched digest
};

/**
 * One representative configuration per bench (21 benches), plus one
 * pin per RunSpec extension axis. Machine constructions mirror the
 * bench sources so a digest here guards the same simulator paths the
 * figures exercise.
 */
std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;

    // bench_fig04_fu_usage: reference machine, Figure 4 latency.
    {
        MachineParams p = MachineParams::reference();
        p.memLatency = 70;
        cases.push_back({"fig04_fu_usage",
                         RunSpec::single("flo52", p, goldenScale),
                         0x2840a0bcfc55a5a4ull});
    }
    // bench_fig05_memport_idle: reference machine, mid latency.
    {
        MachineParams p = MachineParams::reference();
        p.memLatency = 30;
        cases.push_back({"fig05_memport_idle",
                         RunSpec::single("swm256", p, goldenScale),
                         0xf471e67359545ea1ull});
    }
    // bench_fig06_speedup / bench_fig07 / bench_fig08: section 4.1
    // group runs (the suiteGroupingSweep machinery).
    cases.push_back({"fig06_speedup_2ctx",
                     RunSpec::group({"swm256", "flo52"},
                                    MachineParams::multithreaded(2),
                                    goldenScale),
                     0x5b58679463901f8full});
    cases.push_back(
        {"fig07_memport_occupation_3ctx",
         RunSpec::group({"tomcatv", "flo52", "arc2d"},
                        MachineParams::multithreaded(3), goldenScale),
         0x7cab42a23d5ef2abull});
    cases.push_back(
        {"fig08_vopc_4ctx",
         RunSpec::group({"hydro2d", "swm256", "su2cor", "bdna"},
                        MachineParams::multithreaded(4), goldenScale),
         0x89f99eef2923ce47ull});
    // bench_fig09_profile: the full job queue on 2 contexts.
    cases.push_back({"fig09_profile",
                     RunSpec::jobQueue(jobQueueOrder(),
                                       MachineParams::multithreaded(2),
                                       goldenScale),
                     0x45f696ac3bba5149ull});
    // bench_fig10_latency_sweep: the latency-100 end points.
    {
        MachineParams ref = MachineParams::reference();
        ref.memLatency = 100;
        cases.push_back({"fig10_latency100_ref",
                         RunSpec::single("flo52", ref, goldenScale),
                         0xdb559d6aec71a23aull});
        MachineParams mth = MachineParams::multithreaded(4);
        mth.memLatency = 100;
        cases.push_back({"fig10_latency100_mth4",
                         RunSpec::jobQueue(shortJobs(), mth,
                                           goldenScale),
                         0xd9606c2e85a0d20bull});
    }
    // bench_fig11_xbar: slower register crossbar.
    {
        MachineParams p = MachineParams::multithreaded(3);
        p.readXbar = 3;
        p.writeXbar = 3;
        cases.push_back({"fig11_xbar33",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0xc7da1a70b2146a23ull});
    }
    // bench_fig12_fujitsu: dual-scalar decode.
    cases.push_back({"fig12_fujitsu",
                     RunSpec::jobQueue(shortJobs(),
                                       MachineParams::fujitsuDualScalar(),
                                       goldenScale),
                     0x96adef6e48a8ab03ull});
    // bench_table1_params: the Table 1 machines as-is.
    cases.push_back({"table1_reference",
                     RunSpec::single("dyfesm",
                                     MachineParams::reference(),
                                     goldenScale),
                     0x550a7c57193ec8e8ull});
    // bench_table2_groupings: a Table 2 column-3 grouping.
    {
        std::vector<std::string> group = {"swm256"};
        for (const auto &name : groupingColumn3())
            group.push_back(name);
        cases.push_back({"table2_grouping3",
                         RunSpec::group(group,
                                        MachineParams::multithreaded(3),
                                        goldenScale),
                         0xfad4e6b28e83b7cbull});
    }
    // bench_table3_workloads: per-program stats on the reference
    // machine (the workload side of Table 3).
    cases.push_back({"table3_workload",
                     RunSpec::single("tomcatv",
                                     MachineParams::reference(),
                                     goldenScale),
                     0x4fbc5d05c6845965ull});
    // bench_abl_banked_memory: banked-DRAM extension.
    {
        MachineParams p = MachineParams::multithreaded(2);
        p.memLatency = 90;
        p.bankedMemory = true;
        p.memBanks = 64;
        p.bankBusyCycles = 8;
        cases.push_back({"abl_banked_memory",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0xb1db3b31a94225c3ull});
    }
    // bench_abl_decode_width: two decode slots.
    {
        MachineParams p = MachineParams::multithreaded(3);
        p.decodeWidth = 2;
        cases.push_back({"abl_decode_width2",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0x1867e82ff3fb3e9ull});
    }
    // bench_abl_load_chaining: chaining out of loads allowed.
    {
        MachineParams p = MachineParams::multithreaded(2);
        p.loadChaining = true;
        cases.push_back({"abl_load_chaining",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0x346490b84fc20513ull});
    }
    // bench_abl_scheduling: every thread-switch policy.
    for (const SchedPolicy sched :
         {SchedPolicy::UnfairLowest, SchedPolicy::RoundRobin,
          SchedPolicy::FairLru}) {
        MachineParams p = MachineParams::multithreaded(3);
        p.sched = sched;
        static const uint64_t digests[] = {0xfc2fc4aa6a4c6393ull,
                                           0x7deebf634bc407d0ull,
                                           0x24c6b082571c8b81ull};
        cases.push_back({"abl_scheduling",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         digests[static_cast<int>(sched)]});
    }
    // bench_diag_blocked: a program tripled on 3 contexts.
    cases.push_back({"diag_blocked",
                     RunSpec::jobQueue({"trfd", "trfd", "trfd"},
                                       MachineParams::multithreaded(3),
                                       goldenScale),
                     0xb3c076258484ab36ull});
    // bench_ext_decoupled: the HPCA-2'96 slip window.
    cases.push_back({"ext_decoupled",
                     RunSpec::single("su2cor",
                                     MachineParams::decoupledVector(4),
                                     goldenScale),
                     0x2800386dd7471c8aull});
    // bench_ext_multiport: Cray-style ports + simultaneous issue.
    {
        MachineParams p = MachineParams::crayStyle(2);
        p.decodeWidth = 2;
        cases.push_back({"ext_multiport_cray2w2",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0xc428ab37363d3b4eull});
    }
    // bench_ext_renaming: register renaming on the Cray machine.
    {
        MachineParams p = MachineParams::crayStyle(3);
        p.renaming = true;
        cases.push_back({"ext_renaming_cray3",
                         RunSpec::jobQueue(shortJobs(), p,
                                           goldenScale),
                         0xe785997d25dc39b3ull});
    }
    // RunSpec extension axes (the ext-* sweep families): one pin per
    // axis plus the fully-combined point, all on the same job-queue
    // slice so the folds are the only difference.
    cases.push_back({"axis_multiport3",
                     RunSpec::jobQueue(shortJobs(),
                                       MachineParams::multithreaded(2),
                                       goldenScale)
                         .withExtensions(3, 0, 0),
                     0xeec98604fa88ff8full});
    cases.push_back({"axis_rename4",
                     RunSpec::jobQueue(shortJobs(),
                                       MachineParams::multithreaded(2),
                                       goldenScale)
                         .withExtensions(0, 4, 0),
                     0x4e3b63aff21b80e2ull});
    cases.push_back({"axis_decouple4",
                     RunSpec::jobQueue(shortJobs(),
                                       MachineParams::multithreaded(2),
                                       goldenScale)
                         .withExtensions(0, 0, 4),
                     0x66c36065cb1af191ull});
    cases.push_back({"axis_all_combined",
                     RunSpec::jobQueue(shortJobs(),
                                       MachineParams::multithreaded(2),
                                       goldenScale)
                         .withExtensions(3, 4, 4),
                     0xfaabe309e71e374ull});
    // bench_simspeed: the throughput benchmark's reference config.
    cases.push_back({"simspeed_reference",
                     RunSpec::single("flo52",
                                     MachineParams::reference(),
                                     goldenScale),
                     0xab883f974b79f049ull});
    return cases;
}

TEST(Golden, KernelParityAndPinnedDigests)
{
    const bool print = std::getenv("MTV_GOLDEN_PRINT") != nullptr;
    for (const GoldenCase &c : goldenCases()) {
        SCOPED_TRACE(std::string(c.name) + ": " + c.spec.canonical());
        const uint64_t stepped =
            digestOf(simulate(c.spec, SimKernel::Stepped));
        const uint64_t batched =
            digestOf(simulate(c.spec, SimKernel::Batched));
        // The fast lane's span skipping is invisible in the stats.
        EXPECT_EQ(stepped, batched);
        if (print) {
            std::printf("    %-28s 0x%llxull\n", c.name,
                        static_cast<unsigned long long>(stepped));
            continue;
        }
        // The regression pin: neither kernel drifts over time.
        EXPECT_EQ(c.digest, stepped);
    }
}

/**
 * Digests must also agree between a run that went through the
 * engine/store serialization path and a direct simulation — i.e. the
 * blob itself is canonical. (Guards the ResultStore contract the
 * daemon's bit-identity smoke test depends on.)
 */
TEST(Golden, SerializationIsCanonical)
{
    const RunSpec spec =
        RunSpec::single("flo52", MachineParams::reference(),
                        goldenScale);
    const SimStats a = simulate(spec, SimKernel::Batched);
    const SimStats b = simulate(spec, SimKernel::Stepped);
    EXPECT_EQ(serializeSimStats(a), serializeSimStats(b));
    const SimStats back = deserializeSimStats(serializeSimStats(a));
    EXPECT_EQ(serializeSimStats(back), serializeSimStats(a));
}

} // namespace
