/**
 * @file
 * Simulator-throughput microbenchmark (google-benchmark): simulated
 * cycles and instructions per wall-clock second for each machine
 * configuration, on a fixed suite slice. Guards against performance
 * regressions in the cycle loop. Runs through an *uncached*
 * ExperimentEngine (memoize off) so every iteration pays for a real
 * simulation instead of a cache lookup.
 *
 * The BM_Kernel* pairs run the same configuration under the
 * cycle-stepped and the event-driven kernel; the ratio of their
 * sim_cycles/s counters is the event kernel's speedup (the CI
 * kernel-parity job records both into BENCH_simspeed.json). The
 * headline pair is the Figure 10 latency sweep's worst point —
 * memory latency 100 on the reference machine — where the stepped
 * kernel spends almost every cycle discovering that nothing can
 * dispatch.
 *
 * The BM_Shape{Event,Batched}/<shape> pairs run one machine shape each under the event
 * kernel and the batched fast lane: dual-scalar decode, decode width
 * 2, the decoupled slip window, the bounded rename pool (each a
 * 4-context job queue) and a 4-context group run (the suite-grouping
 * shape). CI ratchets every batched/event ratio at >= 1.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "src/api/engine.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace mtv;

constexpr double speedScale = 2e-5;

mtv::EngineOptions
uncached(SimKernel kernel = SimKernel::Event)
{
    EngineOptions options;
    options.workers = 1;    // the benchmark loop provides the timing
    options.memoize = false;
    options.kernel = kernel;
    return options;
}

const std::vector<std::string> &
speedJobs()
{
    static const std::vector<std::string> jobs = {"flo52", "tomcatv",
                                                  "trfd", "dyfesm"};
    return jobs;
}

void
runSpec(benchmark::State &state, const RunSpec &spec, SimKernel kernel)
{
    ExperimentEngine engine(uncached(kernel));
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    for (auto _ : state) {
        const SimStats s = engine.run(spec).stats;
        benchmark::DoNotOptimize(s.cycles);
        cycles += s.cycles;
        instrs += s.dispatches;
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["sim_instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}

void
runMachine(benchmark::State &state, const MachineParams &params,
           SimKernel kernel = SimKernel::Event,
           double scale = speedScale)
{
    runSpec(state,
            params.contexts == 1
                ? RunSpec::single("flo52", params, scale)
                : RunSpec::jobQueue(speedJobs(), params, scale),
            kernel);
}

/** Figure 10's latency-100 reference point (the stepped worst case). */
MachineParams
fig10Latency100()
{
    MachineParams p = MachineParams::reference();
    p.memLatency = 100;
    return p;
}

/**
 * Scale for the kernel A/B pairs: long enough runs that the
 * engine's fixed per-run cost (program generation, spec handling —
 * identical for both kernels) does not dilute the kernel ratio.
 */
constexpr double kernelScale = 1e-4;

void
BM_Reference(benchmark::State &state)
{
    runMachine(state, MachineParams::reference());
}

void
BM_Multithreaded(benchmark::State &state)
{
    runMachine(state,
               MachineParams::multithreaded(
                   static_cast<int>(state.range(0))));
}

void
BM_DualScalar(benchmark::State &state)
{
    runMachine(state, MachineParams::fujitsuDualScalar());
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    const ProgramSpec &spec = findProgram("swm256");
    uint64_t instrs = 0;
    for (auto _ : state) {
        SyntheticProgram p(spec, speedScale);
        benchmark::DoNotOptimize(p.count());
        instrs += p.count();
    }
    state.counters["gen_instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}

/**
 * Batch-dispatch overhead: a 16-spec sweep through runAll(). The
 * work happens on the engine's worker thread, so this benchmark (and
 * the sweep pair below) times iterations manually — rate counters
 * divide by wall time instead of the waiting caller's ~zero CPU time.
 */
void
BM_EngineBatch(benchmark::State &state)
{
    ExperimentEngine engine(uncached());
    std::vector<RunSpec> specs;
    for (int i = 0; i < 16; ++i) {
        MachineParams p = MachineParams::reference();
        p.memLatency = 1 + i;
        specs.push_back(RunSpec::single("dyfesm", p, speedScale));
    }
    uint64_t cycles = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        for (const auto &r : engine.runAll(specs))
            cycles += r.stats.cycles;
        benchmark::DoNotOptimize(cycles);
        state.SetIterationTime(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

// ----- stepped vs event kernel (bit-identical results; see
// tests/test_golden.cc) -----

void
BM_KernelStepped_Fig10Lat100(benchmark::State &state)
{
    runMachine(state, fig10Latency100(), SimKernel::Stepped,
               kernelScale);
}

void
BM_KernelEvent_Fig10Lat100(benchmark::State &state)
{
    runMachine(state, fig10Latency100(), SimKernel::Event,
               kernelScale);
}

void
BM_KernelBatched_Fig10Lat100(benchmark::State &state)
{
    runMachine(state, fig10Latency100(), SimKernel::Batched,
               kernelScale);
}

void
BM_KernelStepped_Mth4Lat100(benchmark::State &state)
{
    MachineParams p = MachineParams::multithreaded(4);
    p.memLatency = 100;
    runMachine(state, p, SimKernel::Stepped, kernelScale);
}

void
BM_KernelEvent_Mth4Lat100(benchmark::State &state)
{
    MachineParams p = MachineParams::multithreaded(4);
    p.memLatency = 100;
    runMachine(state, p, SimKernel::Event, kernelScale);
}

void
BM_KernelBatched_Mth4Lat100(benchmark::State &state)
{
    MachineParams p = MachineParams::multithreaded(4);
    p.memLatency = 100;
    runMachine(state, p, SimKernel::Batched, kernelScale);
}

/**
 * The whole Figure 10 latency sweep through runAll() — the workload
 * the batched kernel exists for: each of the 7 points is one engine
 * task, run through the pre-decoded fast lane on the batched engine
 * and through the event kernel on the event engine. The ratio of
 * their sim_cycles/s is the fast lane's headline number; CI ratchets
 * it with perf_gate.py --min-ratio.
 */
void
runFig10Sweep(benchmark::State &state, SimKernel kernel)
{
    ExperimentEngine engine(uncached(kernel));
    std::vector<RunSpec> specs;
    for (const int latency : {1, 20, 40, 50, 60, 80, 100}) {
        MachineParams p = MachineParams::reference();
        p.memLatency = latency;
        specs.push_back(RunSpec::single("flo52", p, kernelScale));
    }
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        for (const auto &r : engine.runAll(specs)) {
            cycles += r.stats.cycles;
            instrs += r.stats.dispatches;
        }
        benchmark::DoNotOptimize(cycles);
        state.SetIterationTime(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["sim_instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}

void
BM_KernelEvent_Fig10Sweep(benchmark::State &state)
{
    runFig10Sweep(state, SimKernel::Event);
}

void
BM_KernelBatched_Fig10Sweep(benchmark::State &state)
{
    runFig10Sweep(state, SimKernel::Batched);
}

// ----- event vs batched per machine shape -----

RunSpec
shapeSpec(const std::string &shape)
{
    if (shape == "Group4") {
        return RunSpec::group({"hydro2d", "swm256", "su2cor", "bdna"},
                              MachineParams::multithreaded(4),
                              kernelScale);
    }
    if (shape == "DualScalar") {
        return RunSpec::jobQueue(speedJobs(),
                                 MachineParams::fujitsuDualScalar(),
                                 kernelScale);
    }
    MachineParams p = MachineParams::multithreaded(4);
    if (shape == "Mth4Decode2")
        p.decodeWidth = 2;
    const RunSpec spec = RunSpec::jobQueue(speedJobs(), p, kernelScale);
    if (shape == "Mth4Decouple4")
        return spec.withExtensions(0, 0, 4);
    if (shape == "Mth4Rename4")
        return spec.withExtensions(0, 4, 0);
    return spec;
}

void
BM_ShapeEvent(benchmark::State &state, const std::string &shape)
{
    runSpec(state, shapeSpec(shape), SimKernel::Event);
}

void
BM_ShapeBatched(benchmark::State &state, const std::string &shape)
{
    runSpec(state, shapeSpec(shape), SimKernel::Batched);
}

BENCHMARK(BM_Reference);
BENCHMARK(BM_Multithreaded)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_DualScalar);
BENCHMARK(BM_WorkloadGeneration);
BENCHMARK(BM_EngineBatch)->UseManualTime();
BENCHMARK(BM_KernelStepped_Fig10Lat100);
BENCHMARK(BM_KernelEvent_Fig10Lat100);
BENCHMARK(BM_KernelBatched_Fig10Lat100);
BENCHMARK(BM_KernelStepped_Mth4Lat100);
BENCHMARK(BM_KernelEvent_Mth4Lat100);
BENCHMARK(BM_KernelBatched_Mth4Lat100);
BENCHMARK(BM_KernelEvent_Fig10Sweep)->UseManualTime();
BENCHMARK(BM_KernelBatched_Fig10Sweep)->UseManualTime();
BENCHMARK_CAPTURE(BM_ShapeEvent, DualScalar, std::string("DualScalar"));
BENCHMARK_CAPTURE(BM_ShapeBatched, DualScalar, std::string("DualScalar"));
BENCHMARK_CAPTURE(BM_ShapeEvent, Mth4Decode2, std::string("Mth4Decode2"));
BENCHMARK_CAPTURE(BM_ShapeBatched, Mth4Decode2,
                  std::string("Mth4Decode2"));
BENCHMARK_CAPTURE(BM_ShapeEvent, Mth4Decouple4,
                  std::string("Mth4Decouple4"));
BENCHMARK_CAPTURE(BM_ShapeBatched, Mth4Decouple4,
                  std::string("Mth4Decouple4"));
BENCHMARK_CAPTURE(BM_ShapeEvent, Mth4Rename4, std::string("Mth4Rename4"));
BENCHMARK_CAPTURE(BM_ShapeBatched, Mth4Rename4,
                  std::string("Mth4Rename4"));
BENCHMARK_CAPTURE(BM_ShapeEvent, Group4, std::string("Group4"));
BENCHMARK_CAPTURE(BM_ShapeBatched, Group4, std::string("Group4"));

} // namespace

BENCHMARK_MAIN();
