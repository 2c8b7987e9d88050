/**
 * @file
 * The cycle-level simulator of the (multithreaded) vector machine.
 *
 * One facade models the whole design space of the paper:
 *  - contexts == 1 reproduces the reference Convex C3400;
 *  - contexts in 2..4 is the multithreaded architecture of section 3;
 *  - dualScalar == true is the Fujitsu VP2000-style machine of
 *    section 9 (one decoder/scalar unit per context, shared vector
 *    facility);
 *  - decodeWidth > 1 is the "simultaneous issue from several threads"
 *    future-work extension (section 10);
 *  - loadPorts/storePorts model the Cray-like multi-port memory of
 *    section 10;
 *  - renaming removes WAW/WAR dispatch hazards (section 10);
 *  - decoupleDepth > 0 models the authors' earlier decoupled vector
 *    architecture (HPCA-2 1996): vector memory instructions may slip
 *    past a blocked head within a small window.
 *
 * The machine is decomposed into components (DESIGN.md section 1):
 * MemSystem (ports + main memory), PipelineSet (the two arithmetic
 * pipes + joint-state accounting) and DispatchUnit (pure planning +
 * commit). VectorSim owns the run machinery — fetch, thread
 * selection, termination — and runs one of two kernels:
 *
 *  - SimKernel::Batched (the default everywhere) hands the run to
 *    the fast lane (src/core/batch_kernel.hh), which packs any
 *    source without a packed stream first;
 *  - SimKernel::Stepped evaluates decode every cycle through the
 *    components here: the executable specification and the oracle
 *    every fast-lane change is checked against.
 *
 * Both kernels produce bit-identical SimStats (guarded by
 * tests/test_golden.cc, tests/test_kernel_diff.cc and the CI
 * kernel-parity job); the fast lane is simply faster.
 *
 * Timing model summary (see DESIGN.md section 3.3): dispatch is
 * in-order per thread (except the decoupled slip), one instruction
 * per decode slot per cycle, and succeeds only when the instruction
 * can actually begin (a failed attempt loses the cycle and the switch
 * logic picks another thread). Vector pipelines process one element
 * per cycle; chaining is fully flexible between functional units and
 * into the store unit, and forbidden out of memory loads (matching
 * the Convex C34/Cray-2/Cray-3).
 */

#ifndef MTV_CORE_SIM_HH
#define MTV_CORE_SIM_HH

#include <vector>

#include "src/core/context.hh"
#include "src/core/dispatch.hh"
#include "src/core/metrics.hh"
#include "src/core/pipelines.hh"
#include "src/isa/machine_params.hh"
#include "src/memsys/mem_system.hh"
#include "src/trace/source.hh"

namespace mtv
{

/** How a simulation run terminates. */
enum class RunMode : uint8_t
{
    /**
     * Context 0 runs its program exactly once; other contexts (group
     * runs) restart their programs when they finish. This is the
     * paper's section 4.1 speedup methodology; ThreadStats records
     * full runs and the fractional progress of the last run.
     */
    UntilThreadZero,
    /**
     * A fixed list of jobs is distributed over the contexts; a context
     * finishing its job takes the next one. The run ends when all jobs
     * are done (section 7 methodology; SimStats::jobs records the
     * execution profile of Figure 9).
     */
    JobQueue
};

/** Which advancement strategy the simulator runs. */
enum class SimKernel : uint8_t
{
    /** Cycle-stepped: evaluate decode every cycle (the reference). */
    Stepped,
    /**
     * Per-point fast lane over packed programs
     * (src/core/batch_kernel.hh), for every machine shape and every
     * source. Bit-identical to Stepped (tests/test_golden.cc,
     * tests/test_kernel_diff.cc).
     */
    Batched
};

/** Short name for reports and the MTV_KERNEL environment knob. */
const char *simKernelName(SimKernel kernel);

/** The multithreaded vector machine. */
class VectorSim
{
  public:
    /** Build a machine; @p params is validated (fatal on user error). */
    explicit VectorSim(const MachineParams &params,
                       SimKernel kernel = SimKernel::Batched);

    VectorSim(const VectorSim &) = delete;
    VectorSim &operator=(const VectorSim &) = delete;

    /**
     * Run a single program to completion on context 0 (the reference-
     * machine experiment; also usable with multithreaded params, the
     * other contexts simply stay empty).
     *
     * @param source          The program.
     * @param maxInstructions When non-zero, stop fetching after this
     *                        many instructions (the truncated runs of
     *                        the speedup accounting).
     */
    SimStats runSingle(InstructionSource &source,
                       uint64_t maxInstructions = 0);

    /**
     * Group run (paper section 4.1): programs[i] runs on context i;
     * the run ends when context 0 completes its (single) run, with
     * other programs restarted as often as needed.
     * Requires programs.size() == params.contexts.
     */
    SimStats runGroup(const std::vector<InstructionSource *> &programs);

    /**
     * Job-queue run (paper section 7): the job list is served by all
     * contexts; each context takes the next job when its current one
     * finishes.
     */
    SimStats runJobQueue(const std::vector<InstructionSource *> &jobs);

    /** The machine description this simulator was built with. */
    const MachineParams &params() const { return params_; }

    /** The advancement strategy this simulator runs. */
    SimKernel kernel() const { return kernel_; }

  private:
    // --- run machinery ---
    void resetMachine(RunMode mode);
    SimStats runStepped();
    bool done(uint64_t now) const;

    /**
     * One decode cycle: attempt dispatch on the current slot(s).
     * Returns true when at least one instruction dispatched; on an
     * idle cycle, scanWhy_ holds every context's block reason
     * (BlockReason::None = ready but not holding the slot).
     */
    bool decodeCycle(uint64_t now);
    bool decodeSingleSlot(uint64_t now);
    bool decodeMultiSlot(uint64_t now);

    /** Fill scanWhy_: each context's block reason at @p now. */
    void scanContexts(uint64_t now);

    /** Throw SimError when @p now is past the no-dispatch watchdog. */
    void checkWatchdog(uint64_t now);

    /** Build and throw the structured wedged-machine error. */
    [[noreturn]] void throwWedged(uint64_t now);

    SimStats takeStats(uint64_t cycles);

    /** Keep every context's fetch window primed at @p t. */
    void primeFetch(uint64_t t);

    /**
     * Keep the context's fetch window filled (up to its depth, never
     * past a branch). Handles end-of-run per mode (restart / next
     * job / finish) once the window has drained.
     * @return true when at least one instruction is waiting.
     */
    bool ensureWindow(Context &ctx, uint64_t now, BlockReason &why);

    /** Window capacity for this machine. */
    size_t
    windowDepth() const
    {
        return 1 + static_cast<size_t>(params_.decoupleDepth);
    }

    /** Pick the next context for the single decode slot, using the
     *  readiness recorded in scanWhy_ (round-robin ignores it). */
    void switchThread();

    /** More than one dispatch slot per cycle on this machine? */
    bool
    multiSlot() const
    {
        return params_.dualScalar || params_.decodeWidth > 1;
    }

    // --- configuration ---
    MachineParams params_;
    SimKernel kernel_;

    // --- components ---
    MemSystem mem_;
    PipelineSet pipes_;
    DispatchUnit dispatch_;

    // --- shared machine state ---
    std::vector<Context> contexts_;
    int currentThread_ = 0;
    std::vector<uint64_t> lastSelected_;  ///< per context, for FairLru
    std::vector<BlockReason> scanWhy_;    ///< per context, per cycle

    // --- run bookkeeping ---
    RunMode mode_ = RunMode::UntilThreadZero;
    std::vector<InstructionSource *> jobs_;
    size_t nextJob_ = 0;
    uint64_t maxInstructions_ = 0;
    uint64_t lastDispatchCycle_ = 0;
    uint64_t stallLimit_ = 0;

    // --- statistics ---
    uint64_t decodeIdle_ = 0;
    std::array<uint64_t, numFuStates> stateHist_{};
    std::vector<JobRecord> jobRecords_;
};

} // namespace mtv

#endif // MTV_CORE_SIM_HH
