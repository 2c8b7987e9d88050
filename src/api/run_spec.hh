/**
 * @file
 * RunSpec: a declarative, value-type description of one experiment
 * point — which machine, which programs, which of the paper's run
 * methodologies, at what workload scale. A RunSpec fully determines a
 * simulation's outcome (the simulator and workload generator are
 * deterministic), so its canonical string doubles as the cache key of
 * the shared result cache in ExperimentEngine.
 *
 * Specs are built with the factory functions (single/group/jobQueue/
 * reference); every factory canonicalizes program names through
 * findProgram() and validates the machine description, so an invalid
 * spec fails loudly at construction, not mid-batch.
 */

#ifndef MTV_API_RUN_SPEC_HH
#define MTV_API_RUN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/isa/machine_params.hh"
#include "src/workload/program.hh"

namespace mtv
{

/** Which of the paper's run methodologies a spec describes. */
enum class SpecMode : uint8_t
{
    /**
     * One program to completion on context 0 (the reference-machine
     * experiment). maxInstructions optionally truncates the run —
     * the F_i terms of the section 4.1 speedup accounting.
     */
    Single,
    /**
     * Section 4.1 group run: programs[0] is the measured program on
     * thread 0; companions restart until it completes. The machine
     * has exactly programs.size() contexts.
     */
    Group,
    /** Section 7 job queue: the job list served by all contexts. */
    JobQueue
};

/** Short name for canonical serialization and reports. */
const char *specModeName(SpecMode mode);

/** One declarative experiment point. */
struct RunSpec
{
    SpecMode mode = SpecMode::Single;
    MachineParams params;
    /** Canonical (full) suite program names; programs[0] = thread 0. */
    std::vector<std::string> programs;
    /** Workload scale the programs are instantiated at. */
    double scale = workloadDefaultScale;
    /** Single mode only: stop after this many dispatches (0 = none). */
    uint64_t maxInstructions = 0;

    // ----- extension axes (section 10 microarchitectures) -----
    //
    // Declarative overrides applied on top of `params` by
    // effectiveParams() — the sweep axes of the ext-* families. Each
    // defaults to 0 = "inherit from the machine description", so
    // every pre-existing spec is unchanged. They are part of the
    // canonical serialization (and therefore of cache keys and the
    // store schema): two specs differing in an axis never alias.

    /**
     * Memory ports (MemSystem swap): 0 = inherit; 1 = the Convex-
     * style single unified port (1 load port serving stores too);
     * N >= 2 = a Cray-style split of N-1 load ports + 1 store port
     * (N = 3 is the paper's section 10 machine). Range 0..5.
     */
    int memPorts = 0;
    /**
     * Bounded vector register renaming (DispatchUnit swap): 0 =
     * inherit; N > 0 = renaming with a pool of N spare physical
     * registers per context (MachineParams::renameDepth). Range 0..8.
     */
    int renameDepth = 0;
    /**
     * Decoupled slip window (dispatch queue sizing): 0 = inherit;
     * N > 0 overrides MachineParams::decoupleDepth. Range 0..16.
     */
    int decoupleDepth = 0;

    /**
     * The machine the kernels actually simulate: `params` with the
     * extension axes folded in (validated). Every kernel consumes
     * specs through this, so Stepped and Batched honor the axes
     * identically.
     */
    MachineParams effectiveParams() const;

    // ----- factories (canonicalize + validate) -----

    /** Single run of @p program on @p params. */
    static RunSpec single(const std::string &program,
                          const MachineParams &params,
                          double scale = workloadDefaultScale,
                          uint64_t maxInstructions = 0);

    /**
     * Single run of @p program on the *reference machine derived
     * from* @p params (multithreading features stripped) — the C_i /
     * F_i terms of the speedup methodology.
     */
    static RunSpec reference(const std::string &program,
                             const MachineParams &params,
                             double scale = workloadDefaultScale,
                             uint64_t maxInstructions = 0);

    /**
     * Section 4.1 group run. @p params.contexts is overwritten with
     * programs.size().
     */
    static RunSpec group(const std::vector<std::string> &programs,
                         MachineParams params,
                         double scale = workloadDefaultScale);

    /** Section 7 job-queue run of @p jobs (in order) on @p params. */
    static RunSpec jobQueue(const std::vector<std::string> &jobs,
                            const MachineParams &params,
                            double scale = workloadDefaultScale);

    /** Copy of this spec with the extension axes set (validated). */
    RunSpec withExtensions(int memPorts, int renameDepth,
                           int decoupleDepth) const;

    // ----- serialization -----

    /**
     * Canonical, lossless serialization:
     *   `mode=<m>;scale=<g>;max=<n>;ports=<p>;rename=<r>;
     *    decouple=<d>;programs=<a,b>;machine=<params>`
     * (one line, 8 ';'-separated fields). Two specs with equal
     * canonical strings describe the same experiment; the engine's
     * result cache keys on this string. The pre-extension 5-field
     * format is NOT accepted by parse() — the store schema hash bump
     * already rejects old segments wholesale, so a stale string is a
     * caller bug worth a loud error.
     */
    std::string canonical() const;

    /** Inverse of canonical(); fatal()s on malformed input. */
    static RunSpec parse(const std::string &text);

    /** Stable 64-bit key: FNV-1a over canonical(). */
    uint64_t key() const;

    /** Re-check invariants; fatal()s on user error. */
    void validate() const;

    bool operator==(const RunSpec &other) const;
    bool operator!=(const RunSpec &other) const
    {
        return !(*this == other);
    }
};

/**
 * The reference (baseline) machine derived from @p params: one
 * context, single-width decode, no dual-scalar, baseline scheduling.
 * Everything else (latencies, ports, extensions) is preserved, so a
 * sweep's reference point tracks its multithreaded point.
 */
MachineParams referenceMachineOf(MachineParams params);

} // namespace mtv

#endif // MTV_API_RUN_SPEC_HH
