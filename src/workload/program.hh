/**
 * @file
 * Whole-program synthesis: combine kernels and scalar regions into a
 * dynamic instruction stream whose aggregate statistics match a target
 * row of the paper's Table 3.
 */

#ifndef MTV_WORKLOAD_PROGRAM_HH
#define MTV_WORKLOAD_PROGRAM_HH

#include <memory>
#include <string>
#include <vector>

#include "src/trace/source.hh"
#include "src/workload/kernel.hh"

namespace mtv
{

/**
 * Description of one benchmark program. The three *Millions targets
 * are the paper's Table 3 columns at scale 1.0; generation multiplies
 * them by a scale factor.
 */
struct ProgramSpec
{
    std::string name;    ///< e.g. "swm256"
    std::string abbrev;  ///< paper's two-letter code, e.g. "sw"
    std::string suite;   ///< "Spec" or "Perf."

    double scalarMillions = 0;     ///< Table 3 col 2: scalar instrs (M)
    double vectorMillions = 0;     ///< Table 3 col 3: vector instrs (M)
    double vectorOpsMillions = 0;  ///< Table 3 col 4: vector ops (M)
    double percentVect = 0;        ///< Table 3 col 5 (consistency check)
    double avgVectorLength = 0;    ///< Table 3 col 6 (consistency check)

    /** The vectorized loop nests of this program. */
    std::vector<KernelSpec> kernels;

    /** panic()s when the spec is structurally invalid. */
    void validate() const;
};

/**
 * A complete synthetic benchmark run. The instruction stream is
 * materialized deterministically at construction (seeded from the
 * program name), then served like a recorded trace; reset() replays
 * the identical stream, which the restart-based speedup methodology
 * of the paper (section 4.1) relies on.
 *
 * The stream is stored once, packed (src/isa/packed_stream.hh):
 * the generator validates and decodes each instruction as it emits
 * it, so the batched kernel's fast lane walks the records directly,
 * while next() rebuilds every Instruction bit for bit for the other
 * kernels and for trace writers.
 *
 * The packed stream is immutable and held by shared_ptr, so copying
 * a SyntheticProgram is cheap: copies share the stream and carry
 * their own cursor. makeProgram() exploits this with a process-wide
 * stream cache — a sweep's thousandth uncached run of "flo52" costs
 * a pointer copy, not a re-generation.
 */
class SyntheticProgram : public InstructionSource
{
  public:
    /**
     * Generate the stream.
     *
     * @param spec  Program description (kernels + Table 3 targets).
     * @param scale Fraction of the paper's dynamic instruction counts
     *              to generate (1.0 would be the full 10^7..10^8-instr
     *              run; benches default to workloadDefaultScale).
     * @param seed  PRNG seed for gather/scatter placement.
     */
    SyntheticProgram(const ProgramSpec &spec, double scale,
                     uint64_t seed = 0);

    bool next(Instruction &out) override;
    void reset() override { pos_ = 0; }
    const std::string &name() const override { return name_; }

    /** Total instructions in one run of this program. */
    uint64_t count() const { return stream_->size(); }

    /** The packed stream itself: batched-kernel fast-lane
     *  eligibility (see InstructionSource::sharedStream). */
    std::shared_ptr<const PackedStream>
    sharedStream() const override
    {
        return stream_;
    }

  private:
    std::string name_;
    /** Immutable generated stream, shared between copies. */
    std::shared_ptr<const PackedStream> stream_;
    size_t pos_ = 0;
};

/** Default workload scale used by the figure benches. */
constexpr double workloadDefaultScale = 2e-4;

/**
 * Convenience: a simple strip-mined DAXPY program (y += a*x) over
 * @p elements elements — the quickstart example workload.
 */
ProgramSpec makeDaxpySpec(uint64_t elements);

} // namespace mtv

#endif // MTV_WORKLOAD_PROGRAM_HH
