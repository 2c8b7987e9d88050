/**
 * @file
 * The InstructionSource abstraction: anything that can feed a dynamic
 * instruction stream to the trace-driven simulators.
 *
 * Both the synthetic workload generators (src/workload) and trace-file
 * readers (src/trace) implement this interface, so the simulator cannot
 * tell a live generator from a recorded trace — exactly the property the
 * paper's Dixie-based methodology had.
 */

#ifndef MTV_TRACE_SOURCE_HH
#define MTV_TRACE_SOURCE_HH

#include <memory>
#include <string>
#include <vector>

#include "src/isa/instruction.hh"
#include "src/isa/packed_stream.hh"

namespace mtv
{

/** A resettable stream of dynamic instructions (one program run). */
class InstructionSource
{
  public:
    virtual ~InstructionSource() = default;

    /**
     * Produce the next instruction of the program.
     *
     * @param out Filled with the next instruction on success.
     * @retval true an instruction was produced.
     * @retval false the program has ended (call reset() to rerun).
     */
    virtual bool next(Instruction &out) = 0;

    /** Rewind to the beginning of the program (deterministic replay). */
    virtual void reset() = 0;

    /** Program name, e.g. "swm256". */
    virtual const std::string &name() const = 0;

    /**
     * The whole run as one immutable packed stream, when the source
     * holds it in memory anyway (synthetic programs do; file readers
     * return nullptr). The batched kernel's fast lane walks such a
     * stream's pre-decoded records directly and retains this pointer
     * for the run. Sources without a packed stream simulate through
     * the event kernel instead — slower, never wrong.
     */
    virtual std::shared_ptr<const PackedStream>
    sharedStream() const
    {
        return nullptr;
    }
};

/**
 * An InstructionSource over an in-memory vector of instructions.
 * Used pervasively by unit tests and by trace materialization.
 */
class VectorSource : public InstructionSource
{
  public:
    VectorSource(std::string name, std::vector<Instruction> instructions)
        : name_(std::move(name)), instructions_(std::move(instructions))
    {}

    bool
    next(Instruction &out) override
    {
        if (pos_ >= instructions_.size())
            return false;
        out = instructions_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    const std::string &name() const override { return name_; }

    /** Direct access for tests. */
    const std::vector<Instruction> &instructions() const
    {
        return instructions_;
    }

  private:
    std::string name_;
    std::vector<Instruction> instructions_;
    size_t pos_ = 0;
};

/**
 * Drain @p source into a vector (resetting it first and afterwards).
 * @param limit stop after this many instructions (0 = unlimited).
 */
std::vector<Instruction> materialize(InstructionSource &source,
                                     size_t limit = 0);

} // namespace mtv

#endif // MTV_TRACE_SOURCE_HH
