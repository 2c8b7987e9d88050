/**
 * @file
 * The packed instruction stream: the one stored form of an in-memory
 * program run.
 *
 * Each dynamic instruction is validated and decoded once, when the
 * stream is built, into a 12-byte DecodedInst — functional-unit
 * class, predicate flags, operands, clamped vector length, stride —
 * kept beside its 8-byte base address in a parallel array (20 bytes
 * per instruction, against 24 for a raw Instruction). The batched
 * kernel's fast lane walks the decoded records directly; everything
 * that consumes Instruction records (the event and stepped kernels,
 * trace writers, analyzers) gets each one rebuilt bit for bit by at().
 */

#ifndef MTV_ISA_PACKED_STREAM_HH
#define MTV_ISA_PACKED_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/isa/instruction.hh"

namespace mtv
{

/** Predicate bits resolved when an instruction is packed. */
constexpr uint8_t kFlagMem = 1u << 0;
constexpr uint8_t kFlagLoad = 1u << 1;
constexpr uint8_t kFlagVector = 1u << 2;
constexpr uint8_t kFlagBranch = 1u << 3;
constexpr uint8_t kFlagStore = 1u << 4;
/** The raw vector length was 0 (DecodedInst::vl holds the clamped 1). */
constexpr uint8_t kFlagZeroVl = 1u << 5;

/**
 * One pre-decoded instruction: the per-instruction work that depends
 * only on the stream, done once per stream instead of once per
 * fetched instruction per point.
 */
struct DecodedInst
{
    Opcode op;
    FuClass fu;
    uint8_t flags;
    uint8_t dst;
    uint8_t srcA;
    uint8_t srcB;
    uint16_t vl;      ///< pre-clamped: max(raw vl, 1)
    int32_t stride;
};

static_assert(sizeof(DecodedInst) == 12, "DecodedInst must stay packed");

/** An immutable-once-built stream of decoded instructions. */
class PackedStream
{
  public:
    void reserve(size_t n);

    /** Validate @p inst (checkOperands) and append it. */
    void push_back(const Instruction &inst);

    size_t size() const { return code_.size(); }

    /** Instruction @p i, rebuilt exactly as it was pushed. */
    Instruction
    at(size_t i) const
    {
        const DecodedInst &d = code_[i];
        Instruction inst;
        inst.op = d.op;
        inst.dst = d.dst;
        inst.srcA = d.srcA;
        inst.srcB = d.srcB;
        inst.vl = d.flags & kFlagZeroVl ? 0 : d.vl;
        inst.stride = d.stride;
        inst.addr = addr_[i];
        return inst;
    }

    /** The decoded records the fast lane walks. */
    const std::vector<DecodedInst> &code() const { return code_; }

  private:
    std::vector<DecodedInst> code_;
    /** Base address of each instruction, parallel to code_. */
    std::vector<uint64_t> addr_;
};

} // namespace mtv

#endif // MTV_ISA_PACKED_STREAM_HH
