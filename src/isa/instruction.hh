/**
 * @file
 * The dynamic instruction record that flows from a trace (or a synthetic
 * workload generator) into the simulators.
 *
 * This is the moral equivalent of one record of the four Dixie trace
 * streams the paper used: it carries the opcode, the register operands,
 * the vector length and stride in effect when the instruction executed,
 * and the base address for memory operations.
 */

#ifndef MTV_ISA_INSTRUCTION_HH
#define MTV_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "src/isa/opcodes.hh"

namespace mtv
{

/** Register file selector for an operand. */
enum class RegSpace : uint8_t
{
    A,     ///< address registers (scalar)
    S,     ///< scalar data registers
    V,     ///< vector registers
    None   ///< operand absent
};

/** Number of architectural registers per space (Convex C34). */
constexpr int numARegs = 8;
constexpr int numSRegs = 8;
constexpr int numVRegs = 8;

/** Maximum vector length of the baseline machine (elements). */
constexpr int maxVectorLength = 128;

/** Sentinel meaning "no register operand". */
constexpr uint8_t noReg = 0xff;

/**
 * One dynamic instruction. POD on purpose: the binary trace format
 * serializes these records directly (after byte-order-stable packing).
 */
struct Instruction
{
    Opcode op = Opcode::SAddInt;
    uint8_t dst = noReg;       ///< destination register index or noReg
    uint8_t srcA = noReg;      ///< first source register index or noReg
    uint8_t srcB = noReg;      ///< second source register index or noReg
    uint16_t vl = 0;           ///< vector length in effect (vector ops)
    int32_t stride = 0;        ///< vector stride in effect (memory ops)
    uint64_t addr = 0;         ///< base address (memory ops)

    /** Vector length this instruction processes (1 for scalar ops). */
    uint32_t
    elements() const
    {
        return isVector(op) ? vl : 1;
    }

    /** Register space of the destination operand. */
    RegSpace dstSpace() const;

    /** Register space of the source operands. */
    RegSpace srcSpace() const;

    /** True when this instruction writes a vector register. */
    bool writesVReg() const;

    /** True when this instruction reads one or more vector registers. */
    bool readsVReg() const;

    /** Human-readable one-line disassembly. */
    std::string disasm() const;
};

/**
 * Validate @p inst's register indices against the scoreboard and
 * register-file sizes and its vector length against maxVectorLength,
 * so a corrupt trace or a buggy generator fails loudly (fatal())
 * instead of indexing out of bounds.
 */
void checkOperands(const Instruction &inst);

/** Construct a scalar ALU instruction. */
Instruction makeScalar(Opcode op, uint8_t dst, uint8_t srcA = noReg,
                       uint8_t srcB = noReg);

/** Construct a scalar memory instruction. */
Instruction makeScalarMem(Opcode op, uint8_t reg, uint64_t addr);

/** Construct a vector arithmetic instruction. */
Instruction makeVectorArith(Opcode op, uint8_t dst, uint8_t srcA,
                            uint8_t srcB, uint16_t vl);

/** Construct a vector memory instruction. */
Instruction makeVectorMem(Opcode op, uint8_t vreg, uint16_t vl,
                          uint64_t addr, int32_t stride = 1);

} // namespace mtv

#endif // MTV_ISA_INSTRUCTION_HH
