#include "src/isa/instruction.hh"

#include "src/common/logging.hh"
#include "src/common/strutil.hh"

namespace mtv
{

RegSpace
Instruction::dstSpace() const
{
    if (dst == noReg)
        return RegSpace::None;
    if (op == Opcode::VReduce)
        return RegSpace::S;  // reductions deposit into a scalar register
    if (isVector(op))
        return isStore(op) ? RegSpace::None : RegSpace::V;
    // Scalar ops: loads and address arithmetic write A, data ops write S.
    // The distinction does not affect timing; we map everything through
    // a unified scalar scoreboard and call the space S.
    return RegSpace::S;
}

RegSpace
Instruction::srcSpace() const
{
    if (isVector(op))
        return RegSpace::V;
    return RegSpace::S;
}

void
checkOperands(const Instruction &inst)
{
    const auto checkReg = [&inst](uint8_t reg, RegSpace space) {
        if (reg == noReg || space == RegSpace::None)
            return;
        const int limit = space == RegSpace::V ? numVRegs
                                               : numSRegs + numARegs;
        if (reg >= limit) {
            fatal("instruction '%s' references out-of-range register "
                  "%u (space holds %d)",
                  inst.disasm().c_str(), reg, limit);
        }
    };
    checkReg(inst.dst, inst.dstSpace());
    checkReg(inst.srcA, inst.srcSpace());
    checkReg(inst.srcB, inst.srcSpace());
    if (isVector(inst.op) && inst.vl > maxVectorLength)
        fatal("instruction '%s' exceeds the maximum vector length %d",
              inst.disasm().c_str(), maxVectorLength);
}

bool
Instruction::writesVReg() const
{
    return isVector(op) && !isStore(op) && op != Opcode::VReduce &&
           dst != noReg;
}

bool
Instruction::readsVReg() const
{
    if (!isVector(op))
        return false;
    if (isStore(op) || isVectorArith(op) || op == Opcode::VReduce)
        return srcA != noReg || srcB != noReg;
    return false;
}

std::string
Instruction::disasm() const
{
    std::string out(mnemonic(op));
    auto regName = [this](uint8_t idx) {
        const char space = isVector(op) ? 'v' : 's';
        return format("%c%u", space, idx);
    };
    if (isVector(op)) {
        if (isStore(op)) {
            out += format(" %s, [0x%llx](vl=%u, vs=%d)",
                          regName(srcA).c_str(),
                          static_cast<unsigned long long>(addr), vl,
                          stride);
        } else if (isLoad(op)) {
            out += format(" %s, [0x%llx](vl=%u, vs=%d)",
                          regName(dst).c_str(),
                          static_cast<unsigned long long>(addr), vl,
                          stride);
        } else {
            out += format(" %s", regName(dst).c_str());
            if (srcA != noReg)
                out += format(", %s", regName(srcA).c_str());
            if (srcB != noReg)
                out += format(", %s", regName(srcB).c_str());
            out += format(" (vl=%u)", vl);
        }
    } else if (isMemory(op)) {
        const uint8_t r = isStore(op) ? srcA : dst;
        out += format(" s%u, [0x%llx]", r,
                      static_cast<unsigned long long>(addr));
    } else {
        if (dst != noReg)
            out += format(" s%u", dst);
        if (srcA != noReg)
            out += format(", s%u", srcA);
        if (srcB != noReg)
            out += format(", s%u", srcB);
    }
    return out;
}

Instruction
makeScalar(Opcode op, uint8_t dst, uint8_t srcA, uint8_t srcB)
{
    MTV_ASSERT(fuClass(op) == FuClass::Scalar && !isMemory(op));
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.srcA = srcA;
    inst.srcB = srcB;
    return inst;
}

Instruction
makeScalarMem(Opcode op, uint8_t reg, uint64_t addr)
{
    MTV_ASSERT(op == Opcode::SLoad || op == Opcode::SStore);
    Instruction inst;
    inst.op = op;
    if (op == Opcode::SLoad)
        inst.dst = reg;
    else
        inst.srcA = reg;
    inst.addr = addr;
    return inst;
}

Instruction
makeVectorArith(Opcode op, uint8_t dst, uint8_t srcA, uint8_t srcB,
                uint16_t vl)
{
    MTV_ASSERT(isVectorArith(op) || op == Opcode::VReduce);
    MTV_ASSERT(vl >= 1 && vl <= maxVectorLength);
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.srcA = srcA;
    inst.srcB = srcB;
    inst.vl = vl;
    return inst;
}

Instruction
makeVectorMem(Opcode op, uint8_t vreg, uint16_t vl, uint64_t addr,
              int32_t stride)
{
    MTV_ASSERT(isMemory(op) && isVector(op));
    MTV_ASSERT(vl >= 1 && vl <= maxVectorLength);
    Instruction inst;
    inst.op = op;
    if (isStore(op))
        inst.srcA = vreg;
    else
        inst.dst = vreg;
    inst.vl = vl;
    inst.addr = addr;
    inst.stride = stride;
    return inst;
}

} // namespace mtv
