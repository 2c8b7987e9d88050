#include "src/isa/packed_stream.hh"

#include <algorithm>

namespace mtv
{

void
PackedStream::reserve(size_t n)
{
    code_.reserve(n);
    addr_.reserve(n);
}

void
PackedStream::push_back(const Instruction &inst)
{
    checkOperands(inst);
    DecodedInst d;
    d.op = inst.op;
    d.fu = fuClass(inst.op);
    d.flags = static_cast<uint8_t>(
        (isMemory(inst.op) ? kFlagMem : 0) |
        (isLoad(inst.op) ? kFlagLoad : 0) |
        (isVector(inst.op) ? kFlagVector : 0) |
        (inst.op == Opcode::SBranch ? kFlagBranch : 0) |
        (isStore(inst.op) ? kFlagStore : 0) |
        (inst.vl == 0 ? kFlagZeroVl : 0));
    d.dst = inst.dst;
    d.srcA = inst.srcA;
    d.srcB = inst.srcB;
    d.vl = std::max<uint16_t>(inst.vl, 1);
    d.stride = inst.stride;
    code_.push_back(d);
    addr_.push_back(inst.addr);
}

} // namespace mtv
