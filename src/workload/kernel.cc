#include "src/workload/kernel.hh"

#include "src/common/logging.hh"

namespace mtv
{

namespace
{

/** Scalar registers 0..7 model S0-7; 8..15 model A0-7. */
constexpr uint8_t sReg(int i) { return static_cast<uint8_t>(i); }
constexpr uint8_t aReg(int i) { return static_cast<uint8_t>(8 + i); }

/** Bank-spreading permutation: consecutive slots alternate banks. */
constexpr uint8_t bankSpread[8] = {0, 2, 4, 6, 1, 3, 5, 7};

} // namespace

void
KernelSpec::validate() const
{
    if (body.empty())
        panic("kernel '%s' has an empty body", name.c_str());
    if (tripCount == 0)
        panic("kernel '%s' has zero trip count", name.c_str());
    if (scalarPerStrip < 1)
        panic("kernel '%s' needs >= 1 scalar instr per strip (the "
              "backward branch)", name.c_str());
    bool hasStore = false;
    bool hasLoadOrArith = false;
    for (const auto &step : body) {
        if (step.dst < 0 || step.dst >= numVRegs)
            panic("kernel '%s': slot %d out of range", name.c_str(),
                  step.dst);
        if (isStore(step.op))
            hasStore = true;
        else
            hasLoadOrArith = true;
        if (isVectorArith(step.op) && step.srcA < 0)
            panic("kernel '%s': arithmetic step without sources",
                  name.c_str());
    }
    // A loop body that only stores (or never produces anything) is not
    // something the vectorizer would emit; treat as a spec bug.
    if (!hasLoadOrArith)
        panic("kernel '%s' has no loads or arithmetic", name.c_str());
    (void)hasStore;
}

int
BodyBuilder::allocSlot()
{
    const int slot = next_;
    next_ = (next_ + 1) % numVRegs;
    return slot;
}

int
BodyBuilder::load()
{
    const int slot = allocSlot();
    steps_.push_back({Opcode::VLoad, slot, -1, -1});
    return slot;
}

int
BodyBuilder::arith(Opcode op, int a, int b)
{
    MTV_ASSERT(isVectorArith(op));
    const int slot = allocSlot();
    steps_.push_back({op, slot, a, b});
    return slot;
}

void
BodyBuilder::store(int a)
{
    steps_.push_back({Opcode::VStore, a, -1, -1});
}

uint8_t
slotToVReg(int slot)
{
    MTV_ASSERT(slot >= 0 && slot < numVRegs);
    return bankSpread[slot];
}

void
emitKernel(const KernelSpec &kernel, uint64_t &addrCursor, Rng &rng,
           PackedStream &out)
{
    const uint32_t strips = kernel.strips();

    // --- Scalar preamble: base-address setup, stride, vector length.
    static const Opcode preamblePattern[] = {
        Opcode::SMove, Opcode::SAddInt, Opcode::SetVS, Opcode::SAddInt,
        Opcode::SLogic, Opcode::SMulInt,
    };
    for (int i = 0; i < kernel.scalarPreamble; ++i) {
        const Opcode op = preamblePattern[
            i % (sizeof(preamblePattern) / sizeof(preamblePattern[0]))];
        out.push_back(makeScalar(op, aReg(i % 4), aReg((i + 1) % 4)));
    }

    uint32_t remaining = kernel.tripCount;
    for (uint32_t strip = 0; strip < strips; ++strip) {
        const auto vl = static_cast<uint16_t>(
            std::min<uint32_t>(remaining, maxVectorLength));
        remaining -= vl;

        // --- Per-strip scalar overhead: setvl, address bumps, branch.
        if (kernel.scalarPerStrip >= 2) {
            out.push_back(makeScalar(Opcode::SetVL, sReg(7)));
            for (int i = 0; i < kernel.scalarPerStrip - 2; ++i)
                out.push_back(makeScalar(Opcode::SAddInt, aReg(4 + i % 3),
                                         aReg(4 + i % 3)));
        }
        // (scalarPerStrip == 1 degenerates to just the branch)

        // --- Vector body at this strip's VL.
        for (const auto &step : kernel.body) {
            if (isStore(step.op)) {
                const bool indexed = rng.chance(kernel.indexedFraction);
                out.push_back(makeVectorMem(
                    indexed ? Opcode::VScatter : Opcode::VStore,
                    slotToVReg(step.dst), vl, addrCursor,
                    kernel.stride));
                addrCursor += static_cast<uint64_t>(vl) * 8 *
                              std::max<int32_t>(1, kernel.stride);
            } else if (isLoad(step.op)) {
                const bool indexed = rng.chance(kernel.indexedFraction);
                out.push_back(makeVectorMem(
                    indexed ? Opcode::VGather : Opcode::VLoad,
                    slotToVReg(step.dst), vl, addrCursor,
                    kernel.stride));
                addrCursor += static_cast<uint64_t>(vl) * 8 *
                              std::max<int32_t>(1, kernel.stride);
            } else {
                out.push_back(makeVectorArith(
                    step.op, slotToVReg(step.dst), slotToVReg(step.srcA),
                    step.srcB >= 0 ? slotToVReg(step.srcB) : noReg, vl));
            }
        }

        // Backward branch closing the strip loop.
        out.push_back(makeScalar(Opcode::SBranch, noReg, aReg(7)));
    }
}

int
emitScalarIteration(uint64_t iteration, uint64_t &addrCursor,
                    PackedStream &out)
{
    // Rotate the load destination over three registers so consecutive
    // iterations' loads can overlap up to the WAW distance; the
    // consumer reads the load from two iterations ago, giving the
    // compiler-scheduled "load early, use late" shape.
    const uint8_t loadReg = sReg(1 + static_cast<int>(iteration % 3));
    const uint8_t useReg = sReg(1 + static_cast<int>((iteration + 1) % 3));

    out.push_back(makeScalarMem(Opcode::SLoad, loadReg, addrCursor));
    out.push_back(makeScalar(Opcode::SAddInt, aReg(0), aReg(0)));
    out.push_back(makeScalar(Opcode::SAddInt, aReg(1), aReg(1)));
    out.push_back(makeScalar(Opcode::SAddFp, sReg(4), useReg, sReg(0)));
    out.push_back(makeScalarMem(Opcode::SStore, sReg(4),
                                addrCursor + 0x40000));
    out.push_back(makeScalar(Opcode::SAddInt, aReg(2), aReg(2)));
    out.push_back(makeScalar(Opcode::SBranch, noReg, aReg(2)));
    addrCursor += 8;
    return scalarIterationLength;
}

} // namespace mtv
