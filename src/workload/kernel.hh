/**
 * @file
 * Kernel DSL for the synthetic vectorized workloads.
 *
 * A KernelSpec describes one vectorized loop nest the way the Convex
 * compiler would have emitted it: a scalar preamble (address setup,
 * setvl/setvs), then a strip-mined loop where each strip executes the
 * vector body at VL = min(128, remaining) plus a few scalar overhead
 * instructions (address bumps and the backward branch).
 *
 * Bodies are written against virtual value slots; a bank-spreading
 * register allocator maps slots onto the 8 architectural vector
 * registers so that chained producer/consumer pairs land in different
 * register banks (mirroring what the paper says the Convex compiler
 * did to avoid read/write port conflicts).
 */

#ifndef MTV_WORKLOAD_KERNEL_HH
#define MTV_WORKLOAD_KERNEL_HH

#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/isa/instruction.hh"
#include "src/isa/packed_stream.hh"

namespace mtv
{

/** One step of a kernel body, operating on virtual value slots. */
struct VecStep
{
    Opcode op;      ///< VLoad/VStore/arith opcode
    int dst = -1;   ///< produced slot (or stored slot for stores)
    int srcA = -1;  ///< consumed slot, -1 if none
    int srcB = -1;  ///< consumed slot, -1 if none
};

/** A vectorized loop nest. */
struct KernelSpec
{
    std::string name;
    /** Elements processed per invocation (the loop trip count). */
    uint32_t tripCount = maxVectorLength;
    /** Vector instruction sequence executed once per strip. */
    std::vector<VecStep> body;
    /** Scalar instructions before the strip loop (address setup). */
    int scalarPreamble = 2;
    /** Scalar loop-overhead instructions per strip (>= 1; the last one
     *  is always the backward branch). */
    int scalarPerStrip = 2;
    /** Element stride of the memory accesses. */
    int32_t stride = 1;
    /** Fraction of memory steps emitted as gather/scatter. */
    double indexedFraction = 0.0;

    /** Number of strips per invocation. */
    uint32_t
    strips() const
    {
        return (tripCount + maxVectorLength - 1) / maxVectorLength;
    }

    /** Vector instructions emitted per invocation. */
    uint64_t
    vectorInstrsPerInvocation() const
    {
        return static_cast<uint64_t>(strips()) * body.size();
    }

    /** Vector element operations per invocation. */
    uint64_t
    vectorOpsPerInvocation() const
    {
        return static_cast<uint64_t>(tripCount) * body.size();
    }

    /** Scalar instructions emitted per invocation. */
    uint64_t
    scalarInstrsPerInvocation() const
    {
        return static_cast<uint64_t>(scalarPreamble) +
               static_cast<uint64_t>(strips()) * scalarPerStrip;
    }

    /** Average vector length of this kernel's instructions. */
    double
    averageVectorLength() const
    {
        return static_cast<double>(tripCount) / strips();
    }

    /** panic()s when the spec violates structural invariants. */
    void validate() const;
};

/**
 * Builder for kernel bodies. Slots are allocated round-robin over an
 * 8-entry window (values are overwritten oldest-first, as register
 * reuse in compiled code would).
 */
class BodyBuilder
{
  public:
    /** Emit a vector load producing a fresh slot; returns the slot. */
    int load();

    /** Emit an arithmetic step consuming a (and b); returns dst slot. */
    int arith(Opcode op, int a, int b = -1);

    /** Emit a store consuming slot @p a. */
    void store(int a);

    /** Finish and take the body. */
    std::vector<VecStep> take() { return std::move(steps_); }

  private:
    int allocSlot();

    std::vector<VecStep> steps_;
    int next_ = 0;
};

/**
 * Map a body slot to an architectural vector register, spreading
 * consecutive slots across the 4 register banks.
 */
uint8_t slotToVReg(int slot);

/**
 * Emit one full invocation of @p kernel into @p out.
 *
 * @param kernel      The loop nest to emit.
 * @param addrCursor  Monotonic per-program data cursor; advanced past
 *                    the touched region.
 * @param rng         Drives gather/scatter selection only.
 * @param out         Destination stream (validates each instruction).
 */
void emitKernel(const KernelSpec &kernel, uint64_t &addrCursor, Rng &rng,
                PackedStream &out);

/**
 * Emit one iteration of the canonical non-vectorized scalar loop
 * (7 instructions, 2 of them memory transactions — the 2-memory-ops-
 * per-6-8-instructions shape the paper describes for scalar regions).
 *
 * @param iteration   Loop iteration index (rotates load registers).
 * @param addrCursor  Data cursor, advanced by the accesses.
 * @param out         Destination stream (validates each instruction).
 * @return The number of instructions emitted.
 */
int emitScalarIteration(uint64_t iteration, uint64_t &addrCursor,
                        PackedStream &out);

/** Instructions per scalar-loop iteration (for budget planning). */
constexpr int scalarIterationLength = 7;

} // namespace mtv

#endif // MTV_WORKLOAD_KERNEL_HH
