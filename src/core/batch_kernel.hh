/**
 * @file
 * The batched kernel (SimKernel::Batched): a per-point fast lane that
 * simulates one machine over packed programs, bit-identical to the
 * stepped kernel and much cheaper per point. It runs every machine
 * shape and every source; it is what the engines, the daemon,
 * `mtvctl --local` and a default-constructed VectorSim run.
 *
 * Two layers (DESIGN.md section 1.3):
 *
 *  - The packed stream (src/isa/packed_stream.hh): the
 *    per-instruction work that depends only on the instruction
 *    stream — functional-unit class, operand/bank indices, clamped
 *    vector length, operand validation — done once per program.
 *    Synthetic programs are generated straight into one, so a sweep
 *    decodes each program once and holds no second copy of it. Any
 *    other source (a trace file, an in-memory vector) is packed
 *    before its run (packSource, src/trace/source.hh): 20 bytes per
 *    instruction.
 *
 *  - The fast lane: a transliteration of the stepped kernel
 *    (VectorSim::runStepped + DispatchUnit plan/commit) for every
 *    machine shape — one decode slot or several (decode width > 1,
 *    dual-scalar decode), the decoupled slip window, the bounded
 *    rename pool — with precomputed latencies and flat per-context
 *    state (fetch window, scoreboards, bank ports, rename slots,
 *    blocked[] reasons) and no per-cycle allocation. A fully blocked
 *    machine jumps to the earliest per-context threshold: the cycle
 *    each context's first failing dispatch check can pass, which its
 *    failed plan computes anyway (DESIGN.md section 1.3).
 */

#ifndef MTV_CORE_BATCH_KERNEL_HH
#define MTV_CORE_BATCH_KERNEL_HH

#include <cstdint>
#include <vector>

#include "src/core/metrics.hh"
#include "src/isa/machine_params.hh"
#include "src/trace/source.hh"

namespace mtv
{

/** The VectorSim entry point a runFastLane() call stands in for. */
enum class FastLaneRun : uint8_t
{
    Single,   ///< sources = {program} on context 0
    Group,    ///< sources = per-context programs (section 4.1)
    JobQueue  ///< sources = the job list (section 7)
};

/**
 * Simulate one point to completion, bit-identical to the same point
 * run through SimKernel::Stepped. Throws SimError on a wedged machine,
 * as VectorSim does. The caller (the VectorSim entry points) has
 * already validated @p params and @p sources; @p maxInstructions is
 * the fetch budget of a truncated FastLaneRun::Single run.
 */
SimStats runFastLane(const MachineParams &params, FastLaneRun kind,
                     const std::vector<InstructionSource *> &sources,
                     uint64_t maxInstructions = 0);

} // namespace mtv

#endif // MTV_CORE_BATCH_KERNEL_HH
