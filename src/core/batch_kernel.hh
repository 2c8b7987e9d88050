/**
 * @file
 * The batched kernel (SimKernel::Batched): a per-point fast lane that
 * simulates one machine over pre-decoded programs, bit-identical to
 * the event kernel and cheaper per point.
 *
 * Two layers (DESIGN.md section 1.3):
 *
 *  - The packed stream (src/isa/packed_stream.hh): the
 *    per-instruction work that depends only on the instruction
 *    stream — functional-unit class, operand/bank indices, clamped
 *    vector length, operand validation — done once, when a synthetic
 *    program is generated. That stream is the program's only stored
 *    form, so a sweep decodes each program once and holds no second
 *    copy of it.
 *
 *  - The fast lane: a transliteration of the event kernel
 *    (VectorSim::runEvent + DispatchUnit plan/commit) for every
 *    machine shape — one decode slot or several (decode width > 1,
 *    dual-scalar decode), the decoupled slip window, the bounded
 *    rename pool — with precomputed latencies and flat per-context
 *    state (fetch window, scoreboards, bank ports, rename slots,
 *    blocked[] reasons) and no per-cycle allocation. A fully blocked
 *    machine jumps to the earliest per-context threshold: the cycle
 *    each context's first failing dispatch check can pass, which its
 *    failed plan computes anyway (DESIGN.md section 1.3). Only
 *    sources with no packed stream (trace files, in-memory vectors)
 *    fall back to a plain VectorSim(Event) — slower, never wrong.
 *
 * SimKernel::Batched is the default kernel of EngineOptions and
 * ServiceOptions, so the daemon and `mtvctl --local` run this lane.
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
 * run through SimKernel::Event. Throws SimError on a wedged machine,
 * as VectorSim does. The caller (the VectorSim entry points) has
 * already validated @p params and @p sources; @p maxInstructions is
 * the fetch budget of a truncated FastLaneRun::Single run.
 */
SimStats runFastLane(const MachineParams &params, FastLaneRun kind,
                     const std::vector<InstructionSource *> &sources,
                     uint64_t maxInstructions = 0);

} // namespace mtv

#endif // MTV_CORE_BATCH_KERNEL_HH
