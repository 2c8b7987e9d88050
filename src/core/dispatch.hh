/**
 * @file
 * DispatchUnit: the decode-stage dispatch logic of the machine —
 * "can this instruction begin right now, and what does it occupy if
 * it does?" — split out of the monolithic simulator.
 *
 * Planning (planAny/planDispatch) is pure: it computes a validated
 * DispatchPlan from context state, the pipelines and the memory
 * system without modifying anything, reporting the *first failing
 * resource* as a BlockReason otherwise. Commit applies a plan:
 * reserves units/ports/registers and updates the dispatch counters.
 * Every predicate planning evaluates is a comparison of a stored
 * ready-time against `now`, which is what makes the fast lane's span
 * skipping sound: while no ready-time expires, a blocked plan stays
 * blocked for the same reason. This is the stepped kernel's dispatch
 * stage; src/core/batch_kernel.cc mirrors it check for check.
 */

#ifndef MTV_CORE_DISPATCH_HH
#define MTV_CORE_DISPATCH_HH

#include <cstdint>
#include <optional>

#include "src/core/context.hh"
#include "src/core/pipelines.hh"
#include "src/isa/machine_params.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{

/** A validated dispatch decision, ready to commit. */
struct DispatchPlan
{
    enum class Unit : uint8_t { Scalar, Fu1, Fu2, Mem } unit;
    size_t windowIndex = 0;   ///< which window entry dispatches
    MemPort *port = nullptr;  ///< memory port (Unit::Mem)
    uint64_t start = 0;       ///< first cycle of unit occupation
    uint64_t pipeUntil = 0;   ///< memory pipe occupation end
    uint64_t prodFirst = 0;   ///< first-element availability (V dst)
    uint64_t writeDone = 0;   ///< last-element write (V dst)
    uint64_t completion = 0;  ///< retire time for run accounting
    uint64_t scalarReady = 0; ///< scalar dst ready time
    bool chainableOut = false;
    /** Bounded renaming: this dispatch claims a rename-pool slot
     *  (its busy destination is displaced to a spare register). */
    bool renamed = false;
};

/** Plans and commits dispatches against the shared machine state. */
class DispatchUnit
{
  public:
    DispatchUnit(const MachineParams &params, PipelineSet &pipes,
                 MemSystem &mem)
        : params_(params), pipes_(pipes), mem_(mem)
    {
    }

    /**
     * Find a dispatchable instruction in the window: the head, or —
     * when decoupling is on — a vector memory instruction that
     * conflicts with none of the skipped entries. On failure @p why
     * holds the head's block reason.
     */
    std::optional<DispatchPlan> planAny(const Context &ctx,
                                        uint64_t now,
                                        BlockReason &why) const;

    /** Pure dispatch feasibility check + timing computation. */
    std::optional<DispatchPlan> planDispatch(const Context &ctx,
                                             const Instruction &inst,
                                             uint64_t now,
                                             BlockReason &why) const;

    /** Commit @p plan: reserve resources, update scoreboards, stats. */
    void commit(Context &ctx, const DispatchPlan &plan, uint64_t now);

    /** Reset the dispatch counters. */
    void clear();

    // --- counters (SimStats inputs) ---
    uint64_t dispatches() const { return dispatches_; }
    uint64_t vecOpsFu1() const { return vecOpsFu1_; }
    uint64_t vecOpsFu2() const { return vecOpsFu2_; }
    uint64_t decoupledSlips() const { return decoupledSlips_; }

  private:
    const MachineParams &params_;
    PipelineSet &pipes_;
    MemSystem &mem_;

    uint64_t dispatches_ = 0;
    uint64_t vecOpsFu1_ = 0;
    uint64_t vecOpsFu2_ = 0;
    uint64_t decoupledSlips_ = 0;
};

} // namespace mtv

#endif // MTV_CORE_DISPATCH_HH
