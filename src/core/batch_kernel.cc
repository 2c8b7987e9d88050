/**
 * @file
 * The batched kernel's per-point fast lane: a transliteration of
 * the event kernel — VectorSim::runEvent plus
 * DispatchUnit::planAny/planDispatch/commit — over pre-decoded
 * programs, for every machine shape: one or several decode slots,
 * dual-scalar decode, the decoupled slip window and the bounded
 * rename pool. Every check, charge and ready-time write below mirrors
 * its original check-for-check; the golden digests
 * (tests/test_golden.cc), the differential test
 * (tests/test_kernel_diff.cc) and the CI kernel-parity job hold the
 * two in agreement. When you change dispatch semantics in
 * src/core/dispatch.cc or run machinery in src/core/sim.cc, change
 * the mirror here.
 *
 * The one deliberate difference is how a fully blocked machine finds
 * its next cycle. The event kernel folds every pending ready-time of
 * every context into one wakeup (Scheduler::nextWakeup). The fast
 * lane jumps to the minimum over contexts of each context's own
 * threshold — the cycle its first failing dispatch check can pass —
 * which every failed plan already computes (DESIGN.md section 1.3).
 */

#include "src/core/batch_kernel.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "src/common/logging.hh"
#include "src/core/context.hh"
#include "src/core/dispatch.hh"
#include "src/core/pipelines.hh"
#include "src/core/sim.hh"
#include "src/core/sim_error.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{

namespace
{

/** One program a lane runs: its name and the packed stream (held for
 *  the lane's lifetime) whose decoded records it walks. */
struct LaneProgram
{
    std::string name;
    std::shared_ptr<const PackedStream> stream;
};

/** Fetch-window capacity bound: 1 + the validated decoupleDepth max. */
constexpr int maxWindow = 17;

// ---------------------------------------------------------------------
// The fast lane
// ---------------------------------------------------------------------

/**
 * Per-context state, flat. Mirrors mtv::Context with the fetch window
 * held as pointers into the packed stream and the source cursor
 * inlined (no virtual next(), no Instruction copies).
 */
struct FastContext
{
    const LaneProgram *prog = nullptr;     ///< null: empty context
    size_t pos = 0;                        ///< fetch cursor
    /** Fetched-but-not-dispatched instructions, program order. */
    const DecodedInst *window[maxWindow] = {};
    int windowSize = 0;
    bool finished = false;
    bool restartable = false;
    uint64_t fetchReadyAt = 0;
    uint64_t scalarReady[numSRegs + numARegs] = {};
    VRegTiming vregs[numVRegs] = {};
    BankPorts banks[numVRegs / 2] = {};
    /** Bounded rename pool (Context::renameSlots). */
    uint64_t renameSlots[8] = {};
    ThreadStats stats;
    int jobIndex = -1;

    bool hasWork() const { return !finished || windowSize; }

    uint64_t
    minRenameSlot(int depth) const
    {
        uint64_t best = renameSlots[0];
        for (int i = 1; i < depth; ++i)
            best = std::min(best, renameSlots[i]);
        return best;
    }
};

/** Vector registers @p d reads (dispatch.cc's vregReadMask). */
uint8_t
vregReads(const DecodedInst &d)
{
    if (d.fu == FuClass::VecStore)
        return static_cast<uint8_t>(1u << d.srcA);
    uint8_t mask = 0;
    if (d.fu == FuClass::VecAny || d.fu == FuClass::VecFu2) {
        if (d.srcA != noReg)
            mask |= 1u << d.srcA;
        if (d.srcB != noReg)
            mask |= 1u << d.srcB;
    }
    return mask;
}

/** Vector registers @p d writes (dispatch.cc's vregWriteMask). */
uint8_t
vregWrites(const DecodedInst &d)
{
    const bool writes =
        d.fu == FuClass::VecLoad ||
        ((d.fu == FuClass::VecAny || d.fu == FuClass::VecFu2) &&
         d.op != Opcode::VReduce);
    return writes && d.dst != noReg
               ? static_cast<uint8_t>(1u << d.dst)
               : 0;
}

/** May vector memory instruction @p cand dispatch ahead of the
 *  not-yet-dispatched @p prior? (dispatch.cc's canSlipPast.) */
bool
canSlipPast(const DecodedInst &cand, const DecodedInst &prior)
{
    if (prior.flags & kFlagBranch)
        return false;
    if ((cand.flags & kFlagMem) && (prior.flags & kFlagMem))
        return false;
    const uint8_t priorWrites = vregWrites(prior);
    if (priorWrites & (vregReads(cand) | vregWrites(cand)))
        return false;  // RAW or WAW
    return !(vregReads(prior) & vregWrites(cand));  // WAR
}

/**
 * One point's machine over pre-decoded programs. Equivalent to
 * VectorSim(params, SimKernel::Event) on the same point.
 *
 * @tparam Slip  The machine decouples (decoupleDepth > 0): the fetch
 *               window is deeper than one and vector memory
 *               instructions may slip past a blocked head. Without
 *               it the window is a single slot and the slip search
 *               compiles away — the shape every figure sweep runs.
 */
template <bool Slip>
class FastLane
{
  public:
    FastLane(const MachineParams &params, FastLaneRun kind,
             uint64_t maxInstructions,
             std::vector<LaneProgram> programs)
        : params_(params), mem_(params_),
          depth_(1 + params_.decoupleDepth),
          multiSlot_(params_.dualScalar || params_.decodeWidth > 1),
          slotWidth_(params_.dualScalar ? params_.contexts
                                        : params_.decodeWidth),
          mode_(kind == FastLaneRun::JobQueue ? RunMode::JobQueue
                                              : RunMode::UntilThreadZero),
          maxInstructions_(kind == FastLaneRun::Single ? maxInstructions
                                                       : 0),
          programs_(std::move(programs))
    {
        MTV_ASSERT(depth_ <= maxWindow);
        contexts_.resize(params_.contexts);
        lastSelected_.assign(params_.contexts, 0);
        scanWhy_.assign(params_.contexts, BlockReason::NoWork);
        for (int op = 0; op < static_cast<int>(Opcode::NumOpcodes); ++op)
            latByOp_[op] = params_.opLatency(static_cast<Opcode>(op));
        // Resolve MemSystem::portsFor once: the split is per op-class,
        // not per op (stores fall back to the load ports when the
        // machine has no store port).
        loadPorts_ = &mem_.portsFor(Opcode::VLoad);
        storePorts_ = &mem_.portsFor(Opcode::VStore);
        stallLimit_ =
            16 * (static_cast<uint64_t>(params_.memLatency) +
                  maxVectorLength * 8) +
            1000000;

        switch (kind) {
          case FastLaneRun::Single: {
            FastContext &ctx0 = contexts_[0];
            ctx0.prog = &programs_[0];
            ctx0.stats.program = ctx0.prog->name;
            break;
          }
          case FastLaneRun::Group:
            for (size_t i = 0; i < programs_.size(); ++i) {
                FastContext &ctx = contexts_[i];
                ctx.prog = &programs_[i];
                ctx.restartable = i != 0;
                ctx.stats.program = ctx.prog->name;
            }
            break;
          case FastLaneRun::JobQueue:
            for (const auto &job : programs_)
                jobs_.push_back(&job);
            for (auto &ctx : contexts_) {
                if (nextJob_ >= jobs_.size()) {
                    ctx.finished = true;
                    continue;
                }
                ctx.prog = jobs_[nextJob_];
                ctx.stats.program = ctx.prog->name;
                ctx.jobIndex = static_cast<int>(jobRecords_.size());
                jobRecords_.push_back(
                    {ctx.prog->name,
                     static_cast<int>(&ctx - contexts_.data()), 0, 0});
                ++nextJob_;
            }
            break;
        }

        primeFetch(0);
        finished_ = done(now_);
    }

    /** Simulate to completion; throws SimError on a wedged machine. */
    SimStats
    run()
    {
        if (contexts_.size() == 1) {
            while (!finished_)
                advanceSingle();
        } else {
            while (!finished_)
                advanceMulti();
        }
        return takeStats();
    }

  private:
    /**
     * One iteration of the event-kernel loop (see runEvent()), with
     * the fully-blocked jump taken to the earliest per-context
     * threshold the decode cycle gathered in wake_.
     */
    void
    advanceMulti()
    {
        wake_ = EventMin(now_);
        const bool dispatched =
            multiSlot_ ? decodeMultiSlot(now_) : decodeCycle(now_);
        bool anyReady = false;
        if (!dispatched) {
            for (int c = 0; c < params_.contexts; ++c)
                anyReady |= scanWhy_[c] == BlockReason::None;
        }
        if (dispatched || anyReady) {
            // Non-dispatch step cycles stay in the pending region:
            // nothing committed, so the deferred integration over them
            // equals the per-cycle sample.
            if (dispatched) {
                ++stateHist_[static_cast<size_t>(stateBits(now_))];
                histPending_ = now_ + 1;
            }
            ++now_;
        } else {
            // Every context blocked, each on a check that cannot pass
            // before its own threshold (nothing commits meanwhile), so
            // no reason, fetch or termination test changes before the
            // earliest one: the event kernel's wakeups inside the span
            // would re-block identically.
            const uint64_t watchdogAt =
                lastDispatchCycle_ + stallLimit_ + 1;
            uint64_t wake = wake_.next;
            if (wake == 0 || wake > watchdogAt)
                wake = watchdogAt;
            accountIdleSpan(now_, wake);
            now_ = wake;
        }
        primeFetch(now_);
        checkWatchdog(now_);
        finished_ = done(now_);
    }

    /**
     * The single-context step: the advance() loop with the context
     * scan, thread-switch machinery and per-span accounting shells
     * collapsed. Reference-machine sweeps (the Figure 10 ratchet)
     * spend their whole run here.
     */
    void
    advanceSingle()
    {
        FastContext &ctx = contexts_[0];
        BlockReason why = BlockReason::NoWork;
        if (ensureWindow(ctx, now_, why)) {
            DispatchPlan plan{};
            if (planAny(ctx, now_, plan, why)) {
                commit(ctx, plan, now_);
                lastDispatchCycle_ = now_;
                ++stateHist_[static_cast<size_t>(stateBits(now_))];
                histPending_ = now_ + 1;
                ++now_;
                ensureWindow(ctx, now_, why);
                checkWatchdog(now_);
                finished_ = done(now_);
                return;
            }
        }
        // Blocked: one reason covers the whole span (nothing commits
        // while blocked), so the cycle-by-cycle charges of the multi-
        // context path collapse to one add. (A one-deep window that
        // holds work is full, so its fetch gate has already passed.)
        const uint64_t watchdogAt = lastDispatchCycle_ + stallLimit_ + 1;
        uint64_t wake =
            !Slip && ctx.windowSize ? unblockAt_ : threshold(ctx);
        if (wake == 0 || wake > watchdogAt)
            wake = watchdogAt;
        const uint64_t span = wake - now_;
        decodeIdle_ += span;
        ctx.stats.blocked[static_cast<size_t>(why)] += span;
        now_ = wake;
        ensureWindow(ctx, now_, why);
        checkWatchdog(now_);
        finished_ = done(now_);
    }

    /**
     * A blocked context's threshold (0 = none): the threshold of its
     * failed plan (unblockAt_, just computed) when its window holds
     * work, else the completion horizon the termination test compares
     * against; or the fetch gate, which refills a window that is not
     * full, when that comes first.
     */
    uint64_t
    threshold(const FastContext &ctx) const
    {
        EventMin em(now_);
        em.consider(ctx.fetchReadyAt);
        em.consider(ctx.windowSize ? unblockAt_
                                   : ctx.stats.lastCompletion);
        return em.next;
    }

    /** Fold a blocked context's threshold into wake_. */
    void
    noteBlocked(const FastContext &ctx)
    {
        wake_.consider(threshold(ctx));
    }

    SimStats
    takeStats()
    {
        flushHist(now_);
        SimStats stats;
        stats.cycles = now_;
        for (const auto &port : mem_.ports()) {
            stats.memRequests += port.bus.requests();
            stats.ldBusyCycles += port.pipe.busyCycles();
        }
        stats.memPorts = static_cast<int>(mem_.ports().size());
        stats.vecOpsFu1 = vecOpsFu1_;
        stats.vecOpsFu2 = vecOpsFu2_;
        stats.dispatches = dispatches_;
        stats.decodeIdle = decodeIdle_;
        stats.decoupledSlips = decoupledSlips_;
        stats.fu1BusyCycles = pipes_.fu1().busyCycles();
        stats.fu2BusyCycles = pipes_.fu2().busyCycles();
        stats.stateHist = stateHist_;
        for (const auto &ctx : contexts_)
            stats.threads.push_back(ctx.stats);
        stats.jobs = jobRecords_;
        return stats;
    }

    // --- the deferred joint-state histogram ---

    /** The ports serving @p d (the portsFor() split, pre-resolved). */
    const std::vector<MemPort *> &
    portsForInst(const DecodedInst &d) const
    {
        return d.flags & kFlagStore ? *storePorts_ : *loadPorts_;
    }

    /** Joint (FU2, FU1, LD) busy bits at @p now (stateBitsAt, with the
     *  port scan inlined). */
    int
    stateBits(uint64_t now) const
    {
        int bits = (pipes_.fu2().busyAt(now) ? 4 : 0) |
                   (pipes_.fu1().busyAt(now) ? 2 : 0);
        for (const auto &port : mem_.ports()) {
            if (port.pipe.busyAt(now)) {
                bits |= 1;
                break;
            }
        }
        return bits;
    }

    /**
     * Integrate the unaccounted region [histPending_, to) into the
     * joint-state histogram. Unit occupations only change at commits
     * (see PipelineSet::integrateInto), so deferring the integration
     * until just before the next commit — across any number of
     * blocked spans and non-dispatch step cycles — produces the same
     * counts as the event kernel's span-by-span accounting, with one
     * integrator pass per dispatch instead of one per span.
     *
     * The integration itself restates PipelineSet::integrateInto with
     * the busy intervals clamped up front and the one-interval case
     * (a lone load port covering a memory wait — most of a reference
     * machine's cycles) resolved without the generic edge sort.
     */
    void
    flushHist(uint64_t to)
    {
        if (histPending_ >= to)
            return;
        const uint64_t from = histPending_;
        histPending_ = to;

        struct Clamped
        {
            uint64_t from, until;
            int bits;
        };
        Clamped iv[16];
        size_t n = 0;
        const auto add = [&](int bits, const PipeUnit &pipe) {
            uint64_t f = std::max(pipe.busyFrom(), from);
            uint64_t u = std::min(pipe.freeCycle(), to);
            if (f < u) {
                MTV_ASSERT(n < 16);
                iv[n++] = {f, u, bits};
            }
        };
        add(4, pipes_.fu2());
        add(2, pipes_.fu1());
        for (const auto &port : mem_.ports())
            add(1, port.pipe);

        if (n == 0) {
            stateHist_[0] += to - from;
            return;
        }
        if (n == 1) {
            stateHist_[0] += (iv[0].from - from) + (to - iv[0].until);
            stateHist_[static_cast<size_t>(iv[0].bits)] +=
                iv[0].until - iv[0].from;
            return;
        }
        // General case: segment at every interval edge (insertion-
        // sorted; at most 2n+2 of them) and charge each segment to
        // the OR of the intervals covering it.
        uint64_t edges[2 * 16 + 2];
        size_t numEdges = 0;
        edges[numEdges++] = from;
        edges[numEdges++] = to;
        for (size_t i = 0; i < n; ++i) {
            edges[numEdges++] = iv[i].from;
            edges[numEdges++] = iv[i].until;
        }
        for (size_t i = 1; i < numEdges; ++i) {
            const uint64_t e = edges[i];
            size_t j = i;
            for (; j > 0 && edges[j - 1] > e; --j)
                edges[j] = edges[j - 1];
            edges[j] = e;
        }
        for (size_t e = 0; e + 1 < numEdges; ++e) {
            const uint64_t start = edges[e];
            const uint64_t end = edges[e + 1];
            if (start == end)
                continue;
            int bits = 0;
            for (size_t i = 0; i < n; ++i) {
                if (iv[i].from <= start && start < iv[i].until)
                    bits |= iv[i].bits;
            }
            stateHist_[static_cast<size_t>(bits)] += end - start;
        }
    }

    // --- fetch (mirrors VectorSim::ensureWindow) ---

    bool
    ensureWindow(FastContext &ctx, uint64_t now, BlockReason &why)
    {
        if (ctx.windowSize >= depth())
            return true;
        return refillWindow(ctx, now, why);
    }

    bool
    refillWindow(FastContext &ctx, uint64_t now, BlockReason &why)
    {
        bool fetchStalled = false;
        while (!ctx.finished && ctx.prog && ctx.windowSize < depth()) {
            if (ctx.fetchReadyAt > now) {
                fetchStalled = true;
                break;
            }
            // Never fetch past an unresolved branch.
            if (Slip && ctx.windowSize &&
                (ctx.window[ctx.windowSize - 1]->flags & kFlagBranch)) {
                break;
            }
            // Truncated reference runs: stop fetching at the budget.
            if (maxInstructions_ &&
                ctx.stats.instructions +
                        static_cast<uint64_t>(Slip ? ctx.windowSize : 0) >=
                    maxInstructions_) {
                if (!ctx.windowSize) {
                    ctx.finished = true;
                    ctx.stats.runsCompleted = 0;
                }
                break;
            }

            const std::vector<DecodedInst> &code = ctx.prog->stream->code();
            if (ctx.pos < code.size()) {
                ctx.window[ctx.windowSize++] = &code[ctx.pos++];
                if (!Slip)
                    break;  // the one-deep window is full
                continue;
            }

            // End of the current run: drain the window before
            // restarting or taking the next job.
            if ((Slip && ctx.windowSize) || !nextRun(ctx, now))
                break;
        }

        if (ctx.windowSize)
            return true;
        why = fetchStalled ? BlockReason::FetchStall
                           : BlockReason::NoWork;
        return false;
    }

    /**
     * @p ctx's program ran out: restart it (group companions), take
     * the next job (job queues), or finish. Returns true when the
     * context has a program to fetch from again. Kept out of
     * refillWindow() so the per-instruction fetch stays small enough
     * to inline.
     */
    bool
    nextRun(FastContext &ctx, uint64_t now)
    {
        if (mode_ == RunMode::JobQueue) {
            if (ctx.jobIndex >= 0) {
                jobRecords_[ctx.jobIndex].endCycle =
                    ctx.stats.lastCompletion;
                ctx.jobIndex = -1;
            }
            ++ctx.stats.runsCompleted;
            if (nextJob_ < jobs_.size()) {
                ctx.prog = jobs_[nextJob_++];
                ctx.pos = 0;
                ctx.stats.instructionsThisRun = 0;
                ctx.jobIndex = static_cast<int>(jobRecords_.size());
                jobRecords_.push_back(
                    {ctx.prog->name,
                     static_cast<int>(&ctx - contexts_.data()), now, 0});
                return true;
            }
            ctx.finished = true;
            return false;
        }

        if (ctx.restartable) {
            ++ctx.stats.runsCompleted;
            ctx.stats.instructionsThisRun = 0;
            ctx.pos = 0;
            return true;
        }

        ctx.finished = true;
        ctx.stats.runsCompleted = 1;
        return false;
    }

    void
    primeFetch(uint64_t t)
    {
        for (auto &ctx : contexts_) {
            BlockReason why;
            ensureWindow(ctx, t, why);
        }
    }

    // --- dispatch (mirrors DispatchUnit::planAny/planDispatch/commit) ---

    /**
     * The head, or — when decoupled — a vector memory instruction
     * behind it that conflicts with none of the skipped entries. On
     * failure @p why holds the head's reason and unblockAt_ the
     * earliest threshold of the head and every slip candidate.
     */
    bool
    planAny(const FastContext &ctx, uint64_t now, DispatchPlan &plan,
            BlockReason &why)
    {
        if (!Slip)
            return planHead(ctx, *ctx.window[0], now, plan, why);
        if (planHead(ctx, *ctx.window[0], now, plan, why))
            return true;
        if (ctx.windowSize == 1)
            return false;
        EventMin threshold(now);
        threshold.consider(unblockAt_);
        for (int k = 1; k < ctx.windowSize; ++k) {
            const DecodedInst &cand = *ctx.window[k];
            if (!(cand.flags & kFlagVector) || !(cand.flags & kFlagMem))
                continue;
            bool clear = true;
            for (int j = 0; j < k && clear; ++j)
                clear = canSlipPast(cand, *ctx.window[j]);
            if (!clear)
                continue;
            DispatchPlan slipped{};
            BlockReason slipWhy = BlockReason::NoWork;
            if (planHead(ctx, cand, now, slipped, slipWhy)) {
                slipped.windowIndex = static_cast<size_t>(k);
                plan = slipped;
                return true;
            }
            threshold.consider(unblockAt_);
        }
        unblockAt_ = threshold.next;
        return false;
    }

    /** Earliest pipe/bus state change on the ports serving @p d. */
    uint64_t
    nextPortEvent(const DecodedInst &d, uint64_t now) const
    {
        EventMin em(now);
        for (const MemPort *port : portsForInst(d))
            em.consider(port->nextEventAfter(now));
        return em.next;
    }

    /**
     * The destination hazard check of a vector write (WAW/WAR): the
     * baseline blocks on a busy register, infinite renaming never
     * does, and the bounded pool renames while a slot is free.
     */
    bool
    destFree(const FastContext &ctx, const VRegTiming &dst, uint64_t now,
             DispatchPlan &plan, BlockReason &why)
    {
        if (params_.renaming || dst.idleAt(now))
            return true;
        if (params_.renameDepth > 0) {
            const uint64_t slot = ctx.minRenameSlot(params_.renameDepth);
            if (slot <= now) {
                plan.renamed = true;
                return true;
            }
            why = BlockReason::DestBusy;
            unblockAt_ = std::min(std::max(dst.writeDone, dst.readBusy),
                                  slot);
            return false;
        }
        why = BlockReason::DestBusy;
        unblockAt_ = std::max(dst.writeDone, dst.readBusy);
        return false;
    }

    bool
    planHead(const FastContext &ctx, const DecodedInst &d, uint64_t now,
             DispatchPlan &plan, BlockReason &why)
    {
        if (d.fu == FuClass::Scalar) {
            for (const uint8_t src : {d.srcA, d.srcB}) {
                if (src != noReg && ctx.scalarReady[src] > now) {
                    why = BlockReason::ScalarDep;
                    unblockAt_ = ctx.scalarReady[src];
                    return false;
                }
            }
            if (d.dst != noReg && ctx.scalarReady[d.dst] > now) {
                why = BlockReason::ScalarDep;
                unblockAt_ = ctx.scalarReady[d.dst];
                return false;
            }
            if (d.flags & kFlagMem) {
                plan.port = nullptr;
                uint64_t busFree = 0;
                for (MemPort *port : portsForInst(d)) {
                    if (port->bus.freeAt(now)) {
                        plan.port = port;
                        break;
                    }
                    const uint64_t f = port->bus.freeCycle();
                    if (busFree == 0 || f < busFree)
                        busFree = f;
                }
                if (!plan.port) {
                    why = BlockReason::MemPortBusy;
                    unblockAt_ = busFree;
                    return false;
                }
            }
            plan.unit = DispatchPlan::Unit::Scalar;
            plan.start = now;
            plan.scalarReady =
                now + static_cast<uint64_t>(
                          latByOp_[static_cast<size_t>(d.op)]);
            plan.completion =
                d.op == Opcode::SStore ? now + 1 : plan.scalarReady;
            return true;
        }

        const uint16_t vl = d.vl;
        const bool renamingOn = params_.renamingEnabled();

        if (d.fu == FuClass::VecAny || d.fu == FuClass::VecFu2) {
            if (d.fu == FuClass::VecFu2) {
                if (!pipes_.fu2().freeAt(now)) {
                    why = BlockReason::FuBusy;
                    unblockAt_ = pipes_.fu2().freeCycle();
                    return false;
                }
                plan.unit = DispatchPlan::Unit::Fu2;
            } else if (pipes_.fu1().freeAt(now)) {
                plan.unit = DispatchPlan::Unit::Fu1;
            } else if (pipes_.fu2().freeAt(now)) {
                plan.unit = DispatchPlan::Unit::Fu2;
            } else {
                why = BlockReason::FuBusy;
                unblockAt_ = std::min(pipes_.fu1().freeCycle(),
                                      pipes_.fu2().freeCycle());
                return false;
            }

            uint64_t chainStart = 0;
            int bankReads[numVRegs / 2] = {};
            for (const uint8_t src : {d.srcA, d.srcB}) {
                if (src == noReg)
                    continue;
                const VRegTiming &reg = ctx.vregs[src];
                if (!reg.completeAt(now)) {
                    if (!reg.chainable) {
                        why = BlockReason::SourceNotReady;
                        unblockAt_ = reg.writeDone;
                        return false;
                    }
                    chainStart = std::max(chainStart, reg.prodFirst + 1);
                }
                ++bankReads[vregBank(src)];
            }
            if (d.srcA != noReg && d.srcA == d.srcB)
                --bankReads[vregBank(d.srcA)];

            const bool isReduce = d.op == Opcode::VReduce;
            if (!isReduce) {
                if (!destFree(ctx, ctx.vregs[d.dst], now, plan, why))
                    return false;
            } else if (d.dst != noReg && ctx.scalarReady[d.dst] > now) {
                why = BlockReason::ScalarDep;
                unblockAt_ = ctx.scalarReady[d.dst];
                return false;
            }

            if (params_.modelBankPorts) {
                for (int b = 0; b < numVRegs / 2; ++b) {
                    if (bankReads[b] >
                        ctx.banks[b].freeReadPorts(now)) {
                        why = BlockReason::BankPortBusy;
                        // Need both ports => wait for the later one;
                        // need one (and both busy) => the earlier.
                        const BankPorts &bank = ctx.banks[b];
                        unblockAt_ =
                            bankReads[b] >= 2
                                ? std::max(bank.readUntil[0],
                                           bank.readUntil[1])
                                : std::min(bank.readUntil[0],
                                           bank.readUntil[1]);
                        return false;
                    }
                }
                if (!isReduce && !renamingOn &&
                    !ctx.banks[vregBank(d.dst)].writeFreeAt(now)) {
                    why = BlockReason::BankPortBusy;
                    unblockAt_ = ctx.banks[vregBank(d.dst)].writeUntil;
                    return false;
                }
            }

            const uint64_t r0 = std::max(
                now + static_cast<uint64_t>(params_.vectorStartup),
                chainStart);
            const int fuLat = latByOp_[static_cast<size_t>(d.op)];
            plan.start = r0;
            plan.prodFirst =
                r0 + params_.readXbar + fuLat + params_.writeXbar;
            plan.writeDone = plan.prodFirst + vl;
            plan.chainableOut = true;
            if (isReduce) {
                plan.scalarReady = r0 + params_.readXbar + fuLat + vl;
                plan.completion = plan.scalarReady;
            } else {
                plan.completion = plan.writeDone;
            }
            return true;
        }

        // Vector memory: a port whose pipe and address bus are both
        // free. The pipe/port reason can flip mid-wait, so a blocked
        // plan stops at the next port event and replans rather than
        // jumping to the final dispatch time in one span.
        plan.port = nullptr;
        bool anyPipeFree = false;
        for (MemPort *port : portsForInst(d)) {
            if (!port->pipe.freeAt(now))
                continue;
            anyPipeFree = true;
            if (port->bus.freeAt(now)) {
                plan.port = port;
                break;
            }
        }
        if (!plan.port) {
            why = anyPipeFree ? BlockReason::MemPortBusy
                              : BlockReason::MemPipeBusy;
            unblockAt_ = nextPortEvent(d, now);
            return false;
        }

        if (d.fu == FuClass::VecLoad) {
            if (!destFree(ctx, ctx.vregs[d.dst], now, plan, why))
                return false;
            if (params_.modelBankPorts && !renamingOn &&
                !ctx.banks[vregBank(d.dst)].writeFreeAt(now)) {
                why = BlockReason::BankPortBusy;
                unblockAt_ = ctx.banks[vregBank(d.dst)].writeUntil;
                return false;
            }
            const bool indexed = d.op == Opcode::VGather;
            const int period =
                mem_.memory().deliveryPeriod(d.stride, indexed);
            plan.unit = DispatchPlan::Unit::Mem;
            plan.start =
                now + static_cast<uint64_t>(params_.vectorStartup);
            plan.pipeUntil =
                plan.start + static_cast<uint64_t>(vl) * period;
            plan.prodFirst =
                plan.start + params_.memLatency + params_.writeXbar;
            plan.writeDone =
                plan.prodFirst + static_cast<uint64_t>(vl) * period;
            plan.chainableOut = params_.loadChaining;
            plan.completion = plan.writeDone;
            return true;
        }

        MTV_ASSERT(d.fu == FuClass::VecStore);
        const VRegTiming &src = ctx.vregs[d.srcA];
        uint64_t chainStart = 0;
        if (!src.completeAt(now)) {
            if (!src.chainable) {
                why = BlockReason::SourceNotReady;
                unblockAt_ = src.writeDone;
                return false;
            }
            chainStart = src.prodFirst + 1;
        }
        if (params_.modelBankPorts &&
            ctx.banks[vregBank(d.srcA)].freeReadPorts(now) < 1) {
            why = BlockReason::BankPortBusy;
            const BankPorts &bank = ctx.banks[vregBank(d.srcA)];
            unblockAt_ =
                std::min(bank.readUntil[0], bank.readUntil[1]);
            return false;
        }
        plan.unit = DispatchPlan::Unit::Mem;
        plan.start = std::max(
            now + static_cast<uint64_t>(params_.vectorStartup),
            chainStart);
        plan.pipeUntil = plan.start + vl;
        plan.completion = plan.start + vl;
        return true;
    }

    /** Claim the earliest-retiring rename slot for the register
     *  @p dst displaces (dispatch.cc's takeRenameSlot). */
    void
    takeRenameSlot(FastContext &ctx, const VRegTiming &dst) const
    {
        int best = 0;
        for (int i = 1; i < params_.renameDepth; ++i) {
            if (ctx.renameSlots[i] < ctx.renameSlots[best])
                best = i;
        }
        ctx.renameSlots[best] = std::max(dst.writeDone, dst.readBusy);
    }

    void
    commit(FastContext &ctx, const DispatchPlan &plan, uint64_t now)
    {
        // The occupations below invalidate the frozen intervals the
        // deferred histogram relies on: integrate up to here first.
        flushHist(now);
        const size_t slot = Slip ? plan.windowIndex : 0;
        const DecodedInst &d = *ctx.window[slot];
        const uint16_t vl = d.vl;

        switch (plan.unit) {
          case DispatchPlan::Unit::Scalar:
            if (d.dst != noReg)
                ctx.scalarReady[d.dst] = plan.scalarReady;
            if (d.flags & kFlagMem)
                plan.port->bus.reserve(now, 1);
            if (d.flags & kFlagBranch) {
                ctx.fetchReadyAt =
                    now + 1 +
                    static_cast<uint64_t>(params_.branchStall);
            }
            break;

          case DispatchPlan::Unit::Fu1:
          case DispatchPlan::Unit::Fu2: {
            PipeUnit &unit = plan.unit == DispatchPlan::Unit::Fu1
                                 ? pipes_.fu1()
                                 : pipes_.fu2();
            unit.occupy(plan.start, plan.start + vl);
            if (plan.unit == DispatchPlan::Unit::Fu1)
                vecOpsFu1_ += vl;
            else
                vecOpsFu2_ += vl;

            const uint64_t readUntil = plan.start + vl;
            for (const uint8_t src : {d.srcA, d.srcB}) {
                if (src == noReg)
                    continue;
                VRegTiming &reg = ctx.vregs[src];
                reg.readBusy = std::max(reg.readBusy, readUntil);
                ctx.banks[vregBank(src)].takeReadPort(now, readUntil);
            }
            if (d.op == Opcode::VReduce) {
                if (d.dst != noReg)
                    ctx.scalarReady[d.dst] = plan.scalarReady;
            } else {
                VRegTiming &dst = ctx.vregs[d.dst];
                if (plan.renamed)
                    takeRenameSlot(ctx, dst);
                dst.prodFirst = plan.prodFirst;
                dst.writeDone = plan.writeDone;
                dst.chainable = plan.chainableOut;
                ctx.banks[vregBank(d.dst)].writeUntil = plan.writeDone;
            }
            break;
          }

          case DispatchPlan::Unit::Mem: {
            plan.port->pipe.occupy(plan.start, plan.pipeUntil);
            plan.port->bus.reserve(plan.start, vl);
            if (d.flags & kFlagLoad) {
                VRegTiming &dst = ctx.vregs[d.dst];
                if (plan.renamed)
                    takeRenameSlot(ctx, dst);
                dst.prodFirst = plan.prodFirst;
                dst.writeDone = plan.writeDone;
                dst.chainable = plan.chainableOut;
                ctx.banks[vregBank(d.dst)].writeUntil = plan.writeDone;
            } else {
                VRegTiming &src = ctx.vregs[d.srcA];
                const uint64_t readUntil = plan.start + vl;
                src.readBusy = std::max(src.readBusy, readUntil);
                ctx.banks[vregBank(d.srcA)].takeReadPort(now, readUntil);
            }
            break;
          }
        }

        ++dispatches_;
        ++ctx.stats.instructions;
        ++ctx.stats.instructionsThisRun;
        if (d.flags & kFlagVector)
            ++ctx.stats.vectorInstructions;
        else
            ++ctx.stats.scalarInstructions;
        ctx.stats.lastCompletion =
            std::max(ctx.stats.lastCompletion, plan.completion);
        if (!Slip) {
            ctx.windowSize = 0;
            return;
        }
        if (slot > 0)
            ++decoupledSlips_;
        for (int k = static_cast<int>(slot) + 1; k < ctx.windowSize; ++k)
            ctx.window[k - 1] = ctx.window[k];
        --ctx.windowSize;
    }

    // --- the decode cycle (mirrors VectorSim::decodeSingleSlot) ---

    bool
    decodeCycle(uint64_t now)
    {
        FastContext &held = contexts_[currentThread_];
        lastSelected_[currentThread_] = now;
        BlockReason heldWhy = BlockReason::NoWork;
        bool dispatched = false;
        if (ensureWindow(held, now, heldWhy)) {
            DispatchPlan plan{};
            if (planAny(held, now, plan, heldWhy)) {
                commit(held, plan, now);
                lastDispatchCycle_ = now;
                dispatched = true;
            }
        }
        if (!dispatched) {
            noteBlocked(held);
            scanWhy_[currentThread_] = heldWhy;
            scanContexts(now);
            for (int c = 0; c < params_.contexts; ++c) {
                if (scanWhy_[c] != BlockReason::None) {
                    contexts_[c].stats.blocked[static_cast<size_t>(
                        scanWhy_[c])]++;
                }
            }
            ++decodeIdle_;
            switchThread();
        } else if (params_.sched == SchedPolicy::RoundRobin) {
            switchThread();
        }
        return dispatched;
    }

    /** Every context but the slot holder: its reason at @p now. */
    void
    scanContexts(uint64_t now)
    {
        for (int c = 0; c < params_.contexts; ++c) {
            if (c == currentThread_)
                continue;  // the dispatch attempt already recorded it
            scanWhy_[c] = reasonAt(contexts_[c], now);
        }
    }

    /** @p ctx's block reason at @p now (None: it could dispatch);
     *  a blocked context's threshold goes into wake_. */
    BlockReason
    reasonAt(FastContext &ctx, uint64_t now)
    {
        BlockReason why = BlockReason::NoWork;
        if (ensureWindow(ctx, now, why)) {
            DispatchPlan plan{};
            if (planAny(ctx, now, plan, why))
                return BlockReason::None;
        }
        noteBlocked(ctx);
        return why;
    }

    // --- multi-slot decode (mirrors VectorSim::decodeMultiSlot) ---

    bool
    decodeMultiSlot(uint64_t now)
    {
        int issued = 0;
        bool scalarUsed = false;
        for (int c = 0; c < params_.contexts && issued < slotWidth_; ++c) {
            FastContext &ctx = contexts_[c];
            BlockReason why = BlockReason::NoWork;
            DispatchPlan plan{};
            if (!ensureWindow(ctx, now, why) ||
                !planAny(ctx, now, plan, why)) {
                noteBlocked(ctx);
                ctx.stats.blocked[static_cast<size_t>(why)]++;
                scanWhy_[c] = why;
                continue;
            }
            const bool isScalar =
                plan.unit == DispatchPlan::Unit::Scalar;
            if (isScalar && scalarUsed && !params_.dualScalar) {
                // One shared scalar unit: the second scalar
                // instruction of this cycle loses its slot.
                ctx.stats.blocked[static_cast<size_t>(
                    BlockReason::ScalarDep)]++;
                scanWhy_[c] = BlockReason::ScalarDep;
                continue;
            }
            commit(ctx, plan, now);
            lastDispatchCycle_ = now;
            ++issued;
            scanWhy_[c] = BlockReason::None;
            if (isScalar)
                scalarUsed = true;
        }
        if (!issued)
            ++decodeIdle_;
        return issued > 0;
    }

    void
    switchThread()
    {
        const int n = params_.contexts;
        if (n == 1)
            return;

        switch (params_.sched) {
          case SchedPolicy::UnfairLowest:
            for (int c = 0; c < n; ++c) {
                if (scanWhy_[c] == BlockReason::None) {
                    currentThread_ = c;
                    return;
                }
            }
            return;

          case SchedPolicy::FairLru: {
            int best = -1;
            for (int c = 0; c < n; ++c) {
                if (scanWhy_[c] == BlockReason::None &&
                    (best < 0 ||
                     lastSelected_[c] < lastSelected_[best])) {
                    best = c;
                }
            }
            if (best >= 0)
                currentThread_ = best;
            return;
          }

          case SchedPolicy::RoundRobin:
            for (int step = 1; step <= n; ++step) {
                const int c = (currentThread_ + step) % n;
                if (contexts_[c].hasWork()) {
                    currentThread_ = c;
                    return;
                }
            }
            return;
        }
    }

    // --- idle spans (mirrors accountIdleSpan / advanceRoundRobin) ---

    void
    accountIdleSpan(uint64_t from, uint64_t to)
    {
        // The histogram cycles of [from, to) stay in the deferred
        // region (flushHist); only the block charges are per-span.
        const uint64_t skipped = to - from - 1;
        if (skipped == 0)
            return;
        decodeIdle_ += skipped;
        for (int c = 0; c < params_.contexts; ++c) {
            MTV_ASSERT(scanWhy_[c] != BlockReason::None);
            contexts_[c].stats.blocked[static_cast<size_t>(
                scanWhy_[c])] += skipped;
        }
        if (!multiSlot_ && params_.sched == SchedPolicy::RoundRobin)
            advanceRoundRobin(skipped);
    }

    void
    advanceRoundRobin(uint64_t steps)
    {
        int active[8];
        int m = 0;
        MTV_ASSERT(params_.contexts <= 8);
        for (int c = 0; c < params_.contexts; ++c) {
            if (contexts_[c].hasWork())
                active[m++] = c;
        }
        if (m == 0)
            return;
        int p0 = 0;
        while (p0 < m && active[p0] <= currentThread_)
            ++p0;
        if (p0 == m)
            p0 = 0;
        currentThread_ =
            active[(p0 + (steps - 1)) % static_cast<uint64_t>(m)];
    }

    // --- termination and the watchdog ---

    bool
    done(uint64_t now) const
    {
        if (mode_ == RunMode::UntilThreadZero) {
            const FastContext &ctx0 = contexts_[0];
            return ctx0.finished && !ctx0.windowSize &&
                   now >= ctx0.stats.lastCompletion;
        }
        uint64_t maxCompletion = 0;
        for (const auto &ctx : contexts_) {
            if (!ctx.finished || ctx.windowSize)
                return false;
            maxCompletion =
                std::max(maxCompletion, ctx.stats.lastCompletion);
        }
        return now >= maxCompletion;
    }

    void
    checkWatchdog(uint64_t now)
    {
        if (now - lastDispatchCycle_ > stallLimit_)
            throwWedged(now);
    }

    [[noreturn]] void
    throwWedged(uint64_t now)
    {
        std::vector<BlockedContext> blocked;
        blocked.reserve(contexts_.size());
        for (int c = 0; c < params_.contexts; ++c) {
            FastContext &ctx = contexts_[c];
            BlockedContext b;
            b.context = c;
            b.program = ctx.stats.program;
            b.reason = reasonAt(ctx, now);
            b.windowDepth = static_cast<size_t>(ctx.windowSize);
            if (ctx.windowSize) {
                const PackedStream &stream = *ctx.prog->stream;
                const size_t idx = static_cast<size_t>(
                    ctx.window[0] - stream.code().data());
                b.windowHead = stream.at(idx).disasm();
            }
            blocked.push_back(std::move(b));
        }
        throw SimError(now, now - lastDispatchCycle_,
                       std::move(blocked));
    }

    // --- configuration ---
    MachineParams params_;
    MemSystem mem_;
    PipelineSet pipes_;
    int latByOp_[static_cast<size_t>(Opcode::NumOpcodes)] = {};
    const std::vector<MemPort *> *loadPorts_ = nullptr;
    const std::vector<MemPort *> *storePorts_ = nullptr;
    /** Fetch-window capacity: 1 + decoupleDepth. */
    int depth_;
    int depth() const { return Slip ? depth_ : 1; }
    /** Several dispatch slots per cycle (dual-scalar or width > 1)? */
    bool multiSlot_;
    int slotWidth_;

    // --- machine state ---
    std::vector<FastContext> contexts_;
    int currentThread_ = 0;
    std::vector<uint64_t> lastSelected_;
    std::vector<BlockReason> scanWhy_;

    // --- run bookkeeping ---
    RunMode mode_;
    std::vector<const LaneProgram *> jobs_;
    size_t nextJob_ = 0;
    uint64_t maxInstructions_;
    uint64_t lastDispatchCycle_ = 0;
    uint64_t stallLimit_;
    uint64_t now_ = 0;
    bool finished_ = false;
    /** Start of the cycle region not yet in stateHist_. */
    uint64_t histPending_ = 0;
    /** Threshold of the last failed planAny(): the first cycle at
     *  which that plan's blocking check (or a slip candidate's) can
     *  pass. */
    uint64_t unblockAt_ = 0;
    /** The current decode cycle's earliest blocked-context threshold:
     *  where a fully blocked machine jumps. */
    EventMin wake_{0};

    // --- statistics ---
    uint64_t dispatches_ = 0;
    uint64_t vecOpsFu1_ = 0;
    uint64_t vecOpsFu2_ = 0;
    uint64_t decodeIdle_ = 0;
    uint64_t decoupledSlips_ = 0;
    std::array<uint64_t, numFuStates> stateHist_{};
    std::vector<JobRecord> jobRecords_;

    /** The lane's programs; their streams live as long as it does. */
    std::vector<LaneProgram> programs_;
};

} // namespace

SimStats
runFastLane(const MachineParams &params, FastLaneRun kind,
            const std::vector<InstructionSource *> &sources,
            uint64_t maxInstructions)
{
    std::vector<LaneProgram> programs;
    programs.reserve(sources.size());
    for (const InstructionSource *source : sources) {
        auto stream = source->sharedStream();
        if (!stream)
            break;
        programs.push_back({source->name(), std::move(stream)});
    }
    if (programs.size() == sources.size()) {
        if (params.decoupleDepth > 0) {
            return FastLane<true>(params, kind, maxInstructions,
                                  std::move(programs))
                .run();
        }
        return FastLane<false>(params, kind, maxInstructions,
                               std::move(programs))
            .run();
    }

    // Sources without a packed stream (trace files, in-memory
    // vectors) simulate through the event kernel: slower, never wrong.
    VectorSim sim(params, SimKernel::Event);
    switch (kind) {
      case FastLaneRun::Single:
        return sim.runSingle(*sources[0], maxInstructions);
      case FastLaneRun::Group:
        return sim.runGroup(sources);
      case FastLaneRun::JobQueue:
        return sim.runJobQueue(sources);
    }
    panic("bad FastLaneRun %d", static_cast<int>(kind));
}

} // namespace mtv
