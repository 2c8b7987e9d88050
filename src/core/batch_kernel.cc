/**
 * @file
 * The batched kernel's per-point fast lane: a transliteration of
 * the event kernel — VectorSim::runEvent plus
 * DispatchUnit::planDispatch/commit/considerWakeups — specialized to
 * the machine shape sweeps run (one decode slot, no decoupled slip,
 * so a one-deep fetch window), over pre-decoded programs. Every
 * check, charge and ready-time write below mirrors its original
 * check-for-check; the golden digests (tests/test_golden.cc) and the
 * CI kernel-parity job hold the two in agreement. When you change
 * dispatch semantics in src/core/dispatch.cc or run machinery in
 * src/core/sim.cc, change the mirror here.
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

// ---------------------------------------------------------------------
// The fast lane
// ---------------------------------------------------------------------

/**
 * Per-context state, flat. Mirrors mtv::Context with the one-deep
 * window collapsed to a single decoded-instruction pointer and the
 * source cursor inlined (no virtual next(), no Instruction copies).
 */
struct FastContext
{
    const LaneProgram *prog = nullptr;     ///< null: empty context
    size_t pos = 0;                        ///< fetch cursor
    const DecodedInst *head = nullptr;     ///< the 1-deep window
    bool finished = false;
    bool restartable = false;
    uint64_t fetchReadyAt = 0;
    uint64_t scalarReady[numSRegs + numARegs] = {};
    VRegTiming vregs[numVRegs] = {};
    BankPorts banks[numVRegs / 2] = {};
    ThreadStats stats;
    int jobIndex = -1;

    bool hasWork() const { return !finished || head; }
};

/** Machines the fast lane's specialization covers exactly. Bounded
 *  renaming (renameDepth > 0) is excluded like decoupling: both add
 *  per-context pool state the flat context blocks do not model, so
 *  such points take the event-kernel fallback. Infinite-pool
 *  renaming and multi-port memory are handled natively. */
bool
fastLaneShape(const MachineParams &params)
{
    return params.decodeWidth == 1 && !params.dualScalar &&
           params.decoupleDepth == 0 && params.renameDepth == 0;
}

/**
 * One point's machine over pre-decoded programs. Equivalent to
 * VectorSim(params, SimKernel::Event) on the same point.
 */
class FastLane
{
  public:
    FastLane(const MachineParams &params, FastLaneRun kind,
             uint64_t maxInstructions,
             std::vector<LaneProgram> programs)
        : params_(params), mem_(params_),
          mode_(kind == FastLaneRun::JobQueue ? RunMode::JobQueue
                                              : RunMode::UntilThreadZero),
          maxInstructions_(kind == FastLaneRun::Single ? maxInstructions
                                                       : 0),
          programs_(std::move(programs))
    {
        MTV_ASSERT(fastLaneShape(params_));
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
    /** One iteration of the event-kernel loop (see runEvent()). */
    void
    advanceMulti()
    {
        const bool dispatched = decodeCycle(now_);
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
            primeFetch(now_);
            checkWatchdog(now_);
        } else {
            const uint64_t watchdogAt =
                lastDispatchCycle_ + stallLimit_ + 1;
            uint64_t wake = nextWakeup(now_);
            if (wake == 0 || wake > watchdogAt)
                wake = watchdogAt;
            accountIdleSpan(now_, wake);
            now_ = wake;
            primeFetch(now_);
            checkWatchdog(now_);
        }
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
        if (ctx.head || refillWindow(ctx, now_, why)) {
            DispatchPlan plan{};
            if (planHead(ctx, *ctx.head, now_, plan, why)) {
                commit(ctx, *ctx.head, plan, now_);
                lastDispatchCycle_ = now_;
                ++stateHist_[static_cast<size_t>(stateBits(now_))];
                histPending_ = now_ + 1;
                ++now_;
                if (!ctx.head)
                    refillWindow(ctx, now_, why);
                checkWatchdog(now_);
                finished_ = done(now_);
                return;
            }
        }
        // Blocked: one reason covers the whole span (nothing commits
        // while blocked), so the cycle-by-cycle charges of the multi-
        // context path collapse to one add. With a head, the span end
        // comes straight from the failed plan: every dispatch predicate
        // is monotone until the next commit, so the first-failing check
        // (= the reason) cannot change before its own threshold, and
        // intermediate wakeups the event kernel takes inside the span
        // replan to the same reason. Jumping over them charges the same
        // totals without enumerating every resource's next event.
        scanWhy_[0] = why;
        const uint64_t watchdogAt = lastDispatchCycle_ + stallLimit_ + 1;
        uint64_t wake;
        if (ctx.head) {
            wake = unblockAt_;
        } else {
            EventMin em(now_);
            em.consider(ctx.fetchReadyAt);
            em.consider(ctx.stats.lastCompletion);
            wake = em.next;
        }
        if (wake <= now_ || wake > watchdogAt)
            wake = watchdogAt;
        const uint64_t span = wake - now_;
        decodeIdle_ += span;
        ctx.stats.blocked[static_cast<size_t>(why)] += span;
        now_ = wake;
        if (!ctx.head)
            refillWindow(ctx, now_, why);
        checkWatchdog(now_);
        finished_ = done(now_);
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
        stats.decoupledSlips = 0;
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

    // --- fetch (mirrors VectorSim::ensureWindow at window depth 1) ---

    bool
    ensureWindow(FastContext &ctx, uint64_t now, BlockReason &why)
    {
        if (ctx.head)
            return true;
        return refillWindow(ctx, now, why);
    }

    bool
    refillWindow(FastContext &ctx, uint64_t now, BlockReason &why)
    {
        bool fetchStalled = false;
        while (!ctx.finished && ctx.prog && !ctx.head) {
            if (ctx.fetchReadyAt > now) {
                fetchStalled = true;
                break;
            }
            // (The never-fetch-past-a-branch guard is unreachable at
            // depth 1: the loop only runs with an empty window.)
            if (maxInstructions_ &&
                ctx.stats.instructions >= maxInstructions_) {
                ctx.finished = true;
                ctx.stats.runsCompleted = 0;
                break;
            }

            const std::vector<DecodedInst> &code = ctx.prog->stream->code();
            if (ctx.pos < code.size()) {
                ctx.head = &code[ctx.pos++];
                break;  // window full (depth 1)
            }

            // End of the current run.
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
                         static_cast<int>(&ctx - contexts_.data()), now,
                         0});
                    continue;
                }
                ctx.finished = true;
                break;
            }

            if (ctx.restartable) {
                ++ctx.stats.runsCompleted;
                ctx.stats.instructionsThisRun = 0;
                ctx.pos = 0;
                continue;
            }

            ctx.finished = true;
            ctx.stats.runsCompleted = 1;
            break;
        }

        if (ctx.head)
            return true;
        why = fetchStalled ? BlockReason::FetchStall
                           : BlockReason::NoWork;
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

    // --- dispatch (mirrors DispatchUnit::planDispatch/commit) ---

    /** Earliest pipe/bus state change on the ports serving @p d. */
    uint64_t
    nextPortEvent(const DecodedInst &d, uint64_t now) const
    {
        EventMin em(now);
        for (const MemPort *port : portsForInst(d))
            em.consider(port->nextEventAfter(now));
        return em.next;
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
                const VRegTiming &dst = ctx.vregs[d.dst];
                if (!params_.renaming && !dst.idleAt(now)) {
                    why = BlockReason::DestBusy;
                    unblockAt_ = std::max(dst.writeDone, dst.readBusy);
                    return false;
                }
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
                if (!isReduce && !params_.renaming &&
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

        if (d.fu == FuClass::VecLoad) {
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
                // The pipe/port reason can flip mid-wait, so stop at
                // the next port event and replan rather than jumping
                // to the final dispatch time in one span.
                unblockAt_ = nextPortEvent(d, now);
                return false;
            }
            const VRegTiming &dst = ctx.vregs[d.dst];
            if (!params_.renaming && !dst.idleAt(now)) {
                why = BlockReason::DestBusy;
                unblockAt_ = std::max(dst.writeDone, dst.readBusy);
                return false;
            }
            if (params_.modelBankPorts && !params_.renaming &&
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

    void
    commit(FastContext &ctx, const DecodedInst &d,
           const DispatchPlan &plan, uint64_t now)
    {
        // The occupations below invalidate the frozen intervals the
        // deferred histogram relies on: integrate up to here first.
        flushHist(now);
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
        ctx.head = nullptr;
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
            if (planHead(held, *held.head, now, plan, heldWhy)) {
                commit(held, *held.head, plan, now);
                lastDispatchCycle_ = now;
                dispatched = true;
            }
        }
        if (!dispatched) {
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

    void
    scanContexts(uint64_t now)
    {
        for (int c = 0; c < params_.contexts; ++c) {
            if (c == currentThread_)
                continue;  // the dispatch attempt already recorded it
            FastContext &ctx = contexts_[c];
            BlockReason why = BlockReason::NoWork;
            if (ensureWindow(ctx, now, why)) {
                DispatchPlan plan{};
                if (planHead(ctx, *ctx.head, now, plan, why))
                    why = BlockReason::None;
            }
            scanWhy_[c] = why;
        }
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
        if (params_.sched == SchedPolicy::RoundRobin)
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

    // --- wakeups (mirrors Scheduler::nextWakeup + considerWakeups) ---

    void
    considerWakeups(const FastContext &ctx, EventMin &em) const
    {
        if (!ctx.head)
            return;
        const DecodedInst &d = *ctx.head;

        if (d.fu == FuClass::Scalar) {
            for (const uint8_t reg : {d.srcA, d.srcB, d.dst}) {
                if (reg != noReg)
                    em.consider(ctx.scalarReady[reg]);
            }
            if (d.flags & kFlagMem) {
                for (const MemPort *port : portsForInst(d))
                    em.consider(port->bus.freeCycle());
            }
            return;
        }

        if (d.fu == FuClass::VecAny || d.fu == FuClass::VecFu2) {
            em.consider(pipes_.fu2().freeCycle());
            if (d.fu == FuClass::VecAny)
                em.consider(pipes_.fu1().freeCycle());
            for (const uint8_t src : {d.srcA, d.srcB}) {
                if (src == noReg)
                    continue;
                const VRegTiming &reg = ctx.vregs[src];
                if (!reg.chainable)
                    em.consider(reg.writeDone);
                if (params_.modelBankPorts) {
                    em.consider(ctx.banks[vregBank(src)].nextEventAfter(
                        em.now));
                }
            }
            if (d.op == Opcode::VReduce) {
                if (d.dst != noReg)
                    em.consider(ctx.scalarReady[d.dst]);
            } else if (!params_.renaming) {
                const VRegTiming &dst = ctx.vregs[d.dst];
                em.consider(dst.writeDone);
                em.consider(dst.readBusy);
                if (params_.modelBankPorts) {
                    em.consider(
                        ctx.banks[vregBank(d.dst)].writeUntil);
                }
            }
            return;
        }

        for (const MemPort *port : portsForInst(d))
            em.consider(port->nextEventAfter(em.now));
        if (d.fu == FuClass::VecLoad) {
            if (!params_.renaming) {
                const VRegTiming &dst = ctx.vregs[d.dst];
                em.consider(dst.writeDone);
                em.consider(dst.readBusy);
                if (params_.modelBankPorts) {
                    em.consider(
                        ctx.banks[vregBank(d.dst)].writeUntil);
                }
            }
        } else {
            const VRegTiming &src = ctx.vregs[d.srcA];
            if (!src.chainable)
                em.consider(src.writeDone);
            if (params_.modelBankPorts) {
                em.consider(ctx.banks[vregBank(d.srcA)].nextEventAfter(
                    em.now));
            }
        }
    }

    uint64_t
    nextWakeup(uint64_t now) const
    {
        EventMin em(now);
        for (const auto &ctx : contexts_) {
            em.consider(ctx.fetchReadyAt);
            em.consider(ctx.stats.lastCompletion);
            considerWakeups(ctx, em);
        }
        return em.next;
    }

    // --- termination and the watchdog ---

    bool
    done(uint64_t now) const
    {
        if (mode_ == RunMode::UntilThreadZero) {
            const FastContext &ctx0 = contexts_[0];
            return ctx0.finished && !ctx0.head &&
                   now >= ctx0.stats.lastCompletion;
        }
        uint64_t maxCompletion = 0;
        for (const auto &ctx : contexts_) {
            if (!ctx.finished || ctx.head)
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
        scanContexts(now);
        {
            FastContext &held = contexts_[currentThread_];
            BlockReason why = BlockReason::NoWork;
            if (ensureWindow(held, now, why)) {
                DispatchPlan plan{};
                if (planHead(held, *held.head, now, plan, why))
                    why = BlockReason::None;
            }
            scanWhy_[currentThread_] = why;
        }
        std::vector<BlockedContext> blocked;
        blocked.reserve(contexts_.size());
        for (int c = 0; c < params_.contexts; ++c) {
            const FastContext &ctx = contexts_[c];
            BlockedContext b;
            b.context = c;
            b.program = ctx.stats.program;
            b.reason = scanWhy_[c];
            b.windowDepth = ctx.head ? 1 : 0;
            if (ctx.head) {
                const PackedStream &stream = *ctx.prog->stream;
                const size_t idx = static_cast<size_t>(
                    ctx.head - stream.code().data());
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
    /** Threshold of the last failed planHead() predicate: the first
     *  cycle at which that plan's blocking check can pass. */
    uint64_t unblockAt_ = 0;

    // --- statistics ---
    uint64_t dispatches_ = 0;
    uint64_t vecOpsFu1_ = 0;
    uint64_t vecOpsFu2_ = 0;
    uint64_t decodeIdle_ = 0;
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
    if (fastLaneShape(params)) {
        std::vector<LaneProgram> programs;
        programs.reserve(sources.size());
        for (const InstructionSource *source : sources) {
            auto stream = source->sharedStream();
            if (!stream)
                break;
            programs.push_back({source->name(), std::move(stream)});
        }
        if (programs.size() == sources.size()) {
            return FastLane(params, kind, maxInstructions,
                            std::move(programs))
                .run();
        }
    }

    // Out-of-shape machines, and sources without a packed stream,
    // simulate through the event kernel: slower, never wrong.
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
