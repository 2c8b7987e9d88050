#include "src/core/sim.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/core/batch_kernel.hh"
#include "src/core/sim_error.hh"

namespace mtv
{

const char *
simKernelName(SimKernel kernel)
{
    switch (kernel) {
      case SimKernel::Stepped: return "stepped";
      case SimKernel::Batched: return "batched";
    }
    return "unknown";
}

namespace
{

/** Validate before any component sizes itself from the values. */
MachineParams
validated(MachineParams params)
{
    params.validate();
    return params;
}

} // namespace

VectorSim::VectorSim(const MachineParams &params, SimKernel kernel)
    : params_(validated(params)), kernel_(kernel), mem_(params_),
      dispatch_(params_, pipes_, mem_)
{
    contexts_.resize(params_.contexts);
    lastSelected_.resize(params_.contexts, 0);
    scanWhy_.resize(params_.contexts, BlockReason::NoWork);
}

// ---------------------------------------------------------------------
// Run entry points
// ---------------------------------------------------------------------

SimStats
VectorSim::runSingle(InstructionSource &source, uint64_t maxInstructions)
{
    if (kernel_ == SimKernel::Batched) {
        return runFastLane(params_, FastLaneRun::Single, {&source},
                           maxInstructions);
    }
    resetMachine(RunMode::UntilThreadZero);
    maxInstructions_ = maxInstructions;
    contexts_[0].source = &source;
    contexts_[0].stats.program = source.name();
    source.reset();
    return runStepped();
}

SimStats
VectorSim::runGroup(const std::vector<InstructionSource *> &programs)
{
    if (static_cast<int>(programs.size()) != params_.contexts) {
        fatal("group run needs exactly %d programs, got %zu",
              params_.contexts, programs.size());
    }
    for (size_t i = 0; i < programs.size(); ++i) {
        for (size_t j = i + 1; j < programs.size(); ++j) {
            if (programs[i] == programs[j]) {
                fatal("group run requires distinct source instances "
                      "(program '%s' passed twice)",
                      programs[i]->name().c_str());
            }
        }
    }
    if (kernel_ == SimKernel::Batched) {
        return runFastLane(params_, FastLaneRun::Group, programs);
    }
    resetMachine(RunMode::UntilThreadZero);
    for (size_t i = 0; i < programs.size(); ++i) {
        Context &ctx = contexts_[i];
        ctx.source = programs[i];
        ctx.source->reset();
        ctx.restartable = i != 0;
        ctx.stats.program = programs[i]->name();
    }
    return runStepped();
}

SimStats
VectorSim::runJobQueue(const std::vector<InstructionSource *> &jobs)
{
    if (jobs.empty())
        fatal("job-queue run needs at least one job");
    if (kernel_ == SimKernel::Batched) {
        return runFastLane(params_, FastLaneRun::JobQueue, jobs);
    }
    resetMachine(RunMode::JobQueue);
    jobs_ = jobs;
    nextJob_ = 0;
    for (auto &ctx : contexts_) {
        if (nextJob_ >= jobs_.size()) {
            ctx.finished = true;
            continue;
        }
        ctx.source = jobs_[nextJob_];
        ctx.source->reset();
        ctx.stats.program = ctx.source->name();
        ctx.jobIndex = static_cast<int>(jobRecords_.size());
        jobRecords_.push_back(
            {ctx.source->name(),
             static_cast<int>(&ctx - contexts_.data()), 0, 0});
        ++nextJob_;
    }
    return runStepped();
}

// ---------------------------------------------------------------------
// Run machinery
// ---------------------------------------------------------------------

void
VectorSim::resetMachine(RunMode mode)
{
    mode_ = mode;
    mem_.clear();
    pipes_.clear();
    dispatch_.clear();
    for (auto &ctx : contexts_)
        ctx = Context{};
    currentThread_ = 0;
    std::fill(lastSelected_.begin(), lastSelected_.end(), 0);
    std::fill(scanWhy_.begin(), scanWhy_.end(), BlockReason::NoWork);
    jobs_.clear();
    nextJob_ = 0;
    maxInstructions_ = 0;
    lastDispatchCycle_ = 0;
    decodeIdle_ = 0;
    stateHist_.fill(0);
    jobRecords_.clear();
    // Legitimate stalls are bounded by one memory round trip plus a
    // full vector drain; anything hugely beyond that is a model bug.
    stallLimit_ = 16 * (static_cast<uint64_t>(params_.memLatency) +
                        maxVectorLength * 8) +
                  1000000;
}

bool
VectorSim::done(uint64_t now) const
{
    if (mode_ == RunMode::UntilThreadZero) {
        const Context &ctx0 = contexts_[0];
        return ctx0.finished && ctx0.window.empty() &&
               now >= ctx0.stats.lastCompletion;
    }
    uint64_t maxCompletion = 0;
    for (const auto &ctx : contexts_) {
        if (!ctx.finished || !ctx.window.empty())
            return false;
        maxCompletion = std::max(maxCompletion, ctx.stats.lastCompletion);
    }
    return now >= maxCompletion;
}

/**
 * The reference kernel: evaluate decode every cycle. Kept as the
 * executable specification the fast lane is validated against.
 */
SimStats
VectorSim::runStepped()
{
    uint64_t now = 0;
    // The fetch stage runs ahead of decode: prime every context's
    // window before evaluating termination, so end-of-program is
    // discovered the cycle the last instruction leaves, not one
    // cycle later.
    primeFetch(0);
    while (!done(now)) {
        decodeCycle(now);
        pipes_.sampleInto(stateHist_, now, mem_);
        ++now;
        primeFetch(now);
        checkWatchdog(now);
    }
    return takeStats(now);
}

bool
VectorSim::decodeCycle(uint64_t now)
{
    return multiSlot() ? decodeMultiSlot(now) : decodeSingleSlot(now);
}

bool
VectorSim::decodeSingleSlot(uint64_t now)
{
    Context &held = contexts_[currentThread_];
    lastSelected_[currentThread_] = now;
    BlockReason heldWhy = BlockReason::NoWork;
    bool dispatched = false;
    if (ensureWindow(held, now, heldWhy)) {
        if (auto plan = dispatch_.planAny(held, now, heldWhy)) {
            dispatch_.commit(held, *plan, now);
            lastDispatchCycle_ = now;
            dispatched = true;
        }
    }
    if (!dispatched) {
        // The decode slot is lost. Charge every context its own
        // blocking resource (not just the slot holder): a thread
        // waiting on the memory port is losing this cycle to the
        // memory port whether or not it holds the slot, which is
        // what Figure 5's idle breakdown wants to count.
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

bool
VectorSim::decodeMultiSlot(uint64_t now)
{
    const int width =
        params_.dualScalar ? params_.contexts : params_.decodeWidth;
    int issued = 0;
    bool scalarUsed = false;
    for (int c = 0; c < params_.contexts && issued < width; ++c) {
        Context &ctx = contexts_[c];
        BlockReason why = BlockReason::NoWork;
        if (!ensureWindow(ctx, now, why)) {
            ctx.stats.blocked[static_cast<size_t>(why)]++;
            scanWhy_[c] = why;
            continue;
        }
        auto plan = dispatch_.planAny(ctx, now, why);
        if (!plan) {
            ctx.stats.blocked[static_cast<size_t>(why)]++;
            scanWhy_[c] = why;
            continue;
        }
        const bool isScalar = plan->unit == DispatchPlan::Unit::Scalar;
        if (isScalar && scalarUsed && !params_.dualScalar) {
            // One shared scalar unit: the second scalar instruction of
            // this cycle loses its slot.
            ctx.stats.blocked[static_cast<size_t>(
                BlockReason::ScalarDep)]++;
            scanWhy_[c] = BlockReason::ScalarDep;
            continue;
        }
        dispatch_.commit(ctx, *plan, now);
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
VectorSim::scanContexts(uint64_t now)
{
    for (int c = 0; c < params_.contexts; ++c) {
        if (c == currentThread_ && !multiSlot())
            continue;  // the dispatch attempt already recorded it
        Context &ctx = contexts_[c];
        BlockReason why = BlockReason::NoWork;
        if (ensureWindow(ctx, now, why) &&
            dispatch_.planAny(ctx, now, why)) {
            why = BlockReason::None;
        }
        scanWhy_[c] = why;
    }
}

void
VectorSim::switchThread()
{
    const int n = params_.contexts;
    if (n == 1)
        return;

    switch (params_.sched) {
      case SchedPolicy::UnfairLowest:
        // Lowest-numbered thread known not to be blocked (the paper's
        // baseline; biased towards thread 0 by construction).
        for (int c = 0; c < n; ++c) {
            if (scanWhy_[c] == BlockReason::None) {
                currentThread_ = c;
                return;
            }
        }
        return;  // everyone blocked; retry the same thread next cycle

      case SchedPolicy::FairLru: {
        int best = -1;
        for (int c = 0; c < n; ++c) {
            if (scanWhy_[c] == BlockReason::None &&
                (best < 0 || lastSelected_[c] < lastSelected_[best])) {
                best = c;
            }
        }
        if (best >= 0)
            currentThread_ = best;
        return;
      }

      case SchedPolicy::RoundRobin:
        // Naive policy: advance regardless of readiness.
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

void
VectorSim::checkWatchdog(uint64_t now)
{
    if (now - lastDispatchCycle_ > stallLimit_)
        throwWedged(now);
}

void
VectorSim::throwWedged(uint64_t now)
{
    // Snapshot every context's blocked state for the error. The
    // round-robin rotation means the slot holder is arbitrary, so
    // record them all.
    scanContexts(now);
    if (!multiSlot()) {
        // scanContexts leaves the holder's entry to the decode
        // attempt; compute it here where no attempt ran.
        Context &held = contexts_[currentThread_];
        BlockReason why = BlockReason::NoWork;
        if (ensureWindow(held, now, why) &&
            dispatch_.planAny(held, now, why)) {
            why = BlockReason::None;
        }
        scanWhy_[currentThread_] = why;
    }
    std::vector<BlockedContext> blocked;
    blocked.reserve(contexts_.size());
    for (int c = 0; c < params_.contexts; ++c) {
        const Context &ctx = contexts_[c];
        BlockedContext b;
        b.context = c;
        b.program = ctx.stats.program;
        b.reason = scanWhy_[c];
        b.windowDepth = ctx.window.size();
        if (!ctx.window.empty())
            b.windowHead = ctx.window.front().disasm();
        blocked.push_back(std::move(b));
    }
    throw SimError(now, now - lastDispatchCycle_, std::move(blocked));
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
VectorSim::primeFetch(uint64_t t)
{
    for (auto &ctx : contexts_) {
        BlockReason why;
        ensureWindow(ctx, t, why);
    }
}

bool
VectorSim::ensureWindow(Context &ctx, uint64_t now, BlockReason &why)
{
    const size_t depth = windowDepth();
    bool fetchStalled = false;

    while (!ctx.finished && ctx.source && ctx.window.size() < depth) {
        if (ctx.fetchReadyAt > now) {
            fetchStalled = true;
            break;
        }
        // Never fetch past an unresolved branch.
        if (!ctx.window.empty() &&
            ctx.window.back().op == Opcode::SBranch) {
            break;
        }
        // Truncated reference runs: stop fetching at the budget.
        if (maxInstructions_ &&
            ctx.stats.instructions + ctx.window.size() >=
                maxInstructions_) {
            if (ctx.window.empty()) {
                ctx.finished = true;
                ctx.stats.runsCompleted = 0;
            }
            break;
        }

        Instruction inst;
        if (ctx.source->next(inst)) {
            checkOperands(inst);
            ctx.window.push_back(inst);
            continue;
        }

        // End of the current run: drain the window before restarting
        // or taking the next job, so runs never interleave.
        if (!ctx.window.empty())
            break;

        if (mode_ == RunMode::JobQueue) {
            if (ctx.jobIndex >= 0) {
                jobRecords_[ctx.jobIndex].endCycle =
                    ctx.stats.lastCompletion;
                ctx.jobIndex = -1;
            }
            ++ctx.stats.runsCompleted;
            if (nextJob_ < jobs_.size()) {
                ctx.source = jobs_[nextJob_++];
                ctx.source->reset();
                ctx.stats.instructionsThisRun = 0;
                ctx.jobIndex = static_cast<int>(jobRecords_.size());
                jobRecords_.push_back(
                    {ctx.source->name(),
                     static_cast<int>(&ctx - contexts_.data()), now, 0});
                continue;
            }
            ctx.finished = true;
            break;
        }

        if (ctx.restartable) {
            ++ctx.stats.runsCompleted;
            ctx.stats.instructionsThisRun = 0;
            ctx.source->reset();
            continue;
        }

        // Context 0 of an UntilThreadZero run: one run and done.
        ctx.finished = true;
        ctx.stats.runsCompleted = 1;
        break;
    }

    if (!ctx.window.empty())
        return true;
    why = fetchStalled ? BlockReason::FetchStall : BlockReason::NoWork;
    return false;
}

// ---------------------------------------------------------------------
// Stats assembly
// ---------------------------------------------------------------------

SimStats
VectorSim::takeStats(uint64_t cycles)
{
    SimStats stats;
    stats.cycles = cycles;
    for (const auto &port : mem_.ports()) {
        stats.memRequests += port.bus.requests();
        stats.ldBusyCycles += port.pipe.busyCycles();
    }
    stats.memPorts = static_cast<int>(mem_.ports().size());
    stats.vecOpsFu1 = dispatch_.vecOpsFu1();
    stats.vecOpsFu2 = dispatch_.vecOpsFu2();
    stats.dispatches = dispatch_.dispatches();
    stats.decodeIdle = decodeIdle_;
    stats.decoupledSlips = dispatch_.decoupledSlips();
    stats.fu1BusyCycles = pipes_.fu1().busyCycles();
    stats.fu2BusyCycles = pipes_.fu2().busyCycles();
    stats.stateHist = stateHist_;
    for (const auto &ctx : contexts_)
        stats.threads.push_back(ctx.stats);
    stats.jobs = jobRecords_;
    return stats;
}

} // namespace mtv
