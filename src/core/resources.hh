/**
 * @file
 * Small occupancy primitives shared by the simulator's pipelines.
 */

#ifndef MTV_CORE_RESOURCES_HH
#define MTV_CORE_RESOURCES_HH

#include <cstdint>

namespace mtv
{

/**
 * Running minimum of pending ready-times strictly after a reference
 * cycle — the accumulator the fast lane folds each blocked context's
 * unblock threshold into.
 */
struct EventMin
{
    explicit EventMin(uint64_t now) : now(now) {}

    /** Fold in @p t; times at or before `now` are not pending. */
    void
    consider(uint64_t t)
    {
        if (t > now && (next == 0 || t < next))
            next = t;
    }

    uint64_t now;
    uint64_t next = 0;  ///< earliest considered time > now; 0 = none
};

/**
 * Occupancy state of one fully-pipelined unit (FU1, FU2 or the LD
 * pipe). A unit accepts a new instruction only when the previous one
 * has completely finished occupying it, so a single [from, until)
 * interval describes its state at all times.
 */
class PipeUnit
{
  public:
    /** True when no occupation extends past @p cycle. */
    bool freeAt(uint64_t cycle) const { return until_ <= cycle; }

    /** True when the unit is processing an element at @p cycle. */
    bool
    busyAt(uint64_t cycle) const
    {
        return from_ <= cycle && cycle < until_;
    }

    /** Occupy [from, until). Caller must have checked freeAt(). */
    void
    occupy(uint64_t from, uint64_t until)
    {
        from_ = from;
        until_ = until;
        busyCycles_ += until - from;
    }

    /** Cycle at which the unit becomes free. */
    uint64_t freeCycle() const { return until_; }

    /** First cycle of the current/last occupation ([from, until)). */
    uint64_t busyFrom() const { return from_; }

    /** Total cycles this unit has been occupied. */
    uint64_t busyCycles() const { return busyCycles_; }

    /** Reset to pristine state. */
    void
    clear()
    {
        from_ = until_ = busyCycles_ = 0;
    }

  private:
    uint64_t from_ = 0;
    uint64_t until_ = 0;
    uint64_t busyCycles_ = 0;
};

/**
 * Architectural state of one vector register as the timing model sees
 * it: when its in-flight write completes, when its first element is
 * available for chaining, and until when in-flight readers occupy it.
 */
struct VRegTiming
{
    uint64_t writeDone = 0;   ///< cycle the last element is written
    uint64_t prodFirst = 0;   ///< cycle the first element is written
    bool chainable = false;   ///< producer allows chaining out of it
    uint64_t readBusy = 0;    ///< last cycle any active reader touches it

    /** Fully written at @p cycle? */
    bool completeAt(uint64_t cycle) const { return writeDone <= cycle; }

    /** Free of both writer and readers (WAW/WAR safe)? */
    bool
    idleAt(uint64_t cycle) const
    {
        return writeDone <= cycle && readBusy <= cycle;
    }

};

/**
 * Port state of one vector register bank (two registers sharing two
 * read ports and one write port, paper section 3). Port reservations
 * follow the same single-future-interval reasoning as PipeUnit, so
 * busy-until times suffice.
 */
struct BankPorts
{
    uint64_t readUntil[2] = {0, 0};
    uint64_t writeUntil = 0;

    /** Number of read ports free at @p cycle. */
    int
    freeReadPorts(uint64_t cycle) const
    {
        return (readUntil[0] <= cycle ? 1 : 0) +
               (readUntil[1] <= cycle ? 1 : 0);
    }

    /** Reserve one read port until @p until. */
    void
    takeReadPort(uint64_t cycle, uint64_t until)
    {
        if (readUntil[0] <= cycle)
            readUntil[0] = until;
        else
            readUntil[1] = until;
    }

    bool writeFreeAt(uint64_t cycle) const { return writeUntil <= cycle; }

};

/** Bank index of a vector register (registers are paired). */
constexpr int
vregBank(int vreg)
{
    return vreg / 2;
}

} // namespace mtv

#endif // MTV_CORE_RESOURCES_HH
