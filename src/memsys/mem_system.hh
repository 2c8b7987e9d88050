/**
 * @file
 * The memory subsystem of the modelled machine as one component: the
 * address/data ports (each a pipelined data path plus an address bus)
 * and the main-memory timing oracle behind them.
 *
 * Ports are *reporting* resources, not polled ones: besides the
 * point-in-time freeAt()/busyAt() queries the dispatch logic uses,
 * every port exposes the cycle at which it next changes state
 * (nextEventAfter), which is what lets the fast lane jump over idle
 * spans instead of re-asking "free yet?" every cycle.
 */

#ifndef MTV_MEMSYS_MEM_SYSTEM_HH
#define MTV_MEMSYS_MEM_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "src/core/resources.hh"
#include "src/isa/machine_params.hh"
#include "src/memsys/address_bus.hh"
#include "src/memsys/main_memory.hh"

namespace mtv
{

/** One memory port: an address path and its data pipe. */
struct MemPort
{
    PipeUnit pipe;
    AddressBus bus;

    /**
     * Earliest cycle strictly after @p now at which this port's
     * occupancy state changes (pipe or bus frees), or 0 when nothing
     * is pending past @p now.
     */
    uint64_t
    nextEventAfter(uint64_t now) const
    {
        EventMin em(now);
        em.consider(pipe.freeCycle());
        em.consider(bus.freeCycle());
        return em.next;
    }
};

/**
 * The machine's memory ports plus the main-memory timing model.
 * Load ports come first; stores use the store ports when any exist
 * and share the load ports otherwise (paper's single unified port
 * vs. the section 10 Cray-like split).
 */
class MemSystem
{
  public:
    explicit MemSystem(const MachineParams &params);

    /** Ports that serve @p op (loads vs stores vs scalar memory). */
    const std::vector<MemPort *> &portsFor(Opcode op) const;

    /** Any port's data pipe processing an element at @p now? */
    bool pipeBusyAt(uint64_t now) const;

    /** The main-memory timing oracle. */
    const MainMemory &memory() const { return memory_; }

    /** All ports, load ports first (for stats aggregation). */
    const std::vector<MemPort> &ports() const { return ports_; }

    /** Reset every port to pristine state. */
    void clear();

  private:
    MainMemory memory_;
    std::vector<MemPort> ports_;           ///< load ports then store
    std::vector<MemPort *> loadPortRefs_;  ///< views into ports_
    std::vector<MemPort *> storePortRefs_;
};

} // namespace mtv

#endif // MTV_MEMSYS_MEM_SYSTEM_HH
