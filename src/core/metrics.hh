/**
 * @file
 * Simulation statistics: everything the paper's figures consume.
 */

#ifndef MTV_CORE_METRICS_HH
#define MTV_CORE_METRICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mtv
{

/** Why a decode attempt failed (for utilization analysis). */
enum class BlockReason : uint8_t
{
    None,          ///< dispatched
    NoWork,        ///< program finished / nothing fetched
    FetchStall,    ///< branch shadow, instruction not fetched yet
    ScalarDep,     ///< scalar scoreboard hazard
    SourceNotReady,///< vector RAW that cannot chain (e.g. from a load)
    DestBusy,      ///< vector WAW/WAR hazard
    FuBusy,        ///< required arithmetic pipe occupied
    MemPipeBusy,   ///< LD pipe occupied
    MemPortBusy,   ///< address bus occupied
    BankPortBusy,  ///< register-bank port conflict
    NumReasons
};

/** Short name for reports. */
const char *blockReasonName(BlockReason reason);

/**
 * Joint busy-state of the three vector units, encoded as the paper's
 * 3-tuple (FU2, FU1, LD): bit 2 = FU2 busy, bit 1 = FU1, bit 0 = LD.
 */
constexpr int numFuStates = 8;

/** Render state @p index as the paper's tuple, e.g. "<FU2, , LD>". */
std::string fuStateName(int index);

/** Per-context accounting. */
struct ThreadStats
{
    std::string program;            ///< program running on this context
    uint64_t instructions = 0;      ///< total dispatched
    uint64_t scalarInstructions = 0;
    uint64_t vectorInstructions = 0;
    uint64_t runsCompleted = 0;     ///< full restarts finished
    uint64_t instructionsThisRun = 0;  ///< progress into current run
    uint64_t lastCompletion = 0;    ///< completion cycle of last instr
    std::array<uint64_t, static_cast<size_t>(BlockReason::NumReasons)>
        blocked{};                  ///< lost decode cycles by reason
};

/** One job-queue assignment (Figure 9's execution profile). */
struct JobRecord
{
    std::string program;
    int context = 0;
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;
};

/** Results of one simulation. */
struct SimStats
{
    uint64_t cycles = 0;            ///< total execution time
    uint64_t memRequests = 0;       ///< address-bus transfers
    uint64_t vecOpsFu1 = 0;         ///< element ops executed on FU1
    uint64_t vecOpsFu2 = 0;         ///< element ops executed on FU2
    uint64_t dispatches = 0;        ///< instructions dispatched
    uint64_t decodeIdle = 0;        ///< cycles with no dispatch
    uint64_t decoupledSlips = 0;    ///< memory ops that slipped ahead
    int memPorts = 1;               ///< address ports on this machine
    uint64_t fu1BusyCycles = 0;
    uint64_t fu2BusyCycles = 0;
    uint64_t ldBusyCycles = 0;
    /** Cycles spent in each (FU2, FU1, LD) joint state. */
    std::array<uint64_t, numFuStates> stateHist{};
    std::vector<ThreadStats> threads;
    std::vector<JobRecord> jobs;

    /**
     * Paper metric: memory-port occupation in [0, 1] (requests per
     * port-cycle; the paper's machine has one port, multi-port
     * machines normalize by their port count).
     */
    double
    memPortOccupation() const
    {
        return cycles ? static_cast<double>(memRequests) /
                            (static_cast<double>(cycles) * memPorts)
                      : 0.0;
    }

    /** Paper metric: vector (arithmetic) operations per cycle, [0,2]. */
    double
    vopc() const
    {
        return cycles ? static_cast<double>(vecOpsFu1 + vecOpsFu2) /
                            cycles
                      : 0.0;
    }

    /** Fraction of cycles the memory port (LD pipe) was idle. */
    double
    memPortIdleFraction() const
    {
        uint64_t idle = 0;
        for (int s = 0; s < numFuStates; ++s) {
            if (!(s & 1))  // LD bit clear
                idle += stateHist[s];
        }
        return cycles ? static_cast<double>(idle) / cycles : 0.0;
    }
};

} // namespace mtv

#endif // MTV_CORE_METRICS_HH
