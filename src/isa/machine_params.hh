/**
 * @file
 * All architectural parameters of the simulated machines, i.e. the
 * paper's Table 1 plus the knobs the evaluation sweeps (memory latency,
 * context count, crossbar latency, scheduling policy).
 *
 * The scanned Table 1 is partially illegible; DESIGN.md documents the
 * reconstruction used here. Every bench reads the values from this
 * struct, so adjusting a latency re-parameterizes the whole study.
 */

#ifndef MTV_ISA_MACHINE_PARAMS_HH
#define MTV_ISA_MACHINE_PARAMS_HH

#include <cstdint>
#include <string>

#include "src/isa/opcodes.hh"

namespace mtv
{
class Config;
}

namespace mtv
{

/** Thread selection policy of the multithreaded decode unit. */
enum class SchedPolicy : uint8_t
{
    /**
     * The paper's baseline: run a thread until it blocks, then switch
     * to the lowest-numbered non-blocked thread. Unfair by design so
     * that thread 0 sees minimal slowdown, and run-until-block so that
     * back-to-back dependent vector instructions still chain.
     */
    UnfairLowest,
    /** Switch threads every cycle regardless of blocking (ablation). */
    RoundRobin,
    /** Run until block, then pick the least-recently-run ready thread. */
    FairLru
};

/** Name for reports. */
std::string schedPolicyName(SchedPolicy policy);

/** Scalar-or-vector pair of latencies for one operation class. */
struct LatPair
{
    int scalar = 1;
    int vector = 1;
};

/**
 * Machine description shared by the reference and multithreaded
 * simulators. The reference machine is simply `contexts == 1`.
 */
struct MachineParams
{
    // ----- Multithreading -----
    int contexts = 1;              ///< hardware contexts (1..4)
    SchedPolicy sched = SchedPolicy::UnfairLowest;
    /**
     * Decode slots per cycle. 1 models the paper's machine (a single
     * time-multiplexed decoder). >1 is the "simultaneous issue from
     * several threads" future-work extension (bench_abl_decode_width).
     */
    int decodeWidth = 1;
    /**
     * Fujitsu VP2000 "Dual Scalar Processing" mode (paper section 9):
     * one dedicated fetch/decode/scalar unit per context (so up to
     * `contexts` dispatches per cycle) sharing one vector facility.
     */
    bool dualScalar = false;

    // ----- Vector register file -----
    int readXbar = 2;              ///< read crossbar traversal, cycles
    int writeXbar = 2;             ///< write crossbar traversal, cycles
    int vectorStartup = 1;         ///< fixed dispatch-to-first-read cost
    bool modelBankPorts = true;    ///< enforce 2R/1W ports per bank

    // ----- Memory system -----
    int memLatency = 50;           ///< main-memory latency, cycles
    /**
     * Memory ports. The paper's Convex-style machine has a single
     * unified port (1 load port that also serves stores). Its
     * section 10 sketches the extension to Cray-like machines with
     * 3 ports (2 load + 1 store), each with its own address path —
     * modelled here: loads use load ports; stores use store ports
     * when any exist, otherwise they share the load ports.
     */
    int loadPorts = 1;
    int storePorts = 0;
    /**
     * Optional banked-memory extension (off by default; the paper
     * models a fixed-latency pipelined memory). When enabled, strided
     * streams that hit few distinct banks deliver data slower than
     * one element per cycle (see mtv::MainMemory).
     */
    bool bankedMemory = false;
    int memBanks = 64;             ///< interleaved banks
    int bankBusyCycles = 8;        ///< bank cycle (busy) time
    /**
     * The paper's machine does not chain memory loads into functional
     * units (neither did the Cray-2/3); consumers wait for the full
     * load. Setting this true is the bench_abl_load_chaining ablation.
     */
    bool loadChaining = false;

    // ----- Section 10 future-work extensions -----
    /**
     * Vector register renaming: write-after-write and write-after-
     * read hazards no longer block dispatch (a fresh physical
     * register is assumed; the physical file is taken as large
     * enough). Chaining and true dependences are unaffected.
     */
    bool renaming = false;
    /**
     * Bounded vector register renaming: 0 = off, >0 = renaming with a
     * pool of this many spare physical registers per context. A write
     * whose destination is busy (the WAW/WAR case unbounded renaming
     * hides for free) must instead claim a free pool slot; the slot is
     * held until the displaced physical register's last read and write
     * complete. Mutually exclusive with `renaming` (which models an
     * infinite pool). This is the RunSpec `renameDepth` sweep axis.
     */
    int renameDepth = 0;
    /**
     * Decoupled-vector slip window (0 = off), modelling the paper's
     * HPCA-2'96 predecessor: up to this many instructions ahead of a
     * blocked head may be inspected, and a *vector memory*
     * instruction with no conflicts against the skipped instructions
     * may dispatch early (memory ops stay ordered among themselves;
     * nothing passes a branch).
     */
    int decoupleDepth = 0;

    /** Renaming on in any form (infinite pool or bounded)? */
    bool renamingEnabled() const { return renaming || renameDepth > 0; }

    /** Renaming on with a finite slot pool (the bounded model)? */
    bool renameBounded() const { return renameDepth > 0; }

    // ----- Functional unit latencies (Table 1 reconstruction) -----
    LatPair latIntAdd{1, 4};
    LatPair latFpAdd{2, 4};
    LatPair latLogic{1, 4};
    LatPair latIntMul{5, 7};
    LatPair latFpMul{2, 7};
    LatPair latIntDiv{34, 20};
    LatPair latFpDiv{9, 20};
    LatPair latSqrt{34, 20};
    LatPair latMove{1, 1};
    LatPair latControl{1, 1};
    /** Cycles a taken/resolved branch stalls further fetch. */
    int branchStall = 2;

    /** Latency of @p cls in scalar (`vector=false`) or vector mode. */
    int latency(LatClass cls, bool vector) const;

    /** Execution latency of @p op (excludes memory latency for loads). */
    int opLatency(Opcode op) const;

    /** Validate parameter sanity; fatal() on user error. */
    void validate() const;

    /** The paper's reference (baseline) Convex C3400 model. */
    static MachineParams reference();

    /** The paper's multithreaded machine with @p contexts contexts. */
    static MachineParams multithreaded(int contexts);

    /** Section 9's Fujitsu-style dual-scalar machine (2 contexts). */
    static MachineParams fujitsuDualScalar();

    /**
     * Section 10's Cray-like machine: 2 load ports + 1 store port.
     * The paper predicts such machines need simultaneous issue from
     * several threads to saturate their ports; pair this with
     * decodeWidth > 1 to test that prediction.
     */
    static MachineParams crayStyle(int contexts);

    /**
     * The decoupled vector architecture of the authors' HPCA-2'96
     * paper (single context, slip window of @p depth).
     */
    static MachineParams decoupledVector(int depth = 4);

    /**
     * Build from a key=value Config. Recognized keys (all optional,
     * defaults = the reference machine): contexts, sched
     * (unfair-lowest|round-robin|fair-lru), decode_width, dual_scalar,
     * read_xbar, write_xbar, vector_startup, bank_ports, mem_latency,
     * banked_memory, mem_banks, bank_busy, load_chaining, load_ports,
     * store_ports, renaming, rename_depth, decouple_depth,
     * branch_stall, and the
     * Table 1 latency pairs as lat_<class>_s / lat_<class>_v
     * (int_add, fp_add, logic, int_mul, fp_mul, int_div, fp_div,
     * sqrt, move, control). fatal()s on invalid values (validate()
     * is applied).
     */
    static MachineParams fromConfig(const Config &config);

    /**
     * Canonical, lossless serialization of every public parameter —
     * the fromConfig() key set, latency table included — in a fixed
     * order, as `key=value` pairs joined by spaces. Two
     * MachineParams with the same canonical form describe the same
     * machine; RunSpec cache keys are built from it, so no two
     * differing machines may alias.
     */
    std::string canonical() const;

    /** canonical(), appended to @p out (no string of its own). */
    void appendCanonical(std::string *out) const;

    /** Inverse of canonical(); fatal()s on malformed input. */
    static MachineParams fromCanonical(const std::string &text);

    /** One-line description for reports. */
    std::string describe() const;
};

} // namespace mtv

#endif // MTV_ISA_MACHINE_PARAMS_HH
