/**
 * @file
 * SweepBuilder: expands the paper's parameter sweeps — latency lists,
 * context counts, the Table 2 grouping methodology — into RunSpec
 * batches, so a figure bench is "build sweep → engine.runAll →
 * render". The builder records where each logical slice (e.g. "all
 * groupings of tomcatv at 3 contexts") landed in the batch, so
 * results can be averaged back into figure data points.
 *
 * The batch is indexed: its size and slice map are known before any
 * point of a latency axis exists, and spec(i) builds point i on
 * demand, so a streaming consumer (the daemon's window, the fleet
 * router's publisher) builds only the points it is about to use.
 */

#ifndef MTV_API_SWEEP_HH
#define MTV_API_SWEEP_HH

#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/api/run_spec.hh"

namespace mtv
{

/**
 * All groupings for program @p x at @p contexts threads, following
 * the paper's methodology: 5 pairs (x + column-2 entries), 10 triples
 * (x + column-2 + column-3) or 10 quadruples (x + column-2 +
 * column-3 + column-4). Each grouping's first element is x
 * (= thread 0).
 */
std::vector<std::vector<std::string>>
groupingsFor(const std::string &x, int contexts);

/** A contiguous range of batch entries forming one figure point. */
struct SweepSlice
{
    std::string label;    ///< e.g. the measured program
    int contexts = 0;     ///< context count of this slice (0 = n/a)
    size_t first = 0;     ///< index of the slice's first spec
    size_t count = 0;     ///< number of specs in the slice
};

/** Per-program figure data point: the average over its groupings. */
struct GroupAverages
{
    std::string program;
    int contexts = 0;
    int runs = 0;
    double speedup = 0;
    double mthOccupation = 0;
    double refOccupation = 0;
    double mthVopc = 0;
    double refVopc = 0;
};

/**
 * Average the group-mode results of @p slice — one bar of Figures 6,
 * 7 or 8. All slice entries must be group-mode results.
 */
GroupAverages averageOf(const SweepSlice &slice,
                        const std::vector<RunResult> &results);

class SweepBuilder;

/**
 * The grouping sweep behind Figures 6, 7 and 8 (and the service
 * acceptance check): every Table 2 grouping of every suite program at
 * 2, 3 and 4 contexts — 250 group runs. Consume the results through
 * the builder's slices; each slice carries its program and context
 * count, so rendering never depends on batch position.
 */
SweepBuilder suiteGroupingSweep(double scale = workloadDefaultScale);

/** Memory latencies swept in Figures 10-12. */
const std::vector<int> &sweepLatencies();

/** Memory latencies of the decoupled-architecture comparison. */
const std::vector<int> &extDecoupledLatencies();

/**
 * One row of a cross-design comparison table (the speedup-vs-baseline
 * rendering of the paper's Figure 6/12 style): design = the slice
 * label, speedup = baseline cycles / this design's cycles on the
 * matching row of slice 0.
 */
struct CompareRow
{
    std::string design;    ///< slice label of this design
    int contexts = 0;      ///< effective context count
    int ports = 0;         ///< effective memory ports (load + store)
    int memLatency = 0;    ///< effective memory latency
    uint64_t cycles = 0;   ///< total simulated cycles
    double speedup = 0;    ///< slice-0 row's cycles / this cycles
    double occupation = 0; ///< memory port occupation
    double vopc = 0;       ///< vector operations per cycle
};

/**
 * Pair every slice of a sweep row-wise against slice 0 (the baseline
 * design) and compute speedups: row i of slice s compares against row
 * i of slice 0. Every slice must have the same count — families whose
 * slices are not design-parallel (e.g. suite-grouping) are not
 * comparable, and fatal() says so. Rows come out slice-major, the
 * baseline first (speedup 1.0).
 */
std::vector<CompareRow>
compareDesigns(const std::vector<SweepSlice> &slices,
               const std::vector<RunResult> &results);

// ---------------------------------------------------------------------
// Named sweep families — the server-side expansion registry.
// ---------------------------------------------------------------------

/**
 * Parameters of one named sweep: what a protocol client sends
 * (~100 bytes) instead of a fully expanded RunSpec batch. The daemon
 * expands it through expandSweep(); which fields matter depends on
 * the family (unused ones are ignored). Deliberately JSON-free so the
 * registry lives in the api layer, below the service.
 */
struct SweepRequest
{
    /** Registered family name (see sweepFamilies()). */
    std::string family;
    /** Workload scale of every expanded spec. */
    double scale = workloadDefaultScale;
    /** "groupings": the measured program (thread 0). */
    std::string program;
    /** "groupings": 2..4, required (every slice is one program at
     *  one context count); "latency": context count of the
     *  multithreaded machine (0 = 4, the paper's largest);
     *  "ext-decoupled": contexts of the multithreaded designs
     *  (0 = 2); "ext-compare": contexts of the extended designs
     *  (0 = 4). */
    int contexts = 0;
    /** "latency"/"ext-*": the job list (empty = the paper's
     *  ten-benchmark job-queue order). */
    std::vector<std::string> jobs;
    /** "latency": memory latencies (empty = sweepLatencies());
     *  "ext-decoupled": latencies per design (empty =
     *  extDecoupledLatencies()). */
    std::vector<int> latencies;
};

/** One registered family: its name and what it expands to. */
struct SweepFamilyInfo
{
    std::string name;
    std::string description;
};

/**
 * The registered families:
 *   suite-grouping  every Table 2 grouping of every suite program at
 *                   2/3/4 contexts (Figures 6-8; 250 group runs)
 *   groupings       every Table 2 grouping of one program at a given
 *                   context count (one figure bar)
 *   latency         a job-queue run per memory latency (Figure 10)
 *   ext-multiport   Convex 1-port vs Cray 3-port machines crossed
 *                   with context count and decode width (section 10;
 *                   one single-spec slice per machine)
 *   ext-renaming    baseline vs infinite-pool vs bounded-pool vector
 *                   register renaming across six machines (section
 *                   10; one design-parallel slice per variant)
 *   ext-decoupled   baseline vs decoupled vs multithreaded vs both,
 *                   per memory latency (the HPCA-2'96 comparison;
 *                   one latency-parallel slice per design)
 *   ext-compare     one job-queue spec per extension design at a
 *                   common context count — the compareDesigns()
 *                   cross-design speedup table
 */
const std::vector<SweepFamilyInfo> &sweepFamilies();

/**
 * Hash of the family registry: every family's name, slice map and
 * point keys at a representative request, computed once per process.
 * Fleet nodes report it in their hello answer; a router marks a node
 * whose hash differs from its own dead, since the two would expand
 * the same family into different points.
 */
uint64_t sweepRegistryHash();

/**
 * Expand @p request through its family into an indexed batch + slices
 * (see SweepBuilder). Every parameter, every latency included, is
 * validated here: fatal()s on an unknown family or missing/invalid
 * parameters — the daemon turns that into a protocol error for the
 * offending client before it acks.
 */
SweepBuilder expandSweep(const SweepRequest &request);

/**
 * Builds a RunSpec batch plus the slice map over it, in indexed form.
 * A latency axis (addLatencySweep(), addLatencyAxis()) is kept as one
 * validated base spec plus its latency list, every latency checked
 * when the axis is added, so an invalid sweep fails at expansion;
 * its point i is the base with memLatency set. Every other spec is
 * stored as appended. spec(i) builds any point by index; specs() and
 * take() materialize the whole batch for callers that consume
 * vectors.
 */
class SweepBuilder
{
  public:
    explicit SweepBuilder(double scale = workloadDefaultScale);

    /** Workload scale every appended spec uses. */
    double scale() const { return scale_; }

    // ----- single points -----

    SweepBuilder &addSingle(const std::string &program,
                            const MachineParams &params,
                            uint64_t maxInstructions = 0);

    /** Single run on the reference machine derived from @p params. */
    SweepBuilder &addReference(const std::string &program,
                               const MachineParams &params);

    SweepBuilder &addGroup(const std::vector<std::string> &programs,
                           const MachineParams &params);

    SweepBuilder &addJobQueue(const std::vector<std::string> &jobs,
                              const MachineParams &params);

    /** Append a spec verbatim (validated). */
    SweepBuilder &add(RunSpec spec);

    // ----- explicit slices -----

    /**
     * Open a labelled slice: every spec appended before the matching
     * endSlice() belongs to it. For expansions that the canned
     * helpers below don't cover (e.g. the ext-* design slices).
     * Slices cannot nest.
     */
    SweepBuilder &beginSlice(const std::string &label, int contexts = 0);

    /** Close the slice opened by beginSlice() (must be non-empty). */
    SweepBuilder &endSlice();

    // ----- methodology expansions -----

    /**
     * One slice per call: every Table 2 grouping of @p program at
     * @p contexts threads on @p params (contexts is forced per
     * grouping size). averageOf() the slice to get the figure bar.
     */
    SweepBuilder &addGroupings(const std::string &program, int contexts,
                               const MachineParams &params);

    /**
     * Cross @p latencies with a job-queue run of @p jobs: one spec
     * per latency, params otherwise unchanged. Records one slice
     * labelled @p label spanning the swept specs in latency order.
     */
    SweepBuilder &addLatencySweep(const std::vector<std::string> &jobs,
                                  const MachineParams &params,
                                  const std::vector<int> &latencies,
                                  const std::string &label = "");

    /**
     * Append one spec per latency: @p base with memLatency set, in
     * @p latencies order. The base and every latency are validated
     * here; the specs themselves are built by spec() on demand.
     */
    SweepBuilder &addLatencyAxis(RunSpec base,
                                 const std::vector<int> &latencies);

    // ----- results -----

    /** Number of specs appended so far (= index of the next spec). */
    size_t size() const { return size_; }

    /** Spec @p i of the batch (i < size()), built on demand. Safe
     *  to call from several threads at once. */
    RunSpec spec(size_t i) const;

    /** The batch, materialized on first use (builder keeps its slice
     *  map). Not safe to call concurrently on one builder. */
    const std::vector<RunSpec> &specs() const;

    /** Move the materialized batch out; the builder keeps its slice
     *  map and can still build any spec by index. */
    std::vector<RunSpec> take();

    /** Slices recorded by the expansion helpers, insertion order. */
    const std::vector<SweepSlice> &slices() const { return slices_; }

  private:
    /** A stretch of the batch starting at index @c first: one stored
     *  spec (no latencies), or one spec per latency built from
     *  @c base. */
    struct Run
    {
        size_t first = 0;
        RunSpec base;
        std::vector<int> latencies;
    };

    /** Append one already-validated spec. */
    void append(RunSpec spec);

    double scale_;
    std::vector<Run> runs_;
    size_t size_ = 0;
    /** What specs() has materialized so far: a prefix of the batch. */
    mutable std::vector<RunSpec> specs_;
    std::vector<SweepSlice> slices_;
    bool sliceOpen_ = false;
    SweepSlice pending_;
};

} // namespace mtv

#endif // MTV_API_SWEEP_HH
