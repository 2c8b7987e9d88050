#include "src/api/sweep.hh"

#include <algorithm>
#include <iterator>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/workload/suite.hh"

namespace mtv
{

std::vector<std::vector<std::string>>
groupingsFor(const std::string &x, int contexts)
{
    const std::string name = findProgram(x).name;  // canonicalize
    std::vector<std::vector<std::string>> groups;
    switch (contexts) {
      case 2:
        for (const auto &c2 : groupingColumn2())
            groups.push_back({name, c2});
        break;
      case 3:
        for (const auto &c2 : groupingColumn2())
            for (const auto &c3 : groupingColumn3())
                groups.push_back({name, c2, c3});
        break;
      case 4:
        for (const auto &c2 : groupingColumn2())
            for (const auto &c3 : groupingColumn3())
                for (const auto &c4 : groupingColumn4())
                    groups.push_back({name, c2, c3, c4});
        break;
      default:
        fatal("groupings are defined for 2..4 contexts, got %d",
              contexts);
    }
    return groups;
}

GroupAverages
averageOf(const SweepSlice &slice, const std::vector<RunResult> &results)
{
    MTV_ASSERT(slice.count > 0);
    MTV_ASSERT(slice.first + slice.count <= results.size());
    GroupAverages avg;
    avg.program = slice.label;
    avg.contexts = slice.contexts;
    for (size_t i = slice.first; i < slice.first + slice.count; ++i) {
        const RunResult &r = results[i];
        MTV_ASSERT(r.spec.mode == SpecMode::Group);
        avg.speedup += r.speedup;
        avg.mthOccupation += r.mthOccupation;
        avg.refOccupation += r.refOccupation;
        avg.mthVopc += r.mthVopc;
        avg.refVopc += r.refVopc;
        ++avg.runs;
    }
    const double n = avg.runs;
    avg.speedup /= n;
    avg.mthOccupation /= n;
    avg.refOccupation /= n;
    avg.mthVopc /= n;
    avg.refVopc /= n;
    return avg;
}

SweepBuilder::SweepBuilder(double scale)
    : scale_(scale)
{
    if (scale <= 0)
        fatal("sweep scale must be positive, got %g", scale);
}

void
SweepBuilder::append(RunSpec spec)
{
    runs_.push_back(Run{size_, std::move(spec), {}});
    ++size_;
}

SweepBuilder &
SweepBuilder::addSingle(const std::string &program,
                        const MachineParams &params,
                        uint64_t maxInstructions)
{
    append(RunSpec::single(program, params, scale_, maxInstructions));
    return *this;
}

SweepBuilder &
SweepBuilder::addReference(const std::string &program,
                           const MachineParams &params)
{
    append(RunSpec::reference(program, params, scale_));
    return *this;
}

SweepBuilder &
SweepBuilder::addGroup(const std::vector<std::string> &programs,
                       const MachineParams &params)
{
    append(RunSpec::group(programs, params, scale_));
    return *this;
}

SweepBuilder &
SweepBuilder::addJobQueue(const std::vector<std::string> &jobs,
                          const MachineParams &params)
{
    append(RunSpec::jobQueue(jobs, params, scale_));
    return *this;
}

SweepBuilder &
SweepBuilder::add(RunSpec spec)
{
    spec.validate();
    append(std::move(spec));
    return *this;
}

SweepBuilder &
SweepBuilder::addLatencyAxis(RunSpec base,
                             const std::vector<int> &latencies)
{
    if (latencies.empty())
        return *this;
    // Only memLatency varies along the axis, so the base at the first
    // latency plus each latency's own check validates every point.
    base.params.memLatency = latencies.front();
    base.validate();
    MachineParams p = base.params;
    for (const int lat : latencies) {
        p.memLatency = lat;
        p.validate();
    }
    runs_.push_back(Run{size_, std::move(base), latencies});
    size_ += latencies.size();
    return *this;
}

RunSpec
SweepBuilder::spec(size_t i) const
{
    MTV_ASSERT(i < size_);
    // The run holding i: the last one that starts at or before it.
    const auto run = std::prev(std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](size_t index, const Run &r) { return index < r.first; }));
    RunSpec spec = run->base;
    if (!run->latencies.empty())
        spec.params.memLatency = run->latencies[i - run->first];
    return spec;
}

const std::vector<RunSpec> &
SweepBuilder::specs() const
{
    specs_.reserve(size_);
    for (size_t i = specs_.size(); i < size_; ++i)
        specs_.push_back(spec(i));
    return specs_;
}

std::vector<RunSpec>
SweepBuilder::take()
{
    specs();
    std::vector<RunSpec> out = std::move(specs_);
    specs_.clear();
    return out;
}

SweepBuilder &
SweepBuilder::beginSlice(const std::string &label, int contexts)
{
    if (sliceOpen_)
        fatal("beginSlice('%s') while slice '%s' is still open",
              label.c_str(), pending_.label.c_str());
    sliceOpen_ = true;
    pending_ = SweepSlice{};
    pending_.label = label;
    pending_.contexts = contexts;
    pending_.first = size_;
    return *this;
}

SweepBuilder &
SweepBuilder::endSlice()
{
    if (!sliceOpen_)
        fatal("endSlice() without a matching beginSlice()");
    pending_.count = size_ - pending_.first;
    if (pending_.count == 0)
        fatal("slice '%s' closed empty", pending_.label.c_str());
    slices_.push_back(pending_);
    sliceOpen_ = false;
    return *this;
}

SweepBuilder &
SweepBuilder::addGroupings(const std::string &program, int contexts,
                           const MachineParams &params)
{
    SweepSlice slice;
    slice.label = findProgram(program).name;
    slice.contexts = contexts;
    slice.first = size_;
    for (const auto &group : groupingsFor(program, contexts))
        append(RunSpec::group(group, params, scale_));
    slice.count = size_ - slice.first;
    slices_.push_back(std::move(slice));
    return *this;
}

SweepBuilder
suiteGroupingSweep(double scale)
{
    SweepBuilder sweep(scale);
    for (const auto &spec : benchmarkSuite())
        for (const int contexts : {2, 3, 4})
            sweep.addGroupings(spec.name, contexts,
                               MachineParams::multithreaded(contexts));
    return sweep;
}

const std::vector<int> &
sweepLatencies()
{
    static const std::vector<int> lats = {1, 20, 40, 50, 60, 80, 100};
    return lats;
}

const std::vector<int> &
extDecoupledLatencies()
{
    static const std::vector<int> lats = {1, 20, 50, 100};
    return lats;
}

const std::vector<SweepFamilyInfo> &
sweepFamilies()
{
    static const std::vector<SweepFamilyInfo> families = {
        {"suite-grouping",
         "every Table 2 grouping of every suite program at 2/3/4 "
         "contexts (Figures 6-8; 250 group runs)"},
        {"groupings",
         "every Table 2 grouping of one program at a given context "
         "count (one figure bar)"},
        {"latency",
         "a job-queue run per memory latency (Figure 10)"},
        {"ext-multiport",
         "Convex 1-port vs Cray 3-port machines crossed with context "
         "count and decode width (section 10)"},
        {"ext-renaming",
         "baseline vs infinite-pool vs bounded-pool vector register "
         "renaming across six machines (section 10)"},
        {"ext-decoupled",
         "baseline vs decoupled vs multithreaded vs both, per memory "
         "latency (the HPCA-2'96 comparison)"},
        {"ext-compare",
         "one job-queue run per extension design at a common context "
         "count (cross-design speedup table)"},
    };
    return families;
}

uint64_t
sweepRegistryHash()
{
    static const uint64_t hash = [] {
        uint64_t h = 0xcbf29ce484222325ull;
        const auto fold = [&h](const void *data, size_t size) {
            const auto *bytes = static_cast<const unsigned char *>(data);
            for (size_t i = 0; i < size; ++i) {
                h ^= bytes[i];
                h *= 0x100000001b3ull;
            }
        };
        for (const SweepFamilyInfo &family : sweepFamilies()) {
            SweepRequest request;
            request.family = family.name;
            if (family.name == "groupings") {
                // The one family with required parameters.
                request.program = "trfd";
                request.contexts = 2;
            }
            const SweepBuilder sweep = expandSweep(request);
            fold(family.name.data(), family.name.size() + 1);
            for (const SweepSlice &slice : sweep.slices()) {
                fold(slice.label.data(), slice.label.size() + 1);
                const uint64_t shape[] = {
                    static_cast<uint64_t>(slice.contexts), slice.first,
                    slice.count};
                fold(shape, sizeof(shape));
            }
            for (size_t i = 0; i < sweep.size(); ++i) {
                const uint64_t key = sweep.spec(i).key();
                fold(&key, sizeof(key));
            }
        }
        return h;
    }();
    return hash;
}

namespace
{

/** Shared job list of the ext-* families (the paper's queue order). */
const std::vector<std::string> &
extJobs(const SweepRequest &request)
{
    return request.jobs.empty() ? jobQueueOrder() : request.jobs;
}

/**
 * The section 10 multi-port study: the bench_ext_multiport grid —
 * Convex-style single unified port vs Cray-style 2ld/1st split,
 * crossed with context count and decode width (width <= contexts).
 * Every machine is its own single-spec slice, so the family is both
 * renderable row-by-row and design-comparable against slice 0
 * (convex-1ctx-w1).
 */
SweepBuilder
expandExtMultiport(const SweepRequest &request)
{
    const std::vector<std::string> &jobs = extJobs(request);
    SweepBuilder sweep(request.scale);
    for (const bool cray : {false, true}) {
        for (const int c : {1, 2, 3, 4}) {
            for (const int width : {1, 2}) {
                if (width > c)
                    continue;
                MachineParams p = MachineParams::multithreaded(c);
                p.decodeWidth = width;
                sweep.beginSlice(format("%s-%dctx-w%d",
                                        cray ? "cray" : "convex", c,
                                        width),
                                 c);
                sweep.add(
                    RunSpec::jobQueue(jobs, p, request.scale)
                        .withExtensions(cray ? 3 : 1, 0, 0));
                sweep.endSlice();
            }
        }
    }
    return sweep;
}

/**
 * The section 10 renaming study: the six bench_ext_renaming machines
 * (Convex/Cray x 1/2/4 contexts, Cray decoding min(2, contexts)
 * wide), as three design-parallel slices — no renaming, the infinite
 * physical pool (MachineParams::renaming) and the bounded 4-register
 * pool (the RunSpec renameDepth axis). Row i of every slice is the
 * same machine, so compareDesigns() yields the bench's speedup
 * column.
 */
SweepBuilder
expandExtRenaming(const SweepRequest &request)
{
    const std::vector<std::string> &jobs = extJobs(request);
    std::vector<std::pair<MachineParams, int>> machines;  // params, ports
    for (const bool cray : {false, true}) {
        for (const int c : {1, 2, 4}) {
            MachineParams p = MachineParams::multithreaded(c);
            if (cray)
                p.decodeWidth = std::min(2, c);
            machines.emplace_back(p, cray ? 3 : 1);
        }
    }
    SweepBuilder sweep(request.scale);
    sweep.beginSlice("baseline");
    for (const auto &[p, ports] : machines)
        sweep.add(RunSpec::jobQueue(jobs, p, request.scale)
                      .withExtensions(ports, 0, 0));
    sweep.endSlice();
    sweep.beginSlice("renaming");
    for (const auto &[p, ports] : machines) {
        MachineParams r = p;
        r.renaming = true;
        sweep.add(RunSpec::jobQueue(jobs, r, request.scale)
                      .withExtensions(ports, 0, 0));
    }
    sweep.endSlice();
    sweep.beginSlice("rename4");
    for (const auto &[p, ports] : machines)
        sweep.add(RunSpec::jobQueue(jobs, p, request.scale)
                      .withExtensions(ports, 4, 0));
    sweep.endSlice();
    return sweep;
}

/**
 * The HPCA-2'96 comparison of bench_ext_decoupled: baseline vs
 * decoupled vs multithreaded vs both, each design one slice swept
 * over the memory latencies (default extDecoupledLatencies()). Row i
 * of every slice is the same latency, so compareDesigns() gives the
 * per-latency speedup curves.
 */
SweepBuilder
expandExtDecoupled(const SweepRequest &request)
{
    const std::vector<std::string> &jobs = extJobs(request);
    const std::vector<int> &latencies = request.latencies.empty()
                                            ? extDecoupledLatencies()
                                            : request.latencies;
    for (const int lat : latencies) {
        if (lat <= 0)
            fatal("sweep latency must be positive, got %d", lat);
    }
    const int contexts = request.contexts == 0 ? 2 : request.contexts;
    struct Design
    {
        const char *label;
        MachineParams params;
        int decouple;
    };
    const std::vector<Design> designs = {
        {"baseline", MachineParams::reference(), 0},
        {"decoupled", MachineParams::reference(), 4},
        {"mth", MachineParams::multithreaded(contexts), 0},
        {"decoupled+mth", MachineParams::multithreaded(contexts), 4},
    };
    SweepBuilder sweep(request.scale);
    for (const Design &d : designs) {
        sweep.beginSlice(d.label, d.params.contexts);
        sweep.addLatencyAxis(RunSpec::jobQueue(jobs, d.params,
                                               request.scale)
                                 .withExtensions(0, 0, d.decouple),
                             latencies);
        sweep.endSlice();
    }
    return sweep;
}

/**
 * The cross-design summary: one job-queue spec per extension design
 * at a common context count (default 4), every design its own
 * single-spec slice with the single-context reference machine as
 * slice 0 — compareDesigns() renders the paper-style speedup table.
 */
SweepBuilder
expandExtCompare(const SweepRequest &request)
{
    const std::vector<std::string> &jobs = extJobs(request);
    const int contexts = request.contexts == 0 ? 4 : request.contexts;
    const MachineParams mth = MachineParams::multithreaded(contexts);
    struct Design
    {
        std::string label;
        RunSpec spec;
    };
    const RunSpec mthSpec =
        RunSpec::jobQueue(jobs, mth, request.scale);
    const std::vector<Design> designs = {
        {"baseline", RunSpec::jobQueue(jobs, MachineParams::reference(),
                                       request.scale)},
        {format("mth%d", contexts), mthSpec},
        {format("mth%d+3port", contexts),
         mthSpec.withExtensions(3, 0, 0)},
        {format("mth%d+rename4", contexts),
         mthSpec.withExtensions(0, 4, 0)},
        {format("mth%d+decouple4", contexts),
         mthSpec.withExtensions(0, 0, 4)},
        {format("mth%d+all", contexts),
         mthSpec.withExtensions(3, 4, 4)},
    };
    SweepBuilder sweep(request.scale);
    for (const Design &d : designs) {
        sweep.beginSlice(d.label,
                         d.spec.effectiveParams().contexts);
        sweep.add(d.spec);
        sweep.endSlice();
    }
    return sweep;
}

} // namespace

std::vector<CompareRow>
compareDesigns(const std::vector<SweepSlice> &slices,
               const std::vector<RunResult> &results)
{
    if (slices.size() < 2)
        fatal("cross-design comparison needs at least two slices, "
              "got %zu",
              slices.size());
    const SweepSlice &base = slices[0];
    for (const SweepSlice &s : slices) {
        if (s.count != base.count) {
            fatal("slices are not design-parallel: '%s' has %zu rows "
                  "but baseline '%s' has %zu — this sweep is not "
                  "comparable",
                  s.label.c_str(), s.count, base.label.c_str(),
                  base.count);
        }
        if (s.first + s.count > results.size())
            fatal("slice '%s' runs past the result batch",
                  s.label.c_str());
    }
    std::vector<CompareRow> rows;
    rows.reserve(slices.size() * base.count);
    for (const SweepSlice &s : slices) {
        for (size_t i = 0; i < s.count; ++i) {
            const RunResult &r = results[s.first + i];
            const RunResult &b = results[base.first + i];
            const MachineParams p = r.spec.effectiveParams();
            CompareRow row;
            row.design = s.label;
            row.contexts = p.contexts;
            row.ports = p.loadPorts + p.storePorts;
            row.memLatency = p.memLatency;
            row.cycles = r.stats.cycles;
            row.speedup =
                r.stats.cycles == 0
                    ? 0
                    : static_cast<double>(b.stats.cycles) /
                          static_cast<double>(r.stats.cycles);
            row.occupation = r.stats.memPortOccupation();
            row.vopc = r.stats.vopc();
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

SweepBuilder
expandSweep(const SweepRequest &request)
{
    if (request.scale <= 0)
        fatal("sweep scale must be positive, got %g", request.scale);

    if (request.family == "suite-grouping")
        return suiteGroupingSweep(request.scale);

    if (request.family == "groupings") {
        if (request.program.empty())
            fatal("sweep family 'groupings' needs a program");
        if (request.contexts == 0)
            fatal("sweep family 'groupings' needs contexts (2..4)");
        SweepBuilder sweep(request.scale);
        sweep.addGroupings(
            request.program, request.contexts,
            MachineParams::multithreaded(request.contexts));
        return sweep;
    }

    if (request.family == "latency") {
        const std::vector<std::string> &jobs =
            request.jobs.empty() ? jobQueueOrder() : request.jobs;
        const std::vector<int> &latencies =
            request.latencies.empty() ? sweepLatencies()
                                      : request.latencies;
        const int contexts =
            request.contexts == 0 ? 4 : request.contexts;
        for (const int lat : latencies) {
            if (lat <= 0)
                fatal("sweep latency must be positive, got %d", lat);
        }
        SweepBuilder sweep(request.scale);
        sweep.addLatencySweep(jobs,
                              MachineParams::multithreaded(contexts),
                              latencies, "latency");
        return sweep;
    }

    if (request.family == "ext-multiport")
        return expandExtMultiport(request);
    if (request.family == "ext-renaming")
        return expandExtRenaming(request);
    if (request.family == "ext-decoupled")
        return expandExtDecoupled(request);
    if (request.family == "ext-compare")
        return expandExtCompare(request);

    fatal("unknown sweep family '%s'", request.family.c_str());
}

SweepBuilder &
SweepBuilder::addLatencySweep(const std::vector<std::string> &jobs,
                              const MachineParams &params,
                              const std::vector<int> &latencies,
                              const std::string &label)
{
    SweepSlice slice;
    slice.label = label;
    slice.contexts = params.contexts;
    slice.first = size_;
    if (!latencies.empty()) {
        MachineParams p = params;
        p.memLatency = latencies.front();
        addLatencyAxis(RunSpec::jobQueue(jobs, p, scale_), latencies);
    }
    slice.count = size_ - slice.first;
    slices_.push_back(std::move(slice));
    return *this;
}

} // namespace mtv
