#include "src/api/run_spec.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/workload/suite.hh"

namespace mtv
{

namespace
{

/** Canonical full names for a list of name-or-abbreviation lookups. */
std::vector<std::string>
canonicalNames(const std::vector<std::string> &programs)
{
    std::vector<std::string> names;
    names.reserve(programs.size());
    for (const auto &p : programs)
        names.push_back(findProgram(p).name);
    return names;
}

/** Value part of a `key=value` token; fatal()s when key mismatches. */
std::string
expectField(const std::string &token, const char *key)
{
    const size_t eq = token.find('=');
    if (eq == std::string::npos || token.substr(0, eq) != key)
        fatal("malformed RunSpec field '%s' (expected '%s=...')",
              token.c_str(), key);
    return token.substr(eq + 1);
}

/** Strict double parse; fatal()s on empty or trailing garbage. */
double
parseDouble(const std::string &text, const char *what)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("malformed RunSpec %s '%s' (not a number)", what,
              text.c_str());
    return value;
}

/** Strict unsigned parse; fatal()s on empty or trailing garbage. */
uint64_t
parseUnsigned(const std::string &text, const char *what)
{
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("malformed RunSpec %s '%s' (not an unsigned integer)",
              what, text.c_str());
    return value;
}

} // namespace

const char *
specModeName(SpecMode mode)
{
    switch (mode) {
      case SpecMode::Single:
        return "single";
      case SpecMode::Group:
        return "group";
      case SpecMode::JobQueue:
        return "queue";
    }
    return "unknown";
}

MachineParams
referenceMachineOf(MachineParams params)
{
    params.contexts = 1;
    params.decodeWidth = 1;
    params.dualScalar = false;
    params.sched = SchedPolicy::UnfairLowest;
    return params;
}

RunSpec
RunSpec::single(const std::string &program, const MachineParams &params,
                double scale, uint64_t maxInstructions)
{
    RunSpec spec;
    spec.mode = SpecMode::Single;
    spec.params = params;
    spec.programs = canonicalNames({program});
    spec.scale = scale;
    spec.maxInstructions = maxInstructions;
    spec.validate();
    return spec;
}

RunSpec
RunSpec::reference(const std::string &program,
                   const MachineParams &params, double scale,
                   uint64_t maxInstructions)
{
    return single(program, referenceMachineOf(params), scale,
                  maxInstructions);
}

RunSpec
RunSpec::group(const std::vector<std::string> &programs,
               MachineParams params, double scale)
{
    params.contexts = static_cast<int>(programs.size());
    RunSpec spec;
    spec.mode = SpecMode::Group;
    spec.params = params;
    spec.programs = canonicalNames(programs);
    spec.scale = scale;
    spec.validate();
    return spec;
}

RunSpec
RunSpec::jobQueue(const std::vector<std::string> &jobs,
                  const MachineParams &params, double scale)
{
    RunSpec spec;
    spec.mode = SpecMode::JobQueue;
    spec.params = params;
    spec.programs = canonicalNames(jobs);
    spec.scale = scale;
    spec.validate();
    return spec;
}

RunSpec
RunSpec::withExtensions(int memPorts, int renameDepth,
                        int decoupleDepth) const
{
    RunSpec spec = *this;
    spec.memPorts = memPorts;
    spec.renameDepth = renameDepth;
    spec.decoupleDepth = decoupleDepth;
    spec.validate();
    return spec;
}

MachineParams
RunSpec::effectiveParams() const
{
    MachineParams p = params;
    if (memPorts == 1) {
        // The Convex-style unified port: loads and stores share it.
        p.loadPorts = 1;
        p.storePorts = 0;
    } else if (memPorts >= 2) {
        // Cray-style split: dedicated store path, the rest load.
        p.loadPorts = memPorts - 1;
        p.storePorts = 1;
    }
    if (renameDepth > 0)
        p.renameDepth = renameDepth;
    if (decoupleDepth > 0)
        p.decoupleDepth = decoupleDepth;
    p.validate();
    return p;
}

void
RunSpec::validate() const
{
    params.validate();
    if (memPorts < 0 || memPorts > 5)
        fatal("RunSpec memPorts must be in [0,5], got %d", memPorts);
    if (renameDepth < 0 || renameDepth > 8) {
        fatal("RunSpec renameDepth must be in [0,8], got %d",
              renameDepth);
    }
    if (decoupleDepth < 0 || decoupleDepth > 16) {
        fatal("RunSpec decoupleDepth must be in [0,16], got %d",
              decoupleDepth);
    }
    effectiveParams();  // overrides must compose into a valid machine
    if (scale <= 0)
        fatal("RunSpec scale must be positive, got %g", scale);
    if (programs.empty())
        fatal("RunSpec needs at least one program");
    for (const auto &name : programs)
        findProgram(name);  // fatal()s on unknown
    if (mode == SpecMode::Single && programs.size() != 1)
        fatal("single-mode RunSpec takes exactly one program, got %zu",
              programs.size());
    if (mode == SpecMode::Group &&
        static_cast<int>(programs.size()) != params.contexts) {
        fatal("group-mode RunSpec needs contexts == programs (%d vs "
              "%zu)",
              params.contexts, programs.size());
    }
    if (mode != SpecMode::Single && maxInstructions != 0)
        fatal("maxInstructions is only meaningful for single mode");
}

std::string
RunSpec::canonical() const
{
    // Appended field by field rather than through format(): this
    // string is the cache key, the store key, and the wire spec, so
    // it is rebuilt for every sweep point — and vsnprintf's
    // measure-then-write double pass dominated the hot result path.
    // std::to_chars matches %d/%llu digit for digit, and with the
    // general format at precision 17 it is specified to print the
    // one float field exactly as %.17g does, so the bytes are
    // unchanged.
    char buf[40];
    std::string out;
    out.reserve(768);
    out += "mode=";
    out += specModeName(mode);
    out += ";scale=";
    {
        const auto r = std::to_chars(buf, buf + sizeof(buf), scale,
                                     std::chars_format::general, 17);
        out.append(buf, static_cast<size_t>(r.ptr - buf));
    }
    const auto appendNum = [&](const char *prefix, auto value) {
        out += prefix;
        const auto r = std::to_chars(buf, buf + sizeof(buf), value);
        out.append(buf, static_cast<size_t>(r.ptr - buf));
    };
    appendNum(";max=",
              static_cast<unsigned long long>(maxInstructions));
    appendNum(";ports=", memPorts);
    appendNum(";rename=", renameDepth);
    appendNum(";decouple=", decoupleDepth);
    out += ";programs=";
    bool first = true;
    for (const auto &name : programs) {
        if (!first)
            out += ',';
        first = false;
        out += name;
    }
    out += ";machine=";
    params.appendCanonical(&out);
    return out;
}

RunSpec
RunSpec::parse(const std::string &text)
{
    const std::vector<std::string> fields = split(text, ';');
    if (fields.size() != 8)
        fatal("malformed RunSpec '%s' (expected 8 ';'-separated "
              "fields, got %zu)",
              text.c_str(), fields.size());

    RunSpec spec;
    const std::string mode = expectField(fields[0], "mode");
    if (mode == "single")
        spec.mode = SpecMode::Single;
    else if (mode == "group")
        spec.mode = SpecMode::Group;
    else if (mode == "queue")
        spec.mode = SpecMode::JobQueue;
    else
        fatal("unknown RunSpec mode '%s'", mode.c_str());

    spec.scale = parseDouble(expectField(fields[1], "scale"), "scale");
    spec.maxInstructions =
        parseUnsigned(expectField(fields[2], "max"), "max");
    spec.memPorts = static_cast<int>(
        parseUnsigned(expectField(fields[3], "ports"), "ports"));
    spec.renameDepth = static_cast<int>(
        parseUnsigned(expectField(fields[4], "rename"), "rename"));
    spec.decoupleDepth = static_cast<int>(
        parseUnsigned(expectField(fields[5], "decouple"), "decouple"));
    spec.programs = canonicalNames(
        split(expectField(fields[6], "programs"), ','));
    spec.params =
        MachineParams::fromCanonical(expectField(fields[7], "machine"));
    spec.validate();
    return spec;
}

uint64_t
RunSpec::key() const
{
    // FNV-1a, 64-bit.
    uint64_t hash = 14695981039346656037ull;
    for (const char c : canonical()) {
        hash ^= static_cast<uint8_t>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

bool
RunSpec::operator==(const RunSpec &other) const
{
    return canonical() == other.canonical();
}

} // namespace mtv
