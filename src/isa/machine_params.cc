#include "src/isa/machine_params.hh"

#include <charconv>
#include <cstring>

#include "src/common/config.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"

namespace mtv
{

std::string
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::UnfairLowest:
        return "unfair-lowest";
      case SchedPolicy::RoundRobin:
        return "round-robin";
      case SchedPolicy::FairLru:
        return "fair-lru";
    }
    return "unknown";
}

int
MachineParams::latency(LatClass cls, bool vector) const
{
    const LatPair *pair = nullptr;
    switch (cls) {
      case LatClass::IntAdd: pair = &latIntAdd; break;
      case LatClass::FpAdd: pair = &latFpAdd; break;
      case LatClass::Logic: pair = &latLogic; break;
      case LatClass::IntMul: pair = &latIntMul; break;
      case LatClass::FpMul: pair = &latFpMul; break;
      case LatClass::IntDiv: pair = &latIntDiv; break;
      case LatClass::FpDiv: pair = &latFpDiv; break;
      case LatClass::Sqrt: pair = &latSqrt; break;
      case LatClass::Move: pair = &latMove; break;
      case LatClass::Control: pair = &latControl; break;
      case LatClass::Memory:
        return memLatency;
      default:
        panic("bad latency class %d", static_cast<int>(cls));
    }
    return vector ? pair->vector : pair->scalar;
}

int
MachineParams::opLatency(Opcode op) const
{
    if (op == Opcode::SLoad)
        return memLatency;
    if (op == Opcode::SStore)
        return 1;  // fire-and-forget
    if (isVector(op) && isMemory(op))
        return memLatency;
    return latency(latClass(op), isVector(op));
}

void
MachineParams::validate() const
{
    if (contexts < 1 || contexts > 8)
        fatal("contexts must be in [1,8], got %d", contexts);
    if (memLatency < 1)
        fatal("memLatency must be >= 1, got %d", memLatency);
    if (readXbar < 1 || writeXbar < 1)
        fatal("crossbar latencies must be >= 1");
    if (decodeWidth < 1 || decodeWidth > contexts)
        fatal("decodeWidth must be in [1,contexts], got %d", decodeWidth);
    if (dualScalar && contexts < 2)
        fatal("dualScalar requires >= 2 contexts");
    if (vectorStartup < 0)
        fatal("vectorStartup must be >= 0");
    if (loadPorts < 1 || loadPorts > 4)
        fatal("loadPorts must be in [1,4], got %d", loadPorts);
    if (storePorts < 0 || storePorts > 4)
        fatal("storePorts must be in [0,4], got %d", storePorts);
    if (decoupleDepth < 0 || decoupleDepth > 16)
        fatal("decoupleDepth must be in [0,16], got %d", decoupleDepth);
    if (renameDepth < 0 || renameDepth > 8)
        fatal("renameDepth must be in [0,8], got %d", renameDepth);
    if (renaming && renameDepth > 0) {
        fatal("renaming (infinite pool) and renameDepth (bounded "
              "pool) are mutually exclusive");
    }
}

MachineParams
MachineParams::reference()
{
    MachineParams p;
    p.contexts = 1;
    return p;
}

MachineParams
MachineParams::multithreaded(int contexts)
{
    MachineParams p;
    p.contexts = contexts;
    return p;
}

MachineParams
MachineParams::fujitsuDualScalar()
{
    MachineParams p;
    p.contexts = 2;
    p.dualScalar = true;
    p.decodeWidth = 2;
    return p;
}

MachineParams
MachineParams::crayStyle(int contexts)
{
    MachineParams p;
    p.contexts = contexts;
    p.loadPorts = 2;
    p.storePorts = 1;
    return p;
}

MachineParams
MachineParams::decoupledVector(int depth)
{
    MachineParams p;
    p.contexts = 1;
    p.decoupleDepth = depth;
    return p;
}

namespace
{

/** The Table 1 latency pairs, with their config key stems. */
struct LatField
{
    const char *key;
    LatPair MachineParams::*member;
};

const LatField latFields[] = {
    {"lat_int_add", &MachineParams::latIntAdd},
    {"lat_fp_add", &MachineParams::latFpAdd},
    {"lat_logic", &MachineParams::latLogic},
    {"lat_int_mul", &MachineParams::latIntMul},
    {"lat_fp_mul", &MachineParams::latFpMul},
    {"lat_int_div", &MachineParams::latIntDiv},
    {"lat_fp_div", &MachineParams::latFpDiv},
    {"lat_sqrt", &MachineParams::latSqrt},
    {"lat_move", &MachineParams::latMove},
    {"lat_control", &MachineParams::latControl},
};

/** Append `<prefix><value>`; std::to_chars emits exactly the digits
 *  printf's %d would, so canonical strings stay byte-identical to the
 *  format()-built ones they replace. The prefix is a literal whose
 *  length is known at compile time: every fleet node builds this
 *  string for every candidate point of a sweep. */
template <size_t N>
void
appendKV(std::string *out, const char (&prefix)[N], int value)
{
    char buf[N + 16];
    std::memcpy(buf, prefix, N - 1);
    const auto r = std::to_chars(buf + N - 1, buf + sizeof(buf), value);
    out->append(buf, static_cast<size_t>(r.ptr - buf));
}

} // namespace

MachineParams
MachineParams::fromConfig(const Config &config)
{
    MachineParams p;
    p.contexts = static_cast<int>(config.getInt("contexts", p.contexts));
    if (config.has("sched")) {
        const std::string name = toLower(config.getString("sched"));
        if (name == "unfair-lowest")
            p.sched = SchedPolicy::UnfairLowest;
        else if (name == "round-robin")
            p.sched = SchedPolicy::RoundRobin;
        else if (name == "fair-lru")
            p.sched = SchedPolicy::FairLru;
        else
            fatal("unknown scheduling policy '%s'", name.c_str());
    }
    p.decodeWidth =
        static_cast<int>(config.getInt("decode_width", p.decodeWidth));
    p.dualScalar = config.getBool("dual_scalar", p.dualScalar);
    p.readXbar =
        static_cast<int>(config.getInt("read_xbar", p.readXbar));
    p.writeXbar =
        static_cast<int>(config.getInt("write_xbar", p.writeXbar));
    p.vectorStartup = static_cast<int>(
        config.getInt("vector_startup", p.vectorStartup));
    p.modelBankPorts = config.getBool("bank_ports", p.modelBankPorts);
    p.memLatency =
        static_cast<int>(config.getInt("mem_latency", p.memLatency));
    p.bankedMemory = config.getBool("banked_memory", p.bankedMemory);
    p.memBanks = static_cast<int>(config.getInt("mem_banks", p.memBanks));
    p.bankBusyCycles =
        static_cast<int>(config.getInt("bank_busy", p.bankBusyCycles));
    p.loadChaining = config.getBool("load_chaining", p.loadChaining);
    p.loadPorts =
        static_cast<int>(config.getInt("load_ports", p.loadPorts));
    p.storePorts =
        static_cast<int>(config.getInt("store_ports", p.storePorts));
    p.renaming = config.getBool("renaming", p.renaming);
    p.renameDepth = static_cast<int>(
        config.getInt("rename_depth", p.renameDepth));
    p.decoupleDepth = static_cast<int>(
        config.getInt("decouple_depth", p.decoupleDepth));
    p.branchStall =
        static_cast<int>(config.getInt("branch_stall", p.branchStall));
    for (const auto &field : latFields) {
        LatPair &pair = p.*(field.member);
        pair.scalar = static_cast<int>(config.getInt(
            std::string(field.key) + "_s", pair.scalar));
        pair.vector = static_cast<int>(config.getInt(
            std::string(field.key) + "_v", pair.vector));
    }
    p.validate();
    return p;
}

std::string
MachineParams::canonical() const
{
    // Keep key names identical to fromConfig() so the two formats
    // stay mutually parseable, and keep the order fixed: canonical
    // strings are compared byte-for-byte by the experiment cache, so
    // every public field (including the Table 1 latency pairs) must
    // appear — two machines differing anywhere must never alias.
    // Built by appending rather than format(): the string is
    // recomputed for every sweep point on the hot result path, and
    // vsnprintf's measure-then-write double pass dominated it.
    std::string out;
    out.reserve(512);
    appendCanonical(&out);
    return out;
}

void
MachineParams::appendCanonical(std::string *outPtr) const
{
    std::string &out = *outPtr;
    appendKV(&out, "contexts=", contexts);
    out += " sched=";
    out += schedPolicyName(sched);
    appendKV(&out, " decode_width=", decodeWidth);
    appendKV(&out, " dual_scalar=", dualScalar ? 1 : 0);
    appendKV(&out, " read_xbar=", readXbar);
    appendKV(&out, " write_xbar=", writeXbar);
    appendKV(&out, " vector_startup=", vectorStartup);
    appendKV(&out, " bank_ports=", modelBankPorts ? 1 : 0);
    appendKV(&out, " mem_latency=", memLatency);
    appendKV(&out, " banked_memory=", bankedMemory ? 1 : 0);
    appendKV(&out, " mem_banks=", memBanks);
    appendKV(&out, " bank_busy=", bankBusyCycles);
    appendKV(&out, " load_chaining=", loadChaining ? 1 : 0);
    appendKV(&out, " load_ports=", loadPorts);
    appendKV(&out, " store_ports=", storePorts);
    appendKV(&out, " renaming=", renaming ? 1 : 0);
    appendKV(&out, " rename_depth=", renameDepth);
    appendKV(&out, " decouple_depth=", decoupleDepth);
    appendKV(&out, " branch_stall=", branchStall);
    for (const auto &field : latFields) {
        const LatPair &pair = this->*(field.member);
        out.push_back(' ');
        out += field.key;
        appendKV(&out, "_s=", pair.scalar);
        out.push_back(' ');
        out += field.key;
        appendKV(&out, "_v=", pair.vector);
    }
}

MachineParams
MachineParams::fromCanonical(const std::string &text)
{
    Config config;
    for (const auto &pair : split(text, ' ')) {
        if (pair.empty())
            continue;
        const auto kv = split(pair, '=');
        if (kv.size() != 2)
            fatal("malformed machine description token '%s'",
                  pair.c_str());
        config.set(kv[0], kv[1]);
    }
    MachineParams p = fromConfig(config);
    for (const auto &key : config.unusedKeys())
        fatal("unknown machine parameter '%s'", key.c_str());
    return p;
}

std::string
MachineParams::describe() const
{
    std::string kind;
    if (dualScalar)
        kind = "dual-scalar";
    else if (contexts == 1)
        kind = "reference";
    else
        kind = "multithreaded";
    std::string extras;
    if (loadPorts != 1 || storePorts != 0)
        extras += format(", ports=%dld/%dst", loadPorts, storePorts);
    if (renaming)
        extras += ", renaming";
    if (renameDepth > 0)
        extras += format(", rename=%d", renameDepth);
    if (decoupleDepth > 0)
        extras += format(", decouple=%d", decoupleDepth);
    if (loadChaining)
        extras += ", load-chain";
    if (!modelBankPorts)
        extras += ", no-bank-ports";
    if (bankedMemory)
        extras += format(", banked=%dx%d", memBanks, bankBusyCycles);
    if (vectorStartup != 1)
        extras += format(", startup=%d", vectorStartup);
    if (branchStall != 2)
        extras += format(", brstall=%d", branchStall);
    return format("%s(ctx=%d, lat=%d, xbar=%d/%d, sched=%s, width=%d%s)",
                  kind.c_str(), contexts, memLatency, readXbar, writeXbar,
                  schedPolicyName(sched).c_str(), decodeWidth,
                  extras.c_str());
}

} // namespace mtv
