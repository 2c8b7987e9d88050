#include "src/core/metrics.hh"

#include "src/common/logging.hh"

namespace mtv
{

const char *
blockReasonName(BlockReason reason)
{
    switch (reason) {
      case BlockReason::None: return "dispatched";
      case BlockReason::NoWork: return "no-work";
      case BlockReason::FetchStall: return "fetch-stall";
      case BlockReason::ScalarDep: return "scalar-dep";
      case BlockReason::SourceNotReady: return "source-not-ready";
      case BlockReason::DestBusy: return "dest-busy";
      case BlockReason::FuBusy: return "fu-busy";
      case BlockReason::MemPipeBusy: return "mem-pipe-busy";
      case BlockReason::MemPortBusy: return "mem-port-busy";
      case BlockReason::BankPortBusy: return "bank-port-busy";
      default: return "unknown";
    }
}

std::string
fuStateName(int index)
{
    MTV_ASSERT(index >= 0 && index < numFuStates);
    std::string out = "<";
    out += (index & 4) ? "FU2" : "   ";
    out += ",";
    out += (index & 2) ? "FU1" : "   ";
    out += ",";
    out += (index & 1) ? "LD" : "  ";
    out += ">";
    return out;
}

} // namespace mtv
