#include "src/workload/program.hh"

#include <cmath>

#include "src/common/logging.hh"

namespace mtv
{

namespace
{

/** Stable 64-bit hash of a string (FNV-1a) for per-program seeding. */
uint64_t
hashName(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

void
ProgramSpec::validate() const
{
    if (kernels.empty())
        panic("program '%s' has no kernels", name.c_str());
    for (const auto &k : kernels)
        k.validate();
    if (vectorMillions <= 0 || scalarMillions < 0)
        panic("program '%s' has invalid instruction targets",
              name.c_str());
    // The kernels' built-in scalar overhead must stay below the
    // program's scalar/vector ratio so the standalone scalar regions
    // can make up the difference (never the other way around).
    const double targetRatio = scalarMillions / vectorMillions;
    for (const auto &k : kernels) {
        const double kernelRatio =
            static_cast<double>(k.scalarInstrsPerInvocation()) /
            static_cast<double>(k.vectorInstrsPerInvocation());
        if (kernelRatio > targetRatio * (1.0 + 1e-9) + 1e-12) {
            panic("program '%s': kernel '%s' scalar/vector ratio %.3f "
                  "exceeds program target %.3f",
                  name.c_str(), k.name.c_str(), kernelRatio, targetRatio);
        }
    }
}

SyntheticProgram::SyntheticProgram(const ProgramSpec &spec, double scale,
                                   uint64_t seed)
    : name_(spec.name)
{
    spec.validate();
    if (scale <= 0)
        fatal("workload scale must be positive, got %g", scale);

    const auto vTarget = static_cast<uint64_t>(
        std::llround(spec.vectorMillions * 1e6 * scale));
    const auto sTarget = static_cast<uint64_t>(
        std::llround(spec.scalarMillions * 1e6 * scale));

    Rng rng(hashName(spec.name) ^ seed);
    uint64_t addrCursor = 0x10000000ull +
                          (hashName(spec.name) & 0xffff000ull);

    uint64_t vEmitted = 0;
    uint64_t sEmitted = 0;
    uint64_t scalarIter = 0;
    size_t kIdx = 0;

    // Packed as it is emitted, then published as the immutable
    // shared stream.
    PackedStream instructions;
    // Reserve an estimate to avoid repeated growth.
    instructions.reserve(vTarget + sTarget + 1024);

    while (vEmitted < vTarget || vEmitted == 0) {
        const KernelSpec &kernel = spec.kernels[kIdx];
        kIdx = (kIdx + 1) % spec.kernels.size();

        emitKernel(kernel, addrCursor, rng, instructions);
        vEmitted += kernel.vectorInstrsPerInvocation();
        sEmitted += kernel.scalarInstrsPerInvocation();

        // Keep the scalar stream in step with vector progress so the
        // non-vectorized regions are spread through the run (as they
        // are in the real programs), not bunched at the end.
        const double frac = std::min(
            1.0, static_cast<double>(vEmitted) /
                     static_cast<double>(std::max<uint64_t>(vTarget, 1)));
        const auto sWanted =
            static_cast<uint64_t>(frac * static_cast<double>(sTarget));
        while (sEmitted + scalarIterationLength <= sWanted) {
            sEmitted += emitScalarIteration(scalarIter++, addrCursor,
                                            instructions);
        }
    }

    while (sEmitted + scalarIterationLength <= sTarget) {
        sEmitted += emitScalarIteration(scalarIter++, addrCursor,
                                        instructions);
    }

    stream_ = std::make_shared<const PackedStream>(
        std::move(instructions));
}

bool
SyntheticProgram::next(Instruction &out)
{
    if (pos_ >= stream_->size())
        return false;
    out = stream_->at(pos_++);
    return true;
}

ProgramSpec
makeDaxpySpec(uint64_t elements)
{
    BodyBuilder b;
    const int x = b.load();
    const int y = b.load();
    const int ax = b.arith(Opcode::VMul, x, x);
    const int sum = b.arith(Opcode::VAdd, ax, y);
    b.store(sum);

    KernelSpec k;
    k.name = "daxpy";
    k.tripCount = static_cast<uint32_t>(
        std::min<uint64_t>(elements, 1u << 20));
    k.body = b.take();
    k.scalarPreamble = 2;
    k.scalarPerStrip = 2;

    ProgramSpec p;
    p.name = "daxpy";
    p.abbrev = "dx";
    p.suite = "example";
    // One invocation's worth of work at scale 1.0.
    p.vectorMillions =
        static_cast<double>(k.vectorInstrsPerInvocation()) / 1e6;
    p.scalarMillions =
        static_cast<double>(k.scalarInstrsPerInvocation()) / 1e6;
    p.vectorOpsMillions =
        static_cast<double>(k.vectorOpsPerInvocation()) / 1e6;
    p.avgVectorLength = k.averageVectorLength();
    p.percentVect = 100.0 * p.vectorOpsMillions /
                    (p.scalarMillions + p.vectorOpsMillions);
    p.kernels.push_back(k);
    return p;
}

} // namespace mtv
