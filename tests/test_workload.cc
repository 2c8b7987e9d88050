/**
 * @file
 * Unit tests for src/workload: the kernel DSL, whole-program
 * synthesis, and — most importantly — calibration of all ten
 * synthetic programs against the paper's Table 3.
 */

#include <gtest/gtest.h>

#include "src/core/resources.hh"
#include "src/trace/analyzer.hh"
#include "src/workload/kernel.hh"
#include "src/workload/program.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

/** Every instruction of @p stream, rebuilt. */
std::vector<Instruction>
unpack(const PackedStream &stream)
{
    std::vector<Instruction> out;
    for (size_t i = 0; i < stream.size(); ++i)
        out.push_back(stream.at(i));
    return out;
}

KernelSpec
tinyKernel(uint32_t trip = 300)
{
    BodyBuilder b;
    const int x = b.load();
    const int y = b.load();
    const int t = b.arith(Opcode::VAdd, x, y);
    b.store(t);
    KernelSpec k;
    k.name = "tiny";
    k.tripCount = trip;
    k.body = b.take();
    k.scalarPreamble = 2;
    k.scalarPerStrip = 2;
    return k;
}

TEST(Kernel, StripAccounting)
{
    const KernelSpec k = tinyKernel(300);
    EXPECT_EQ(k.strips(), 3u);  // 128 + 128 + 44
    EXPECT_EQ(k.vectorInstrsPerInvocation(), 3u * 4);
    EXPECT_EQ(k.vectorOpsPerInvocation(), 300u * 4);
    EXPECT_EQ(k.scalarInstrsPerInvocation(), 2u + 3 * 2);
    EXPECT_NEAR(k.averageVectorLength(), 100.0, 1e-9);
}

TEST(Kernel, SingleStripShortVector)
{
    const KernelSpec k = tinyKernel(22);
    EXPECT_EQ(k.strips(), 1u);
    EXPECT_NEAR(k.averageVectorLength(), 22.0, 1e-9);
}

TEST(Kernel, ExactMultipleOfMaxVl)
{
    const KernelSpec k = tinyKernel(256);
    EXPECT_EQ(k.strips(), 2u);
    EXPECT_NEAR(k.averageVectorLength(), 128.0, 1e-9);
}

TEST(Kernel, BodyBuilderSlotWindowWraps)
{
    BodyBuilder b;
    std::vector<int> slots;
    for (int i = 0; i < 10; ++i)
        slots.push_back(b.load());
    // Slots wrap around the 8-register window.
    EXPECT_EQ(slots[0], slots[8]);
    EXPECT_EQ(slots[1], slots[9]);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(slots[i], i);
}

TEST(Kernel, SlotToVRegSpreadsBanks)
{
    // Consecutive slots must land in different banks so chained
    // producer/consumer pairs do not fight over bank ports.
    for (int s = 0; s + 1 < numVRegs; ++s) {
        EXPECT_NE(vregBank(slotToVReg(s)), vregBank(slotToVReg(s + 1)))
            << "slots " << s << " and " << s + 1;
    }
    // And the mapping is a permutation.
    uint32_t seen = 0;
    for (int s = 0; s < numVRegs; ++s)
        seen |= 1u << slotToVReg(s);
    EXPECT_EQ(seen, 0xffu);
}

TEST(Kernel, EmitProducesExpectedCounts)
{
    const KernelSpec k = tinyKernel(300);
    uint64_t cursor = 0x1000;
    Rng rng(1);
    PackedStream packed;
    emitKernel(k, cursor, rng, packed);
    const std::vector<Instruction> out = unpack(packed);

    TraceStats stats;
    for (const auto &inst : out)
        stats.account(inst);
    EXPECT_EQ(stats.vectorInstructions, k.vectorInstrsPerInvocation());
    EXPECT_EQ(stats.vectorOperations, k.vectorOpsPerInvocation());
    EXPECT_EQ(stats.scalarInstructions, k.scalarInstrsPerInvocation());
    EXPECT_GT(cursor, 0x1000u);
}

TEST(Kernel, EmitStripVectorLengthsSumToTrip)
{
    const KernelSpec k = tinyKernel(300);
    uint64_t cursor = 0;
    Rng rng(1);
    PackedStream packed;
    emitKernel(k, cursor, rng, packed);
    const std::vector<Instruction> out = unpack(packed);
    // Sum the VL of one body step (the loads at body position 0).
    uint64_t sum = 0;
    for (const auto &inst : out) {
        if (inst.op == Opcode::VLoad && inst.dst == slotToVReg(0))
            sum += inst.vl;
    }
    EXPECT_EQ(sum, 300u);
}

TEST(Kernel, IndexedFractionEmitsGathers)
{
    KernelSpec k = tinyKernel(1280);
    k.indexedFraction = 1.0;
    uint64_t cursor = 0;
    Rng rng(1);
    PackedStream packed;
    emitKernel(k, cursor, rng, packed);
    const std::vector<Instruction> out = unpack(packed);
    int gathers = 0;
    int plainLoads = 0;
    for (const auto &inst : out) {
        gathers += inst.op == Opcode::VGather;
        plainLoads += inst.op == Opcode::VLoad;
    }
    EXPECT_GT(gathers, 0);
    EXPECT_EQ(plainLoads, 0);
}

TEST(Kernel, ScalarIterationShape)
{
    uint64_t cursor = 0x100;
    PackedStream packed;
    const int n = emitScalarIteration(0, cursor, packed);
    const std::vector<Instruction> out = unpack(packed);
    EXPECT_EQ(n, scalarIterationLength);
    ASSERT_EQ(out.size(), static_cast<size_t>(scalarIterationLength));
    // The canonical scalar loop has exactly 2 memory transactions and
    // ends in a branch (paper: 2 memory ops per 6-8 instructions).
    int mem = 0;
    for (const auto &inst : out)
        mem += isMemory(inst.op);
    EXPECT_EQ(mem, 2);
    EXPECT_EQ(out.back().op, Opcode::SBranch);
}

TEST(Program, DaxpySpecIsValid)
{
    const ProgramSpec spec = makeDaxpySpec(100000);
    spec.validate();
    SyntheticProgram p(spec, 1.0);
    EXPECT_GT(p.count(), 0u);
    const TraceStats stats = analyzeSource(p);
    EXPECT_GT(stats.percentVectorization(), 90.0);
}

TEST(Program, GenerationIsDeterministic)
{
    const ProgramSpec &spec = findProgram("bdna");
    SyntheticProgram a(spec, 1e-5);
    SyntheticProgram b(spec, 1e-5);
    ASSERT_EQ(a.count(), b.count());
    const std::vector<Instruction> as = materialize(a);
    const std::vector<Instruction> bs = materialize(b);
    for (size_t i = 0; i < as.size(); ++i) {
        EXPECT_EQ(as[i].op, bs[i].op);
        EXPECT_EQ(as[i].addr, bs[i].addr);
    }
}

TEST(Program, ScaleControlsSize)
{
    const ProgramSpec &spec = findProgram("hydro2d");
    SyntheticProgram small(spec, 1e-5);
    SyntheticProgram large(spec, 4e-5);
    const double ratio = static_cast<double>(large.count()) /
                         static_cast<double>(small.count());
    EXPECT_NEAR(ratio, 4.0, 0.8);
}

/** FNV-1a over every Instruction field, little-endian, in order. */
uint64_t
streamDigest(const std::vector<Instruction> &stream)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Instruction &inst : stream) {
        mix(static_cast<uint8_t>(inst.op), 1);
        mix(inst.dst, 1);
        mix(inst.srcA, 1);
        mix(inst.srcB, 1);
        mix(inst.vl, 2);
        mix(static_cast<uint32_t>(inst.stride), 4);
        mix(inst.addr, 8);
    }
    return h;
}

TEST(Program, StreamBytesArePinned)
{
    // Digests of every field every kernel and trace writer sees,
    // recorded when programs were still stored as raw Instruction
    // vectors: packing the stream must not change a single byte.
    struct Pin
    {
        const char *name;
        size_t count;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"swm256", 968, 0x9d44e5dffeefaa55ull},
        {"hydro2d", 851, 0xb8771da3e7811dc6ull},
        {"arc2d", 1088, 0x6968a6ef0d20aa2full},
        {"flo52", 606, 0x408e112087884dd4ull},
        {"nasa7", 2204, 0x6e9a9ac870a5ec49ull},
        {"su2cor", 1796, 0xc79a2e3ed11a89edull},
        {"tomcatv", 1352, 0xba2a843649be3f8aull},
        {"bdna", 2607, 0xcee7b3250ba8e794ull},
        {"trfd", 4022, 0x3ff56c28e226dca1ull},
        {"dyfesm", 2690, 0xd1f32b0f41dbc835ull},
    };
    const auto &suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), std::size(pins));
    for (size_t i = 0; i < suite.size(); ++i) {
        ASSERT_EQ(suite[i].name, pins[i].name);
        const std::vector<Instruction> stream =
            materialize(*makeProgram(suite[i].name, 1e-5));
        EXPECT_EQ(stream.size(), pins[i].count) << pins[i].name;
        EXPECT_EQ(streamDigest(stream), pins[i].digest) << pins[i].name;
    }
}

TEST(PackedStream, RoundTripsEveryField)
{
    Instruction zeroVl = makeVectorArith(Opcode::VAdd, 1, 2, 3, 1);
    zeroVl.vl = 0;
    const Instruction wide = makeVectorMem(Opcode::VGather, 7, 128,
                                     0xfedcba9876543210ull, -3);
    const std::vector<Instruction> input = {
        zeroVl,
        wide,
        makeVectorMem(Opcode::VStore, 4, 1, 0x1000, -1),
        makeScalar(Opcode::SAddInt, 0, 1, 2),
        makeScalar(Opcode::SBranch, noReg, 7),
        makeScalarMem(Opcode::SLoad, 3, 0xffffffffffffffffull),
    };
    PackedStream packed;
    for (const Instruction &inst : input)
        packed.push_back(inst);
    ASSERT_EQ(packed.size(), input.size());
    const std::vector<Instruction> output = unpack(packed);
    EXPECT_EQ(streamDigest(output), streamDigest(input));
    EXPECT_EQ(output[0].vl, 0u);
    EXPECT_EQ(packed.code()[0].vl, 1u);  // the fast lane's clamp
    EXPECT_EQ(output[1].stride, -3);
    EXPECT_EQ(output[1].addr, 0xfedcba9876543210ull);
    EXPECT_EQ(packed.code()[1].fu, FuClass::VecLoad);
    EXPECT_EQ(output[3].vl, 0u);
}

TEST(PackedStreamDeath, RejectsOutOfRangeOperandsWhenBuilt)
{
    Instruction bad = makeVectorArith(Opcode::VAdd, 1, 2, 3, 64);
    bad.dst = numVRegs;
    PackedStream packed;
    EXPECT_EXIT(packed.push_back(bad), testing::ExitedWithCode(1),
                "out-of-range register");
}

TEST(Suite, HasTenProgramsInTableOrder)
{
    const auto &suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), 10u);
    EXPECT_EQ(suite.front().name, "swm256");
    EXPECT_EQ(suite.back().name, "dyfesm");
    // Table 3 is ordered by decreasing vectorization.
    for (size_t i = 1; i < suite.size(); ++i)
        EXPECT_GE(suite[i - 1].percentVect, suite[i].percentVect);
}

TEST(Suite, LookupByNameAndAbbrev)
{
    EXPECT_EQ(findProgram("tomcatv").abbrev, "to");
    EXPECT_EQ(findProgram("to").name, "tomcatv");
    EXPECT_EQ(findProgram("SW").name, "swm256");
}

TEST(SuiteDeath, UnknownProgramIsFatal)
{
    EXPECT_EXIT({ findProgram("nosuchprog"); },
                testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Suite, GroupingColumnsMatchDesign)
{
    EXPECT_EQ(groupingColumn2().size(), 5u);
    EXPECT_EQ(groupingColumn3().size(), 2u);
    EXPECT_EQ(groupingColumn4().size(), 1u);
    // Column 2 is fixed by the Figure 7 caption.
    const auto &c2 = groupingColumn2();
    EXPECT_NE(std::find(c2.begin(), c2.end(), "hydro2d"), c2.end());
    EXPECT_NE(std::find(c2.begin(), c2.end(), "swm256"), c2.end());
    EXPECT_NE(std::find(c2.begin(), c2.end(), "bdna"), c2.end());
}

TEST(Suite, JobQueueOrderIsSection7)
{
    const auto &order = jobQueueOrder();
    ASSERT_EQ(order.size(), 10u);
    EXPECT_EQ(order[0], "flo52");    // TF
    EXPECT_EQ(order[1], "swm256");   // SW
    EXPECT_EQ(order[9], "dyfesm");   // SD
}

/**
 * Calibration: every synthetic program must reproduce its Table 3 row
 * (scalar instructions, vector instructions, vector operations,
 * percent vectorization, average vector length) at the configured
 * scale, within tolerance for invocation granularity.
 */
class SuiteCalibration : public testing::TestWithParam<std::string>
{
};

TEST_P(SuiteCalibration, MatchesTable3)
{
    const ProgramSpec &spec = findProgram(GetParam());
    const double scale = 1e-4;
    SyntheticProgram program(spec, scale);
    const TraceStats stats = analyzeSource(program);

    const double sTarget = spec.scalarMillions * 1e6 * scale;
    const double vTarget = spec.vectorMillions * 1e6 * scale;
    const double opsTarget = spec.vectorOpsMillions * 1e6 * scale;

    EXPECT_NEAR(static_cast<double>(stats.scalarInstructions),
                sTarget, 0.10 * sTarget + 20)
        << spec.name << " scalar count";
    EXPECT_NEAR(static_cast<double>(stats.vectorInstructions),
                vTarget, 0.10 * vTarget + 20)
        << spec.name << " vector count";
    EXPECT_NEAR(static_cast<double>(stats.vectorOperations),
                opsTarget, 0.12 * opsTarget + 100)
        << spec.name << " vector ops";
    EXPECT_NEAR(stats.percentVectorization(), spec.percentVect, 1.5)
        << spec.name << " %vect";
    EXPECT_NEAR(stats.averageVectorLength(), spec.avgVectorLength,
                0.08 * spec.avgVectorLength)
        << spec.name << " avg VL";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, SuiteCalibration,
    testing::Values("swm256", "hydro2d", "arc2d", "flo52", "nasa7",
                    "su2cor", "tomcatv", "bdna", "trfd", "dyfesm"),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Suite, SpecsPassValidation)
{
    for (const auto &spec : benchmarkSuite()) {
        spec.validate();  // panics on violation
        for (const auto &k : spec.kernels) {
            // Trip counts were chosen to hit the program's average VL.
            EXPECT_NEAR(k.averageVectorLength(), spec.avgVectorLength,
                        0.12 * spec.avgVectorLength)
                << spec.name << "/" << k.name;
        }
    }
}

} // namespace
} // namespace mtv
