/**
 * @file
 * Unit tests for src/trace: sources, binary/text trace files, the
 * pack step that gives any source a fast-lane run, and the analyzer
 * (Table 3 statistics + IDEAL bound).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/core/sim.hh"
#include "src/store/stats_codec.hh"
#include "src/trace/analyzer.hh"
#include "src/trace/source.hh"
#include "src/trace/trace_file.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

std::vector<Instruction>
sampleInstructions()
{
    return {
        makeScalar(Opcode::SAddInt, 1, 0),
        makeScalarMem(Opcode::SLoad, 2, 0xdeadbeef),
        makeVectorMem(Opcode::VLoad, 0, 128, 0x1000, 3),
        makeVectorArith(Opcode::VMul, 2, 0, 4, 128),
        makeVectorArith(Opcode::VAdd, 4, 2, 6, 128),
        makeVectorMem(Opcode::VStore, 4, 128, 0x2000, 1),
        makeScalar(Opcode::SBranch, noReg, 7),
    };
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(VectorSource, ServesAndResets)
{
    VectorSource src("demo", sampleInstructions());
    Instruction inst;
    int count = 0;
    while (src.next(inst))
        ++count;
    EXPECT_EQ(count, 7);
    EXPECT_FALSE(src.next(inst));
    src.reset();
    EXPECT_TRUE(src.next(inst));
    EXPECT_EQ(inst.op, Opcode::SAddInt);
    EXPECT_EQ(src.name(), "demo");
}

TEST(VectorSource, MaterializeRoundTrip)
{
    VectorSource src("demo", sampleInstructions());
    const auto all = materialize(src);
    EXPECT_EQ(all.size(), 7u);
    const auto limited = materialize(src, 3);
    EXPECT_EQ(limited.size(), 3u);
    // materialize resets the source afterwards.
    Instruction inst;
    EXPECT_TRUE(src.next(inst));
}

TEST(TraceFile, BinaryRoundTrip)
{
    const std::string path = tempPath("mtv_test_roundtrip.mtv");
    VectorSource src("roundtrip", sampleInstructions());
    const uint64_t written = writeTrace(src, path);
    EXPECT_EQ(written, 7u);

    TraceReader reader(path);
    EXPECT_EQ(reader.name(), "roundtrip");
    EXPECT_EQ(reader.count(), 7u);

    const auto original = sampleInstructions();
    Instruction inst;
    for (const auto &want : original) {
        ASSERT_TRUE(reader.next(inst));
        EXPECT_EQ(inst.op, want.op);
        EXPECT_EQ(inst.dst, want.dst);
        EXPECT_EQ(inst.srcA, want.srcA);
        EXPECT_EQ(inst.srcB, want.srcB);
        EXPECT_EQ(inst.vl, want.vl);
        EXPECT_EQ(inst.stride, want.stride);
        EXPECT_EQ(inst.addr, want.addr);
    }
    EXPECT_FALSE(reader.next(inst));
    std::remove(path.c_str());
}

TEST(TraceFile, ReaderImplementsReset)
{
    const std::string path = tempPath("mtv_test_reset.mtv");
    VectorSource src("r", sampleInstructions());
    writeTrace(src, path);
    TraceReader reader(path);
    Instruction inst;
    while (reader.next(inst)) {
    }
    reader.reset();
    int count = 0;
    while (reader.next(inst))
        ++count;
    EXPECT_EQ(count, 7);
    std::remove(path.c_str());
}

TEST(TraceFile, NegativeStrideSurvivesRoundTrip)
{
    const std::string path = tempPath("mtv_test_stride.mtv");
    VectorSource src("s", {makeVectorMem(Opcode::VLoad, 0, 64,
                                         0xffffffffff00ull, -7)});
    writeTrace(src, path);
    TraceReader reader(path);
    Instruction inst;
    ASSERT_TRUE(reader.next(inst));
    EXPECT_EQ(inst.stride, -7);
    EXPECT_EQ(inst.addr, 0xffffffffff00ull);
    std::remove(path.c_str());
}

TEST(TraceFile, TextTraceContainsDisassembly)
{
    const std::string path = tempPath("mtv_test_text.mtvt");
    VectorSource src("texty", sampleInstructions());
    const uint64_t written = writeTextTrace(src, path);
    EXPECT_EQ(written, 7u);

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_NE(std::string(line).find("texty"), std::string::npos);
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_NE(std::string(line).find("s.add"), std::string::npos);
    std::fclose(f);
    std::remove(path.c_str());
}

/** Field-by-field Instruction equality for round-trip checks. */
void
expectSameInstruction(const Instruction &a, const Instruction &b,
                      size_t index)
{
    EXPECT_EQ(a.op, b.op) << "record " << index;
    EXPECT_EQ(a.dst, b.dst) << "record " << index;
    EXPECT_EQ(a.srcA, b.srcA) << "record " << index;
    EXPECT_EQ(a.srcB, b.srcB) << "record " << index;
    EXPECT_EQ(a.vl, b.vl) << "record " << index;
    EXPECT_EQ(a.stride, b.stride) << "record " << index;
    EXPECT_EQ(a.addr, b.addr) << "record " << index;
}

TEST(TraceFile, StreamingMatchesEagerIncludingReset)
{
    const std::string path = tempPath("mtv_test_stream.mtv");
    // A real generated program, so the stream crosses several
    // streaming chunks' worth of record shapes.
    auto program = makeProgram("swm256", 2e-5);
    writeTrace(*program, path);

    TraceReader eager(path, TraceReadMode::Eager);
    TraceReader streaming(path, TraceReadMode::Streaming);
    EXPECT_EQ(eager.name(), streaming.name());
    EXPECT_EQ(eager.count(), streaming.count());

    for (int pass = 0; pass < 2; ++pass) {
        Instruction a, b;
        size_t n = 0;
        while (eager.next(a)) {
            ASSERT_TRUE(streaming.next(b)) << "record " << n;
            expectSameInstruction(a, b, n);
            ++n;
        }
        EXPECT_FALSE(streaming.next(b));
        EXPECT_EQ(n, eager.count());
        // reset() must replay the identical stream (the restart
        // methodology depends on it).
        eager.reset();
        streaming.reset();
    }
    std::remove(path.c_str());
}

TEST(TraceFileDeath, StreamingTruncationFailsAtTheLostRecord)
{
    const std::string path = tempPath("mtv_test_stream_trunc.mtv");
    VectorSource src("t", sampleInstructions());
    writeTrace(src, path);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 10);
    // Construction succeeds (only the header is read)...
    TraceReader reader(path, TraceReadMode::Streaming);
    Instruction inst;
    // ...the missing data surfaces when the read reaches it.
    EXPECT_EXIT(
        {
            while (reader.next(inst)) {
            }
        },
        testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

/** Canonical stats bytes of a run of @p sources: a single run with
 *  fetch budget @p budget for one source, else a group run. */
std::string
runBytes(const MachineParams &params, SimKernel kernel,
         const std::vector<InstructionSource *> &sources,
         uint64_t budget = 0)
{
    VectorSim sim(params, kernel);
    return serializeSimStats(sources.size() == 1
                                 ? sim.runSingle(*sources[0], budget)
                                 : sim.runGroup(sources));
}

TEST(PackSource, StreamingTraceRunsBitIdenticallyUnderBothKernels)
{
    // A trace file holds no packed stream: the default kernel packs
    // it before the run. Its stats must equal the stepped run of the
    // same trace and the fast-lane run of the program it was written
    // from — single, as a group beside an in-memory companion, and
    // fetch-truncated.
    const SimKernel fast = VectorSim(MachineParams::reference()).kernel();
    EXPECT_EQ(fast, SimKernel::Batched);

    const std::string path = tempPath("mtv_test_trace_sim.mtv");
    auto program = makeProgram("flo52", 2e-5);
    writeTrace(*program, path);
    TraceReader trace(path, TraceReadMode::Streaming);
    auto companionProgram = makeProgram("swm256", 2e-5);
    VectorSource companion("swm256", materialize(*companionProgram));

    const MachineParams reference = MachineParams::reference();
    const MachineParams two = MachineParams::multithreaded(2);
    const uint64_t budget = program->count() / 2;
    struct Case
    {
        const char *what;
        const MachineParams &params;
        std::vector<InstructionSource *> traced;
        std::vector<InstructionSource *> synthetic;
        uint64_t budget;
    };
    const Case cases[] = {
        {"single", reference, {&trace}, {program.get()}, 0},
        {"group", two, {&trace, &companion},
         {program.get(), companionProgram.get()}, 0},
        {"truncated", reference, {&trace}, {program.get()}, budget},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const std::string packed =
            runBytes(c.params, fast, c.traced, c.budget);
        EXPECT_EQ(packed, runBytes(c.params, SimKernel::Stepped,
                                   c.traced, c.budget));
        EXPECT_EQ(packed, runBytes(c.params, fast, c.synthetic,
                                   c.budget));
    }
    std::remove(path.c_str());
}

TEST(PackSourceDeath, RejectsAnOutOfRangeOperandLikeAFetch)
{
    // The pack step validates every instruction as a fetch did, so a
    // VectorSource with a bad register still fails the run loudly.
    std::vector<Instruction> bad = sampleInstructions();
    bad.push_back(makeVectorArith(Opcode::VAdd, numVRegs, 0, 2, 64));
    VectorSource src("bad", bad);
    VectorSim sim(MachineParams::reference());
    EXPECT_EXIT({ sim.runSingle(src); }, testing::ExitedWithCode(1),
                "out-of-range register");
}

TEST(TraceFile, TextTraceRoundTripsEveryInstruction)
{
    const std::string path = tempPath("mtv_test_text_rt.mtvt");
    // Generated programs cover every operand shape the text format
    // can carry (incl. destination-less branches and gathers).
    auto program = makeProgram("nasa7", 2e-5);
    const uint64_t written = writeTextTrace(*program, path);
    ASSERT_GT(written, 0u);

    TextTraceReader reader(path);
    EXPECT_EQ(reader.name(), program->name());
    EXPECT_EQ(reader.count(), written);
    program->reset();
    Instruction expected, parsed;
    size_t n = 0;
    while (program->next(expected)) {
        ASSERT_TRUE(reader.next(parsed)) << "record " << n;
        expectSameInstruction(expected, parsed, n);
        ++n;
    }
    EXPECT_FALSE(reader.next(parsed));
    std::remove(path.c_str());
}

TEST(TraceFile, TextTraceHandPicksRoundTrip)
{
    const std::string path = tempPath("mtv_test_text_hand.mtvt");
    VectorSource src("hand", sampleInstructions());
    writeTextTrace(src, path);
    TextTraceReader reader(path);
    src.reset();
    Instruction expected, parsed;
    size_t n = 0;
    while (src.next(expected)) {
        ASSERT_TRUE(reader.next(parsed));
        expectSameInstruction(expected, parsed, n++);
    }
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TextTraceRejectsGarbageLine)
{
    const std::string path = tempPath("mtv_test_text_bad.mtvt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "# program: junky\n");
    std::fprintf(f, "x.frobnicate v1, v2\n");
    std::fclose(f);
    EXPECT_EXIT({ TextTraceReader reader(path); },
                testing::ExitedWithCode(1), "unknown mnemonic");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TextTraceRejectsMissingHeader)
{
    const std::string path = tempPath("mtv_test_text_nohdr.mtvt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "s.add s1, s2\n");
    std::fclose(f);
    EXPECT_EXIT({ TextTraceReader reader(path); },
                testing::ExitedWithCode(1), "no '# program:'");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, RejectsBadMagic)
{
    const std::string path = tempPath("mtv_test_bad.mtv");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "this is not a trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_EXIT({ TraceReader reader(path); },
                testing::ExitedWithCode(1), "bad magic");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, RejectsTruncatedFile)
{
    const std::string path = tempPath("mtv_test_trunc.mtv");
    VectorSource src("t", sampleInstructions());
    writeTrace(src, path);
    // Chop the last record in half.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 10);
    EXPECT_EXIT({ TraceReader reader(path); },
                testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, RejectsMissingFile)
{
    EXPECT_EXIT({ TraceReader reader("/nonexistent/nope.mtv"); },
                testing::ExitedWithCode(1), "cannot open");
}

TEST(Analyzer, CountsMatchHandComputation)
{
    VectorSource src("a", sampleInstructions());
    const TraceStats stats = analyzeSource(src);
    EXPECT_EQ(stats.scalarInstructions, 3u);
    EXPECT_EQ(stats.vectorInstructions, 4u);
    EXPECT_EQ(stats.vectorOperations, 4u * 128);
    EXPECT_EQ(stats.vectorArithInstructions, 2u);
    EXPECT_EQ(stats.vectorArithOperations, 2u * 128);
    EXPECT_EQ(stats.fu2OnlyOperations, 128u);  // the VMul
    EXPECT_EQ(stats.vectorMemInstructions, 2u);
    EXPECT_EQ(stats.scalarMemInstructions, 1u);
    // 2 vector memory ops x 128 + 1 scalar load.
    EXPECT_EQ(stats.memoryRequests, 2u * 128 + 1);
    EXPECT_EQ(stats.totalInstructions(), 7u);
}

TEST(Analyzer, VectorizationMetrics)
{
    VectorSource src("a", sampleInstructions());
    const TraceStats stats = analyzeSource(src);
    // %vect = vops / (scalar + vops)
    const double expected = 100.0 * 512.0 / (3.0 + 512.0);
    EXPECT_NEAR(stats.percentVectorization(), expected, 1e-9);
    EXPECT_NEAR(stats.averageVectorLength(), 128.0, 1e-9);
}

TEST(Analyzer, EmptyStatsAreZero)
{
    TraceStats stats;
    EXPECT_EQ(stats.percentVectorization(), 0.0);
    EXPECT_EQ(stats.averageVectorLength(), 0.0);
    EXPECT_EQ(stats.totalInstructions(), 0u);
}

TEST(Analyzer, AccumulationOperator)
{
    VectorSource src("a", sampleInstructions());
    const TraceStats one = analyzeSource(src);
    TraceStats two = one;
    two += one;
    EXPECT_EQ(two.memoryRequests, 2 * one.memoryRequests);
    EXPECT_EQ(two.vectorOperations, 2 * one.vectorOperations);
    EXPECT_EQ(two.scalarInstructions, 2 * one.scalarInstructions);
}

TEST(Analyzer, IdealBoundBindsOnAddressBus)
{
    TraceStats stats;
    stats.memoryRequests = 1000;
    stats.scalarInstructions = 10;
    stats.vectorInstructions = 20;
    stats.vectorArithOperations = 600;
    stats.fu2OnlyOperations = 100;
    const IdealBound b = idealBound(stats);
    EXPECT_EQ(b.addressBusCycles, 1000u);
    EXPECT_EQ(b.fuCycles, 300u);  // max(100, ceil(600/2))
    EXPECT_EQ(b.decodeCycles, 30u);
    EXPECT_EQ(b.bound, 1000u);
    EXPECT_STREQ(b.binding(), "address-bus");
}

TEST(Analyzer, IdealBoundFu2Dominates)
{
    TraceStats stats;
    stats.vectorArithOperations = 500;
    stats.fu2OnlyOperations = 400;  // mul/div heavy: FU2 is critical
    const IdealBound b = idealBound(stats);
    EXPECT_EQ(b.fuCycles, 400u);
    EXPECT_STREQ(b.binding(), "arithmetic-fus");
}

TEST(Analyzer, IdealBoundDecodeWidthScales)
{
    TraceStats stats;
    stats.scalarInstructions = 1001;
    const IdealBound w1 = idealBound(stats, 1);
    const IdealBound w2 = idealBound(stats, 2);
    EXPECT_EQ(w1.decodeCycles, 1001u);
    EXPECT_EQ(w2.decodeCycles, 501u);
}

} // namespace
} // namespace mtv
