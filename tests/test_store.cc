/**
 * @file
 * Tests for src/store: SimStats codec round-trips, segment
 * persistence across the sharded layout, crash-tail recovery,
 * schema-hash rejection, the hash-keyed index's verified chain walk,
 * concurrent appends, and the engine's warm-start-from-store
 * bit-identity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "src/common/endian.hh"

#include "src/api/engine.hh"
#include "src/store/result_store.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

std::string
tempDir(const char *name)
{
    const auto path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    return path.string();
}

/** A SimStats exercising every serialized field. */
SimStats
sampleStats()
{
    SimStats s;
    s.cycles = 0x1234567890abcdefull;
    s.memRequests = 42;
    s.vecOpsFu1 = 7;
    s.vecOpsFu2 = 9;
    s.dispatches = 1000;
    s.decodeIdle = 77;
    s.decoupledSlips = 3;
    s.memPorts = 3;
    s.fu1BusyCycles = 11;
    s.fu2BusyCycles = 12;
    s.ldBusyCycles = 13;
    for (int i = 0; i < numFuStates; ++i)
        s.stateHist[i] = 100 + i;
    ThreadStats t0;
    t0.program = "swm256";
    t0.instructions = 500;
    t0.scalarInstructions = 100;
    t0.vectorInstructions = 400;
    t0.runsCompleted = 2;
    t0.instructionsThisRun = 33;
    t0.lastCompletion = 999;
    for (size_t i = 0; i < t0.blocked.size(); ++i)
        t0.blocked[i] = i * 11;
    s.threads.push_back(t0);
    ThreadStats t1;
    t1.program = "hydro2d";
    s.threads.push_back(t1);
    JobRecord job;
    job.program = "tomcatv";
    job.context = 2;
    job.startCycle = 10;
    job.endCycle = 20;
    s.jobs.push_back(job);
    return s;
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

TEST(StatsCodec, RoundTripPreservesEveryField)
{
    const SimStats original = sampleStats();
    const std::string blob = serializeSimStats(original);
    const SimStats back = deserializeSimStats(blob);
    // Canonical encoding: equality of blobs is equality of stats.
    EXPECT_EQ(serializeSimStats(back), blob);
    EXPECT_EQ(back.cycles, original.cycles);
    EXPECT_EQ(back.memPorts, original.memPorts);
    ASSERT_EQ(back.threads.size(), 2u);
    EXPECT_EQ(back.threads[0].program, "swm256");
    EXPECT_EQ(back.threads[0].blocked, original.threads[0].blocked);
    ASSERT_EQ(back.jobs.size(), 1u);
    EXPECT_EQ(back.jobs[0].program, "tomcatv");
    EXPECT_EQ(back.jobs[0].endCycle, 20u);
}

TEST(StatsCodec, EncodingIsDeterministic)
{
    EXPECT_EQ(serializeSimStats(sampleStats()),
              serializeSimStats(sampleStats()));
}

TEST(StatsCodecDeath, TruncatedBlobRejected)
{
    const std::string blob = serializeSimStats(sampleStats());
    EXPECT_EXIT(
        deserializeSimStats(blob.substr(0, blob.size() / 2)),
        testing::ExitedWithCode(1), "truncated");
}

TEST(StatsCodecDeath, VersionMismatchRejected)
{
    std::string blob = serializeSimStats(sampleStats());
    blob[0] = static_cast<char>(statsCodecVersion + 1);
    EXPECT_EXIT(deserializeSimStats(blob),
                testing::ExitedWithCode(1), "codec version");
}

TEST(StatsCodecDeath, TrailingBytesRejected)
{
    std::string blob = serializeSimStats(sampleStats());
    blob += "xx";
    EXPECT_EXIT(deserializeSimStats(blob),
                testing::ExitedWithCode(1), "trailing");
}

TEST(StatsCodec, HexRoundTrip)
{
    const std::string data("\x00\x01\xfe\xff hi", 7);
    EXPECT_EQ(hexDecode(hexEncode(data)), data);
    EXPECT_EQ(hexEncode(std::string("\xab", 1)), "ab");
}

TEST(StatsCodecDeath, HexRejectsBadInput)
{
    EXPECT_EXIT(hexDecode("abc"), testing::ExitedWithCode(1),
                "odd-length");
    EXPECT_EXIT(hexDecode("zz"), testing::ExitedWithCode(1),
                "invalid hex");
}

TEST(StatsCodec, SchemaHashIsStableWithinProcess)
{
    EXPECT_EQ(storeSchemaHash(), storeSchemaHash());
    EXPECT_NE(storeSchemaHash(), 0u);
}

// ---------------------------------------------------------------------
// ResultStore persistence
// ---------------------------------------------------------------------

TEST(ResultStore, PersistsAcrossSessions)
{
    const std::string dir = tempDir("mtv_store_persist");
    const SimStats stats = sampleStats();
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.shardCount(), defaultStoreShards);
        EXPECT_EQ(store.load("key-a"), nullptr);
        store.store("key-a", stats);
        store.store("key-b", stats);
        store.store("key-a", stats);  // duplicate: no-op
        EXPECT_EQ(store.size(), 2u);
        EXPECT_EQ(store.stats().appends, 2u);
    }
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_EQ(store.stats().loadedRecords, 2u);
        EXPECT_EQ(store.stats().droppedRecords, 0u);
        auto loaded = store.load("key-a");
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(serializeSimStats(*loaded),
                  serializeSimStats(stats));
        EXPECT_EQ(store.stats().hits, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, EmptySessionLeavesNoSegmentBehind)
{
    const std::string dir = tempDir("mtv_store_empty");
    { ResultStore store(dir); }
    size_t segments = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.path().extension() == ".mtvs")
            ++segments;
    }
    EXPECT_EQ(segments, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, KeysPartitionAcrossShardsAndCountSticks)
{
    const std::string dir = tempDir("mtv_store_shards");
    const SimStats stats = sampleStats();
    constexpr int keys = 64;
    {
        ResultStore store(dir, 4);
        EXPECT_EQ(store.shardCount(), 4);
        for (int i = 0; i < keys; ++i)
            store.store("key-" + std::to_string(i), stats);
        EXPECT_EQ(store.size(), static_cast<size_t>(keys));
    }
    // 64 hashed keys across 4 shards: every shard got some.
    int shardsWithData = 0;
    for (int s = 0; s < 4; ++s) {
        const auto shardDir =
            std::filesystem::path(dir) /
            ("shard-0" + std::to_string(s));
        ASSERT_TRUE(std::filesystem::is_directory(shardDir));
        for (const auto &entry :
             std::filesystem::directory_iterator(shardDir)) {
            if (entry.path().extension() == ".mtvs" &&
                entry.file_size() > 16) {
                ++shardsWithData;
                break;
            }
        }
    }
    EXPECT_EQ(shardsWithData, 4);
    {
        // A different requested count must not re-route lookups: the
        // store keeps the count it was created with.
        ResultStore store(dir, 16);
        EXPECT_EQ(store.shardCount(), 4);
        EXPECT_EQ(store.size(), static_cast<size_t>(keys));
        for (int i = 0; i < keys; ++i) {
            EXPECT_NE(store.load("key-" + std::to_string(i)), nullptr)
                << "key-" << i;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ConcurrentAppendsAndLoadsAreSafe)
{
    // Many threads hammering disjoint and overlapping keys: the
    // per-shard locks must keep every record intact (run under TSan
    // in CI).
    const std::string dir = tempDir("mtv_store_mt");
    const SimStats stats = sampleStats();
    constexpr int threads = 8;
    constexpr int perThread = 24;
    {
        ResultStore store(dir);
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&store, &stats, t] {
                for (int i = 0; i < perThread; ++i) {
                    // Half the keys are shared across threads
                    // (duplicate appends dedup), half are private.
                    const std::string key =
                        i % 2 == 0
                            ? "shared-" + std::to_string(i)
                            : "t" + std::to_string(t) + "-" +
                                  std::to_string(i);
                    store.store(key, stats);
                    store.load(key);
                }
            });
        }
        for (auto &thread : pool)
            thread.join();
        const size_t expect =
            perThread / 2 + threads * (perThread / 2);
        EXPECT_EQ(store.size(), expect);
    }
    {
        ResultStore store(dir);
        EXPECT_EQ(store.stats().droppedRecords, 0u);
        ASSERT_NE(store.load("shared-0"), nullptr);
        EXPECT_EQ(serializeSimStats(*store.load("t3-5")),
                  serializeSimStats(stats));
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreDeath, SecondWriterRejected)
{
    const std::string dir = tempDir("mtv_store_lock");
    ResultStore store(dir);
    EXPECT_EXIT(ResultStore second(dir), testing::ExitedWithCode(1),
                "locked by another");
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreDeath, MissingShardDirectoryRejected)
{
    // A torn copy of a store (one shard directory lost) must refuse
    // to open: inferring a smaller count would re-route every key.
    const std::string dir = tempDir("mtv_store_torn");
    {
        ResultStore store(dir, 4);
        store.store("key-a", sampleStats());
    }
    std::filesystem::remove_all(dir + "/shard-01");
    EXPECT_EXIT(ResultStore store(dir), testing::ExitedWithCode(1),
                "missing shard-01");
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Crash recovery and rejection
// ---------------------------------------------------------------------

/** Path of the single segment under @p dir (fails the test if != 1).
 *  Searches shard subdirectories; recovery tests pin shards = 1 so
 *  every record lands in one segment. */
std::string
onlySegment(const std::string &dir)
{
    std::string found;
    int count = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.path().extension() == ".mtvs") {
            found = entry.path().string();
            ++count;
        }
    }
    EXPECT_EQ(count, 1);
    return found;
}

TEST(ResultStore, TruncatedTailRecovered)
{
    const std::string dir = tempDir("mtv_store_trunc");
    {
        ResultStore store(dir, 1);
        store.store("key-a", sampleStats());
        store.store("key-b", sampleStats());
    }
    // Chop into the middle of the last record — a crash mid-append.
    const std::string segment = onlySegment(dir);
    const auto size = std::filesystem::file_size(segment);
    std::filesystem::resize_file(segment, size - 7);
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_NE(store.load("key-a"), nullptr);
        EXPECT_EQ(store.load("key-b"), nullptr);
        EXPECT_EQ(store.stats().droppedRecords, 1u);
        // The recovered store accepts the re-run result again.
        store.store("key-b", sampleStats());
    }
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 2u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ChecksumFailureDropsTail)
{
    const std::string dir = tempDir("mtv_store_corrupt");
    {
        ResultStore store(dir, 1);
        store.store("key-a", sampleStats());
    }
    const std::string segment = onlySegment(dir);
    // Flip one payload byte (the file tail) behind the checksum.
    std::fstream f(segment,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('\x5a');
    f.close();
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.stats().droppedRecords, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, SchemaMismatchRejectsSegment)
{
    const std::string dir = tempDir("mtv_store_schema");
    {
        ResultStore store(dir, 1);
        store.store("key-a", sampleStats());
    }
    const std::string segment = onlySegment(dir);
    // Rewrite the header's schema hash (bytes 8..15).
    std::fstream f(segment,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8, std::ios::beg);
    for (int i = 0; i < 8; ++i)
        f.put('\x77');
    f.close();
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.stats().staleSegments, 1u);
        EXPECT_EQ(store.stats().droppedRecords, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ForeignFileRejectedAsBadSegment)
{
    const std::string dir = tempDir("mtv_store_badmagic");
    { ResultStore store(dir); }
    // Inside a shard, where segments are read (a root-level file is
    // only warned about; see StrayRootSegmentIsIgnored).
    std::ofstream junk(dir + "/shard-00/seg-000099.mtvs",
                       std::ios::binary);
    junk << "this is not a segment";
    junk.close();
    {
        ResultStore store(dir);
        EXPECT_EQ(store.stats().badSegments, 1u);
        EXPECT_EQ(store.size(), 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, StrayRootSegmentIsIgnored)
{
    // The pre-shard layout kept segments at the directory root. They
    // are never read (or deleted): opening warns and serves nothing
    // from them.
    const std::string src = tempDir("mtv_store_stray_src");
    {
        ResultStore store(src, 1);
        store.store("root-key", sampleStats());
    }
    const std::string dir = tempDir("mtv_store_stray");
    std::filesystem::create_directory(dir);
    const std::string stray = dir + "/seg-000000.mtvs";
    std::filesystem::copy_file(onlySegment(src), stray);
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.load("root-key"), nullptr);
        EXPECT_EQ(store.stats().segments, 0u);
    }
    EXPECT_TRUE(std::filesystem::exists(stray));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(src);
}

// ---------------------------------------------------------------------
// The hash-keyed index: chains of equal hashes, verified on read
// ---------------------------------------------------------------------

/** Records laid out back to back in memory, read like a segment. */
class MemorySegments
{
  public:
    RecordLocation
    append(const std::string &key, const std::string &blob)
    {
        RecordLocation location;
        location.offset = bytes_.size();
        location.keyLength = static_cast<uint32_t>(key.size());
        location.blobLength = static_cast<uint32_t>(blob.size());
        bytes_ += key;
        bytes_ += blob;
        return location;
    }

    /** A StoreIndex reader; counts its calls. */
    auto
    reader()
    {
        return [this](const RecordLocation &location, std::string &key,
                      std::string *blob) {
            ++reads_;
            key = bytes_.substr(location.offset, location.keyLength);
            if (blob) {
                *blob = bytes_.substr(
                    location.offset + location.keyLength,
                    location.blobLength);
            }
        };
    }

    int reads() const { return reads_; }

  private:
    std::string bytes_;
    int reads_ = 0;
};

TEST(StoreIndex, ForcedEqualHashesChainAndVerifyKeys)
{
    // Every key gets the same hash: lookups must walk the chain and
    // return each key's own blob, never a neighbour's.
    constexpr uint64_t forced = 42;
    MemorySegments disk;
    StoreIndex index;
    const std::vector<std::string> keys = {"alpha", "bravo", "charlie",
                                           "delta", "echo1", "echo2"};
    for (const auto &key : keys)
        index.add(forced, disk.append(key, "blob-of-" + key));
    EXPECT_EQ(index.size(), keys.size());

    for (const auto &key : keys) {
        std::string blob;
        const RecordLocation *found =
            index.find(forced, key, disk.reader(), &blob);
        ASSERT_NE(found, nullptr) << key;
        EXPECT_EQ(blob, "blob-of-" + key);
        EXPECT_EQ(found->keyLength, key.size());
    }
    // Absent keys miss, whether or not their length matches a
    // chained key's (same-length candidates are read and rejected).
    std::string blob = "untouched";
    EXPECT_EQ(index.find(forced, "echo3", disk.reader()), nullptr);
    EXPECT_EQ(index.find(forced, "zulu-zulu", disk.reader(), &blob),
              nullptr);
    // A different hash never even reads the chain.
    const int before = disk.reads();
    EXPECT_EQ(index.find(forced + 1, "alpha", disk.reader()), nullptr);
    EXPECT_EQ(disk.reads(), before);
}

TEST(StoreIndex, RepointedEntryServesTheLatestCopy)
{
    MemorySegments disk;
    StoreIndex index;
    index.add(7, disk.append("key", "old"));
    index.add(7, disk.append("other", "x"));
    RecordLocation *entry = index.find(7, "key", disk.reader());
    ASSERT_NE(entry, nullptr);
    *entry = disk.append("key", "new");
    std::string blob;
    ASSERT_NE(index.find(7, "key", disk.reader(), &blob), nullptr);
    EXPECT_EQ(blob, "new");
    EXPECT_EQ(index.size(), 2u);
}

/** Write a segment holding @p entries under this build's schema. */
void
writeSegment(const std::string &path,
             const std::vector<std::pair<std::string, SimStats>> &entries)
{
    std::ofstream f(path, std::ios::binary);
    uint8_t header[16];
    writeLe32(header, storeMagic);
    writeLe32(header + 4, storeVersion);
    writeLe64(header + 8, storeSchemaHash());
    f.write(reinterpret_cast<const char *>(header), sizeof(header));
    for (const auto &[key, stats] : entries) {
        const std::string blob = serializeSimStats(stats);
        uint8_t rec[16];
        writeLe32(rec, static_cast<uint32_t>(key.size()));
        writeLe32(rec + 4, static_cast<uint32_t>(blob.size()));
        writeLe64(rec + 8,
                  fnv1a64(blob.data(), blob.size(),
                          fnv1a64(key.data(), key.size())));
        f.write(reinterpret_cast<const char *>(rec), sizeof(rec));
        f.write(key.data(), static_cast<std::streamsize>(key.size()));
        f.write(blob.data(),
                static_cast<std::streamsize>(blob.size()));
    }
}

TEST(ResultStore, ReopenAfterTwoSessionsAndATornSegment)
{
    // Two sessions wrote the same key (each into its own segment),
    // and the later segment was torn mid-record. Reopening must
    // recover a subset of what was written, one index entry per key,
    // and serve every recovered key its own blob.
    const std::string dir = tempDir("mtv_store_reopen");
    const std::string shard = dir + "/shard-00";
    std::filesystem::create_directories(shard);
    std::vector<std::pair<std::string, SimStats>> first;
    std::vector<std::pair<std::string, SimStats>> second;
    std::map<std::string, std::string> written;
    for (int i = 0; i < 6; ++i) {
        SimStats stats = sampleStats();
        stats.cycles = 1000 + i;
        const std::string key = "key-" + std::to_string(i);
        first.emplace_back(key, stats);
        written[key] = serializeSimStats(stats);
    }
    // Session 2 rewrote key-2 and key-4 (identical runs) and added
    // two keys; its last record is torn.
    second.push_back(first[2]);
    second.push_back(first[4]);
    for (int i = 6; i < 8; ++i) {
        SimStats stats = sampleStats();
        stats.cycles = 1000 + i;
        const std::string key = "key-" + std::to_string(i);
        second.emplace_back(key, stats);
        written[key] = serializeSimStats(stats);
    }
    writeSegment(shard + "/seg-000000.mtvs", first);
    writeSegment(shard + "/seg-000001.mtvs", second);
    const std::string torn = shard + "/seg-000001.mtvs";
    std::filesystem::resize_file(torn,
                                 std::filesystem::file_size(torn) - 9);
    {
        ResultStore store(dir);
        EXPECT_EQ(store.stats().droppedRecords, 1u);
        EXPECT_EQ(store.stats().loadedRecords, 9u);
        // key-0..6: 7 distinct keys; key-7 was the torn record.
        EXPECT_EQ(store.size(), 7u);
        for (const auto &[key, blob] : written) {
            const StoredRecord record = store.loadRecord(key);
            if (!record.blob)
                continue;  // lost with the torn tail
            EXPECT_EQ(*record.blob, blob) << key;
            EXPECT_EQ(serializeSimStats(*record.stats), blob) << key;
        }
        EXPECT_EQ(store.load("key-7"), nullptr);
        // A duplicate store() of a recovered key appends nothing.
        store.store("key-4", first[4].second);
        EXPECT_EQ(store.stats().appends, 0u);
        store.store("key-7", second[3].second);
        EXPECT_EQ(store.stats().appends, 1u);
    }
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 8u);
        for (const auto &[key, blob] : written)
            EXPECT_EQ(*store.loadRecord(key).blob, blob) << key;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Engine warm start through the store
// ---------------------------------------------------------------------

/** The sweep both engine sessions run: group (with its truncated F_i
 *  reference terms), single and job-queue modes. */
std::vector<RunSpec>
warmStartSpecs()
{
    std::vector<RunSpec> specs;
    specs.push_back(RunSpec::group({"trfd", "swm256"},
                                   MachineParams::multithreaded(2),
                                   testScale));
    specs.push_back(RunSpec::single(
        "dyfesm", MachineParams::reference(), testScale));
    specs.push_back(RunSpec::jobQueue(
        {"trfd", "dyfesm"}, MachineParams::multithreaded(2),
        testScale));
    return specs;
}

TEST(StoreBackedEngine, WarmStartIsBitIdentical)
{
    const std::string dir = tempDir("mtv_store_warm");
    const std::vector<RunSpec> specs = warmStartSpecs();

    // Cold baseline without any store.
    std::vector<RunResult> cold;
    {
        ExperimentEngine plain;
        cold = plain.runAll(specs);
    }

    // Session 1: simulate and write through.
    {
        EngineOptions options;
        options.backend = std::make_shared<ResultStore>(dir);
        ExperimentEngine engine(options);
        const auto results = engine.runAll(specs);
        EXPECT_EQ(engine.storeHits(), 0u);
        for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_FALSE(results[i].fromStore);
            EXPECT_EQ(serializeSimStats(results[i].stats),
                      serializeSimStats(cold[i].stats));
        }
    }

    // Session 2 (fresh process state): everything — including the
    // truncated F_i reference runs of the group accounting — must be
    // served from disk, bit-identical.
    {
        auto store = std::make_shared<ResultStore>(dir);
        EngineOptions options;
        options.backend = store;
        ExperimentEngine engine(options);
        const auto warm = engine.runAll(specs);
        for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_TRUE(warm[i].fromStore)
                << specs[i].canonical();
            EXPECT_EQ(serializeSimStats(warm[i].stats),
                      serializeSimStats(cold[i].stats));
            EXPECT_EQ(warm[i].speedup, cold[i].speedup);
            EXPECT_EQ(warm[i].mthOccupation, cold[i].mthOccupation);
            EXPECT_EQ(warm[i].refVopc, cold[i].refVopc);
        }
        // No simulation happened: every backend miss would have
        // appended a fresh record.
        EXPECT_EQ(store->stats().appends, 0u);
        EXPECT_GT(engine.storeHits(), 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreBackedEngine, RecoveredStoreResimulatesOnlyTheLostTail)
{
    const std::string dir = tempDir("mtv_store_warmtrunc");
    const std::vector<RunSpec> specs = warmStartSpecs();
    {
        EngineOptions options;
        // One shard so the kill-torn tail lands in the one segment
        // onlySegment() finds.
        options.backend = std::make_shared<ResultStore>(dir, 1);
        ExperimentEngine engine(options);
        engine.runAll(specs);
    }
    // Kill-between-sweeps: the segment loses its mid-append tail.
    const std::string segment = onlySegment(dir);
    std::filesystem::resize_file(
        segment, std::filesystem::file_size(segment) - 11);
    {
        auto store = std::make_shared<ResultStore>(dir);
        const uint64_t recovered = store->stats().loadedRecords;
        EXPECT_GT(recovered, 0u);
        EXPECT_EQ(store->stats().droppedRecords, 1u);
        EngineOptions options;
        options.backend = store;
        ExperimentEngine engine(options);
        const auto warm = engine.runAll(specs);
        // Only the one lost record was re-simulated and re-appended.
        EXPECT_EQ(store->stats().appends, 1u);
        ExperimentEngine plain;
        const auto cold = plain.runAll(specs);
        for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(serializeSimStats(warm[i].stats),
                      serializeSimStats(cold[i].stats));
        }
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mtv
