/**
 * @file
 * ResultStore: the disk-backed, versioned ResultBackend that makes
 * experiment results persistent across processes — the moral
 * equivalent of the paper's amortization of Dixie traces across
 * experiments, applied to finished simulations.
 *
 * Layout: a store is a directory of hash-partitioned *shards*
 * (`shard-SS/`), each holding append-only segment files
 * (`seg-NNNNNN.mtvs`). A record lives in the shard selected by
 * `fnv1a64(key) % shards`, so every shard owns a disjoint slice of
 * the key space and the shards never coordinate: each has its own
 * mutex, its own index, and its own session segment. Concurrent
 * engine workers appending different keys contend only when their
 * keys land on the same shard, which removed the single append lock
 * as the daemon's multi-worker bottleneck.
 *
 * Every segment starts with a 16-byte header (magic, format version,
 * schema hash) followed by checksummed records, each mapping a
 * RunSpec::canonical() key to a serializeSimStats() blob:
 *
 *   u32 keyLen | u32 blobLen | u64 fnv1a64(key+blob) | key | blob
 *
 * Crash safety is write-ahead-append per shard: a record is flushed
 * before store() returns, a crash mid-record leaves a short or
 * checksum-failing tail in at most one segment per shard, and opening
 * the store skips such tails (warning and counting them) while
 * keeping every intact record. Each process session appends to a
 * fresh segment per shard, so recovery never rewrites existing data.
 * Segments whose schema hash differs from this build's
 * storeSchemaHash() are rejected wholesale — their results were
 * produced under a different machine-parameter vocabulary or workload
 * registry and must not be served.
 *
 * Opening warm-loads all shards in parallel (one thread per shard, up
 * to the hardware thread count). Segments left at the directory root
 * by the pre-shard layout are not read: opening warns about them once.
 *
 * Memory: only an index is resident, and it holds no key bytes. Each
 * shard maps the key's 64-bit FNV hash — the one its routing and its
 * record checksum already compute — to the record's location
 * (segment, offset, key and blob lengths). A lookup walks the chain
 * of equal hashes and compares every candidate's key bytes on disk,
 * so colliding keys never alias; a hit reads key and blob with one
 * positioned read and decodes the blob on demand. A cache-capped
 * daemon's footprint therefore stays bounded by ~50 bytes per record,
 * not by keys or result payloads (records were checksum-verified
 * when the index was built).
 *
 * A store directory has a single writer at a time, enforced with
 * flock() on `<dir>/LOCK`; all methods are thread-safe within that
 * process (engine workers write through concurrently).
 */

#ifndef MTV_STORE_RESULT_STORE_HH
#define MTV_STORE_RESULT_STORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/api/backend.hh"
#include "src/obs/metrics.hh"

namespace mtv
{

/** Magic bytes at the start of a store segment ("MTVS" LE). */
constexpr uint32_t storeMagic = 0x5356544d;
/** Current segment format version (record layout; sharding is a
 *  directory-layout property, not a record-format change). */
constexpr uint32_t storeVersion = 1;
/** Shard count of a freshly created store. */
constexpr int defaultStoreShards = 8;
/** Upper bound on configurable shard counts. */
constexpr int maxStoreShards = 64;

/** Where one record lives in its shard's segments. */
struct RecordLocation
{
    uint64_t offset = 0;      ///< byte offset of the key; the blob follows
    uint32_t segment = 0;     ///< index into the shard's segment list
    uint32_t keyLength = 0;   ///< key bytes
    uint32_t blobLength = 0;  ///< blob bytes
};

/**
 * One shard's index: key hash -> record locations, with no key bytes
 * in memory. Every lookup verifies the candidate's key bytes through
 * a reader, so equal hashes chain and a key never returns another
 * key's record.
 *
 * A reader is called as read(location, key, blob): it fills @p key
 * with the location's key bytes and, when @p blob is not null, the
 * blob bytes too — in one positioned read. The store reads from its
 * segment files; tests drive the chain walk with an in-memory reader
 * and forced-equal hashes.
 */
class StoreIndex
{
  public:
    /**
     * The location of @p key (whose hash is @p hash), or null when
     * absent. With @p blob, the match's blob bytes are read into it
     * by the same reader call that verifies the key.
     */
    template <typename Reader>
    RecordLocation *
    find(uint64_t hash, const std::string &key, Reader &&read,
         std::string *blob = nullptr)
    {
        auto [it, end] = map_.equal_range(hash);
        std::string stored;
        for (; it != end; ++it) {
            RecordLocation &location = it->second;
            if (location.keyLength != key.size())
                continue;
            read(static_cast<const RecordLocation &>(location), stored,
                 blob);
            if (stored == key)
                return &location;
        }
        return nullptr;
    }

    /** Add a record whose key the caller knows is absent. */
    void
    add(uint64_t hash, const RecordLocation &location)
    {
        map_.emplace(hash, location);
    }

    /** Records indexed. */
    size_t size() const { return map_.size(); }

  private:
    std::unordered_multimap<uint64_t, RecordLocation> map_;
};

/** Disk-backed persistent result store (see file comment). */
class ResultStore : public ResultBackend
{
  public:
    /** Load/recovery counters, fixed at open; session counters. */
    struct Stats
    {
        size_t shards = 0;         ///< hash partitions of the store
        size_t segments = 0;       ///< segment files seen at open
        size_t staleSegments = 0;  ///< rejected: schema-hash mismatch
        size_t badSegments = 0;    ///< rejected: bad magic/version
        uint64_t loadedRecords = 0;///< intact records read at open
        uint64_t droppedRecords = 0;///< corrupt/truncated tails skipped
        uint64_t appends = 0;      ///< records appended this session
        uint64_t hits = 0;         ///< load() calls served
        uint64_t misses = 0;       ///< load() calls not present
    };

    /**
     * Open (creating if needed) the store at @p dir, take the writer
     * lock, warm-load every shard in parallel, and start a fresh
     * segment per shard for this session's appends. @p shards picks the partition count
     * of a *new* store (0 = defaultStoreShards); an existing store
     * keeps the count it was created with (with a warning when a
     * different count was requested). fatal()s when the directory is
     * unusable or another process holds the writer lock.
     */
    explicit ResultStore(const std::string &dir, int shards = 0);
    ~ResultStore() override;

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    std::shared_ptr<const SimStats>
    load(const std::string &key) override;

    /**
     * load() plus the record's canonical blob bytes — the zero-copy
     * path of the binary result wire: the segment stores the exact
     * serializeSimStats() output, so the bytes read off disk ARE the
     * canonical encoding and stream/digest without re-encoding.
     */
    StoredRecord loadRecord(const std::string &key) override;

    void store(const std::string &key, const SimStats &stats) override;

    size_t size() const override;

    /** Counter snapshot, aggregated over the shards. */
    Stats stats() const;

    /** One shard's session/recovery counters (for `status`). */
    struct ShardStats
    {
        uint64_t appends = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t loadedRecords = 0;
        uint64_t droppedRecords = 0;
        size_t records = 0;  ///< live index entries right now
    };

    /** Per-shard counter snapshot, index i = shard i. */
    std::vector<ShardStats> shardStats() const;

    /** The store directory. */
    const std::string &directory() const { return dir_; }

    /** Hash partitions this store is split into. */
    int shardCount() const { return static_cast<int>(shards_.size()); }

  private:
    /**
     * One hash partition: its own lock, index, read handles and
     * session segment. Counters are per-shard and summed by stats().
     */
    struct Shard
    {
        std::mutex mutex;
        std::string dir;
        std::FILE *segment = nullptr;  ///< session segment (append)
        std::string segmentPath;
        /** Scanned segments in load order; the session one is last. */
        std::vector<std::string> segmentPaths;
        /** Lazily opened read descriptors (-1 = not yet), parallel
         *  to segmentPaths. */
        std::vector<int> readFds;
        StoreIndex index;
        size_t segments = 0;
        size_t staleSegments = 0;
        size_t badSegments = 0;
        uint64_t loadedRecords = 0;
        uint64_t droppedRecords = 0;
        uint64_t appends = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        // Process-wide observability handles, labelled by shard index
        // (src/obs/metrics.hh); shared when several stores coexist.
        Counter *obsAppends = nullptr;
        Counter *obsHits = nullptr;
        Counter *obsMisses = nullptr;
    };

    /** How one segment scan ended. */
    enum class SegmentVerdict
    {
        Scanned,  ///< header ok; intact records were delivered
        Stale,    ///< rejected wholesale: schema-hash mismatch
        Bad       ///< rejected wholesale: bad magic/version/unreadable
    };

    Shard &shardFor(uint64_t keyHash);

    /**
     * Scan @p path, invoking @p record for every intact record with
     * its key, the key's hash and its location (segment left 0).
     * Truncated/corrupt tails bump @p dropped and stop the scan.
     */
    SegmentVerdict scanSegment(
        const std::string &path, uint64_t *dropped,
        const std::function<void(const std::string &key,
                                 uint64_t keyHash,
                                 const RecordLocation &location)>
            &record) const;

    /** Load every segment of @p shard and open its session segment. */
    void loadShard(Shard &shard);

    void openSessionSegment(Shard &shard);

    /** Append one pre-serialized record. Caller holds shard.mutex. */
    void appendLocked(Shard &shard, const std::string &key,
                      uint64_t keyHash, const std::string &blob);

    /** Read @p location's key (and blob, when given) with one
     *  positioned read: the StoreIndex reader. Caller holds
     *  shard.mutex; fatal()s when the segment shrank or vanished. */
    void readRecord(Shard &shard, const RecordLocation &location,
                    std::string &key, std::string *blob);

    /** StoreIndex::find over @p shard's segments. Caller holds
     *  shard.mutex. */
    RecordLocation *findLocked(Shard &shard, uint64_t keyHash,
                               const std::string &key,
                               std::string *blob = nullptr);

    std::string dir_;
    int lockFd_ = -1;
    uint64_t schemaHash_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace mtv

#endif // MTV_STORE_RESULT_STORE_HH
