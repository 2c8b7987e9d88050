#include "src/store/result_store.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "src/common/endian.hh"
#include "src/common/logging.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/** Sanity bounds on record fields (a corrupt length must not drive a
 *  multi-GB allocation). Canonical spec keys are well under 64 KiB;
 *  blobs of job-queue runs are comfortably under 64 MiB. */
constexpr uint32_t maxKeyLen = 64u * 1024;
constexpr uint32_t maxBlobLen = 64u * 1024 * 1024;

constexpr size_t segmentHeaderBytes = 16;
constexpr size_t recordHeaderBytes = 16;

/** The key's 64-bit hash: its shard, its index slot, and the seed
 *  of its record checksum. */
uint64_t
keyHashOf(const std::string &key)
{
    return fnv1a64(key.data(), key.size());
}

/** Checksum of one record's key + blob, continued from the key's
 *  hash. */
uint64_t
recordChecksum(uint64_t keyHash, const std::string &blob)
{
    return fnv1a64(blob.data(), blob.size(), keyHash);
}

bool
isSegmentName(const std::string &name)
{
    return name.size() == std::strlen("seg-000000.mtvs") &&
           name.compare(0, 4, "seg-") == 0 &&
           name.compare(name.size() - 5, 5, ".mtvs") == 0;
}

bool
isShardDirName(const std::string &name)
{
    return name.size() == std::strlen("shard-00") &&
           name.compare(0, 6, "shard-") == 0 &&
           std::isdigit(static_cast<unsigned char>(name[6])) &&
           std::isdigit(static_cast<unsigned char>(name[7]));
}

std::string
shardDirName(int shard)
{
    char name[16];
    std::snprintf(name, sizeof(name), "shard-%02d", shard);
    return name;
}

/** Names in @p dir matching @p keep, sorted. */
std::vector<std::string>
listDir(const std::string &dir, bool (*keep)(const std::string &))
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        fatal("cannot read store directory '%s': %s", dir.c_str(),
              std::strerror(errno));
    while (const dirent *entry = ::readdir(d)) {
        if (keep(entry->d_name))
            names.push_back(entry->d_name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

ResultStore::ResultStore(const std::string &dir, int shards)
    : dir_(dir)
{
    if (shards < 0 || shards > maxStoreShards)
        fatal("store shard count must be 0..%d, got %d",
              maxStoreShards, shards);
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create store directory '%s': %s", dir_.c_str(),
              std::strerror(errno));

    const std::string lockPath = dir_ + "/LOCK";
    lockFd_ = ::open(lockPath.c_str(), O_CREAT | O_RDWR, 0644);
    if (lockFd_ < 0)
        fatal("cannot open store lock '%s': %s", lockPath.c_str(),
              std::strerror(errno));
    if (::flock(lockFd_, LOCK_EX | LOCK_NB) != 0)
        fatal("store '%s' is locked by another process", dir_.c_str());

    schemaHash_ = storeSchemaHash();

    // An existing store keeps the partition count it was created
    // with: records were routed by key % count, so reading under a
    // different count would lose them.
    const std::vector<std::string> existing =
        listDir(dir_, isShardDirName);
    int count = shards == 0 ? defaultStoreShards : shards;
    if (!existing.empty()) {
        count = static_cast<int>(existing.size());
        // The directories must be exactly shard-00..shard-(N-1): a
        // missing one (torn copy of the store) would silently
        // re-route every key and orphan that shard's records.
        for (int i = 0; i < count; ++i) {
            if (existing[i] != shardDirName(i)) {
                fatal("store '%s' is missing %s (found %s): torn "
                      "copy? refusing to re-route its keys",
                      dir_.c_str(), shardDirName(i).c_str(),
                      existing[i].c_str());
            }
        }
        if (shards != 0 && shards != count) {
            warn("store '%s' was created with %d shards; ignoring "
                 "the requested %d",
                 dir_.c_str(), count, shards);
        }
    }

    shards_.reserve(count);
    MetricsRegistry &reg = MetricsRegistry::instance();
    for (int i = 0; i < count; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->dir = dir_ + "/" + shardDirName(i);
        if (::mkdir(shard->dir.c_str(), 0755) != 0 && errno != EEXIST)
            fatal("cannot create store shard '%s': %s",
                  shard->dir.c_str(), std::strerror(errno));
        char label[48];
        std::snprintf(label, sizeof(label), "{shard=\"%d\"}", i);
        shard->obsAppends =
            reg.counter(std::string("store_appends_total") + label);
        shard->obsHits =
            reg.counter(std::string("store_hits_total") + label);
        shard->obsMisses =
            reg.counter(std::string("store_misses_total") + label);
        shards_.push_back(std::move(shard));
    }

    // Warm-load the shards in parallel: they are disjoint on disk and
    // in memory, so a loader thread per shard (capped by the hardware
    // thread count) needs no locking at all.
    const size_t loaders = std::min<size_t>(
        shards_.size(),
        std::max(1u, std::thread::hardware_concurrency()));
    if (loaders <= 1) {
        for (auto &shard : shards_)
            loadShard(*shard);
    } else {
        std::vector<std::thread> threads;
        std::atomic<size_t> next{0};
        threads.reserve(loaders);
        for (size_t t = 0; t < loaders; ++t) {
            threads.emplace_back([this, &next] {
                for (size_t i = next.fetch_add(1);
                     i < shards_.size(); i = next.fetch_add(1)) {
                    loadShard(*shards_[i]);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    }

    // The pre-shard layout kept its segments at the root. Their
    // records are never read: a store of that age was written under
    // an older schema hash, so it could only be rejected anyway.
    const size_t stray = listDir(dir_, isSegmentName).size();
    if (stray > 0) {
        warn("store: '%s' holds %zu root-level segment(s) of the "
             "pre-shard layout; ignoring them",
             dir_.c_str(), stray);
    }

    // Recovery observability: what the open scan found, per shard.
    for (size_t i = 0; i < shards_.size(); ++i) {
        char label[48];
        std::snprintf(label, sizeof(label), "{shard=\"%zu\"}", i);
        reg.counter(std::string("store_recovered_records_total")
                    + label)->inc(shards_[i]->loadedRecords);
        reg.counter(std::string("store_dropped_records_total")
                    + label)->inc(shards_[i]->droppedRecords);
    }
}

ResultStore::~ResultStore()
{
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        bool removeEmpty = false;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const int fd : shard.readFds) {
                if (fd >= 0)
                    ::close(fd);
            }
            if (shard.segment) {
                std::fclose(shard.segment);
                shard.segment = nullptr;
                removeEmpty = shard.appends == 0;
            }
        }
        // A session that stored nothing in this shard leaves no
        // header-only litter.
        if (removeEmpty)
            ::unlink(shard.segmentPath.c_str());
    }
    if (lockFd_ >= 0)
        ::close(lockFd_);
}

ResultStore::Shard &
ResultStore::shardFor(uint64_t keyHash)
{
    return *shards_[keyHash % shards_.size()];
}

ResultStore::SegmentVerdict
ResultStore::scanSegment(
    const std::string &path, uint64_t *dropped,
    const std::function<void(const std::string &, uint64_t,
                             const RecordLocation &)> &record) const
{
    // Verify every record's checksum once, here; the index keeps only
    // each record's hash and location.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        warn("store: cannot open segment '%s': %s — skipping",
             path.c_str(), std::strerror(errno));
        return SegmentVerdict::Bad;
    }

    uint8_t header[segmentHeaderBytes];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header) ||
        readLe32(header) != storeMagic ||
        readLe32(header + 4) != storeVersion) {
        warn("store: '%s' is not a v%u segment — skipping",
             path.c_str(), storeVersion);
        std::fclose(f);
        return SegmentVerdict::Bad;
    }
    if (readLe64(header + 8) != schemaHash_) {
        warn("store: '%s' was written under schema %016llx, this "
             "build is %016llx — rejecting its results",
             path.c_str(),
             static_cast<unsigned long long>(readLe64(header + 8)),
             static_cast<unsigned long long>(schemaHash_));
        std::fclose(f);
        return SegmentVerdict::Stale;
    }

    std::string key;
    std::string blob;
    for (;;) {
        uint8_t rec[recordHeaderBytes];
        const size_t got = std::fread(rec, 1, sizeof(rec), f);
        if (got == 0)
            break;  // clean end of segment
        if (got != sizeof(rec)) {
            warn("store: '%s' ends in a partial record header — "
                 "dropping the tail (crash recovery)",
                 path.c_str());
            ++*dropped;
            break;
        }
        const uint32_t keyLen = readLe32(rec);
        const uint32_t blobLen = readLe32(rec + 4);
        const uint64_t checksum = readLe64(rec + 8);
        if (keyLen == 0 || keyLen > maxKeyLen || blobLen > maxBlobLen) {
            warn("store: '%s' has a record with implausible lengths "
                 "(%u/%u) — dropping the tail",
                 path.c_str(), keyLen, blobLen);
            ++*dropped;
            break;
        }
        key.resize(keyLen);
        blob.resize(blobLen);
        if (std::fread(key.data(), 1, keyLen, f) != keyLen ||
            std::fread(blob.data(), 1, blobLen, f) != blobLen) {
            warn("store: '%s' ends in a truncated record — dropping "
                 "the tail (crash recovery)",
                 path.c_str());
            ++*dropped;
            break;
        }
        const uint64_t keyHash = keyHashOf(key);
        if (recordChecksum(keyHash, blob) != checksum) {
            warn("store: '%s' has a checksum-failing record — "
                 "dropping the tail",
                 path.c_str());
            ++*dropped;
            break;
        }
        const long end = std::ftell(f);
        if (end < 0)
            fatal("cannot tell position in '%s'", path.c_str());
        RecordLocation location;
        location.offset = static_cast<uint64_t>(end) - blobLen - keyLen;
        location.keyLength = keyLen;
        location.blobLength = blobLen;
        record(key, keyHash, location);
    }
    std::fclose(f);
    return SegmentVerdict::Scanned;
}

void
ResultStore::loadShard(Shard &shard)
{
    // Segments load in name (= creation) order, so a key written in
    // two sessions resolves to the latest copy (the values are
    // identical anyway — runs are deterministic).
    for (const auto &name : listDir(shard.dir, isSegmentName)) {
        const std::string path = shard.dir + "/" + name;
        ++shard.segments;
        // Listed before the scan, so a duplicate key within this
        // segment can be read back for verification.
        const auto segment =
            static_cast<uint32_t>(shard.segmentPaths.size());
        shard.segmentPaths.push_back(path);
        shard.readFds.push_back(-1);
        const SegmentVerdict verdict = scanSegment(
            path, &shard.droppedRecords,
            [&](const std::string &key, uint64_t keyHash,
                const RecordLocation &scanned) {
                RecordLocation location = scanned;
                location.segment = segment;
                // Later copies of a key override earlier ones.
                if (RecordLocation *existing =
                        findLocked(shard, keyHash, key)) {
                    *existing = location;
                } else {
                    shard.index.add(keyHash, location);
                }
                ++shard.loadedRecords;
            });
        if (verdict == SegmentVerdict::Scanned)
            continue;
        // Rejected wholesale at the header: no record was indexed.
        if (shard.readFds.back() >= 0)
            ::close(shard.readFds.back());
        shard.segmentPaths.pop_back();
        shard.readFds.pop_back();
        if (verdict == SegmentVerdict::Stale)
            ++shard.staleSegments;
        else
            ++shard.badSegments;
    }
    openSessionSegment(shard);
}

void
ResultStore::openSessionSegment(Shard &shard)
{
    // Fresh segment per session: recovery never rewrites old files,
    // and two sessions' appends cannot interleave.
    for (unsigned n = 0; ; ++n) {
        char name[32];
        std::snprintf(name, sizeof(name), "seg-%06u.mtvs", n);
        const std::string path = shard.dir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) == 0)
            continue;  // exists (possibly stale/corrupt); keep looking
        shard.segmentPath = path;
        break;
    }
    shard.segment = std::fopen(shard.segmentPath.c_str(), "wb");
    if (!shard.segment)
        fatal("cannot create store segment '%s': %s",
              shard.segmentPath.c_str(), std::strerror(errno));
    uint8_t header[segmentHeaderBytes];
    writeLe32(header, storeMagic);
    writeLe32(header + 4, storeVersion);
    writeLe64(header + 8, schemaHash_);
    if (std::fwrite(header, 1, sizeof(header), shard.segment) !=
        sizeof(header)) {
        fatal("short write on store segment header '%s'",
              shard.segmentPath.c_str());
    }
    std::fflush(shard.segment);
    shard.segmentPaths.push_back(shard.segmentPath);
    shard.readFds.push_back(-1);
}

void
ResultStore::appendLocked(Shard &shard, const std::string &key,
                          uint64_t keyHash, const std::string &blob)
{
    const long recordStart = std::ftell(shard.segment);
    if (recordStart < 0)
        fatal("cannot tell position in '%s'",
              shard.segmentPath.c_str());
    uint8_t rec[recordHeaderBytes];
    writeLe32(rec, static_cast<uint32_t>(key.size()));
    writeLe32(rec + 4, static_cast<uint32_t>(blob.size()));
    writeLe64(rec + 8, recordChecksum(keyHash, blob));
    if (std::fwrite(rec, 1, sizeof(rec), shard.segment) !=
            sizeof(rec) ||
        std::fwrite(key.data(), 1, key.size(), shard.segment) !=
            key.size() ||
        std::fwrite(blob.data(), 1, blob.size(), shard.segment) !=
            blob.size()) {
        fatal("short write on store segment '%s' (disk full?)",
              shard.segmentPath.c_str());
    }
    // Flushed before the append returns: the write-ahead guarantee,
    // and what makes the blob readable through the read handle.
    std::fflush(shard.segment);

    RecordLocation location;
    location.segment =
        static_cast<uint32_t>(shard.segmentPaths.size() - 1);
    location.offset =
        static_cast<uint64_t>(recordStart) + recordHeaderBytes;
    location.keyLength = static_cast<uint32_t>(key.size());
    location.blobLength = static_cast<uint32_t>(blob.size());
    shard.index.add(keyHash, location);
    ++shard.appends;
    shard.obsAppends->inc();
}

void
ResultStore::readRecord(Shard &shard, const RecordLocation &location,
                        std::string &key, std::string *blob)
{
    MTV_ASSERT(location.segment < shard.readFds.size());
    const std::string &path = shard.segmentPaths[location.segment];
    int &fd = shard.readFds[location.segment];
    if (fd < 0) {
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) {
            fatal("store segment '%s' disappeared: %s", path.c_str(),
                  std::strerror(errno));
        }
    }
    key.resize(location.keyLength);
    iovec parts[2] = {{key.data(), key.size()}, {nullptr, 0}};
    int count = 1;
    if (blob) {
        blob->resize(location.blobLength);
        parts[1] = {blob->data(), blob->size()};
        count = 2;
    }
    const size_t want = key.size() + (blob ? blob->size() : 0);
    const ssize_t got = ::preadv(fd, parts, count,
                                 static_cast<off_t>(location.offset));
    if (got < 0 || static_cast<size_t>(got) != want) {
        fatal("store segment '%s' shrank underneath us (offset %llu)",
              path.c_str(),
              static_cast<unsigned long long>(location.offset));
    }
}

RecordLocation *
ResultStore::findLocked(Shard &shard, uint64_t keyHash,
                        const std::string &key, std::string *blob)
{
    return shard.index.find(
        keyHash, key,
        [this, &shard](const RecordLocation &location,
                       std::string &stored, std::string *bytes) {
            readRecord(shard, location, stored, bytes);
        },
        blob);
}

std::shared_ptr<const SimStats>
ResultStore::load(const std::string &key)
{
    return loadRecord(key).stats;
}

StoredRecord
ResultStore::loadRecord(const std::string &key)
{
    const uint64_t keyHash = keyHashOf(key);
    Shard &shard = shardFor(keyHash);
    // The segment stores the record's blob as the verbatim
    // serializeSimStats() output, so these disk bytes double as the
    // canonical wire/digest encoding — hand them out unmodified.
    auto blob = std::make_shared<std::string>();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!findLocked(shard, keyHash, key, blob.get())) {
        ++shard.misses;
        shard.obsMisses->inc();
        return {nullptr, nullptr};
    }
    ++shard.hits;
    shard.obsHits->inc();
    StoredRecord record;
    record.stats = std::make_shared<const SimStats>(
        deserializeSimStats(*blob));
    record.blob = std::move(blob);
    return record;
}

void
ResultStore::store(const std::string &key, const SimStats &stats)
{
    if (key.empty() || key.size() > maxKeyLen)
        panic("store key has invalid length %zu", key.size());
    // Serialize outside the shard lock: appends to different shards
    // only ever contend on the filesystem, not on each other.
    const std::string blob = serializeSimStats(stats);

    const uint64_t keyHash = keyHashOf(key);
    Shard &shard = shardFor(keyHash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (findLocked(shard, keyHash, key))
        return;  // deterministic runs: the existing copy is identical
    appendLocked(shard, key, keyHash, blob);
}

size_t
ResultStore::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->index.size();
    }
    return total;
}

ResultStore::Stats
ResultStore::stats() const
{
    Stats total;
    total.shards = shards_.size();
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.segments += shard->segments;
        total.staleSegments += shard->staleSegments;
        total.badSegments += shard->badSegments;
        total.loadedRecords += shard->loadedRecords;
        total.droppedRecords += shard->droppedRecords;
        total.appends += shard->appends;
        total.hits += shard->hits;
        total.misses += shard->misses;
    }
    return total;
}

std::vector<ResultStore::ShardStats>
ResultStore::shardStats() const
{
    std::vector<ShardStats> out;
    out.reserve(shards_.size());
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        ShardStats s;
        s.appends = shard->appends;
        s.hits = shard->hits;
        s.misses = shard->misses;
        s.loadedRecords = shard->loadedRecords;
        s.droppedRecords = shard->droppedRecords;
        s.records = shard->index.size();
        out.push_back(s);
    }
    return out;
}

} // namespace mtv
