#include "src/fleet/ring.hh"

#include <algorithm>

#include "src/common/endian.hh"
#include "src/common/logging.hh"
#include "src/common/strutil.hh"

namespace mtv
{

namespace
{

/**
 * Ring positions need every bit of the 64-bit space well mixed, and
 * raw FNV-1a is not enough: strings differing only in their suffix
 * ("name#0" vs "name#63", "...latency=20" vs "...latency=21") get
 * one trailing multiply by the ~2^40 prime, so their top ~24 bits
 * barely move and a node's vnodes cluster into one arc — one node
 * ends up owning nearly every key. A finalizer (the murmur3 fmix64
 * avalanche) on top restores the spread while keeping the position a
 * pure deterministic function of the string.
 *
 * The FNV-1a step takes eight bytes at a time (read little-endian,
 * so every host places a key alike): every node hashes the key of
 * every point of a sweep to find its share, and a canonical key is
 * ~730 bytes, so a byte-wise loop cost about as much as building the
 * key itself.
 */
uint64_t
ringPosition(const std::string &text)
{
    constexpr uint64_t prime = 0x100000001b3ull;
    const auto *bytes = reinterpret_cast<const uint8_t *>(text.data());
    const size_t size = text.size();
    uint64_t h = 0xcbf29ce484222325ull;
    size_t i = 0;
    for (; i + 8 <= size; i += 8)
        h = (h ^ readLe64(bytes + i)) * prime;
    for (; i < size; ++i)
        h = (h ^ bytes[i]) * prime;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

} // namespace

HashRing::HashRing(std::vector<std::string> nodes, int vnodesPerNode)
    : nodes_(std::move(nodes)), vnodesPerNode_(vnodesPerNode)
{
    if (nodes_.empty())
        fatal("hash ring needs at least one node");
    if (vnodesPerNode < 1)
        fatal("hash ring needs at least one vnode per node, got %d",
              vnodesPerNode);
    live_.assign(nodes_.size(), true);
    liveCount_ = nodes_.size();
    ring_.reserve(nodes_.size() * static_cast<size_t>(vnodesPerNode));
    for (size_t i = 0; i < nodes_.size(); ++i) {
        for (int v = 0; v < vnodesPerNode; ++v) {
            const std::string point =
                format("%s#%d", nodes_[i].c_str(), v);
            ring_.emplace_back(ringPosition(point),
                               static_cast<uint32_t>(i));
        }
    }
    // Ties between identical hash points (possible only for duplicate
    // node names) break by node index, keeping the ring deterministic.
    std::sort(ring_.begin(), ring_.end());
}

size_t
HashRing::nodeFor(const std::string &key) const
{
    if (ring_.empty())
        fatal("hash ring has no live nodes left");
    const uint64_t h = ringPosition(key);
    // First point clockwise from h, wrapping past the top.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(h, static_cast<uint32_t>(0)));
    if (it == ring_.end())
        it = ring_.begin();
    return it->second;
}

void
HashRing::removeNode(size_t index)
{
    if (!live_.at(index))
        return;
    live_[index] = false;
    --liveCount_;
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [index](const auto &point) {
                                   return point.second == index;
                               }),
                ring_.end());
}

void
HashRing::restoreNode(size_t index)
{
    if (live_.at(index))
        return;
    live_[index] = true;
    ++liveCount_;
    // The point positions are a pure function of name and vnode, so
    // re-insertion reproduces exactly the points removeNode() erased.
    for (int v = 0; v < vnodesPerNode_; ++v) {
        const std::string point =
            format("%s#%d", nodes_[index].c_str(), v);
        ring_.emplace_back(ringPosition(point),
                           static_cast<uint32_t>(index));
    }
    std::sort(ring_.begin(), ring_.end());
}

} // namespace mtv
