/**
 * @file
 * Byte-budgeted LRU cache.
 *
 * §3.2: "The host memory cache contains metadata as well as files that
 * have been read into workstation memory for transfer over the
 * Ethernet.  The cache is managed with a simple Least Recently Used
 * replacement policy."  This is that cache: keys are opaque 64-bit
 * identifiers (e.g. (ino, block)), each entry carries a byte size,
 * and insertion evicts from the cold end until the budget fits.
 */

#ifndef RAID2_HOST_LRU_CACHE_HH
#define RAID2_HOST_LRU_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>

namespace raid2::host {

/** LRU cache with a byte capacity. */
class LruCache
{
  public:
    explicit LruCache(std::uint64_t capacity_bytes);

    /** True (and refreshed) if @p key is resident. */
    bool lookup(std::uint64_t key);

    /** Insert/refresh @p key at @p bytes, evicting as needed. */
    void insert(std::uint64_t key, std::uint64_t bytes);

    /** Drop @p key if present. */
    void invalidate(std::uint64_t key);

    void clear();

    std::uint64_t capacity() const { return _capacity; }
    std::uint64_t bytesUsed() const { return used; }
    std::size_t entries() const { return map.size(); }

    /** @{ Statistics. */
    std::uint64_t hits() const { return _hits; }
    std::uint64_t evictions() const { return _evictions; }
    double
    hitRate() const
    {
        const std::uint64_t total = _hits + _misses;
        return total ? static_cast<double>(_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** @} */

  private:
    struct Entry
    {
        std::uint64_t key;
        std::uint64_t bytes;
    };

    void evictTo(std::uint64_t target);

    std::uint64_t _capacity;
    std::uint64_t used = 0;
    std::list<Entry> lru; // front = hottest
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;

    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace raid2::host

#endif // RAID2_HOST_LRU_CACHE_HH
