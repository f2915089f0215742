#include "sim/byte_store.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace raid2::sim {

namespace {

constexpr std::size_t G = ByteStore::granuleBytes;

/** @{ One allocation holds a store's bytes, then its granule map. */
std::size_t
mapBytes(std::size_t bytes)
{
    return ((bytes + G - 1) / G + 7) / 8;
}

std::size_t
allocBytes(std::size_t bytes)
{
    return bytes + mapBytes(bytes);
}
/** @} */

/** Buffers of destroyed stores, kept for the next store of their size
 *  on this thread.  Each is poisoned while it sits here. */
struct Pool
{
    std::size_t bytes = 0; ///< size of every pooled store
    std::vector<std::uint8_t *> buffers;

    ~Pool() { clear(); }

    void
    clear()
    {
        for (std::uint8_t *p : buffers) {
            ASAN_UNPOISON_MEMORY_REGION(p, allocBytes(bytes));
            delete[] p;
        }
        buffers.clear();
    }
};

Pool &
pool()
{
    thread_local Pool p;
    return p;
}

} // namespace

ByteStore::ByteStore(std::size_t bytes) : n(bytes)
{
    if (n == 0) {
        whole = true;
        return;
    }
    Pool &p = pool();
    if (p.bytes == n && !p.buffers.empty()) {
        // First in, first out (see the file comment).
        buf = p.buffers.front();
        p.buffers.erase(p.buffers.begin());
        ASAN_UNPOISON_MEMORY_REGION(buf, allocBytes(n));
    } else {
        p.clear();
        buf = new std::uint8_t[allocBytes(n)];
    }
    map = buf + n;
    std::memset(map, 0, mapBytes(n));
}

ByteStore::ByteStore(ByteStore &&other) noexcept
    : buf(other.buf), n(other.n), map(other.map), whole(other.whole)
{
    other.buf = nullptr;
    other.n = 0;
    other.map = nullptr;
    other.whole = true;
}

ByteStore::~ByteStore()
{
    if (!buf)
        return;
    Pool &p = pool();
    if (p.bytes != n) {
        p.clear();
        p.bytes = n;
    }
    ASAN_POISON_MEMORY_REGION(buf, allocBytes(n));
    p.buffers.push_back(buf);
}

void
ByteStore::touch(std::size_t g) const
{
    if (touched(g))
        return;
    const std::size_t g0 = g * G;
    std::memset(buf + g0, 0, std::min(G, n - g0));
    mark(g);
}

void
ByteStore::touchRange(std::size_t off, std::size_t len) const
{
    for (std::size_t g = off / G; g * G < off + len; ++g)
        touch(g);
}

void
ByteStore::touchAll() const
{
    for (std::size_t g = 0; g * G < n; ++g)
        touch(g);
    whole = true;
}

void
ByteStore::read(std::size_t off, std::span<std::uint8_t> out) const
{
    std::uint8_t *dst = out.data();
    const std::size_t end = off + out.size();
    for (std::size_t pos = off; pos < end;) {
        const std::size_t g = pos / G;
        const std::size_t stop = std::min(end, (g + 1) * G);
        if (touched(g))
            std::memcpy(dst, buf + pos, stop - pos);
        else
            std::memset(dst, 0, stop - pos);
        dst += stop - pos;
        pos = stop;
    }
}

void
ByteStore::write(std::size_t off, std::span<const std::uint8_t> in)
{
    const std::uint8_t *src = in.data();
    const std::size_t end = off + in.size();
    for (std::size_t pos = off; pos < end;) {
        const std::size_t g = pos / G;
        const std::size_t g0 = g * G;
        const std::size_t g1 = std::min(g0 + G, n);
        const std::size_t stop = std::min(end, g1);
        if (!touched(g)) {
            // Zero what this write leaves of the granule, then mark it.
            std::memset(buf + g0, 0, pos - g0);
            std::memset(buf + stop, 0, g1 - stop);
            mark(g);
        }
        std::memcpy(buf + pos, src, stop - pos);
        src += stop - pos;
        pos = stop;
    }
}

bool
ByteStore::untouched(std::size_t off, std::size_t len) const
{
    for (std::size_t g = off / G; g * G < off + len; ++g)
        if (touched(g))
            return false;
    return true;
}

void
ByteStore::forget()
{
    if (n == 0)
        return;
    std::memset(map, 0, mapBytes(n));
    whole = false;
}

} // namespace raid2::sim
