#include "sim/byte_store.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__x86_64__)
#include <emmintrin.h>
#define RAID2_STREAM_STORES 1
#endif

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

/** @{ A store of a huge page or more is 2 MiB-aligned, and its whole
 *  2 MiB regions are advised onto huge pages (see the file comment). */
std::align_val_t
alignment(std::size_t bytes)
{
    return std::align_val_t{bytes >= ByteStore::hugePageBytes
                                ? ByteStore::hugePageBytes
                                : __STDCPP_DEFAULT_NEW_ALIGNMENT__};
}

std::uint8_t *
allocate(std::size_t bytes)
{
    auto *p = static_cast<std::uint8_t *>(
        ::operator new(allocBytes(bytes), alignment(bytes)));
#if defined(MADV_HUGEPAGE)
    // Only a hint: without transparent huge pages it fails, and the
    // store stays on base pages.
    constexpr std::size_t H = ByteStore::hugePageBytes;
    if (bytes >= H)
        (void)madvise(p, allocBytes(bytes) / H * H, MADV_HUGEPAGE);
#endif
    return p;
}

void
release(std::uint8_t *p, std::size_t bytes)
{
    ::operator delete(p, alignment(bytes));
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
            release(p, bytes);
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

#ifdef RAID2_STREAM_STORES
/** Copy one granule to a 16-byte aligned @p dst with streaming stores,
 *  which write whole lines without reading them into the cache first.
 *  The caller fences. */
void
streamGranule(std::uint8_t *dst, const std::uint8_t *src)
{
    for (std::size_t i = 0; i < G; i += 64) {
        const auto *s = reinterpret_cast<const __m128i *>(src + i);
        auto *d = reinterpret_cast<__m128i *>(dst + i);
        const __m128i a = _mm_loadu_si128(s);
        const __m128i b = _mm_loadu_si128(s + 1);
        const __m128i c = _mm_loadu_si128(s + 2);
        const __m128i e = _mm_loadu_si128(s + 3);
        _mm_stream_si128(d, a);
        _mm_stream_si128(d + 1, b);
        _mm_stream_si128(d + 2, c);
        _mm_stream_si128(d + 3, e);
    }
}
#endif

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
        buf = allocate(n);
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
ByteStore::claim(std::size_t off, std::size_t len)
{
    const std::size_t end = off + len;
    for (std::size_t g = off / G; g * G < end; ++g) {
        if (touched(g))
            continue;
        const std::size_t g0 = g * G;
        const std::size_t g1 = std::min(g0 + G, n);
        std::memset(buf + g0, 0, std::max(off, g0) - g0);
        const std::size_t stop = std::min(end, g1);
        std::memset(buf + stop, 0, g1 - stop);
        mark(g);
    }
}

void
ByteStore::write(std::size_t off, std::span<const std::uint8_t> in)
{
    if (in.empty())
        return;
    claim(off, in.size());
    std::uint8_t *dst = buf + off;
    const std::uint8_t *src = in.data();
    std::size_t len = in.size();
#ifdef RAID2_STREAM_STORES
    // Whole granules stream; a ragged head and tail are copied.
    const std::size_t head = std::min(len, (G - off % G) % G);
    if (len - head >= G &&
        reinterpret_cast<std::uintptr_t>(dst + head) % 16 == 0) {
        std::memcpy(dst, src, head);
        dst += head;
        src += head;
        len -= head;
        for (; len >= G; len -= G, dst += G, src += G)
            streamGranule(dst, src);
        _mm_sfence();
    }
#endif
    std::memcpy(dst, src, len);
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
