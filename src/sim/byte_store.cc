#include "sim/byte_store.hh"

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

/** Buffers of destroyed stores, kept for the next store of their size
 *  on this thread.  Each is poisoned while it sits here. */
struct Pool
{
    std::size_t bytes = 0; ///< size of every pooled buffer
    std::vector<std::uint8_t *> buffers;

    ~Pool() { clear(); }

    void
    clear()
    {
        for (std::uint8_t *p : buffers) {
            ASAN_UNPOISON_MEMORY_REGION(p, bytes);
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
    if (n == 0)
        return;
    Pool &p = pool();
    if (p.bytes == n && !p.buffers.empty()) {
        buf = p.buffers.back();
        p.buffers.pop_back();
        ASAN_UNPOISON_MEMORY_REGION(buf, n);
    } else {
        p.clear();
        buf = new std::uint8_t[n];
    }
    std::memset(buf, 0, n);
}

ByteStore::ByteStore(ByteStore &&other) noexcept
    : buf(other.buf), n(other.n)
{
    other.buf = nullptr;
    other.n = 0;
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
    ASAN_POISON_MEMORY_REGION(buf, n);
    p.buffers.push_back(buf);
}

} // namespace raid2::sim
