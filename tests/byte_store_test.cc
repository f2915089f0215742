/**
 * @file
 * sim::ByteStore recycling and first-touch zeroing: a recycled store
 * reads all zeros through read(), partial writes, span() and a ragged
 * MemBlockDevice, whole-granule (streamed) and ragged writes read back
 * exactly, overwriteSpan() zeroes only what its range leaves, parity
 * folded onto dirty recycled buffers is the XOR of the data, a second
 * store of one size allocates nothing, another size empties the pool,
 * pools are per thread, a world built on
 * recycled stores simulates exactly as on fresh ones, an integrity
 * twin's scrub touches no granule and its fault injection only the
 * granules it changes and the parity of written stripes, a store of
 * 2 MiB or more is 2 MiB-aligned with the huge-page hint on its whole
 * 2 MiB regions, and under AddressSanitizer a pooled buffer is
 * poisoned.
 *
 * Global operator new/delete, the aligned forms a store of 2 MiB or
 * more comes from included, are replaced with counting versions, as in
 * event_alloc_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "disk/disk_profile.hh"
#include "fault/fault_controller.hh"
#include "fault/scrubber.hh"
#include "fs/mem_block_device.hh"
#include "integrity/verifying_device.hh"
#include "raid/parity.hh"
#include "raid/raid_array.hh"
#include "raid/sim_array.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/byte_store.hh"
#include "sim/event_queue.hh"
#include "workload/client_fleet.hh"

#if defined(__SANITIZE_ADDRESS__)
#define RAID2_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RAID2_TEST_ASAN 1
#endif
#endif
#ifdef RAID2_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
/** Allocations of one store of g_watchBytes bytes: its bytes plus its
 *  granule map, which is far under 4 KB. */
std::atomic<std::size_t> g_watchBytes{0};
std::atomic<std::uint64_t> g_watchHits{0};

/** @p align 0 is malloc's own alignment. */
void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    ++g_allocs;
    const std::size_t w = g_watchBytes.load();
    if (w > 0 && n >= w && n - w < 4096)
        ++g_watchHits;
    void *p = align == 0 ? std::malloc(n)
                         : std::aligned_alloc(align, (n + align - 1) /
                                                         align * align);
    if (p)
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

// The nothrow forms too (std::stable_sort's buffer), so that every
// allocation the replaced operator delete frees came from malloc.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

// The aligned forms too: a store's buffer comes from them.
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, static_cast<std::size_t>(a));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, static_cast<std::size_t>(a));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    ++g_frees;
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    ++g_frees;
    std::free(p);
}

namespace {

using namespace raid2;
using server::Raid2Server;
using server::RequestScheduler;
using workload::ClientFleet;

bool
allZero(std::span<const std::uint8_t> s)
{
    return std::all_of(s.begin(), s.end(),
                       [](std::uint8_t b) { return b == 0; });
}

TEST(ByteStore, SecondStoreOfOneSizeAllocatesNothing)
{
    constexpr std::size_t a = 3 << 20, b = 5 << 20;
    { sim::ByteStore warm(a); }

    std::uint64_t before = g_allocs.load();
    {
        sim::ByteStore s(a);
        EXPECT_EQ(g_allocs.load() - before, 0u)
            << "a same-size store allocated";
        EXPECT_TRUE(allZero(s.span(0, a)));
    }

    // Another size empties the pool before it allocates; the first
    // size then allocates again.
    before = g_allocs.load();
    const std::uint64_t freed = g_frees.load();
    {
        sim::ByteStore other(b);
        EXPECT_EQ(g_allocs.load() - before, 1u);
        EXPECT_EQ(g_frees.load() - freed, 1u)
            << "the pooled store outlived a request of another size";
    }
    before = g_allocs.load();
    {
        sim::ByteStore s(a);
        EXPECT_EQ(g_allocs.load() - before, 1u)
            << "the pool kept a store of another size";
    }
}

/** The VmFlags line of the mapping that holds @p p, from
 *  /proc/self/smaps, or "" where there is none. */
std::string
vmFlags(const void *p)
{
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    std::ifstream smaps("/proc/self/smaps");
    bool in = false;
    for (std::string line; std::getline(smaps, line);) {
        unsigned long lo = 0, hi = 0;
        if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2)
            in = lo <= a && a < hi;
        else if (in && line.rfind("VmFlags:", 0) == 0)
            return line;
    }
    return "";
}

TEST(ByteStore, StoresOfAHugePageOrMoreAreHugePageAligned)
{
    constexpr std::size_t H = sim::ByteStore::hugePageBytes;
    // Where the kernel has transparent huge pages, the whole 2 MiB
    // regions carry the hint ("hg") and the tail after them does not.
    const bool thp = static_cast<bool>(
        std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled"));
    for (const std::size_t n : {H, 5 * H + 3}) {
        { sim::ByteStore other(4096); } // empties the pool
        sim::ByteStore s(n);
        const std::uint8_t *p = s.overwriteSpan(0, 1).data();
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % H, 0u) << n;
        if (thp) {
            EXPECT_NE(vmFlags(p).find(" hg"), std::string::npos) << n;
            EXPECT_NE(vmFlags(p + n / H * H - 1).find(" hg"),
                      std::string::npos)
                << n;
            EXPECT_EQ(vmFlags(p + n / H * H).find(" hg"),
                      std::string::npos)
                << n;
        }
    }
}

TEST(ByteStore, FreedStoreIsNeverHandedToAnotherThread)
{
    constexpr std::size_t n = 7 << 20;
    std::promise<const std::uint8_t *> pooled;
    std::future<const std::uint8_t *> theirsF = pooled.get_future();
    std::promise<void> done;
    std::future<void> released = done.get_future();
    std::thread worker([&] {
        const std::uint8_t *p = nullptr;
        {
            sim::ByteStore s(n);
            p = s.span(0, n).data();
        }
        // The buffer now sits in this thread's pool; keep the thread
        // (and its pool) alive while the main thread asks for one.
        pooled.set_value(p);
        released.wait();
    });
    const std::uint8_t *theirs = theirsF.get();

    const std::uint64_t before = g_allocs.load();
    {
        sim::ByteStore mine(n);
        EXPECT_EQ(g_allocs.load() - before, 1u);
        EXPECT_NE(mine.span(0, n).data(), theirs);
    }
    done.set_value();
    worker.join();
}

TEST(ByteStore, RecycledMemBlockDeviceReadsAllZeros)
{
    constexpr std::uint32_t bs = 4096;
    constexpr std::uint64_t blocks = 256;
    const std::uint8_t *first = nullptr;
    {
        fs::MemBlockDevice dev(bs, blocks);
        std::vector<std::uint8_t> ones(bs, 0xff);
        for (std::uint64_t b = 0; b < blocks; ++b)
            dev.writeRange(b, 1, ones);
        first = dev.raw(0).data();
    }
    fs::MemBlockDevice dev(bs, blocks);
    ASSERT_EQ(dev.raw(0).data(), first) << "the store was not recycled";
    std::vector<std::uint8_t> all(bs * blocks, 0xaa);
    dev.readRange(0, blocks, all);
    EXPECT_TRUE(allZero(all));
}

constexpr std::size_t G = sim::ByteStore::granuleBytes;

/** Index of the first byte where @p a and @p b differ, or a.size(). */
std::size_t
firstMismatch(std::span<const std::uint8_t> a,
              std::span<const std::uint8_t> b)
{
    return std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
           a.begin();
}

/** Leave a store of @p n bytes, 0xff everywhere, in this thread's pool,
 *  so that the next store of that size adopts dirty bytes. */
void
poolDirtyStore(std::size_t n)
{
    sim::ByteStore s(n);
    std::ranges::fill(s.span(0, n), 0xff);
}

TEST(ByteStore, RecycledStoreReadsZerosThroughRead)
{
    constexpr std::size_t n = 4 * G + 1000; // a partial last granule

    // A store of another size empties the pool, so the next store is
    // allocated fresh, and the fleet test's watch must see it.
    { sim::ByteStore other(G); }
    g_watchBytes = n;
    const std::uint64_t hits = g_watchHits.load();
    poolDirtyStore(n);
    EXPECT_EQ(g_watchHits.load() - hits, 1u)
        << "the watch does not see a store's allocation";
    g_watchBytes = 0;

    const std::uint64_t before = g_allocs.load();
    sim::ByteStore s(n);
    ASSERT_EQ(g_allocs.load() - before, 0u) << "the store was not recycled";

    std::vector<std::uint8_t> all(n, 0xaa);
    s.read(0, all);
    EXPECT_TRUE(allZero(all));
    for (const std::size_t off : {G - 3, 2 * G + 17, 4 * G + 1}) {
        std::vector<std::uint8_t> part(300, 0xaa);
        s.read(off, part);
        EXPECT_TRUE(allZero(part)) << "at " << off;
    }
}

TEST(ByteStore, PartialWriteLeavesTheRestOfItsGranuleZero)
{
    constexpr std::size_t n = 3 * G;
    poolDirtyStore(n);
    sim::ByteStore s(n);

    const std::size_t off = G + G / 2; // the middle of granule 1
    const std::vector<std::uint8_t> in(512, 0x5c);
    s.write(off, in);
    std::vector<std::uint8_t> want(n, 0);
    std::copy(in.begin(), in.end(), want.begin() + off);

    std::vector<std::uint8_t> got(n, 0xaa);
    s.read(0, got);
    EXPECT_EQ(firstMismatch(got, want), n) << "through read()";
    // In place, which zeroes the untouched neighbours.
    EXPECT_EQ(firstMismatch(s.span(0, n), want), n) << "through span()";
}

TEST(ByteStore, SpanOfAnUntouchedGranuleIsZeroAndWritesThrough)
{
    constexpr std::size_t n = 3 * G;
    poolDirtyStore(n);
    sim::ByteStore s(n);

    const std::size_t off = 2 * G + 100, len = 4096;
    const std::span<std::uint8_t> in = s.span(off, len);
    EXPECT_TRUE(allZero(in));
    for (std::size_t i = 0; i < len; ++i)
        in[i] = static_cast<std::uint8_t>(i * 13 + 7);

    std::vector<std::uint8_t> want(n, 0);
    std::copy(in.begin(), in.end(), want.begin() + off);
    std::vector<std::uint8_t> got(n, 0xaa);
    s.read(0, got);
    EXPECT_EQ(firstMismatch(got, want), n);
}

TEST(ByteStore, WholeAndRaggedGranuleWritesReadBackExactly)
{
    // Whole granules take the streaming copy, ragged heads and tails
    // memcpy; each lands on an untouched or a touched granule, from a
    // source at an odd address.
    constexpr std::size_t n = 8 * G + 1000; // a partial last granule
    poolDirtyStore(n);
    sim::ByteStore s(n);
    std::vector<std::uint8_t> want(n, 0);
    s.write(6 * G + 7, std::vector<std::uint8_t>(100, 0x11)); // touch 6

    std::vector<std::uint8_t> src(3 * G + 64);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 29 + i / 251 + 3);
    std::fill_n(want.begin() + 6 * G + 7, 100, 0x11);

    const std::pair<std::size_t, std::size_t> writes[] = {
        {G, G},              // one whole untouched granule
        {3 * G - 5, G + 10}, // ragged head and tail around granule 3
        {5 * G + 1, 2 * G},  // ragged, over touched granule 6
        {6 * G, G},          // one whole touched granule
        {8 * G - 9, 1009},   // into the partial last granule
        {G, 2 * G + 1},      // whole granules 1 and 2, now touched
    };
    for (const auto &[off, len] : writes) {
        const std::span<const std::uint8_t> in(src.data() + 1, len);
        s.write(off, in);
        std::copy(in.begin(), in.end(), want.begin() + off);
    }

    std::vector<std::uint8_t> got(n, 0xaa);
    s.read(0, got);
    EXPECT_EQ(firstMismatch(got, want), n) << "through read()";
    EXPECT_EQ(firstMismatch(s.span(0, n), want), n) << "through span()";
}

TEST(ByteStore, OverwriteSpanZeroesOnlyWhatItLeaves)
{
    constexpr std::size_t n = 3 * G;
    poolDirtyStore(n);
    sim::ByteStore s(n);

    const std::size_t off = G + 300, len = 5000;
    const std::span<std::uint8_t> out = s.overwriteSpan(off, len);
    ASSERT_EQ(out.size(), len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(i * 11 + 5);
    EXPECT_FALSE(s.untouched(off, len));
    EXPECT_TRUE(s.untouched(0, G));
    EXPECT_TRUE(s.untouched(2 * G, G));

    std::vector<std::uint8_t> want(n, 0);
    std::copy(out.begin(), out.end(), want.begin() + off);
    std::vector<std::uint8_t> got(n, 0xaa);
    s.read(0, got);
    EXPECT_EQ(firstMismatch(got, want), n);
}

class DirtyPoolParity : public ::testing::TestWithParam<raid::RaidLevel>
{
};

TEST_P(DirtyPoolParity, ParityIsTheFoldOfTheData)
{
    // Parity units folded onto dirty recycled buffers: RAID-5's unit is
    // one granule, RAID-3's a sector inside one.
    raid::LayoutConfig cfg;
    cfg.level = GetParam();
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = G;
    constexpr std::uint64_t diskBytes = 6 * G;
    {
        raid::RaidArray dirty(cfg, diskBytes);
        for (unsigned d = 0; d < dirty.numDisks(); ++d)
            dirty.corrupt(d, 0, diskBytes, 0xff);
    }

    raid::RaidArray a(cfg, diskBytes);
    const raid::RaidLayout &lay = a.layout();
    const std::uint64_t stripeBytes =
        lay.unitBytes() * lay.dataUnitsPerStripe();
    auto fill = [&](std::uint64_t off, std::uint64_t len, int salt) {
        std::vector<std::uint8_t> in(len);
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<std::uint8_t>((off + i) * 7 + salt);
        a.write(off, in);
    };
    // Data before parity is stored, then parity for every stripe, then
    // a full stripe and a partial one in never-written granules (for
    // RAID-3, inside one, with never-written stripes on both sides).
    fill(0, stripeBytes + 100, 1);
    a.storeParity();
    const std::uint64_t fresh = lay.numStripes() * 3 / 4 * stripeBytes;
    fill(fresh, stripeBytes, 2);
    fill(fresh + stripeBytes + 3, 40, 3);

    ASSERT_TRUE(a.redundancyConsistent());
    for (std::uint64_t s = 0; s < lay.numStripes(); ++s) {
        const std::uint64_t base = s * lay.unitBytes();
        std::vector<std::uint8_t> fold(lay.unitBytes(), 0);
        for (unsigned k = 0; k < lay.dataUnitsPerStripe(); ++k)
            raid::xorInto(fold, a.diskRange(lay.dataDisk(s, k), base,
                                            lay.unitBytes()));
        const auto parity =
            a.diskRange(lay.parityDisk(s), base, lay.unitBytes());
        ASSERT_EQ(firstMismatch(parity, fold), fold.size())
            << "stripe " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, DirtyPoolParity,
                         ::testing::Values(raid::RaidLevel::Raid3,
                                           raid::RaidLevel::Raid5));

TEST(ByteStore, RecycledMemBlockDeviceReadsRaggedExtentsBack)
{
    constexpr std::uint32_t bs = 512;
    constexpr std::uint64_t gb = G / bs;        // blocks per granule
    constexpr std::uint64_t blocks = 4 * gb + 7; // a partial last granule
    const std::uint8_t *first = nullptr;
    {
        fs::MemBlockDevice dirty(bs, blocks);
        const std::vector<std::uint8_t> ones(bs * blocks, 0xff);
        dirty.writeRange(0, blocks, ones);
        first = dirty.raw(0).data();
    }
    fs::MemBlockDevice dev(bs, blocks);

    // Extents that start and end inside granules and cross their
    // boundaries, one of them into the partial last granule.
    const std::pair<std::uint64_t, std::uint64_t> extents[] = {
        {gb - 3, 5}, {2 * gb + 1, 1}, {3 * gb - 1, gb + 2}};
    std::vector<std::uint8_t> want(bs * blocks, 0);
    for (const auto &[bno, count] : extents) {
        std::vector<std::uint8_t> in(bs * count);
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<std::uint8_t>(bno * 31 + i * 7 + 1);
        dev.writeRange(bno, count, in);
        std::copy(in.begin(), in.end(), want.begin() + bno * bs);
    }

    std::vector<std::uint8_t> all(bs * blocks, 0xaa);
    dev.readRange(0, blocks, all);
    EXPECT_EQ(firstMismatch(all, want), all.size());
    const std::pair<std::uint64_t, std::uint64_t> reads[] = {
        {gb - 4, 9}, {2 * gb - 2, 4}, {4 * gb, 7}, {gb + 2, 2 * gb}};
    for (const auto &[bno, count] : reads) {
        std::vector<std::uint8_t> got(bs * count, 0xaa);
        dev.readRange(bno, count, got);
        EXPECT_EQ(firstMismatch(got, std::span(want).subspan(bno * bs,
                                                             got.size())),
                  got.size())
            << "blocks [" << bno << ", +" << count << ")";
    }
    EXPECT_EQ(dev.raw(0).data(), first) << "the store was not recycled";
}

class RecycledRaidArray : public ::testing::TestWithParam<raid::RaidLevel>
{
};

TEST_P(RecycledRaidArray, IsZeroAndConsistentAfterFailAndRebuild)
{
    raid::LayoutConfig cfg;
    cfg.level = GetParam();
    cfg.numDisks = 6;
    cfg.stripeUnitBytes = 4096;
    constexpr std::uint64_t diskBytes = 256 * 1024;

    std::vector<const std::uint8_t *> old;
    {
        raid::RaidArray a(cfg, diskBytes);
        std::vector<std::uint8_t> data(a.capacity());
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(i * 7 + 1);
        a.write(0, data);
        a.failDisk(1);
        a.rebuildDisk(1);
        ASSERT_TRUE(a.redundancyConsistent());
        for (unsigned d = 0; d < a.numDisks(); ++d)
            old.push_back(a.diskRange(d, 0, 1).data());
    }

    raid::RaidArray b(cfg, diskBytes);
    ASSERT_EQ(b.diskBytes(), diskBytes);
    std::vector<std::uint8_t> image(diskBytes);
    for (unsigned d = 0; d < b.numDisks(); ++d) {
        b.readRaw(d, 0, image);
        EXPECT_TRUE(allZero(image)) << "disk " << d;
        EXPECT_NE(std::find(old.begin(), old.end(), b.diskRange(d, 0, 1).data()),
                  old.end())
            << "disk " << d << " was not recycled";
    }
    EXPECT_TRUE(b.redundancyConsistent());
}

INSTANTIATE_TEST_SUITE_P(Levels, RecycledRaidArray,
                         ::testing::Values(raid::RaidLevel::Raid1,
                                           raid::RaidLevel::Raid3,
                                           raid::RaidLevel::Raid5));

TEST(ByteStore, CorruptAcrossPlacedUnitsAllocatesNoDiskImage)
{
    // 64 KB units: each RAID-5 disk stores its parity units after its
    // data, so disk 2's unit 6 (data) and unit 7 (parity) lie apart in
    // its store.  A flip across them is applied run by run, in place.
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = G;
    constexpr std::uint64_t diskBytes = 12 * G + 4096; // unused elsewhere
    raid::RaidArray a(cfg, diskBytes);
    const raid::RaidLayout &lay = a.layout();
    constexpr unsigned d = 2;
    ASSERT_EQ(lay.parityDisk(7), d);
    ASSERT_NE(lay.parityDisk(6), d);
    std::vector<std::uint8_t> ref(a.capacity());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ref[i] = static_cast<std::uint8_t>(i * 13 + 5);
    a.write(0, ref);

    // Disk d in disk order: each piece at its disk offset, each parity
    // unit the XOR of its stripe's data, zeros past the last stripe.
    std::vector<std::uint8_t> want(diskBytes, 0);
    lay.forEachPiece(0, ref.size(), [&](unsigned, const raid::DiskExtent &e) {
        const std::uint64_t s = e.diskOffset / lay.unitBytes();
        for (std::uint64_t i = 0; i < e.bytes; ++i)
            if (e.disk == d || lay.parityDisk(s) == d)
                want[e.diskOffset + i] ^= ref[e.logicalOffset + i];
    });
    const std::uint64_t off = 7 * G - 24, len = 64;
    for (std::uint64_t i = off; i < off + len; ++i)
        want[i] ^= 0x5a;
    std::vector<std::uint8_t> got(diskBytes);

    g_watchBytes = diskBytes;
    const std::uint64_t hits = g_watchHits.load();
    a.corrupt(d, off, len, 0x5a);
    EXPECT_EQ(g_watchHits.load() - hits, 0u)
        << "the flip allocated a disk-sized buffer";
    g_watchBytes = 0;

    a.readRaw(d, 0, got);
    EXPECT_EQ(firstMismatch(got, want), diskBytes);
    // Parity was stored from the intact bytes, so the flipped disk no
    // longer folds with it.
    EXPECT_FALSE(a.redundancyConsistent());
}

TEST(ByteStore, RebuiltArrayGetsEachDiskItsOwnBuffer)
{
    // A disk size no other test uses, so the pool starts empty of it.
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 6;
    cfg.stripeUnitBytes = 4096;
    constexpr std::uint64_t diskBytes = 3 * G + 4096;

    std::vector<const std::uint8_t *> old;
    {
        raid::RaidArray a(cfg, diskBytes);
        for (unsigned d = 0; d < a.numDisks(); ++d)
            old.push_back(a.diskRange(d, 0, 1).data());
    }
    raid::RaidArray b(cfg, diskBytes);
    for (unsigned d = 0; d < b.numDisks(); ++d)
        EXPECT_EQ(b.diskRange(d, 0, 1).data(), old[d]) << "disk " << d;
}

/** One small fleet world; @p storeBytes gets the size of one of its
 *  stores (one disk of the twin that holds the file system). */
ClientFleet::Results
fleetWorld(bool integrity, std::size_t &storeBytes)
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.fsDeviceBytes = 32ull * 1024 * 1024;
    cfg.withIntegrity = integrity;
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", cfg);
    storeBytes = srv.functionalArray().diskBytes();
    RequestScheduler sched(eq, srv);
    ClientFleet::Config fc;
    fc.sessions = 32;
    fc.opsPerSession = 4;
    fc.fileCount = 8;
    fc.fileBytes = 512 * 1024;
    fc.bulkBytes = 256 * 1024;
    fc.smallBytes = 8 * 1024;
    fc.readFraction = 0.5;
    return ClientFleet::run(eq, srv, sched, fc);
}

void
expectSameClass(const ClientFleet::ClassBreakdown &a,
                const ClientFleet::ClassBreakdown &b)
{
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.rejects, b.rejects);
    EXPECT_EQ(a.latencyMs, b.latencyMs);
}

TEST(ByteStore, FleetOnRecycledStoresMatchesFreshThread)
{
    for (const bool integrity : {false, true}) {
        SCOPED_TRACE(integrity ? "integrity on" : "integrity off");
        std::size_t storeBytes = 0;
        ClientFleet::Results fresh;
        std::thread([&] { fresh = fleetWorld(integrity, storeBytes); })
            .join();

        // Build once here so this thread's pool holds the stores, then
        // again on them.
        fleetWorld(integrity, storeBytes);
        g_watchBytes = storeBytes;
        const std::uint64_t before = g_watchHits.load();
        const ClientFleet::Results recycled =
            fleetWorld(integrity, storeBytes);
        EXPECT_EQ(g_watchHits.load() - before, 0u)
            << "the world allocated a store";
        g_watchBytes = 0;

        EXPECT_GT(recycled.ops, 0u);
        EXPECT_EQ(recycled.elapsed, fresh.elapsed);
        EXPECT_EQ(recycled.ops, fresh.ops);
        EXPECT_EQ(recycled.bytes, fresh.bytes);
        EXPECT_EQ(recycled.retries, fresh.retries);
        EXPECT_EQ(recycled.dropped, fresh.dropped);
        EXPECT_EQ(recycled.corruptRetries, fresh.corruptRetries);
        EXPECT_EQ(recycled.corruptOps, fresh.corruptOps);
        expectSameClass(recycled.fast, fresh.fast);
        expectSameClass(recycled.standard, fresh.standard);
    }
}

/** Granules of the integrity twin's disks written since it was built,
 *  disk by disk. */
std::vector<bool>
touchedGranules(const raid::RaidArray &a)
{
    std::vector<bool> out;
    for (unsigned d = 0; d < a.numDisks(); ++d)
        for (std::uint64_t off = 0; off < a.diskBytes(); off += G)
            out.push_back(!a.untouched(
                d, off, std::min<std::uint64_t>(G, a.diskBytes() - off)));
    return out;
}

/** A 16-disk integrity world on drives small enough to scrub whole. */
Raid2Server::Config
twinConfig()
{
    static const disk::DiskProfile small = [] {
        disk::DiskProfile p = disk::ibm0661();
        p.cylinders /= 40;
        return p;
    }();
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.topo.profile = &small;
    cfg.fsDeviceBytes = 16ull * 1024 * 1024;
    cfg.withIntegrity = true;
    cfg.withReliability = true;
    return cfg;
}

TEST(FirstTouchTwin, MediaSpanAndScrubTouchNoGranule)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", twinConfig());
    const raid::RaidArray &twin = srv.functionalArray();
    const std::vector<bool> before = touchedGranules(twin);
    ASSERT_GT(std::ranges::count(before, false), 0);

    EXPECT_EQ(srv.array().mediaSpan(), twin.diskBytes());
    EXPECT_EQ(touchedGranules(twin), before) << "mediaSpan()";

    // One sweep of every disk: each chunk checksum-verifies the blocks
    // it covers and recomputes the parity units its disk holds.
    const raid::RaidLayout &timed = srv.array().layout();
    const std::uint64_t sweep =
        timed.numDisks() * timed.numStripes() * timed.unitBytes();
    srv.scrubber().start();
    ASSERT_TRUE(eq.runUntilDone(
        [&] { return srv.scrubber().bytesScanned() >= sweep; }));
    srv.scrubber().stop();
    eq.run();
    EXPECT_EQ(touchedGranules(twin), before) << "a scrub chunk";
}

TEST(FirstTouchTwin, InjectedCorruptionTouchesOnlyTheGranulesItHits)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", twinConfig());
    raid::RaidArray &twin = srv.functionalArray();
    const raid::RaidLayout &lay = twin.layout();
    const std::uint64_t granules = (twin.diskBytes() + G - 1) / G;
    std::vector<bool> want = touchedGranules(twin);

    // A media flip across the boundary of two never-written granules.
    const unsigned d = 5;
    std::uint64_t g = granules - 2;
    while (g > 0 && (want[d * granules + g] || want[d * granules + g + 1]))
        --g;
    ASSERT_FALSE(want[d * granules + g] || want[d * granules + g + 1]);
    const std::uint64_t off = (g + 1) * G - 5;
    fault::FaultPlan plan;
    plan.silentCorruption(sim::msToTicks(1), fault::CorruptionSurface::Media,
                          d, off, 10);
    srv.faults().setPlan(std::move(plan));
    srv.faults().start();
    eq.runUntil(sim::msToTicks(2));
    ASSERT_EQ(srv.faults().injected(fault::FaultKind::SilentCorruption), 1u);
    // Being the twin's first fault, the injection first stores the
    // parity unit of every stripe holding written data (one stripe per
    // granule row here), and no other granule.
    ASSERT_EQ(lay.unitBytes(), G);
    for (std::uint64_t r = 0; r < granules; ++r) {
        for (unsigned e = 0; e < twin.numDisks(); ++e) {
            if (want[e * granules + r]) {
                want[lay.parityDisk(r) * granules + r] = true;
                break;
            }
        }
    }
    want[d * granules + g] = want[d * granules + g + 1] = true;
    EXPECT_EQ(touchedGranules(twin), want) << "media corruption";
    std::vector<std::uint8_t> hit(10);
    twin.readRaw(d, off, hit);
    EXPECT_TRUE(std::ranges::all_of(hit, [](std::uint8_t b) {
        return b == 0xa5;
    }));

    // A flip armed on the write path lands in the block written, whose
    // data and parity units are the only granules the write touches.
    integrity::VerifyingDevice &dev = srv.integrity();
    const std::uint64_t bno = dev.numBlocks() - 1;
    unsigned dd = 0;
    std::uint64_t doff = 0;
    lay.forEachPiece(bno * dev.blockSize(), 1,
                     [&](unsigned, const raid::DiskExtent &e) {
                         dd = e.disk;
                         doff = e.diskOffset;
                     });
    const unsigned pd = lay.parityDisk(doff / lay.unitBytes());
    ASSERT_FALSE(want[dd * granules + doff / G]);
    ASSERT_FALSE(want[pd * granules + doff / G]);
    dev.armWriteCorruption();
    const std::vector<std::uint8_t> block(dev.blockSize(), 0x3c);
    dev.writeRange(bno, 1, block);
    EXPECT_EQ(dev.writeFlipsApplied(), 1u);
    want[dd * granules + doff / G] = want[pd * granules + doff / G] = true;
    EXPECT_EQ(touchedGranules(twin), want) << "write flip";
}

#ifdef RAID2_TEST_ASAN
void
readByte(const std::uint8_t *p)
{
    volatile std::uint8_t b = *p;
    (void)b;
}
#endif

TEST(ByteStore, PooledBufferIsPoisonedUnderAsan)
{
#ifdef RAID2_TEST_ASAN
    constexpr std::uint32_t bs = 4096;
    constexpr std::uint64_t blocks = 64;
    const std::uint8_t *dead = nullptr;
    {
        fs::MemBlockDevice dev(bs, blocks);
        dead = dev.raw(blocks - 1).data();
    }
    EXPECT_TRUE(__asan_address_is_poisoned(dead));
    EXPECT_DEATH(readByte(dead), "use-after-poison");

    fs::MemBlockDevice dev(bs, blocks);
    ASSERT_EQ(dev.raw(blocks - 1).data(), dead);
    EXPECT_EQ(__asan_region_is_poisoned(dev.raw(0).data(), bs * blocks),
              nullptr);
#else
    GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

} // namespace
