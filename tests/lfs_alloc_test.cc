/**
 * @file
 * Verifies the functional write path's allocation guarantee: once the
 * file's pointer blocks exist and the scratch buffers are warm, an
 * Lfs::write edits pointer blocks in place in the open segment and
 * allocates nothing per block, a warm Lfs::read allocates nothing, and
 * a Raid2Server::fileWrite builds no payload buffer.
 *
 * Global operator new/delete are replaced with counting versions, as
 * in event_alloc_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t n)
{
    ++g_allocs;
    g_bytes += n;
    if (void *p = std::malloc(n))
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

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace raid2;

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;

/** Allocations (count, bytes) made by @p fn. */
template <typename Fn>
std::pair<std::uint64_t, std::uint64_t>
allocationsOf(Fn &&fn)
{
    const std::uint64_t n0 = g_allocs.load(), b0 = g_bytes.load();
    fn();
    return {g_allocs.load() - n0, g_bytes.load() - b0};
}

/** A few allocations per call are allowed (a dirty-inode set node, a
 *  first-use scratch buffer); the parent made two to four per block. */
constexpr std::uint64_t maxAllocsPerWrite = 8;

TEST(LfsAlloc, WritePathAllocatesNothingPerBlock)
{
    // 64 MB, default 960 KB segments: a 1 MB write closes one.
    fs::MemBlockDevice dev(4096, 16384);
    lfs::Lfs::format(dev);
    lfs::Lfs fs(dev);
    const auto ino = fs.create("/f");
    std::vector<std::uint8_t> buf(MiB, 0x5a);

    // Map the region in one pass: 0 - 6 MB covers the direct, single-
    // and double-indirect ranges, and leaves the pointer blocks on the
    // device, outside the open segment.
    for (std::uint64_t off = 0; off < 6 * MiB; off += buf.size())
        fs.write(ino, off, {buf.data(), buf.size()});
    fs.sync();

    const std::uint64_t single = 64 * KiB;   // file blocks 16 - 143
    const std::uint64_t dbl = 4 * MiB;       // file blocks 1024 - 1151
    const std::span<const std::uint8_t> half{buf.data(), 512 * KiB};
    for (int round = 0; round < 2; ++round) {
        const auto a = allocationsOf([&] { fs.write(ino, single, half); });
        const auto b = allocationsOf([&] { fs.write(ino, dbl, half); });
        const auto c = allocationsOf(
            [&] { fs.write(ino, 2 * MiB, {buf.data(), buf.size()}); });
        EXPECT_LE(a.first, maxAllocsPerWrite) << "round " << round;
        EXPECT_LE(b.first, maxAllocsPerWrite) << "round " << round;
        EXPECT_LE(c.first, maxAllocsPerWrite) << "round " << round;
    }
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsAlloc, BlockAlignedReadAllocatesNothing)
{
    fs::MemBlockDevice dev(4096, 16384);
    lfs::Lfs::format(dev);
    lfs::Lfs fs(dev);
    const auto ino = fs.create("/f");
    const std::vector<std::uint8_t> buf(MiB, 0x5a);
    fs.write(ino, 0, {buf.data(), buf.size()});
    fs.sync();

    // Warm the read walk's pointer-block buffers, then read again:
    // whole blocks go straight into the caller's buffer.
    std::vector<std::uint8_t> out(512 * KiB);
    fs.read(ino, 64 * KiB, {out.data(), out.size()});
    const auto aligned = allocationsOf(
        [&] { fs.read(ino, 64 * KiB, {out.data(), out.size()}); });
    EXPECT_EQ(aligned.first, 0u) << aligned.second << " bytes";
    EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0x5a));

    // Partial first and last blocks bounce through one kept buffer.
    fs.read(ino, 100, {out.data(), 9000});
    const auto ragged =
        allocationsOf([&] { fs.read(ino, 100, {out.data(), 9000}); });
    EXPECT_EQ(ragged.first, 0u) << ragged.second << " bytes";
}

TEST(LfsAlloc, WarmFileWriteBuildsNoPayload)
{
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.fsDeviceBytes = 64 * MiB;
    server::Raid2Server srv(eq, "s", cfg);
    const auto ino = srv.createFile("/f");
    auto write = [&](std::uint64_t off) {
        bool done = false;
        srv.fileWrite(ino, off, 512 * KiB, [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        ASSERT_TRUE(done);
    };
    for (std::uint64_t off = 0; off < 4 * MiB; off += 512 * KiB)
        write(off);

    const auto warm = allocationsOf([&] { write(MiB); });
    EXPECT_LT(warm.second, 64 * KiB)
        << warm.first << " allocations, " << warm.second << " bytes";
    eq.run();
    EXPECT_TRUE(srv.fs().fsck().ok);
}

} // namespace
