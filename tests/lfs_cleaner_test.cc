/**
 * @file
 * Segment cleaner tests: reclamation of overwritten/deleted space,
 * data integrity across cleaning, cost-benefit victim choice, the
 * auto-clean low-water trigger, relocation of each pointer-block role,
 * and cleaning + recovery interaction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fs/fault_device.hh"
#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using lfs::Lfs;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

Lfs::Params
smallParams()
{
    Lfs::Params p;
    p.segBlocks = 32; // 128 KB segments
    return p;
}

TEST(LfsCleaner, ReclaimsOverwrittenSegments)
{
    fs::MemBlockDevice dev(4096, 8192); // 32 MB
    Lfs::format(dev, smallParams());
    Lfs fs(dev);

    const auto ino = fs.create("/f");
    const auto data = pattern(1024 * 1024, 1);
    // Overwrite the same 1 MB repeatedly: most segments become dead.
    for (int round = 0; round < 6; ++round) {
        auto d = pattern(1024 * 1024, 10 + round);
        fs.write(ino, 0, {d.data(), d.size()});
        fs.sync();
    }
    const auto before = fs.freeSegments();
    const unsigned cleaned = fs.clean(
        static_cast<unsigned>(fs.totalSegments()));
    EXPECT_GT(cleaned, 0u);
    EXPECT_GT(fs.freeSegments(), before);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsCleaner, LiveDataSurvivesCleaning)
{
    fs::MemBlockDevice dev(4096, 8192);
    Lfs::format(dev, smallParams());
    Lfs fs(dev);

    // Interleave two files, then delete one: survivors' segments are
    // half-live and must be compacted without corrupting the keeper.
    const auto keep = fs.create("/keep");
    const auto kill = fs.create("/kill");
    std::vector<std::uint8_t> keep_ref;
    const std::uint64_t piece = 64 * 1024;
    for (int i = 0; i < 40; ++i) {
        const auto dk = pattern(piece, 100 + i);
        fs.write(keep, std::uint64_t(i) * piece,
                 {dk.data(), dk.size()});
        keep_ref.insert(keep_ref.end(), dk.begin(), dk.end());
        const auto dx = pattern(piece, 200 + i);
        fs.write(kill, std::uint64_t(i) * piece,
                 {dx.data(), dx.size()});
    }
    fs.sync();
    fs.unlink("/kill");
    fs.sync();

    const unsigned cleaned = fs.clean(
        static_cast<unsigned>(fs.totalSegments()));
    EXPECT_GT(cleaned, 0u);
    EXPECT_GT(fs.stats().cleanerBlocksCopied, 0u);

    std::vector<std::uint8_t> back(keep_ref.size());
    EXPECT_EQ(fs.read(keep, 0, {back.data(), back.size()}),
              keep_ref.size());
    EXPECT_EQ(back, keep_ref);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsCleaner, CleanedDataSurvivesRemount)
{
    fs::MemBlockDevice dev(4096, 8192);
    Lfs::format(dev, smallParams());
    std::vector<std::uint8_t> ref;
    {
        Lfs fs(dev);
        const auto keep = fs.create("/keep");
        const auto kill = fs.create("/kill");
        const auto junk = pattern(512 * 1024, 3);
        fs.write(kill, 0, {junk.data(), junk.size()});
        ref = pattern(512 * 1024, 4);
        fs.write(keep, 0, {ref.data(), ref.size()});
        fs.sync();
        fs.unlink("/kill");
        fs.sync();
        fs.clean(static_cast<unsigned>(fs.totalSegments()));
        fs.checkpoint();
    }
    Lfs fs(dev);
    std::vector<std::uint8_t> back(ref.size());
    fs.read(fs.lookup("/keep"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, ref);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsCleaner, AutoCleanKeepsTheLogWritable)
{
    fs::MemBlockDevice dev(4096, 4096); // 16 MB, tight
    Lfs::format(dev, smallParams());
    Lfs fs(dev);
    fs.setAutoClean(true);

    // Interleave hot overwrites with cold appends into the same
    // segments: the hot halves die, the cold halves stay live, so new
    // space can only come from real cleaning.
    const auto hot = fs.create("/hot");
    const auto cold = fs.create("/cold");
    const std::uint64_t region = 2 * 1024 * 1024;
    std::uint64_t cold_end = 0;
    sim::Random rng(5);
    for (int i = 0; i < 600; ++i) {
        const auto h = pattern(32 * 1024, i);
        const std::uint64_t off =
            rng.below((region - h.size()) / 8192) * 8192;
        ASSERT_NO_THROW(fs.write(hot, off, {h.data(), h.size()}))
            << "write " << i;
        const auto c = pattern(8 * 1024, 10000 + i);
        ASSERT_NO_THROW(fs.write(cold, cold_end,
                                 {c.data(), c.size()}));
        cold_end += c.size();
        if (i % 10 == 0)
            fs.sync();
    }
    EXPECT_GT(fs.stats().cleanerSegmentsCleaned, 0u);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsCleaner, PrefersColdEmptySegments)
{
    fs::MemBlockDevice dev(4096, 8192);
    Lfs::format(dev, smallParams());
    Lfs fs(dev);

    // Segment group A: written once, then mostly invalidated (cheap
    // to clean).  Segment group B: fully live (expensive).
    const auto churn = fs.create("/churn");
    const auto live = fs.create("/live");
    const auto a1 = pattern(256 * 1024, 1);
    fs.write(churn, 0, {a1.data(), a1.size()});
    fs.sync();
    const auto b = pattern(256 * 1024, 2);
    fs.write(live, 0, {b.data(), b.size()});
    fs.sync();
    const auto a2 = pattern(256 * 1024, 3);
    fs.write(churn, 0, {a2.data(), a2.size()}); // kills a1's blocks
    fs.sync();

    const auto copied_before = fs.stats().cleanerBlocksCopied;
    fs.clean(static_cast<unsigned>(fs.freeSegments() + 2));
    const auto copied = fs.stats().cleanerBlocksCopied - copied_before;
    // Cleaning cheap segments copies few blocks relative to a fully
    // live segment (32-block segments here).
    EXPECT_LT(copied, 64u);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(LfsCleaner, IndirectBlocksRelocateCorrectly)
{
    fs::MemBlockDevice dev(4096, 8192);
    Lfs::format(dev, smallParams());
    Lfs fs(dev);

    // A file large enough to use indirect blocks, interleaved with
    // junk so its pointer blocks land in mostly-dead segments.
    const auto big = fs.create("/big");
    const auto junk = fs.create("/junk");
    const auto data = pattern(3 * 1024 * 1024, 7);
    for (std::uint64_t off = 0; off < data.size(); off += 128 * 1024) {
        fs.write(big, off, {data.data() + off, 128 * 1024});
        const auto j = pattern(64 * 1024, off);
        fs.write(junk, 0, {j.data(), j.size()}); // overwrites itself
    }
    fs.sync();
    fs.unlink("/junk");
    fs.sync();
    fs.clean(static_cast<unsigned>(fs.totalSegments()));

    std::vector<std::uint8_t> back(data.size());
    EXPECT_EQ(fs.read(big, 0, {back.data(), back.size()}),
              data.size());
    EXPECT_EQ(back, data);
    EXPECT_TRUE(fs.fsck().ok);
}

/**
 * A live pointer block alone in a victim segment, without any data
 * block of its file: the cleaner must relocate it itself.  (Relocating
 * a data block first rewrites the pointer blocks above it too, which
 * would hide a cleaner that skips them.)  A block-aligned truncate
 * rewrites only the pointer blocks it trims, so they land in a segment
 * of their own; half the device written and unlinked behind them
 * makes that segment the cleaner's choice, and a second fill reuses
 * it, so a pointer left behind reads garbage or fails fsck.
 */
struct PointerCase
{
    const char *name;
    std::uint32_t blockSize;
    std::uint64_t fileBlocks;
    std::uint64_t keepBlocks; ///< truncate point, in whole blocks
};

void
PrintTo(const PointerCase &c, std::ostream *os)
{
    *os << c.name;
}

class CleanerPointerBlock : public ::testing::TestWithParam<PointerCase>
{
};

TEST_P(CleanerPointerBlock, RelocatedWhenAloneInTheVictim)
{
    const PointerCase &c = GetParam();
    const std::uint64_t bs = c.blockSize;
    fs::MemBlockDevice dev{c.blockSize, 1536};
    Lfs::Params p;
    p.blockSize = c.blockSize;
    p.segBlocks = 32;
    Lfs::format(dev, p);
    Lfs fs(dev);
    auto expect_clean = [&fs] {
        for (const auto &problem : fs.fsck().problems())
            ADD_FAILURE() << "fsck: " << problem;
    };
    auto data_offsets = [&fs](lfs::InodeNum ino, std::uint64_t len) {
        std::vector<std::uint64_t> out;
        for (const auto &e : fs.mapFile(ino, 0, len))
            out.push_back(e.deviceOffset);
        return out;
    };

    const auto data = pattern(c.fileBlocks * bs, 1);
    const auto a = fs.create("/a");
    fs.write(a, 0, {data.data(), data.size()});
    fs.sync();
    const std::uint64_t kept = c.keepBlocks * bs;
    fs.truncate(a, kept);
    fs.sync();

    const auto b = fs.create("/b");
    const auto filler = pattern(dev.capacityBytes() / 2, 2);
    fs.write(b, 0, {filler.data(), filler.size()});
    fs.sync();
    fs.unlink("/b");
    fs.sync();

    const auto placed = data_offsets(a, kept);
    const auto cleaned = fs.stats().cleanerSegmentsCleaned;
    fs.clean(static_cast<unsigned>(fs.freeSegments() + 1));
    EXPECT_GT(fs.stats().cleanerSegmentsCleaned, cleaned);
    // No data block of /a moved, so only the cleaner's own pointer
    // relocation can keep /a reachable.
    EXPECT_EQ(data_offsets(a, kept), placed);
    expect_clean();

    const auto reuse = fs.create("/c");
    const auto refill = pattern(dev.capacityBytes() * 13 / 30, 3);
    fs.write(reuse, 0, {refill.data(), refill.size()});
    fs.sync();
    expect_clean();
    std::vector<std::uint8_t> back(kept);
    ASSERT_EQ(fs.read(a, 0, {back.data(), back.size()}), kept);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
}

// With 4 KB blocks the single-indirect block covers file blocks
// 12..1035; with 1 KB blocks it covers 12..139 and each double-
// indirect child 128 blocks from 140 on.
INSTANTIATE_TEST_SUITE_P(
    Roles, CleanerPointerBlock,
    ::testing::Values(
        // Trim the indirect block's tail.
        PointerCase{"Ind1", 4096, 40, 30},
        // Drop the second double-indirect child: only the root changes.
        PointerCase{"Ind2Root", 1024, 300, 268},
        // Trim the first child's tail: the child and the root change.
        PointerCase{"Ind2Child", 1024, 300, 200}),
    [](const ::testing::TestParamInfo<PointerCase> &info) {
        return std::string(info.param.name);
    });

/**
 * Cleaning x recovery: kill the device partway through a cleaning
 * pass at several different write counts.  The cleaner only copies
 * blocks — victims are not reused until after a checkpoint — so no
 * live data may be lost, the usage table must stay consistent
 * (fsck checks every pointer against it), and a fresh cleaning pass
 * after remount must still make progress.
 */
class CleanerCrash : public ::testing::TestWithParam<int>
{
};

TEST_P(CleanerCrash, MidCleanCrashLosesNoLiveData)
{
    const std::uint64_t crash_after = 1 + GetParam() * 5;

    fs::MemBlockDevice media(4096, 8192);
    fs::FaultDevice dev(media);
    Lfs::format(dev, smallParams());
    std::vector<std::uint8_t> keep_ref;
    {
        Lfs fs(dev);
        const auto keep = fs.create("/keep");
        const auto kill = fs.create("/kill");
        const std::uint64_t piece = 64 * 1024;
        for (int i = 0; i < 20; ++i) {
            const auto dk = pattern(piece, 300 + i);
            fs.write(keep, std::uint64_t(i) * piece,
                     {dk.data(), dk.size()});
            keep_ref.insert(keep_ref.end(), dk.begin(), dk.end());
            const auto dx = pattern(piece, 400 + i);
            fs.write(kill, std::uint64_t(i) * piece,
                     {dx.data(), dx.size()});
        }
        fs.sync();
        fs.unlink("/kill");
        fs.checkpoint();
        // Crash mid-clean: some relocated blocks land, some don't.
        dev.setWriteLimit(crash_after);
        try {
            fs.clean(static_cast<unsigned>(fs.totalSegments()));
        } catch (...) {
        }
    }
    dev.heal();
    Lfs fs(dev);
    EXPECT_TRUE(fs.fsck().ok) << "after mid-clean crash";
    std::vector<std::uint8_t> back(keep_ref.size());
    ASSERT_EQ(fs.read(fs.lookup("/keep"), 0,
                      {back.data(), back.size()}),
              keep_ref.size());
    EXPECT_EQ(back, keep_ref);

    // Cleaning must still work on the recovered image.
    EXPECT_GT(fs.clean(static_cast<unsigned>(fs.totalSegments())), 0u);
    EXPECT_TRUE(fs.fsck().ok) << "after post-recovery clean";
    std::fill(back.begin(), back.end(), 0);
    fs.read(fs.lookup("/keep"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, keep_ref);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CleanerCrash,
                         ::testing::Range(0, 6));

TEST(LfsCleaner, CrashAfterCleanBeforeCheckpointKeepsData)
{
    // A completed cleaning pass that is never checkpointed: recovery
    // starts from the pre-clean checkpoint, where the victims' old
    // block addresses are still valid because the cleaner never
    // overwrites them in place.
    fs::MemBlockDevice media(4096, 8192);
    fs::FaultDevice dev(media);
    Lfs::format(dev, smallParams());
    std::vector<std::uint8_t> ref;
    {
        Lfs fs(dev);
        const auto keep = fs.create("/keep");
        const auto kill = fs.create("/kill");
        const auto junk = pattern(512 * 1024, 31);
        fs.write(kill, 0, {junk.data(), junk.size()});
        ref = pattern(512 * 1024, 32);
        fs.write(keep, 0, {ref.data(), ref.size()});
        fs.sync();
        fs.unlink("/kill");
        fs.checkpoint();
        EXPECT_GT(fs.clean(
                      static_cast<unsigned>(fs.totalSegments())),
                  0u);
        dev.setWriteLimit(0); // crash before the next checkpoint
    }
    dev.heal();
    Lfs fs(dev);
    EXPECT_TRUE(fs.fsck().ok);
    std::vector<std::uint8_t> back(ref.size());
    ASSERT_EQ(fs.read(fs.lookup("/keep"), 0,
                      {back.data(), back.size()}),
              ref.size());
    EXPECT_EQ(back, ref);
}

} // namespace
