/**
 * @file
 * Extent (vectored) I/O tests.
 *
 * The extent path must be an *optimization only*: for every RAID
 * level, in degraded mode, and with latent media errors injected, a
 * multi-block writeRange must leave bit-identical member-disk state
 * (and latent maps) to a loop of one-block writes, and redundancy must
 * hold.  On top of that, the stripe-aware write path is
 * counter-verified: a stripe-aligned full-segment write computes each
 * touched stripe's parity exactly once, via the single-pass
 * full-stripe fold.
 *
 * Also covers FaultDevice crashes inside an extent and the WriteLog
 * extent-coalescing regression (per-block replay of a coalesced log
 * stays byte-identical, including at every barrier prefix).  The
 * device contract itself (bounds, zero-length extents, counters) is
 * tested over every device in fs_device_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "fs/array_block_device.hh"
#include "fs/fault_device.hh"
#include "fs/mem_block_device.hh"
#include "lfs/format.hh"
#include "lfs/segment_writer.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;

constexpr std::uint32_t kBs = 4096;

/** Disk @p d's stored bytes in disk order. */
std::vector<std::uint8_t>
diskImage(const raid::RaidArray &a, unsigned d)
{
    std::vector<std::uint8_t> out(a.diskBytes());
    a.readRaw(d, 0, out);
    return out;
}

raid::LayoutConfig
levelConfig(raid::RaidLevel level)
{
    raid::LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks =
        (level == raid::RaidLevel::Raid0 || level == raid::RaidLevel::Raid1)
            ? 4
            : 5;
    cfg.stripeUnitBytes = 2 * kBs;
    cfg.sectorBytes = 512;
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint8_t> out(n);
    sim::Random rng(seed);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

/** Two identical arrays: one driven per-block, one per-extent. */
struct PairRig
{
    raid::RaidArray blockArr;
    raid::RaidArray extentArr;
    fs::ArrayBlockDevice blockDev;
    fs::ArrayBlockDevice extentDev;
    std::vector<std::uint8_t> shadow; // logical contents

    explicit PairRig(const raid::LayoutConfig &cfg,
                     std::uint64_t disk_bytes = 256 * 1024)
        : blockArr(cfg, disk_bytes), extentArr(cfg, disk_bytes),
          blockDev(blockArr, kBs), extentDev(extentArr, kBs),
          shadow(blockDev.numBlocks() * kBs, 0)
    {
        // Parity from the first write on, so the healthy phase checks
        // both paths' parity upkeep as well.
        blockArr.storeParity();
        extentArr.storeParity();
    }

    void
    writeBoth(std::uint64_t bno, std::uint64_t count,
              const std::vector<std::uint8_t> &data)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            blockDev.writeRange(bno + i, 1,
                                {data.data() + i * kBs, kBs});
        extentDev.writeRange(bno, count, {data.data(), data.size()});
        std::memcpy(shadow.data() + bno * kBs, data.data(),
                    data.size());
    }

    void
    expectIdentical(const char *where)
    {
        for (unsigned d = 0; d < blockArr.numDisks(); ++d) {
            ASSERT_TRUE(diskImage(blockArr, d) == diskImage(extentArr, d))
                << where << ": disk " << d
                << " diverged between block and extent paths";
            EXPECT_EQ(blockArr.media().disk(d).latents,
                      extentArr.media().disk(d).latents)
                << where << ": latent map diverged on disk " << d;
        }
    }

    void
    expectReadsMatchShadow(const char *where)
    {
        std::vector<std::uint8_t> viaExtent(shadow.size());
        extentDev.readRange(0, extentDev.numBlocks(),
                            {viaExtent.data(), viaExtent.size()});
        EXPECT_EQ(viaExtent, shadow) << where << ": extent read";
        std::vector<std::uint8_t> blk(kBs);
        for (std::uint64_t b = 0; b < blockDev.numBlocks(); ++b) {
            blockDev.readRange(b, 1, {blk.data(), blk.size()});
            ASSERT_EQ(0, std::memcmp(blk.data(),
                                     shadow.data() + b * kBs, kBs))
                << where << ": per-block read, block " << b;
        }
    }
};

class ExtentEquivalence
    : public ::testing::TestWithParam<raid::RaidLevel>
{
};

TEST_P(ExtentEquivalence, MatchesPerBlockPathBitForBit)
{
    const raid::RaidLevel level = GetParam();
    PairRig rig(levelConfig(level));
    sim::Random rng(42);

    auto randomWrites = [&](int iters, std::uint64_t seed) {
        for (int i = 0; i < iters; ++i) {
            const std::uint64_t count = 1 + rng.below(32);
            const std::uint64_t bno =
                rng.below(rig.blockDev.numBlocks() - count);
            rig.writeBoth(bno, count,
                          pattern(count * kBs, seed + i));
        }
    };

    // Healthy array: ragged and aligned extents.
    randomWrites(30, 1000);
    // A guaranteed stripe-aligned full-stripe write too (Raid3's
    // sector-grain stripes are smaller than a block, so every block
    // write is already stripe-spanning there).
    const std::uint64_t sdbBlocks =
        rig.blockArr.layout().stripeDataBytes() / kBs;
    if (sdbBlocks > 0)
        rig.writeBoth(2 * sdbBlocks, sdbBlocks,
                      pattern(sdbBlocks * kBs, 7));
    rig.expectIdentical("healthy");
    rig.expectReadsMatchShadow("healthy");
    EXPECT_TRUE(rig.blockArr.redundancyConsistent());
    EXPECT_TRUE(rig.extentArr.redundancyConsistent());

    if (level == raid::RaidLevel::Raid0)
        return; // no redundancy: degraded/latent phases do not apply

    // Latent media errors under the write paths.
    for (const std::uint64_t off : {std::uint64_t(3 * kBs + 100),
                                    std::uint64_t(80 * 1024)}) {
        rig.blockArr.injectLatent(2, off, 5000);
        rig.extentArr.injectLatent(2, off, 5000);
    }
    randomWrites(20, 2000);
    rig.expectIdentical("latent");
    rig.expectReadsMatchShadow("latent");
    EXPECT_EQ(rig.blockArr.scrub(), rig.extentArr.scrub());
    rig.expectIdentical("post-scrub");
    EXPECT_TRUE(rig.extentArr.redundancyConsistent());

    // Degraded mode: writes while a disk is down, then rebuild.
    rig.blockArr.failDisk(1);
    rig.extentArr.failDisk(1);
    randomWrites(20, 3000);
    rig.expectIdentical("degraded");
    rig.expectReadsMatchShadow("degraded");
    rig.blockArr.rebuildDisk(1);
    rig.extentArr.rebuildDisk(1);
    rig.expectIdentical("rebuilt");
    rig.expectReadsMatchShadow("rebuilt");
    EXPECT_TRUE(rig.blockArr.redundancyConsistent());
    EXPECT_TRUE(rig.extentArr.redundancyConsistent());
}

INSTANTIATE_TEST_SUITE_P(
    Levels, ExtentEquivalence,
    ::testing::Values(raid::RaidLevel::Raid0, raid::RaidLevel::Raid1,
                      raid::RaidLevel::Raid3, raid::RaidLevel::Raid5),
    [](const auto &info) {
        switch (info.param) {
        case raid::RaidLevel::Raid0: return std::string("Raid0");
        case raid::RaidLevel::Raid1: return std::string("Raid1");
        case raid::RaidLevel::Raid3: return std::string("Raid3");
        case raid::RaidLevel::Raid5: return std::string("Raid5");
        }
        return std::string("Unknown");
    });

// ---------------------------------------------------------------------
// Parity-work counters
// ---------------------------------------------------------------------

TEST(ParityCounters, FullSegmentWriteRecomputesOncePerStripe)
{
    // Stripe-aligned LFS segments over RAID-5: one segment = a whole
    // number of stripes, so writeOut must hit the single-pass path for
    // every stripe it touches and recompute each stripe's parity
    // exactly once (once parity is stored at all).
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = 4 * kBs; // stripe = 16 data blocks
    raid::RaidArray array(cfg, 4 * 1024 * 1024);
    array.storeParity();
    fs::ArrayBlockDevice dev(array, kBs);

    lfs::Lfs::Params p;
    p.blockSize = kBs;
    p.segBlocks = 32; // 2 stripes per segment
    p.alignSegmentsTo = array.layout().stripeDataBytes();
    lfs::Lfs::format(dev, p);

    lfs::Superblock sb;
    std::vector<std::uint8_t> block0(kBs);
    dev.readRange(0, 1, {block0.data(), block0.size()});
    std::memcpy(&sb, block0.data(), sizeof(sb));
    ASSERT_TRUE(sb.valid());
    ASSERT_EQ(sb.segmentStartBlock(0) * std::uint64_t(kBs) %
                  array.layout().stripeDataBytes(),
              0u)
        << "segments must start stripe-aligned for this test";

    lfs::SegmentWriter sw(dev, sb);
    sw.open(0, 1);
    const auto payload = pattern(kBs, 99);
    while (sw.hasSpace())
        sw.add(lfs::BlockKind::Data, 1, 0,
               {payload.data(), payload.size()});

    const std::uint64_t before = array.parityRecomputes();
    const std::uint64_t beforeFull =
        array.parityFullStripeWrites();
    sw.writeOut(1);

    const std::uint64_t stripesTouched =
        std::uint64_t(sb.segBlocks) * kBs /
        array.layout().stripeDataBytes();
    EXPECT_EQ(array.parityRecomputes() - before,
              stripesTouched)
        << "a full-segment write must not do redundant parity work";
    EXPECT_EQ(array.parityFullStripeWrites() - beforeFull,
              stripesTouched)
        << "every stripe of an aligned segment takes the "
           "single-pass path";
    EXPECT_TRUE(array.redundancyConsistent());
}

TEST(ParityCounters, RaggedExtentPaysRmwOnlyOnTheEdges)
{
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = 2 * kBs;
    raid::RaidArray array(cfg, 1024 * 1024);
    const std::uint64_t sdb = array.layout().stripeDataBytes();
    array.storeParity();
    const std::uint64_t before = array.parityRecomputes();
    const std::uint64_t beforeFull = array.parityFullStripeWrites();

    // Half a stripe in, spanning 3 full stripes, ending half a stripe
    // into the last: 2 RMW edges + 3 full-stripe folds.
    const auto data = pattern(static_cast<std::size_t>(4 * sdb), 5);
    array.write(sdb / 2, {data.data(), data.size()});
    EXPECT_EQ(array.parityRecomputes() - before, 5u);
    EXPECT_EQ(array.parityFullStripeWrites() - beforeFull, 3u);
    EXPECT_TRUE(array.redundancyConsistent());
}

// ---------------------------------------------------------------------
// FaultDevice: crash point lands inside an extent
// ---------------------------------------------------------------------

TEST(FaultDeviceExtent, CrashLandsMidExtent)
{
    fs::MemBlockDevice mem(kBs, 32);
    fs::FaultDevice dev(mem);
    fs::WriteLog log;
    dev.attachWriteLog(&log);

    dev.setWriteLimit(3);
    const auto data = pattern(8 * kBs, 11);
    dev.writeRange(4, 8, {data.data(), data.size()});

    EXPECT_TRUE(dev.crashed());
    EXPECT_EQ(dev.droppedWrites(), 5u);
    // Blocks 4..6 landed, 7..11 never arrived.
    std::vector<std::uint8_t> out(kBs);
    for (std::uint64_t b = 0; b < 3; ++b) {
        mem.readRange(4 + b, 1, {out.data(), out.size()});
        EXPECT_EQ(0, std::memcmp(out.data(), data.data() + b * kBs,
                                 kBs));
    }
    mem.readRange(7, 1, {out.data(), out.size()});
    EXPECT_EQ(out, std::vector<std::uint8_t>(kBs, 0));
    // The log records exactly the blocks that reached the media.
    EXPECT_EQ(log.numBlocks(), 3u);
}

TEST(FaultDeviceExtent, TearHitsTheFirstDroppedBlockOfTheExtent)
{
    fs::MemBlockDevice mem(kBs, 32);
    fs::FaultDevice dev(mem);
    dev.setTearOnCrash(true);
    dev.setWriteLimit(2);
    const auto data = pattern(6 * kBs, 12);
    dev.writeRange(10, 6, {data.data(), data.size()});

    std::vector<std::uint8_t> out(kBs);
    // Block 12 (third of the extent) is the torn one: first half new
    // data, second half garbage.
    mem.readRange(12, 1, {out.data(), out.size()});
    EXPECT_EQ(0, std::memcmp(out.data(), data.data() + 2 * kBs,
                             kBs / 2));
    EXPECT_NE(0, std::memcmp(out.data(), data.data() + 2 * kBs, kBs));
    // Block 13 onward never arrived.
    mem.readRange(13, 1, {out.data(), out.size()});
    EXPECT_EQ(out, std::vector<std::uint8_t>(kBs, 0));
}

// ---------------------------------------------------------------------
// WriteLog extent coalescing
// ---------------------------------------------------------------------

TEST(WriteLogCoalescing, ReplayStaysByteIdentical)
{
    fs::MemBlockDevice mem(kBs, 128);
    fs::HookBlockDevice dev(mem);
    fs::WriteLog log;
    dev.attachWriteLog(&log);

    // Mixed per-block and extent writes with tag changes and flushes;
    // snapshot the media at every barrier.
    sim::Random rng(77);
    std::vector<std::vector<std::uint8_t>> flushImages;
    std::size_t blockWrites = 0;
    auto snapshot = [&] {
        std::vector<std::uint8_t> img(mem.numBlocks() * kBs);
        mem.readRange(0, mem.numBlocks(), {img.data(), img.size()});
        return img;
    };
    for (std::uint32_t tag = 0; tag < 12; ++tag) {
        log.setTag(tag);
        const std::uint64_t count = 1 + rng.below(16);
        const std::uint64_t bno =
            rng.below(mem.numBlocks() - count);
        const auto data = pattern(count * kBs, 500 + tag);
        if (tag % 3 == 0) {
            for (std::uint64_t i = 0; i < count; ++i)
                dev.writeRange(bno + i, 1,
                               {data.data() + i * kBs, kBs});
        } else {
            dev.writeRange(bno, count, {data.data(), data.size()});
        }
        blockWrites += count;
        if (tag % 4 == 3) {
            dev.flush();
            flushImages.push_back(snapshot());
        }
    }
    // One more write before the final flush, so it is not a
    // back-to-back barrier (those dedup).
    log.setTag(99);
    const auto tail = pattern(kBs, 999);
    dev.writeRange(0, 1, {tail.data(), tail.size()});
    ++blockWrites;
    dev.flush();
    flushImages.push_back(snapshot());
    dev.attachWriteLog(nullptr);

    ASSERT_EQ(log.numBlocks(), blockWrites);
    // Coalescing actually happened (adjacent same-tag runs merged).
    EXPECT_LT(log.entries().size(), blockWrites);
    // Same-tag runs merge, but never across a tag change: coalesced
    // extents stay attributable to the op that issued them.
    for (const auto &e : log.entries())
        EXPECT_EQ(e.data.size(), std::size_t(e.count) * kBs);

    // Replaying every barrier prefix block-by-block reproduces the
    // exact media image at that flush.
    ASSERT_EQ(flushImages.size(), log.barriers().size());
    for (std::size_t k = 0; k < log.barriers().size(); ++k) {
        fs::MemBlockDevice replay(kBs, 128);
        log.forEachBlockIn(
            0, log.barriers()[k].at,
            [&](std::size_t, std::uint64_t bno,
                std::span<const std::uint8_t> d) {
                replay.writeRange(bno, 1, d);
            });
        std::vector<std::uint8_t> img(replay.numBlocks() * kBs);
        replay.readRange(0, replay.numBlocks(),
                         {img.data(), img.size()});
        EXPECT_EQ(img, flushImages[k]) << "barrier " << k;
    }

    // blockAt agrees with forEachBlockIn over the whole log.
    std::size_t idx = 0;
    log.forEachBlockIn(
        0, log.numBlocks(),
        [&](std::size_t i, std::uint64_t bno,
            std::span<const std::uint8_t> d) {
            ASSERT_EQ(i, idx);
            const auto ref = log.blockAt(i);
            EXPECT_EQ(ref.bno, bno);
            EXPECT_TRUE(std::equal(ref.data.begin(), ref.data.end(),
                                   d.begin()));
            ++idx;
        });
    EXPECT_EQ(idx, log.numBlocks());
}

} // namespace
