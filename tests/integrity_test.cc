/**
 * @file
 * End-to-end integrity tests: ChecksumMap bookkeeping, the
 * VerifyingDevice repair ladder (transfer re-read, parity/mirror
 * reconstruction, poisoning), checksum persistence across a remount
 * (segment-summary re-seeding), the upgraded verify scrub, the
 * DataCorrupt front-end surface with client retry, and the satellite
 * regressions: tryReconstructRange refusing stale bytes, and the
 * scrubber x rebuild interleaving repairing a latent exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "disk/disk_profile.hh"
#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "fault/recovery_manager.hh"
#include "fault/scrubber.hh"
#include "fs/array_block_device.hh"
#include "fs/mem_block_device.hh"
#include "integrity/checksum_map.hh"
#include "integrity/log_seed.hh"
#include "integrity/verifying_device.hh"
#include "lfs/lfs.hh"
#include "lfs/segment_writer.hh"
#include "net/hippi.hh"
#include "raid/raid_array.hh"
#include "raid/sim_array.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"
#include "workload/client_fleet.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::RequestScheduler;
using server::Status;

constexpr std::uint32_t kBs = 4096;

raid::LayoutConfig
layoutCfg(raid::RaidLevel level, unsigned disks = 8)
{
    raid::LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks = disks;
    cfg.stripeUnitBytes = 16 * 1024;
    return cfg;
}

std::vector<std::uint8_t>
patternBlock(std::uint64_t bno, std::uint32_t bs = kBs)
{
    std::vector<std::uint8_t> b(bs);
    for (std::uint32_t i = 0; i < bs; ++i)
        b[i] = static_cast<std::uint8_t>(bno * 37 + i * 5 + 1);
    return b;
}

// ---------------------------------------------------------------------
// ChecksumMap
// ---------------------------------------------------------------------

TEST(ChecksumMap, RecordsMatchesAndResets)
{
    integrity::ChecksumMap map(16, kBs);
    EXPECT_EQ(map.numBlocks(), 16u);
    EXPECT_EQ(map.knownCount(), 0u);

    const auto blk = patternBlock(3);
    // No expectation yet: anything verifies trivially.
    EXPECT_TRUE(map.matches(3, {blk.data(), blk.size()}));
    EXPECT_FALSE(map.known(3));

    map.record(3, {blk.data(), blk.size()});
    EXPECT_TRUE(map.known(3));
    EXPECT_EQ(map.knownCount(), 1u);
    EXPECT_TRUE(map.matches(3, {blk.data(), blk.size()}));

    auto bad = blk;
    bad[100] ^= 0x01; // a single flipped bit must be detected
    EXPECT_FALSE(map.matches(3, {bad.data(), bad.size()}));

    // Re-seeding path: install a checksum directly.
    map.set(7, lfs::fnv1a64({blk.data(), blk.size()}));
    EXPECT_TRUE(map.matches(7, {blk.data(), blk.size()}));
    EXPECT_EQ(map.knownCount(), 2u);

    map.reset();
    EXPECT_EQ(map.knownCount(), 0u);
    EXPECT_FALSE(map.known(3));
    EXPECT_TRUE(map.matches(3, {bad.data(), bad.size()}));
}

TEST(ChecksumKernel, FourLaneBlocksEqualPerBlockFnv)
{
    // n = 0..9 covers empty, pure-tail, whole four-lane groups and
    // every tail length after them.
    for (const std::uint32_t bs : {512u, 4096u}) {
        sim::Random rng(bs);
        std::vector<std::uint8_t> data(9 * std::size_t(bs));
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        for (std::size_t n = 0; n <= 9; ++n) {
            const std::uint64_t sentinel = 0x5a5a5a5a5a5a5a5aull;
            std::vector<std::uint64_t> out(n + 1, sentinel);
            lfs::fnv1a64Blocks(data.data(), n, bs, out.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(out[i], lfs::fnv1a64({data.data() + i * bs, bs}))
                    << "bs " << bs << " n " << n << " block " << i;
            }
            EXPECT_EQ(out[n], sentinel) << "bs " << bs << " n " << n;
        }
    }
}

TEST(ChecksumMap, RecordsAnExtentInOnePass)
{
    integrity::ChecksumMap map(16, kBs);
    std::vector<std::uint8_t> extent;
    for (std::uint64_t b = 4; b < 11; ++b) {
        const auto blk = patternBlock(b);
        extent.insert(extent.end(), blk.begin(), blk.end());
    }
    map.record(4, {extent.data(), extent.size()});
    EXPECT_EQ(map.knownCount(), 7u);
    for (std::uint64_t b = 4; b < 11; ++b) {
        const auto blk = patternBlock(b);
        EXPECT_EQ(map.expected(b), lfs::fnv1a64({blk.data(), blk.size()}))
            << "block " << b;
    }
    EXPECT_FALSE(map.known(3));
    EXPECT_FALSE(map.known(11));
}

// ---------------------------------------------------------------------
// On-media format pin: segment checksums are computed at writeOut
// ---------------------------------------------------------------------

TEST(SegmentFormat, SummaryChecksumsCoverFinalBlockBytes)
{
    // add() and updateInPlace() only copy bytes; writeOut() computes
    // every checksum.  A rewritten slot must be summarised with its
    // final bytes, and the image must be one that roll-forward and the
    // integrity re-seed both accept.
    fs::MemBlockDevice dev(kBs, 4096);
    lfs::Lfs::Params params;
    params.segBlocks = 32;
    lfs::Lfs::format(dev, params);
    std::vector<std::uint8_t> blk(kBs);
    dev.readBlock(0, {blk.data(), blk.size()});
    lfs::Superblock sb{};
    std::memcpy(&sb, blk.data(), sizeof(sb));
    ASSERT_TRUE(sb.valid());

    // A fresh format's checkpoint points the log head at segment 0,
    // sequence 1: exactly where roll-forward will look.
    lfs::SegmentWriter w(dev, sb);
    w.open(0, 1);
    std::vector<std::vector<std::uint8_t>> final_blocks;
    std::vector<lfs::BlockAddr> addrs;
    for (std::uint64_t i = 0; i < 6; ++i) {
        final_blocks.push_back(patternBlock(100 + i));
        addrs.push_back(w.add(lfs::BlockKind::Data, 7, i,
                              {final_blocks[i].data(), kBs}));
    }
    final_blocks[2] = patternBlock(999);
    w.updateInPlace(addrs[2], {final_blocks[2].data(), kBs});
    w.writeOut(1);

    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(std::size_t(summary_blocks) * kBs);
    dev.readBlocks(sb.segmentStartBlock(0), summary_blocks,
                   {summary.data(), summary.size()});
    lfs::SummaryHeader hdr{};
    std::memcpy(&hdr, summary.data(), sizeof(hdr));
    ASSERT_EQ(hdr.count, 6u);
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < 6; ++i) {
        lfs::SummaryEntry e{};
        std::memcpy(&e,
                    summary.data() + sizeof(hdr) +
                        i * sizeof(lfs::SummaryEntry),
                    sizeof(e));
        EXPECT_EQ(e.csum, lfs::fnv1a64({final_blocks[i].data(), kBs}))
            << "slot " << i;
        payload.insert(payload.end(), final_blocks[i].begin(),
                       final_blocks[i].end());
    }
    // Format v3: no whole-payload checksum; the summary checksum
    // covers the region with its own field zeroed.
    EXPECT_EQ(hdr.reserved, 0u);
    lfs::SummaryHeader zeroed = hdr;
    zeroed.checksum = 0;
    const std::uint32_t head = lfs::fnv1a(
        {reinterpret_cast<const std::uint8_t *>(&zeroed), sizeof(zeroed)});
    EXPECT_EQ(hdr.checksum,
              lfs::fnv1a({summary.data() + sizeof(hdr),
                          summary.size() - sizeof(hdr)},
                         head));
    std::vector<std::uint8_t> on_media(payload.size());
    dev.readBlocks(sb.segmentStartBlock(0) + summary_blocks, 6,
                   {on_media.data(), on_media.size()});
    EXPECT_EQ(on_media, payload);

    integrity::ChecksumMap map(dev.numBlocks(), kBs);
    EXPECT_EQ(integrity::seedFromSegments(dev, map), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(map.expected(addrs[i]),
                  lfs::fnv1a64({final_blocks[i].data(), kBs}))
            << "slot " << i;
    }

    lfs::Lfs fs(dev);
    EXPECT_EQ(fs.stats().rollForwardSegments, 1u);
    EXPECT_TRUE(fs.fsck().ok);
}

TEST(SegmentFormat, ReusedImageZeroesEveryTail)
{
    // The writer builds every segment in one reused image.  A short
    // segment written after a fuller one must carry none of the older
    // segment's bytes: past its last entry the summary region is zero,
    // and past its last payload slot the segment is zero.
    fs::MemBlockDevice dev(kBs, 4096);
    lfs::Lfs::Params params;
    params.segBlocks = 32;
    lfs::Lfs::format(dev, params);
    lfs::Superblock sb{};
    std::memcpy(&sb, dev.raw(0).data(), sizeof(sb));
    ASSERT_TRUE(sb.valid());

    lfs::SegmentWriter w(dev, sb);
    w.open(0, 1);
    for (std::uint64_t i = 0; i < 20; ++i) {
        const auto b = patternBlock(200 + i);
        w.add(lfs::BlockKind::Data, 7, i, {b.data(), kBs});
    }
    w.writeOut(1);
    w.open(1, 2);
    for (std::uint64_t i = 0; i < 3; ++i) {
        const auto b = patternBlock(300 + i);
        w.add(lfs::BlockKind::Data, 8, i, {b.data(), kBs});
    }
    w.writeOut(2);
    EXPECT_EQ(w.segmentsWritten(), 2u);
    EXPECT_EQ(w.payloadBytesWritten(), 23u * kBs);

    std::vector<std::uint8_t> seg(std::size_t(sb.segBlocks) * kBs);
    dev.readBlocks(sb.segmentStartBlock(1), sb.segBlocks,
                   {seg.data(), seg.size()});
    const std::size_t summary_bytes =
        std::size_t(sb.summaryBlocksPerSegment()) * kBs;
    lfs::SummaryHeader hdr{};
    ASSERT_TRUE(lfs::readSummary({seg.data(), summary_bytes}, sb, hdr));
    EXPECT_EQ(hdr.count, 3u);
    EXPECT_EQ(hdr.segSeq, 2u);
    for (std::size_t i = 0; i < 3; ++i) {
        const auto want = patternBlock(300 + i);
        const lfs::SummaryEntry e =
            lfs::summaryEntry({seg.data(), summary_bytes}, i);
        EXPECT_EQ(e.ino, 8u) << "slot " << i;
        EXPECT_EQ(e.aux, i) << "slot " << i;
        EXPECT_EQ(0, std::memcmp(seg.data() + summary_bytes + i * kBs,
                                 want.data(), kBs))
            << "slot " << i;
    }
    const auto all_zero = [&](std::size_t from, std::size_t to) {
        return std::all_of(seg.begin() + from, seg.begin() + to,
                           [](std::uint8_t b) { return b == 0; });
    };
    EXPECT_TRUE(all_zero(sizeof(hdr) + 3 * sizeof(lfs::SummaryEntry),
                         summary_bytes));
    EXPECT_TRUE(all_zero(summary_bytes + 3 * kBs, seg.size()));
}

// ---------------------------------------------------------------------
// VerifyingDevice repair ladder
// ---------------------------------------------------------------------

/** Functional array + device chain, no server. */
struct DevRig
{
    raid::RaidArray array;
    fs::ArrayBlockDevice inner;
    integrity::VerifyingDevice dev;

    explicit DevRig(raid::RaidLevel level = raid::RaidLevel::Raid5)
        : array(layoutCfg(level), 512 * 1024), inner(array, kBs),
          dev(inner, &array)
    {
    }

    void
    writeBlocks(std::uint64_t bno, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto b = patternBlock(bno + i);
            dev.writeBlock(bno + i, {b.data(), b.size()});
        }
    }

    /** Corrupt one media byte under block @p bno. */
    void
    corruptMedia(std::uint64_t bno, std::uint64_t delta = 0)
    {
        unsigned d = 0;
        std::uint64_t doff = 0;
        array.layout().mapByte(bno * kBs + delta, d, doff);
        array.diskData(d)[doff] ^= 0xa5;
    }
};

TEST(VerifyingDevice, TransferFlipIsRepairedByReRead)
{
    // No array: only the re-read step of the ladder is available, and
    // it is all a transfer flip needs (the media copy was never bad).
    fs::MemBlockDevice mem(kBs, 64);
    integrity::VerifyingDevice dev(mem, nullptr);

    const auto blk = patternBlock(5);
    dev.writeBlock(5, {blk.data(), blk.size()});

    dev.armReadCorruption();
    std::vector<std::uint8_t> out(kBs);
    EXPECT_TRUE(dev.verifiedReadRange(5, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, blk);
    EXPECT_EQ(dev.detected(), 1u);
    EXPECT_EQ(dev.transferRepairs(), 1u);
    EXPECT_EQ(dev.mediaRepairs(), 0u);
    EXPECT_EQ(dev.readFlipsApplied(), 1u);
    EXPECT_EQ(dev.poisonedBlocks(), 0u);
}

TEST(VerifyingDevice, MediaCorruptionIsRepairedFromParity)
{
    DevRig rig;
    rig.writeBlocks(0, 8);
    rig.corruptMedia(2, 17);

    std::vector<std::uint8_t> out(kBs);
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(2, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, patternBlock(2));
    EXPECT_EQ(rig.dev.detected(), 1u);
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
    EXPECT_EQ(rig.dev.transferRepairs(), 0u);

    // The repair was committed to media, not just to the out buffer.
    EXPECT_TRUE(rig.array.redundancyConsistent());
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(2, 1, {out.data(), out.size()}));
    EXPECT_EQ(rig.dev.detected(), 1u); // no second detection
}

TEST(VerifyingDevice, MirrorRepairsMediaCorruption)
{
    DevRig rig(raid::RaidLevel::Raid1);
    rig.writeBlocks(0, 4);
    rig.corruptMedia(1);

    std::vector<std::uint8_t> out(4 * kBs);
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(0, 4, {out.data(), out.size()}));
    for (std::uint64_t b = 0; b < 4; ++b) {
        const auto want = patternBlock(b);
        EXPECT_EQ(0, std::memcmp(out.data() + b * kBs, want.data(),
                                 kBs))
            << "block " << b;
    }
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
    EXPECT_TRUE(rig.array.redundancyConsistent());
}

TEST(VerifyingDevice, Raid3MultiPieceBlockRepairsFromParity)
{
    // RAID-3's stripe unit is smaller than a file-system block, so one
    // block spans several member disks; the repair ladder must suspect
    // disks one at a time — reconstructing every piece at once folds
    // the corrupt disk's bytes into its clean siblings (regression:
    // healthy RAID-3 used to report media corruption unrepairable).
    DevRig rig(raid::RaidLevel::Raid3);
    ASSERT_LT(rig.array.layout().unitBytes(), kBs);
    rig.writeBlocks(0, 8);
    rig.corruptMedia(2, 100);

    std::vector<std::uint8_t> out(kBs);
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(2, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, patternBlock(2));
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
    EXPECT_TRUE(rig.array.redundancyConsistent());

    // A corruption run crossing a stripe boundary on one disk: both
    // of the suspect disk's pieces heal in a single block repair.
    unsigned d0 = 0;
    std::uint64_t o0 = 0;
    rig.array.layout().mapByte(5 * std::uint64_t(kBs) + 10, d0, o0);
    const std::uint64_t unit = rig.array.layout().unitBytes();
    bool second = false;
    for (std::uint64_t i = 0; i < kBs && !second; ++i) {
        unsigned d = 0;
        std::uint64_t o = 0;
        rig.array.layout().mapByte(5 * std::uint64_t(kBs) + i, d, o);
        if (d == d0 && o / unit != o0 / unit) {
            rig.array.diskData(d)[o] ^= 0x3c;
            second = true;
        }
    }
    ASSERT_TRUE(second);
    rig.array.diskData(d0)[o0] ^= 0x3c;
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(5, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, patternBlock(5));
    EXPECT_EQ(rig.dev.mediaRepairs(), 2u);
    EXPECT_TRUE(rig.array.redundancyConsistent());
}

TEST(VerifyingDevice, ExtentReadRepairsOnlyTheMismatchedBlock)
{
    // One hashing pass over a 9-block extent (two four-lane groups and
    // a tail); the repair ladder runs for the corrupt block alone.
    DevRig rig;
    std::vector<std::uint8_t> extent;
    for (std::uint64_t b = 0; b < 9; ++b) {
        const auto blk = patternBlock(b);
        extent.insert(extent.end(), blk.begin(), blk.end());
    }
    rig.dev.writeRange(0, 9, {extent.data(), extent.size()});
    rig.corruptMedia(5, 321);

    const std::uint64_t verified_before = rig.dev.verifiedBlocks();
    std::vector<std::uint8_t> out(9 * kBs);
    EXPECT_TRUE(rig.dev.verifiedReadRange(0, 9, {out.data(), out.size()}));
    EXPECT_EQ(out, extent);
    EXPECT_EQ(rig.dev.verifiedBlocks() - verified_before, 9u);
    EXPECT_EQ(rig.dev.detected(), 1u);
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
    EXPECT_EQ(rig.dev.transferRepairs(), 0u);
    EXPECT_EQ(rig.dev.unrepairableReads(), 0u);
    EXPECT_EQ(rig.dev.poisonedBlocks(), 0u);
    EXPECT_TRUE(rig.array.redundancyConsistent());
}

TEST(VerifyingDevice, WriteFlipLandsOnMediaAndIsRepairedOnRead)
{
    DevRig rig;
    rig.writeBlocks(0, 4);
    rig.dev.armWriteCorruption();
    const auto blk = patternBlock(9);
    rig.dev.writeBlock(3, {blk.data(), blk.size()});
    EXPECT_EQ(rig.dev.writeFlipsApplied(), 1u);

    // The landed copy is wrong but parity encodes the writer's bytes:
    // the next read detects and repairs it.
    std::vector<std::uint8_t> out(kBs);
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(3, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, blk);
    EXPECT_EQ(rig.dev.mediaRepairs(), 1u);
    EXPECT_TRUE(rig.array.redundancyConsistent());
}

TEST(VerifyingDevice, UnrepairableCorruptionIsPoisonedUntilRewritten)
{
    DevRig rig;
    rig.writeBlocks(0, 8);
    rig.array.failDisk(6); // degraded: reconstruction has no spare leg
    rig.corruptMedia(4);

    std::vector<std::uint8_t> out(kBs);
    EXPECT_FALSE(
        rig.dev.verifiedReadRange(4, 1, {out.data(), out.size()}));
    EXPECT_EQ(rig.dev.unrepairableReads(), 1u);
    EXPECT_EQ(rig.dev.repairs(), 0u);
    EXPECT_TRUE(rig.dev.isPoisoned(4));

    // Fresh data clears the poison: a rewrite re-records the checksum.
    const auto fresh = patternBlock(40);
    rig.dev.writeBlock(4, {fresh.data(), fresh.size()});
    EXPECT_FALSE(rig.dev.isPoisoned(4));
    EXPECT_TRUE(
        rig.dev.verifiedReadRange(4, 1, {out.data(), out.size()}));
    EXPECT_EQ(out, fresh);
}

TEST(VerifyingDevice, ScrubVerifyCommitsRepairsToMedia)
{
    DevRig rig;
    rig.writeBlocks(0, 8);
    rig.corruptMedia(1, 5);
    rig.corruptMedia(6, 9);

    const auto s = rig.dev.scrubVerify(0, 8);
    EXPECT_EQ(s.scanned, 8u);
    EXPECT_EQ(s.repaired, 2u);
    EXPECT_EQ(s.unrepairable, 0u);
    EXPECT_EQ(rig.dev.scrubRepairs(), 2u);

    std::vector<std::uint8_t> out(kBs);
    for (std::uint64_t b = 0; b < 8; ++b) {
        ASSERT_TRUE(
            rig.dev.verifiedReadRange(b, 1, {out.data(), out.size()}));
        EXPECT_EQ(out, patternBlock(b)) << "block " << b;
    }
    EXPECT_EQ(rig.dev.detected(), 2u);
}

TEST(VerifyingDevice, DisabledVerificationPassesCorruptionThrough)
{
    // The mutation self-test mode: with verifyReads off the device is
    // a plain passthrough and wrong bytes flow to the caller — the
    // property-test harness must be able to notice that.
    raid::RaidArray array(layoutCfg(raid::RaidLevel::Raid5),
                          512 * 1024);
    fs::ArrayBlockDevice inner(array, kBs);
    integrity::VerifyingDevice::Config cfg;
    cfg.verifyReads = false;
    integrity::VerifyingDevice dev(inner, &array, cfg);

    const auto blk = patternBlock(2);
    dev.writeBlock(2, {blk.data(), blk.size()});
    unsigned d = 0;
    std::uint64_t doff = 0;
    array.layout().mapByte(2 * kBs + 11, d, doff);
    array.diskData(d)[doff] ^= 0xa5;

    std::vector<std::uint8_t> out(kBs);
    EXPECT_TRUE(dev.verifiedReadRange(2, 1, {out.data(), out.size()}));
    EXPECT_NE(out, blk); // silent wrong data, by design
    EXPECT_EQ(dev.detected(), 0u);
    EXPECT_EQ(dev.repairs(), 0u);
}

// ---------------------------------------------------------------------
// Satellite: tryReconstructRange never returns stale bytes
// ---------------------------------------------------------------------

TEST(TryReconstructRange, ReportsFailureInsteadOfStaleBytes)
{
    const std::vector<std::uint8_t> sentinel(1024, 0xee);

    // RAID-0: nothing to reconstruct from.
    {
        raid::RaidArray a(layoutCfg(raid::RaidLevel::Raid0),
                          512 * 1024);
        auto out = sentinel;
        EXPECT_FALSE(
            a.tryReconstructRange(1, 0, {out.data(), out.size()}));
        EXPECT_EQ(out, sentinel);
    }

    raid::RaidArray a(layoutCfg(raid::RaidLevel::Raid5), 512 * 1024);
    std::vector<std::uint8_t> data(a.layout().stripeDataBytes() * 2);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 3 + 1);
    a.write(0, {data.data(), data.size()});

    // Healthy baseline: reconstruction agrees with the disk copy.
    {
        std::vector<std::uint8_t> out(1024);
        ASSERT_TRUE(
            a.tryReconstructRange(2, 0, {out.data(), out.size()}));
        EXPECT_EQ(0, std::memcmp(out.data(), a.diskData(2).data(),
                                 out.size()));
    }

    // A second failed disk poisons every survivor fold.
    {
        a.failDisk(5);
        auto out = sentinel;
        EXPECT_FALSE(
            a.tryReconstructRange(2, 0, {out.data(), out.size()}));
        EXPECT_EQ(out, sentinel);
        a.rebuildDisk(5);
    }

    // Degraded x latent overlap: a survivor latent range inside the
    // requested window means the fold would fold garbage — report
    // failure, leave the caller's buffer untouched.
    {
        a.injectLatent(3, 256, 512);
        auto out = sentinel;
        EXPECT_FALSE(
            a.tryReconstructRange(2, 0, {out.data(), out.size()}));
        EXPECT_EQ(out, sentinel);
        // Outside the latent window reconstruction still works.
        std::vector<std::uint8_t> ok(512);
        EXPECT_TRUE(a.tryReconstructRange(2, 4096,
                                          {ok.data(), ok.size()}));
        a.repairLatent(3, 256, 512);
    }

    // Beyond the parity-covered region: a ragged disk tail shorter
    // than a stripe unit has no parity over it.
    {
        raid::RaidArray ragged(layoutCfg(raid::RaidLevel::Raid5),
                               512 * 1024 + 512);
        const std::uint64_t covered = ragged.layout().numStripes() *
                                      ragged.layout().unitBytes();
        auto out = sentinel;
        out.resize(512, 0xee);
        EXPECT_FALSE(ragged.tryReconstructRange(
            2, covered, {out.data(), out.size()}));
        EXPECT_EQ(out, std::vector<std::uint8_t>(512, 0xee));
    }

    // Out of disk range entirely.
    {
        auto out = sentinel;
        EXPECT_FALSE(a.tryReconstructRange(
            99, 0, {out.data(), out.size()}));
        EXPECT_EQ(out, sentinel);
    }
}

// ---------------------------------------------------------------------
// Satellite: scrubber x rebuild interleaving
// ---------------------------------------------------------------------

/** ~8 MB drives so sweeps and rebuilds finish in simulated seconds. */
const disk::DiskProfile &
smallProfile()
{
    static const disk::DiskProfile p = [] {
        disk::DiskProfile s = disk::ibm0661();
        s.name = "ibm0661-small";
        s.cylinders /= 40;
        return s;
    }();
    return p;
}

TEST(ScrubberRebuild, LatentFoundWhileRebuildQueuedRepairsOnce)
{
    // RAID-1: a failure consumes only the dead disk's partner latents,
    // so a latent on an unrelated disk survives into the degraded
    // window and the scrubber *discovers* it while the RebuildJob is
    // still queued behind the spare-attach delay.  It must be repaired
    // exactly once — deferred during the window (no redundancy to
    // spare), then healed by the sweep after the rebuild completes.
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    raid::ArrayTopology topo;
    topo.disksPerString = 2; // 16 disks
    topo.profile = &smallProfile();
    raid::LayoutConfig lcfg = layoutCfg(raid::RaidLevel::Raid1, 16);
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::SimArray timed(eq, board, "a", lcfg, topo);
    net::HippiLoopback loop(eq, board);
    raid::RaidArray functional(
        raid::LayoutConfig{raid::RaidLevel::Raid1, 16, 64 * 1024},
        4ull * 1024 * 1024);
    fault::FaultController faults(
        eq, "fault", {&timed, &functional, &loop.channel()});

    fault::RecoveryManager::Config rcfg;
    rcfg.spares = 1;
    rcfg.spareAttachDelay = sim::msToTicks(100);
    rcfg.rebuildWindow = 8;
    fault::RecoveryManager recovery(eq, "rec", timed, faults, rcfg);

    fault::Scrubber::Config scfg;
    scfg.chunkBytes = 1024 * 1024;
    scfg.interChunkDelay = 0;
    scfg.pauseWhileDegraded = false; // keep discovering while degraded
    fault::Scrubber scrub(eq, "scrub", timed, faults, scfg);

    std::vector<std::uint8_t> shadow(2ull * 1024 * 1024);
    for (std::size_t i = 0; i < shadow.size(); ++i)
        shadow[i] = static_cast<std::uint8_t>(i * 11 + 5);
    functional.write(0, {shadow.data(), shadow.size()});

    // Latent on disk 0 (mirror partner 8, which stays healthy); the
    // failed disk 9's partner is disk 1 — the latent is unrelated to
    // the failure and must survive it.
    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), 0, 0, 8192)
        .diskFail(sim::msToTicks(2), 9);
    faults.setPlan(std::move(plan));
    faults.start();
    scrub.start();

    // While the rebuild is queued/attaching the latent is outstanding
    // and nothing has repaired it.
    eq.runUntil(sim::msToTicks(60));
    EXPECT_TRUE(timed.degraded());
    EXPECT_TRUE(recovery.rebuildActive() ||
                recovery.failuresWaiting() > 0 ||
                recovery.sparesUsed() == 1);
    EXPECT_EQ(faults.latentRangesOutstanding(), 1u);
    EXPECT_EQ(scrub.rangesRepaired(), 0u);
    EXPECT_EQ(faults.rebuildExposedRanges(), 0u);

    const bool settled = eq.runUntilDone([&] {
        return faults.latentBytesOutstanding() == 0 &&
               !recovery.rebuildActive() &&
               recovery.failuresWaiting() == 0;
    });
    scrub.stop();
    eq.run();
    ASSERT_TRUE(settled);

    // Exactly one repair, by the scrubber, and no loss accounting.
    EXPECT_EQ(scrub.rangesRepaired(), 1u);
    EXPECT_EQ(faults.scrubRepairedRanges(), 1u);
    EXPECT_EQ(faults.readRepairedRanges(), 0u);
    EXPECT_EQ(faults.dataLossEvents(), 0u);
    EXPECT_EQ(faults.latentsWhileDegraded(), 0u);
    EXPECT_EQ(functional.latentCount(), 0u);
    EXPECT_FALSE(timed.degraded());
    EXPECT_TRUE(functional.redundancyConsistent());

    std::vector<std::uint8_t> back(shadow.size());
    functional.read(0, {back.data(), back.size()});
    EXPECT_EQ(0, std::memcmp(back.data(), shadow.data(), back.size()));
}

// ---------------------------------------------------------------------
// Server integration
// ---------------------------------------------------------------------

Raid2Server::Config
serverCfg(bool reliability = false)
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.topo.profile = &smallProfile();
    cfg.fsDeviceBytes = 16ull * 1024 * 1024;
    cfg.withIntegrity = true;
    cfg.withReliability = reliability;
    return cfg;
}

/** Server world with one file of known contents. */
struct ServerRig
{
    sim::EventQueue eq;
    Raid2Server srv;
    lfs::InodeNum ino;
    std::vector<std::uint8_t> shadow;

    explicit ServerRig(const Raid2Server::Config &cfg,
                       std::uint64_t file_bytes = 2ull * 1024 * 1024)
        : srv(eq, "s", cfg), shadow(file_bytes)
    {
        srv.fs().setAutoClean(false);
        ino = srv.createFile("/data");
        for (std::size_t i = 0; i < shadow.size(); ++i)
            shadow[i] = static_cast<std::uint8_t>(i * 131 + ino);
        srv.fs().write(ino, 0, {shadow.data(), shadow.size()});
        srv.fs().checkpoint();
    }

    /** Corrupt one functional media byte under file offset @p foff. */
    void
    corruptUnderFile(std::uint64_t foff)
    {
        const auto extents = srv.fs().mapFile(ino, foff, 1);
        ASSERT_EQ(extents.size(), 1u);
        ASSERT_FALSE(extents[0].hole);
        unsigned d = 0;
        std::uint64_t doff = 0;
        srv.functionalArray().layout().mapByte(
            extents[0].deviceOffset, d, doff);
        srv.functionalArray().diskData(d)[doff] ^= 0xa5;
    }

    bool
    checkedRead(std::uint64_t off, std::uint64_t len)
    {
        bool ok = false, done = false;
        srv.fileRead(ino, off, len, [&](Status st) {
            ok = st == Status::Ok;
            done = true;
        });
        eq.runUntilDone([&] { return done; });
        EXPECT_TRUE(done);
        return ok;
    }
};

TEST(ServerIntegrity, MediaCorruptionRepairedOnCheckedRead)
{
    ServerRig rig{serverCfg()};
    ASSERT_TRUE(rig.srv.hasIntegrity());
    rig.corruptUnderFile(64 * 1024 + 3);

    EXPECT_TRUE(rig.checkedRead(0, 256 * 1024));
    EXPECT_EQ(rig.srv.integrity().mediaRepairs(), 1u);
    EXPECT_EQ(rig.srv.corruptReads(), 0u);
    EXPECT_TRUE(rig.srv.functionalArray().redundancyConsistent());
}

TEST(ServerIntegrity, ChecksumsSurviveRemountViaSegmentSummaries)
{
    ServerRig rig{serverCfg()};
    const auto known_before = rig.srv.integrity().checksums().knownCount();
    ASSERT_GT(known_before, 0u);

    // Corrupt media, then restart the file system: the in-memory map
    // is discarded and re-seeded from the persisted segment summaries,
    // so the flip is still caught (and repaired) afterwards.
    rig.corruptUnderFile(128 * 1024 + 7);
    rig.srv.remountFs();
    EXPECT_GT(rig.srv.integrity().checksums().knownCount(), 0u);

    const lfs::InodeNum ino2 = rig.srv.fs().lookup("/data");
    EXPECT_EQ(ino2, rig.ino);
    EXPECT_TRUE(rig.checkedRead(0, 256 * 1024));
    EXPECT_EQ(rig.srv.integrity().mediaRepairs(), 1u);
    EXPECT_EQ(rig.srv.corruptReads(), 0u);
}

TEST(ServerIntegrity, DegradedCorruptReadSurfacesDataCorrupt)
{
    ServerRig rig{serverCfg()};
    const auto extents = rig.srv.fs().mapFile(rig.ino, 0, 1);
    ASSERT_FALSE(extents.empty());
    unsigned cd = 0;
    std::uint64_t cdoff = 0;
    rig.srv.functionalArray().layout().mapByte(
        extents[0].deviceOffset, cd, cdoff);
    // Fail a *different* disk, then corrupt: reconstruction now has a
    // missing leg and the block is unrepairable.
    rig.srv.functionalArray().failDisk((cd + 1) % 16);
    rig.srv.functionalArray().diskData(cd)[cdoff] ^= 0xa5;

    RequestScheduler sched(rig.eq, rig.srv);
    const auto session = sched.allocSession();
    auto read = [&](std::uint64_t len) {
        RequestScheduler::Request r;
        r.session = session;
        r.kind = RequestScheduler::OpKind::Read;
        r.ino = rig.ino;
        r.off = 0;
        r.len = len;
        Status got = Status::Ok;
        bool done = false;
        r.done = [&](Status st, lfs::InodeNum) {
            got = st;
            done = true;
        };
        sched.submit(std::move(r));
        rig.eq.runUntilDone([&] { return done; });
        return got;
    };

    sim::TraceSink sink(rig.eq);
    rig.eq.setTracer(&sink);
    auto corrupt_spans = [&] {
        return std::count_if(sink.spans().begin(), sink.spans().end(),
                             [](const sim::TraceSink::Span &sp) {
                                 return sp.name == "data_corrupt_read";
                             });
    };

    // Both access modes refuse to serve the bytes, and each counts
    // exactly one corrupt read with one span.
    EXPECT_EQ(read(512 * 1024), Status::DataCorrupt); // fast path
    EXPECT_EQ(rig.srv.corruptReads(), 1u);
    EXPECT_EQ(corrupt_spans(), 1);
    EXPECT_EQ(read(8 * 1024), Status::DataCorrupt); // standard
    EXPECT_EQ(rig.srv.corruptReads(), 2u);
    EXPECT_EQ(corrupt_spans(), 2);
    EXPECT_GE(rig.srv.integrity().unrepairableReads(), 1u);

    // A rewrite relocates the data (fresh checksums): the client's
    // retry now succeeds — exactly the DataCorrupt retry contract.
    rig.srv.fs().write(rig.ino, 0,
                       {rig.shadow.data(), rig.shadow.size()});
    EXPECT_EQ(read(512 * 1024), Status::Ok);
    EXPECT_EQ(rig.srv.corruptReads(), 2u);
    EXPECT_EQ(corrupt_spans(), 2);
    rig.eq.setTracer(nullptr);
}

TEST(ServerIntegrity, NetworkCorruptionCostsOneRetransmit)
{
    ServerRig rig{serverCfg(/*reliability=*/true)};
    fault::FaultPlan plan;
    plan.silentCorruption(sim::msToTicks(1),
                          fault::CorruptionSurface::Network);
    rig.srv.faults().setPlan(std::move(plan));
    rig.srv.faults().start();
    rig.eq.runUntil(sim::msToTicks(2));

    EXPECT_TRUE(rig.checkedRead(0, 512 * 1024));
    EXPECT_EQ(rig.srv.netRetransmits(), 1u);
    EXPECT_EQ(rig.srv.corruptReads(), 0u);
    // The link FCS caught it before the checksum layer ever saw it.
    EXPECT_EQ(rig.srv.integrity().detected(), 0u);

    // One-shot: the next read pays nothing.
    EXPECT_TRUE(rig.checkedRead(0, 512 * 1024));
    EXPECT_EQ(rig.srv.netRetransmits(), 1u);
}

TEST(ServerIntegrity, TransferCorruptionViaPlanIsRepaired)
{
    ServerRig rig{serverCfg(/*reliability=*/true)};
    fault::FaultPlan plan;
    plan.silentCorruption(sim::msToTicks(1),
                          fault::CorruptionSurface::TransferRead);
    rig.srv.faults().setPlan(std::move(plan));
    rig.srv.faults().start();
    rig.eq.runUntil(sim::msToTicks(2));

    EXPECT_TRUE(rig.checkedRead(0, 256 * 1024));
    EXPECT_EQ(rig.srv.integrity().transferRepairs(), 1u);
    EXPECT_EQ(rig.srv.corruptReads(), 0u);
}

TEST(ServerIntegrity, ScrubSweepRepairsMediaCorruption)
{
    ServerRig rig{serverCfg(/*reliability=*/true)};
    rig.corruptUnderFile(32 * 1024 + 1);

    rig.srv.scrubber().start();
    const bool repaired = rig.eq.runUntilDone(
        [&] { return rig.srv.integrity().scrubRepairs() >= 1; });
    rig.srv.scrubber().stop();
    rig.eq.run();

    ASSERT_TRUE(repaired);
    EXPECT_EQ(rig.srv.integrity().scrubRepairs(), 1u);
    EXPECT_EQ(rig.srv.integrity().poisonedBlocks(), 0u);
    EXPECT_TRUE(rig.checkedRead(0, 256 * 1024));
    EXPECT_EQ(rig.srv.corruptReads(), 0u);
}

TEST(ServerIntegrity, StatsRegisterUnderIntegrityPrefix)
{
    ServerRig rig{serverCfg()};
    sim::StatsRegistry reg;
    rig.srv.registerStats(reg);
    EXPECT_TRUE(reg.contains("integrity.verified_blocks"));
    EXPECT_TRUE(reg.contains("integrity.detected"));
    EXPECT_TRUE(reg.contains("integrity.repairs"));
    EXPECT_TRUE(reg.contains("integrity.repairs_media"));
    EXPECT_TRUE(reg.contains("integrity.repairs_transfer"));
    EXPECT_TRUE(reg.contains("integrity.unrepairable_reads"));
    EXPECT_TRUE(reg.contains("integrity.poisoned_blocks"));
    EXPECT_TRUE(reg.contains("integrity.checksums_known"));
    EXPECT_TRUE(reg.contains("integrity.corrupt_reads"));
    EXPECT_TRUE(reg.contains("integrity.net_retransmits"));

    // Integrity off: none of it exists and none of it is paid for.
    sim::EventQueue eq2;
    Raid2Server::Config plain;
    plain.topo.disksPerString = 2;
    plain.topo.profile = &smallProfile();
    plain.fsDeviceBytes = 16ull * 1024 * 1024;
    Raid2Server srv2(eq2, "s2", plain);
    EXPECT_FALSE(srv2.hasIntegrity());
    sim::StatsRegistry reg2;
    srv2.registerStats(reg2);
    EXPECT_FALSE(reg2.contains("integrity.verified_blocks"));
}

// ---------------------------------------------------------------------
// Client retry on DataCorrupt
// ---------------------------------------------------------------------

TEST(ClientFleetIntegrity, CorruptReadsRetryThenCompleteAsCorrupt)
{
    // RAID-0 + media corruption = permanently unrepairable blocks:
    // every read of garbled population data completes DataCorrupt, the
    // fleet retries each op corruptRetryMax times, then gives up and
    // counts the op corrupt instead of serving wrong bytes.
    sim::EventQueue eq;
    Raid2Server::Config cfg = serverCfg();
    cfg.layout.level = raid::RaidLevel::Raid0;
    Raid2Server srv(eq, "s", cfg);
    srv.fs().setAutoClean(false);
    RequestScheduler sched(eq, srv);

    // Mid-run, garble every long constant-stride run on every member
    // disk — that signature only matches file payload (population
    // pattern stride 13, fileWrite stride 131), never LFS metadata.
    eq.scheduleIn(sim::msToTicks(3), [&srv] {
        raid::RaidArray &a = srv.functionalArray();
        for (unsigned d = 0; d < a.numDisks(); ++d) {
            auto bytes = a.diskData(d);
            std::size_t run = 1;
            for (std::size_t i = 1; i <= bytes.size(); ++i) {
                const bool cont =
                    i < bytes.size() &&
                    (static_cast<std::uint8_t>(bytes[i] -
                                               bytes[i - 1]) == 13 ||
                     static_cast<std::uint8_t>(bytes[i] -
                                               bytes[i - 1]) == 131);
                if (cont) {
                    ++run;
                    continue;
                }
                if (run >= 64)
                    for (std::size_t j = i - run; j < i; ++j)
                        bytes[j] ^= 0x0f;
                run = 1;
            }
        }
    });

    workload::ClientFleet::Config fcfg;
    fcfg.sessions = 8;
    fcfg.fileCount = 4;
    fcfg.fileBytes = 256 * 1024;
    fcfg.opsPerSession = 24;
    fcfg.readFraction = 0.9;
    fcfg.bulkBytes = 128 * 1024;
    fcfg.retryBackoff = sim::usToTicks(200);
    fcfg.corruptRetryMax = 2;
    const auto res = workload::ClientFleet::run(eq, srv, sched, fcfg);

    // The server refused, the client retried, then gave up — and the
    // accounting is consistent: corrupt ops are not successes.
    EXPECT_GT(res.corruptRetries, 0u);
    EXPECT_GT(res.corruptOps, 0u);
    EXPECT_GT(srv.corruptReads(), 0u);
    EXPECT_GT(srv.integrity().unrepairableReads(), 0u);
    EXPECT_EQ(res.ops + res.corruptOps + res.dropped,
              8u * 24u);
    EXPECT_GT(res.ops, 0u); // post-corruption writes + fresh reads
}

} // namespace
