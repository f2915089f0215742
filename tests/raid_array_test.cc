/**
 * @file
 * Functional RAID array tests: write/read round trips, true parity
 * maintenance, degraded reads, rebuilds (whole-disk and range by
 * range) and mirror semantics — as property sweeps across levels and
 * random operation sequences — and first-touch media: an array over
 * recycled disks touches no granule it does not write, degraded reads
 * and rebuilds of never-written ranges touch none either, and parity
 * and mirrors are stored only from the first call that can destroy a
 * byte on; RAID-5 parity placed after each disk's data reads back in
 * disk order under random faults and leaves a fault-free array's parity
 * units untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lfs/format.hh"
#include "raid/interval_set.hh"
#include "raid/parity.hh"
#include "raid/raid_array.hh"
#include "sim/byte_store.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using raid::LayoutConfig;
using raid::RaidArray;
using raid::RaidLevel;

LayoutConfig
makeCfg(RaidLevel level, unsigned disks, std::uint64_t unit = 4096)
{
    LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks = disks;
    cfg.stripeUnitBytes = unit;
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

/** Disk @p d's stored bytes in disk order. */
std::vector<std::uint8_t>
rawDisk(const RaidArray &a, unsigned d)
{
    std::vector<std::uint8_t> out(a.diskBytes());
    a.readRaw(d, 0, out);
    return out;
}

TEST(Parity, XorRoundTrip)
{
    auto a = pattern(1000, 1);
    auto b = pattern(1000, 2);
    auto saved = a;
    raid::xorInto(a.data(), b.data(), a.size());
    raid::xorInto(a.data(), b.data(), a.size());
    EXPECT_EQ(a, saved);
}

TEST(Parity, AllZero)
{
    std::vector<std::uint8_t> z(100, 0);
    EXPECT_TRUE(raid::allZero({z.data(), z.size()}));
    z[57] = 1;
    EXPECT_FALSE(raid::allZero({z.data(), z.size()}));
}

TEST(IntervalSet, ContainsAndGaps)
{
    raid::IntervalSet set;
    set.insert(100, 50);
    set.insert(200, 100);
    using Ranges = std::vector<raid::IntervalSet::Range>;
    EXPECT_TRUE(set.contains(100, 50));
    EXPECT_TRUE(set.contains(220, 80));
    EXPECT_TRUE(set.contains(0, 0));
    EXPECT_FALSE(set.contains(90, 20));
    EXPECT_FALSE(set.contains(140, 70)); // spans the hole
    EXPECT_FALSE(set.contains(290, 20));
    EXPECT_EQ(set.gaps(0, 400),
              (Ranges{{0, 100}, {150, 50}, {300, 100}}));
    EXPECT_EQ(set.gaps(120, 100), (Ranges{{150, 50}}));
    EXPECT_TRUE(set.gaps(210, 40).empty());
    set.insert(150, 50); // touching ranges merge
    EXPECT_TRUE(set.contains(100, 200));
}

struct ArrayParam
{
    RaidLevel level;
    unsigned disks;
};

class ArrayProperty : public ::testing::TestWithParam<ArrayParam>
{
  protected:
    RaidArray
    make()
    {
        return RaidArray(makeCfg(GetParam().level, GetParam().disks),
                         256 * 1024);
    }
};

TEST_P(ArrayProperty, WriteReadRoundTrip)
{
    auto array = make();
    const auto data = pattern(70000, 42);
    array.write(12345, {data.data(), data.size()});
    std::vector<std::uint8_t> back(data.size());
    array.read(12345, {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

TEST_P(ArrayProperty, RandomOverwritesMatchReferenceModel)
{
    // One array keeps parity in step from the first write; the other
    // stores it only after the last, as a first fault would.  Both
    // must end with the same disks.
    auto array = make();
    array.storeParity();
    auto lazy = make();
    std::vector<std::uint8_t> ref(array.capacity(), 0);
    sim::Random rng(7);
    for (int i = 0; i < 60; ++i) {
        const std::uint64_t len = 1 + rng.below(20000);
        const std::uint64_t off = rng.below(ref.size() - len);
        const auto data = pattern(len, 1000 + i);
        array.write(off, {data.data(), data.size()});
        lazy.write(off, {data.data(), data.size()});
        std::copy(data.begin(), data.end(), ref.begin() + off);
    }
    std::vector<std::uint8_t> back(ref.size());
    array.read(0, {back.data(), back.size()});
    EXPECT_EQ(back, ref);
    EXPECT_TRUE(array.redundancyConsistent());
    lazy.storeParity();
    for (unsigned d = 0; d < array.numDisks(); ++d)
        EXPECT_TRUE(rawDisk(array, d) == rawDisk(lazy, d)) << "disk " << d;
}

TEST_P(ArrayProperty, DegradedReadReturnsCorrectData)
{
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid0)
        GTEST_SKIP() << "RAID-0 has no redundancy";
    auto array = make();
    const auto data = pattern(100000, 9);
    array.write(0, {data.data(), data.size()});

    for (unsigned victim : {0u, p.disks / 2, p.disks - 1}) {
        auto a2 = make();
        a2.write(0, {data.data(), data.size()});
        a2.failDisk(victim);
        std::vector<std::uint8_t> back(data.size());
        a2.read(0, {back.data(), back.size()});
        EXPECT_EQ(back, data) << "victim disk " << victim;
    }
}

TEST_P(ArrayProperty, RebuildRestoresRedundancy)
{
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid0)
        GTEST_SKIP();
    auto array = make();
    const auto data = pattern(120000, 11);
    array.write(4096, {data.data(), data.size()});
    array.failDisk(1);
    array.rebuildDisk(1);
    EXPECT_TRUE(array.redundancyConsistent());
    std::vector<std::uint8_t> back(data.size());
    array.read(4096, {back.data(), back.size()});
    EXPECT_EQ(back, data);
    // And further degraded reads (of a different disk) still work.
    array.failDisk(2);
    array.read(4096, {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

TEST_P(ArrayProperty, WritesWhileDegradedThenRebuild)
{
    // Each disk fails in turn.  Ragged writes land while it is down,
    // the degraded array must serve every byte, and the rebuild must
    // restore both the bytes and the redundancy.
    const auto p = GetParam();
    if (p.level == RaidLevel::Raid0)
        GTEST_SKIP() << "RAID-0 has no redundancy";
    for (unsigned victim = 0; victim < p.disks; ++victim) {
        auto array = make();
        std::vector<std::uint8_t> ref = pattern(array.capacity(), 99);
        array.write(0, {ref.data(), ref.size()});
        array.failDisk(victim);
        sim::Random rng(100 + victim);
        for (int i = 0; i < 40; ++i) {
            const std::uint64_t len = 1 + rng.below(20000);
            const std::uint64_t off = rng.below(ref.size() - len);
            const auto data = pattern(len, 2000 + i);
            array.write(off, {data.data(), data.size()});
            std::copy(data.begin(), data.end(), ref.begin() + off);
        }
        std::vector<std::uint8_t> back(ref.size());
        array.read(0, {back.data(), back.size()});
        ASSERT_EQ(back, ref) << "degraded, victim disk " << victim;
        array.rebuildDisk(victim);
        array.read(0, {back.data(), back.size()});
        ASSERT_EQ(back, ref) << "rebuilt, victim disk " << victim;
        EXPECT_TRUE(array.redundancyConsistent()) << "victim disk "
                                                  << victim;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, ArrayProperty,
    ::testing::Values(ArrayParam{RaidLevel::Raid0, 4},
                      ArrayParam{RaidLevel::Raid1, 4},
                      ArrayParam{RaidLevel::Raid1, 8},
                      ArrayParam{RaidLevel::Raid3, 5},
                      ArrayParam{RaidLevel::Raid5, 5},
                      ArrayParam{RaidLevel::Raid5, 8},
                      ArrayParam{RaidLevel::Raid5, 16}),
    [](const ::testing::TestParamInfo<ArrayParam> &info) {
        return "Raid" +
               std::string(raid::raidLevelName(info.param.level) + 5) +
               "_" + std::to_string(info.param.disks) + "disks";
    });

TEST(RaidArray, ParityIsRealXor)
{
    // White-box: flip one data byte behind the array's back and
    // observe the inconsistency; then verify a stripe's parity is the
    // XOR of its data units.
    RaidArray array(makeCfg(RaidLevel::Raid5, 4, 4096), 64 * 1024);
    array.storeParity();
    const auto data = pattern(3 * 4096, 5);
    array.write(0, {data.data(), data.size()});
    EXPECT_TRUE(array.redundancyConsistent());
    array.corrupt(0, 100, 1, 0xff);
    EXPECT_FALSE(array.redundancyConsistent());
}

TEST(RaidArray, MirrorHoldsIdenticalBytes)
{
    RaidArray array(makeCfg(RaidLevel::Raid1, 4, 4096), 64 * 1024);
    const auto data = pattern(20000, 6);
    array.write(0, {data.data(), data.size()});
    // Mirrors are copied from the first call that needs them on.
    array.storeParity();
    EXPECT_TRUE(rawDisk(array, 0) == rawDisk(array, 2)); // 2 mirrors 0
}

class RebuildDeathTest : public ::testing::TestWithParam<RaidLevel>
{
};

/**
 * A rebuild must not copy bytes that a survivor cannot vouch for.  The
 * survivor holding the lost disk's redundancy has a latent range, so
 * that range of the lost disk is gone: the rebuild refuses it as a
 * data loss instead of writing back garbled bytes.  Fault campaigns
 * never reach this state, because fault::FaultController drops the
 * survivors' latent ranges when a disk dies; the array's own
 * recoverability invariant is what is checked here.
 */
TEST_P(RebuildDeathTest, SurvivorLatentIsUnrecoverable)
{
    RaidArray array(makeCfg(GetParam(), 4, 4096), 64 * 1024);
    const auto data = pattern(array.capacity(), 21);
    array.write(0, {data.data(), data.size()});
    array.injectLatent(2, 0, 512);
    array.failDisk(0);
    EXPECT_DEATH(array.rebuildDisk(0), "unrecoverable");
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RebuildDeathTest,
    ::testing::Values(RaidLevel::Raid1, RaidLevel::Raid5),
    [](const ::testing::TestParamInfo<RaidLevel> &info) {
        return "Raid" + std::string(raid::raidLevelName(info.param) + 5);
    });

TEST(RaidArrayDeathTest, DiskRangeAcrossAStripeUnitDies)
{
    // 64 KB units: RAID-5 stores each disk's parity units after its
    // data, so no in-place view may span two units.
    constexpr std::uint64_t unit = 64 * 1024;
    RaidArray array(makeCfg(RaidLevel::Raid5, 5, unit), 8 * unit);
    EXPECT_EQ(array.diskRange(2, unit - 10, 10).size(), 10u);
    EXPECT_DEATH(array.diskRange(2, unit - 10, 11), "stripe unit");
}

/**
 * Every level rebuilds disk @p dead from RaidLayout::forEachSource's
 * disks: none at RAID-0, the mirror partner at RAID-1, every other
 * disk at RAID-3/5.  tryReconstructRange() fails exactly when one of
 * them has failed or is latent over the range, and otherwise returns
 * the disk's stored bytes.
 */
TEST(RaidArray, ReconstructionFailsExactlyWhenASourceCannotServe)
{
    constexpr unsigned n = 6;
    constexpr std::uint64_t off = 5000, len = 3000;
    for (const RaidLevel level : {RaidLevel::Raid0, RaidLevel::Raid1,
                                  RaidLevel::Raid3, RaidLevel::Raid5}) {
        SCOPED_TRACE(raid::raidLevelName(level));
        auto source = [&](unsigned dead, unsigned d) {
            switch (level) {
              case RaidLevel::Raid0: return false;
              case RaidLevel::Raid1: return d == (dead + n / 2) % n;
              default: return d != dead;
            }
        };
        for (unsigned dead = 0; dead < n; ++dead) {
            std::vector<unsigned> named;
            RaidArray(makeCfg(level, n), 16 * 4096)
                .layout()
                .forEachSource(dead, [&](unsigned d) { named.push_back(d); });
            std::vector<unsigned> want;
            for (unsigned d = 0; d < n; ++d)
                if (source(dead, d))
                    want.push_back(d);
            EXPECT_EQ(named, want) << "dead " << dead;

            // faulty == n: no fault; faulty < n: that disk failed, or
            // latent over the range.
            for (unsigned faulty = 0; faulty <= n; ++faulty) {
                for (const bool fail : {true, false}) {
                    if (faulty == dead || (faulty == n && !fail))
                        continue;
                    RaidArray a(makeCfg(level, n), 16 * 4096);
                    const auto data = pattern(a.capacity(), 40 + dead);
                    a.write(0, data);
                    a.storeParity();
                    const auto image = rawDisk(a, dead);
                    if (faulty < n && fail)
                        a.failDisk(faulty);
                    else if (faulty < n)
                        a.injectLatent(faulty, off + len - 1, 100);
                    std::vector<std::uint8_t> out(len, 0xaa);
                    const bool lost =
                        level == RaidLevel::Raid0 ||
                        (faulty < n && source(dead, faulty));
                    EXPECT_EQ(a.tryReconstructRange(dead, off, out), !lost)
                        << "dead " << dead << ", disk " << faulty
                        << (fail ? " failed" : " latent");
                    if (!lost) {
                        EXPECT_TRUE(std::ranges::equal(
                            out, std::span(image).subspan(off, len)));
                    } else {
                        EXPECT_TRUE(std::ranges::all_of(
                            out, [](std::uint8_t b) { return b == 0xaa; }));
                    }
                }
            }
        }
    }
}

class RebuildRangeTest : public ::testing::TestWithParam<RaidLevel>
{
  protected:
    static constexpr unsigned dead = 0;

    RaidArray
    make()
    {
        return RaidArray(makeCfg(GetParam(), 4), 64 * 1024);
    }

    /** Every logical piece stored on disk @p d below disk offset
     *  @p limit. */
    static std::vector<raid::DiskExtent>
    piecesOn(const RaidArray &array, unsigned d, std::uint64_t limit)
    {
        std::vector<raid::DiskExtent> out;
        array.layout().forEachPiece(
            0, array.capacity(), [&](unsigned, const raid::DiskExtent &e) {
                if (e.disk == d && e.diskOffset + e.bytes <= limit)
                    out.push_back(e);
            });
        return out;
    }
};

/**
 * Once a range of a failed disk is rebuilt, reads of it come from the
 * replacement, not from the survivors: garbling the survivor a
 * reconstruction would fold (the mirror partner for RAID-1) leaves
 * them exact.
 */
TEST_P(RebuildRangeTest, RebuiltRowsAreReadFromTheReplacement)
{
    auto array = make();
    const auto data = pattern(array.capacity(), 41);
    array.write(0, {data.data(), data.size()});
    const std::uint64_t rows = 8 * 4096;
    array.failDisk(dead);
    array.rebuildRange(dead, 0, rows);

    const unsigned other = GetParam() == RaidLevel::Raid1
                               ? array.layout().mirrorPartner(dead)
                               : 1;
    array.corrupt(other, 0, rows, 0x5a);

    const auto pieces = piecesOn(array, dead, rows);
    ASSERT_FALSE(pieces.empty());
    for (const raid::DiskExtent &e : pieces) {
        std::vector<std::uint8_t> back(e.bytes);
        array.read(e.logicalOffset, {back.data(), back.size()});
        ASSERT_TRUE(std::equal(back.begin(), back.end(),
                               data.begin() + e.logicalOffset))
            << "logical " << e.logicalOffset;
    }
}

/**
 * Ragged writes interleaved with rebuild steps (not aligned to the
 * stripe unit, so pieces straddle the cursor) read back exactly; the
 * final rebuildDisk reconstructs what the steps did not, leaving every
 * stripe's redundancy consistent.
 */
TEST_P(RebuildRangeTest, WritesInterleavedWithRebuildStepsReadBack)
{
    auto array = make();
    std::vector<std::uint8_t> ref = pattern(array.capacity(), 51);
    array.write(0, {ref.data(), ref.size()});
    array.failDisk(dead);
    sim::Random rng(52);
    std::vector<std::uint8_t> back(ref.size());
    const std::uint64_t step = 5000;
    for (std::uint64_t off = 0; off < 8 * step; off += step) {
        array.rebuildRange(dead, off, step);
        for (int i = 0; i < 4; ++i) {
            const std::uint64_t len = 1 + rng.below(20000);
            const std::uint64_t at = rng.below(ref.size() - len);
            const auto data = pattern(len, 3000 + off + i);
            array.write(at, {data.data(), data.size()});
            std::copy(data.begin(), data.end(), ref.begin() + at);
        }
        array.read(0, {back.data(), back.size()});
        ASSERT_EQ(back, ref) << "after the step at " << off;
    }
    array.rebuildDisk(dead);
    EXPECT_FALSE(array.isFailed(dead));
    array.read(0, {back.data(), back.size()});
    EXPECT_EQ(back, ref);
    EXPECT_TRUE(array.redundancyConsistent());
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RebuildRangeTest,
    ::testing::Values(RaidLevel::Raid1, RaidLevel::Raid3, RaidLevel::Raid5),
    [](const ::testing::TestParamInfo<RaidLevel> &info) {
        return "Raid" + std::string(raid::raidLevelName(info.param) + 5);
    });

constexpr std::uint64_t G = sim::ByteStore::granuleBytes;

/**
 * First-touch member disks.  Each array is built over disks this thread
 * last left holding 0xff, so a granule the array reads as stored bytes
 * without having written it shows up as 0xff.
 */
class FirstTouchArray : public ::testing::TestWithParam<ArrayParam>
{
  protected:
    static constexpr std::uint64_t diskBytes = 4 * G;
    static constexpr unsigned dead = 0;

    RaidArray
    make()
    {
        const LayoutConfig cfg =
            makeCfg(GetParam().level, GetParam().disks);
        {
            RaidArray dirty(cfg, diskBytes);
            for (unsigned d = 0; d < dirty.numDisks(); ++d)
                dirty.corrupt(d, 0, diskBytes, 0xff);
        }
        return RaidArray(cfg, diskBytes);
    }

    /** Granules written since @p a was built, disk by disk. */
    static std::vector<bool>
    touched(const RaidArray &a)
    {
        std::vector<bool> out;
        for (unsigned d = 0; d < a.numDisks(); ++d)
            for (std::uint64_t off = 0; off < diskBytes; off += G)
                out.push_back(!a.untouched(d, off, G));
        return out;
    }

    static std::size_t
    count(const std::vector<bool> &v)
    {
        return std::ranges::count(v, true);
    }

    /** Logical bytes of the stripes that lie in disk granule 0. */
    static std::uint64_t
    firstGranuleBytes(const RaidArray &a)
    {
        return G / a.layout().unitBytes() * a.layout().stripeDataBytes();
    }

    /** Logical offset of the first piece on disk @p d at or after disk
     *  offset @p disk_off (a stripe whose parity @p d holds is
     *  skipped). */
    static std::uint64_t
    logicalOn(const RaidArray &a, unsigned d, std::uint64_t disk_off)
    {
        const raid::RaidLayout &lay = a.layout();
        for (std::uint64_t s = disk_off / lay.unitBytes();
             s < lay.numStripes(); ++s) {
            std::uint64_t at = ~0ull;
            lay.forEachPiece(s * lay.stripeDataBytes(), lay.stripeDataBytes(),
                             [&](unsigned, const raid::DiskExtent &e) {
                                 if (e.disk == d && at == ~0ull)
                                     at = e.logicalOffset;
                             });
            if (at != ~0ull)
                return at;
        }
        ADD_FAILURE() << "no piece on disk " << d;
        return 0;
    }
};

TEST_P(FirstTouchArray, BuiltOnADirtyPoolTouchesNothingUntilWritten)
{
    auto a = make();
    // Level 1 keeps its mirrors in step from here on, which stores
    // nothing yet.
    if (GetParam().level == RaidLevel::Raid1)
        a.storeParity();
    EXPECT_EQ(count(touched(a)), 0u) << "construction touched a granule";
    std::vector<std::uint8_t> back(a.capacity(), 0xaa);
    a.read(0, back);
    EXPECT_TRUE(raid::allZero(back));
    EXPECT_EQ(count(touched(a)), 0u) << "a read touched a granule";

    // A write inside one unit lands in one granule of its data disk,
    // plus one of its mirror at level 1; levels 3/5 store no parity
    // before a fault needs it.
    std::vector<std::uint8_t> ref(a.capacity(), 0);
    const std::uint64_t off = logicalOn(a, dead, 2 * G) + 10;
    const auto data = pattern(100, 3);
    a.write(off, data);
    std::ranges::copy(data, ref.begin() + off);
    const auto t = touched(a);
    EXPECT_EQ(count(t), GetParam().level == RaidLevel::Raid1 ? 2u : 1u);
    EXPECT_TRUE(t[dead * (diskBytes / G) + 2]);
    a.read(0, back);
    EXPECT_EQ(back, ref);
}

TEST_P(FirstTouchArray, RebuildOfANeverWrittenRangeLeavesItUntouched)
{
    auto a = make();
    const std::uint64_t written = firstGranuleBytes(a);
    std::vector<std::uint8_t> ref(a.capacity(), 0);
    const auto data = pattern(written, 61);
    a.write(0, data);
    std::ranges::copy(data, ref.begin());
    a.storeParity();
    std::vector<std::uint8_t> image(G);
    a.readRaw(dead, 0, image);

    a.failDisk(dead);
    EXPECT_TRUE(a.untouched(dead, 0, diskBytes))
        << "the failed disk's buffer kept its bytes";
    a.rebuildRange(dead, G, diskBytes - G);
    for (unsigned d = 0; d < a.numDisks(); ++d)
        EXPECT_TRUE(a.untouched(d, G, diskBytes - G))
            << "rebuilding never-written stripes touched disk " << d;
    std::vector<std::uint8_t> back(a.capacity(), 0xaa);
    a.read(0, back);
    EXPECT_EQ(back, ref);

    // A written range is rebuilt byte-exact.
    a.rebuildRange(dead, 0, G);
    std::vector<std::uint8_t> rebuilt(G);
    a.readRaw(dead, 0, rebuilt);
    EXPECT_EQ(rebuilt, image);

    a.rebuildDisk(dead);
    EXPECT_FALSE(a.isFailed(dead));
    EXPECT_TRUE(a.untouched(dead, G, diskBytes - G));
    a.read(0, back);
    EXPECT_EQ(back, ref);
    EXPECT_TRUE(a.redundancyConsistent());
}

TEST_P(FirstTouchArray, DegradedReadOfANeverWrittenRangeTouchesNoSurvivor)
{
    auto a = make();
    std::vector<std::uint8_t> ref(a.capacity(), 0);
    const std::uint64_t written = firstGranuleBytes(a);
    const auto full = pattern(written, 71);
    a.write(0, full);
    std::ranges::copy(full, ref.begin());
    // In granule 2 only the failed disk's unit is written, so its
    // parity or mirror is the one survivor written there.
    const std::uint64_t lone = logicalOn(a, dead, 2 * G);
    const auto part = pattern(300, 72);
    a.write(lone, part);
    std::ranges::copy(part, ref.begin() + lone);

    a.failDisk(dead);
    const auto before = touched(a);
    std::vector<std::uint8_t> back(a.capacity() - written, 0xaa);
    a.read(written, back);
    EXPECT_TRUE(std::ranges::equal(back, std::span(ref).subspan(written)));
    EXPECT_EQ(touched(a), before) << "a degraded read touched a granule";
    for (unsigned d = 0; d < a.numDisks(); ++d) {
        EXPECT_TRUE(a.untouched(d, G, G)) << "disk " << d;
        EXPECT_TRUE(a.untouched(d, 3 * G, G)) << "disk " << d;
    }

    // Reconstruction of written ranges folds every written survivor.
    std::vector<std::uint8_t> front(written, 0xaa);
    a.read(0, front);
    EXPECT_TRUE(std::ranges::equal(front, full));
}

INSTANTIATE_TEST_SUITE_P(
    Levels, FirstTouchArray,
    ::testing::Values(ArrayParam{RaidLevel::Raid1, 4},
                      ArrayParam{RaidLevel::Raid3, 5},
                      ArrayParam{RaidLevel::Raid5, 5}),
    [](const ::testing::TestParamInfo<ArrayParam> &info) {
        return "Raid" +
               std::string(raid::raidLevelName(info.param.level) + 5);
    });

/**
 * Parity stored from the first fault on (levels 3/5).  Fault-free
 * writes store data only; the first call that can destroy a byte folds
 * the parity of every written stripe from the intact data, so what it
 * destroys stays recoverable, and never-written stripes stay untouched.
 */
class LazyParity : public ::testing::TestWithParam<RaidLevel>
{
  protected:
    static constexpr std::uint64_t diskBytes = 4 * G;

    /** One 64 KB unit per stripe and granule at level 5 (level 3 pins
     *  the unit to the sector); the first half written whole, then a
     *  partial stripe. */
    LazyParity()
        : a(makeCfg(GetParam(), 5, G), diskBytes), ref(a.capacity())
    {
        write(0, a.capacity() / 2, 41);
        write(a.capacity() / 2 + 5000, 300, 42);
        written = a.capacity() / 2 + 5300;
    }

    void
    write(std::uint64_t off, std::size_t len, std::uint64_t seed)
    {
        const auto data = pattern(len, seed);
        a.write(off, data);
        std::ranges::copy(data, ref.begin() + off);
    }

    /** Stripes holding data; the rest were never written. */
    std::uint64_t
    writtenStripes() const
    {
        const std::uint64_t sdb = a.layout().stripeDataBytes();
        return (written + sdb - 1) / sdb;
    }

    /** Parity units stored. */
    std::size_t
    storedParityUnits() const
    {
        const raid::RaidLayout &lay = a.layout();
        const std::uint64_t unit = lay.unitBytes();
        std::size_t n = 0;
        for (std::uint64_t s = 0; s < lay.numStripes(); ++s)
            n += !a.untouched(lay.parityDisk(s), s * unit, unit);
        return n;
    }

    /** Every written stripe's parity is stored, and no granule holding
     *  only never-written stripes' parity is touched (a failed disk's
     *  units aside). */
    void
    expectWrittenParityStored() const
    {
        const raid::RaidLayout &lay = a.layout();
        const std::uint64_t unit = lay.unitBytes();
        const std::uint64_t last = (writtenStripes() - 1) * unit / G;
        for (std::uint64_t s = 0; s < lay.numStripes(); ++s) {
            const unsigned pd = lay.parityDisk(s);
            if (a.isFailed(pd))
                continue;
            const bool stored = !a.untouched(pd, s * unit, unit);
            if (s < writtenStripes()) {
                EXPECT_TRUE(stored) << "stripe " << s;
            } else if (s * unit / G > last) {
                EXPECT_FALSE(stored) << "stripe " << s;
            }
        }
    }

    void
    expectReadsBack() const
    {
        std::vector<std::uint8_t> back(a.capacity(), 0xaa);
        a.read(0, back);
        EXPECT_EQ(back, ref);
    }

    RaidArray a;
    std::vector<std::uint8_t> ref;
    std::uint64_t written = 0;
};

TEST_P(LazyParity, FaultFreeWritesStoreNoParity)
{
    ASSERT_LT(writtenStripes(), a.layout().numStripes());
    EXPECT_EQ(storedParityUnits(), 0u);
    expectReadsBack();
    for (unsigned d = 0; d < a.numDisks(); ++d)
        EXPECT_TRUE(a.healRedundancyRange(d, 0, diskBytes));
    EXPECT_EQ(storedParityUnits(), 0u) << "a heal stored parity";
    // Nor does the consistency check (which reads whole disks): without
    // stored parity the written data reads inconsistent.
    EXPECT_FALSE(a.redundancyConsistent());
}

TEST_P(LazyParity, FailDiskStoresParityFromTheDiskFirst)
{
    a.failDisk(1);
    expectWrittenParityStored();
    expectReadsBack(); // degraded
    a.rebuildDisk(1);
    expectReadsBack();
    EXPECT_TRUE(a.redundancyConsistent());
}

TEST_P(LazyParity, InjectLatentStoresParityFromTheIntactBytes)
{
    a.injectLatent(2, 100, 2 * G);
    expectWrittenParityStored();
    expectReadsBack(); // around the latent range
    EXPECT_EQ(a.scrub(), 1u);
    EXPECT_TRUE(a.redundancyConsistent());
    expectReadsBack();
}

TEST_P(LazyParity, DiskRangeStoresParityBeforeHandingOutBytes)
{
    const std::span<std::uint8_t> hit = a.diskRange(3, 77, 1);
    expectWrittenParityStored();
    const std::uint8_t good = hit[0];
    hit[0] ^= 0xa5;
    std::uint8_t rebuilt = 0;
    ASSERT_TRUE(a.tryReconstructRange(3, 77, {&rebuilt, 1}));
    EXPECT_EQ(rebuilt, good);
    a.patchDiskRange(3, 77, {&rebuilt, 1});
    EXPECT_TRUE(a.redundancyConsistent());
    expectReadsBack();
}

TEST_P(LazyParity, WritesAfterTheFirstFaultKeepParityInStep)
{
    a.failDisk(4);
    // Across the end of the written stripes, into never-written ones.
    write(a.capacity() / 2 - G / 2, 3 * G + 99, 43);
    expectReadsBack();
    a.rebuildDisk(4);
    EXPECT_TRUE(a.redundancyConsistent());
    expectReadsBack();
}

INSTANTIATE_TEST_SUITE_P(
    Levels, LazyParity,
    ::testing::Values(RaidLevel::Raid3, RaidLevel::Raid5),
    [](const ::testing::TestParamInfo<RaidLevel> &info) {
        return "Raid" + std::string(raid::raidLevelName(info.param) + 5);
    });

/**
 * Level 1 stores mirrors from the first fault on, as levels 3/5 store
 * parity: fault-free writes leave every mirror disk untouched and give
 * nothing to reconstruct from, and failDisk() copies each primary onto
 * its mirror before it destroys a byte.
 */
TEST(LazyMirror, FaultFreeMirrorsStayUntouchedUntilAFault)
{
    for (const unsigned victim : {0u, 1u, 4u}) {
        SCOPED_TRACE("victim disk " + std::to_string(victim));
        RaidArray a(makeCfg(RaidLevel::Raid1, 6), 4 * G + 3000);
        const auto ref = pattern(a.capacity(), 81);
        a.write(0, ref);
        for (unsigned m = 3; m < 6; ++m)
            EXPECT_TRUE(a.untouched(m, 0, a.diskBytes())) << "disk " << m;
        std::vector<std::uint8_t> out(1000, 0xaa);
        EXPECT_FALSE(a.tryReconstructRange(0, 0, out));
        EXPECT_TRUE(std::ranges::all_of(
            out, [](std::uint8_t b) { return b == 0xaa; }));
        EXPECT_TRUE(a.healRedundancyRange(4, 0, a.diskBytes()));
        EXPECT_TRUE(a.untouched(4, 0, a.diskBytes())) << "a heal";
        EXPECT_FALSE(a.redundancyConsistent());

        a.failDisk(victim);
        std::vector<std::uint8_t> back(ref.size(), 0xaa);
        a.read(0, back);
        EXPECT_EQ(back, ref) << "degraded";
        a.rebuildDisk(victim);
        EXPECT_TRUE(a.redundancyConsistent());
        a.read(0, back);
        EXPECT_EQ(back, ref) << "rebuilt";
    }
}

/**
 * RAID-5 parity stored after each disk's data.  Disk order is what
 * every call speaks; these check it against a disk-order image built
 * from the logical bytes alone, over units smaller than, equal to and
 * larger than a granule (only whole-granule units are placed) and
 * disks that end in a partial unit.
 */
class PlacedParity : public ::testing::Test
{
  protected:
    /** Disk @p d in disk order as a clean array holding logical bytes
     *  @p ref keeps it: each piece at its disk offset, each parity
     *  unit the XOR of its stripe's data, zeros past the last
     *  stripe. */
    static std::vector<std::uint8_t>
    diskImage(const RaidArray &a, const std::vector<std::uint8_t> &ref,
              unsigned d)
    {
        const raid::RaidLayout &lay = a.layout();
        std::vector<std::uint8_t> img(a.diskBytes(), 0);
        lay.forEachPiece(
            0, a.capacity(), [&](unsigned, const raid::DiskExtent &e) {
                const std::uint64_t s = e.diskOffset / lay.unitBytes();
                const auto src = ref.begin() + e.logicalOffset;
                if (e.disk == d)
                    std::copy_n(src, e.bytes, img.begin() + e.diskOffset);
                else if (lay.parityDisk(s) == d)
                    for (std::uint64_t i = 0; i < e.bytes; ++i)
                        img[e.diskOffset + i] ^= src[i];
            });
        return img;
    }

    static RaidArray
    make(unsigned disks, std::uint64_t unit, std::uint64_t stripes,
         std::uint64_t tail)
    {
        return RaidArray(makeCfg(RaidLevel::Raid5, disks, unit),
                         stripes * unit + tail);
    }
};

TEST_F(PlacedParity, MatchesADiskOrderImageUnderFaults)
{
    const std::uint64_t units[] = {16 * 1024, G, 2 * G, 3 * G};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Random rng(seed);
        const std::uint64_t unit = units[seed % 4];
        const unsigned n = 3 + static_cast<unsigned>(rng.below(5));
        RaidArray a = make(n, unit, 3 + rng.below(10),
                           seed % 3 == 0 ? 0 : 1 + rng.below(unit - 1));
        const raid::RaidLayout &lay = a.layout();
        const std::uint64_t striped = lay.numStripes() * unit;
        std::vector<std::uint8_t> ref(a.capacity(), 0);
        std::vector<std::uint8_t> back(ref.size());
        int dead = -1;
        bool stored = false; // a fault or a raw view stored parity

        // Compare disk @p d's [off, off+len) through readRaw() after a
        // corrupt() flip (flipped back after), through diskRange()
        // inside one unit and, with no disk failed, through
        // tryReconstructRange().
        auto expectRange = [&](unsigned d, std::uint64_t off,
                               std::uint64_t len) {
            const auto img = diskImage(a, ref, d);
            const auto want = std::span(img).subspan(off, len);
            if (off + len <= striped) {
                std::vector<std::uint8_t> rec(len, 0xaa);
                ASSERT_EQ(a.tryReconstructRange(d, off, rec), stored);
                if (stored) {
                    EXPECT_TRUE(std::ranges::equal(rec, want))
                        << "reconstructed disk " << d << " [" << off
                        << ", +" << len << ")";
                }
            }
            a.corrupt(d, off, len, 0x5a);
            stored = true;
            std::vector<std::uint8_t> raw(len);
            a.readRaw(d, off, raw);
            for (std::uint8_t &b : raw)
                b ^= 0x5a;
            EXPECT_TRUE(std::ranges::equal(raw, want))
                << "disk " << d << " [" << off << ", +" << len << ")";
            a.corrupt(d, off, len, 0x5a);
            if (off / unit == (off + len - 1) / unit) {
                EXPECT_TRUE(
                    std::ranges::equal(a.diskRange(d, off, len), want))
                    << "disk " << d << " [" << off << ", +" << len << ")";
            }
        };

        for (int op = 0; op < 40; ++op) {
            const std::uint64_t pick = rng.below(100);
            if (pick < 50) {
                const std::uint64_t len =
                    1 + rng.below(std::min<std::uint64_t>(
                            ref.size(), 2 * lay.stripeDataBytes()));
                const std::uint64_t off = rng.below(ref.size() - len + 1);
                const auto data = pattern(len, rng.next());
                a.write(off, data);
                std::ranges::copy(data, ref.begin() + off);
            } else if (pick < 60 && dead < 0 && a.latentCount() == 0) {
                const std::uint64_t len = 1 + rng.below(2 * unit);
                a.injectLatent(static_cast<unsigned>(rng.below(n)),
                               rng.below(striped - std::min(len, striped)),
                               std::min(len, striped));
                stored = true;
            } else if (pick < 68) {
                a.scrub();
            } else if (pick < 76 && dead < 0 && a.latentCount() == 0) {
                dead = static_cast<int>(rng.below(n));
                a.failDisk(static_cast<unsigned>(dead));
                stored = true;
            } else if (pick < 88 && dead >= 0) {
                const std::uint64_t off = rng.below(a.diskBytes());
                a.rebuildRange(static_cast<unsigned>(dead), off,
                               1 + rng.below(3 * unit));
                if (rng.chance(0.3)) {
                    a.rebuildDisk(static_cast<unsigned>(dead));
                    dead = -1;
                }
            } else if (dead < 0 && a.latentCount() == 0) {
                // A view inside one unit, or (rarely) anywhere.
                const unsigned d = static_cast<unsigned>(rng.below(n));
                const bool anywhere = rng.chance(0.1);
                const std::uint64_t len =
                    anywhere ? 1 + rng.below(2 * unit)
                             : 1 + rng.below(unit / 2);
                const std::uint64_t off =
                    anywhere ? rng.below(a.diskBytes() - len + 1)
                             : rng.below(lay.numStripes()) * unit +
                                   rng.below(unit - len + 1);
                expectRange(d, off, len);
            }
            a.read(0, back);
            ASSERT_EQ(back, ref) << "after op " << op;
        }

        if (dead >= 0)
            a.rebuildDisk(static_cast<unsigned>(dead));
        a.scrub();
        a.storeParity();
        for (unsigned d = 0; d < n; ++d)
            EXPECT_TRUE(rawDisk(a, d) == diskImage(a, ref, d))
                << "disk " << d;
        EXPECT_TRUE(a.redundancyConsistent());
    }
}

TEST_F(PlacedParity, FaultFreeParityUnitsStayUntouched)
{
    for (const std::uint64_t unit : {G, 2 * G}) {
        for (const unsigned n : {3u, 5u, 16u}) {
            SCOPED_TRACE("unit " + std::to_string(unit) + ", " +
                         std::to_string(n) + " disks");
            RaidArray a = make(n, unit, 2 * n + 3, 5000);
            const raid::RaidLayout &lay = a.layout();
            const auto ref = pattern(a.capacity(), n + unit);
            for (std::uint64_t off = 0; off < ref.size();) {
                const std::uint64_t len =
                    std::min<std::uint64_t>(ref.size() - off, 70000);
                a.write(off, std::span(ref).subspan(off, len));
                off += len;
            }
            for (std::uint64_t s = 0; s < lay.numStripes(); ++s) {
                EXPECT_TRUE(a.untouched(lay.parityDisk(s), s * unit, unit))
                    << "stripe " << s;
                EXPECT_FALSE(a.untouched(lay.dataDisk(s, 0), s * unit, unit))
                    << "stripe " << s;
            }
            std::vector<std::uint8_t> back(ref.size());
            a.read(0, back);
            EXPECT_EQ(back, ref);
            a.storeParity();
            EXPECT_TRUE(a.redundancyConsistent());
            for (std::uint64_t s = 0; s < lay.numStripes(); ++s)
                EXPECT_FALSE(
                    a.untouched(lay.parityDisk(s), s * unit, unit))
                    << "stripe " << s;
        }
    }
}

/**
 * Pins the functional array's bytes at every level.  Disks whose size
 * is not a multiple of the stripe unit take seeded ragged writes; then
 * (Levels 1/3/5) a latent range is written over and scrubbed away, and
 * a disk fails, takes degraded writes and is rebuilt.  Every read-back
 * along the way and every member disk's final image must hash to the
 * value they had when this test was written.  A change to how the
 * array slices ranges or updates parity leaves the digest alone; a
 * change that moves a stored byte updates the constant and says why.
 */
TEST(RaidArrayGolden, DiskImageDigest)
{
    constexpr std::uint64_t goldenDigest = 0x6c477c1ad0630660;
    std::vector<std::uint64_t> sums;
    const ArrayParam params[] = {{RaidLevel::Raid0, 4},
                                 {RaidLevel::Raid1, 4},
                                 {RaidLevel::Raid3, 5},
                                 {RaidLevel::Raid5, 5}};
    for (const ArrayParam &p : params) {
        RaidArray array(makeCfg(p.level, p.disks), 64 * 1024 + 1000);
        sim::Random rng(31);
        std::vector<std::uint8_t> back(array.capacity());
        auto writes = [&](int n, std::uint64_t region) {
            for (int i = 0; i < n; ++i) {
                const std::uint64_t len =
                    1 + rng.below(std::min<std::uint64_t>(20000,
                                                          region / 2));
                const std::uint64_t off = rng.below(region - len);
                const auto data = pattern(len, rng.next());
                array.write(off, {data.data(), data.size()});
            }
        };
        auto readBack = [&] {
            array.read(0, {back.data(), back.size()});
            sums.push_back(lfs::blockChecksum(back));
        };

        writes(40, array.capacity());
        readBack();
        if (p.level != RaidLevel::Raid0) {
            // The writes reach every stripe up to the latent range's.
            const std::uint64_t latentOff = 4096 + 100, latentLen = 3000;
            const raid::RaidLayout &layout = array.layout();
            array.injectLatent(1, latentOff, latentLen);
            readBack();
            writes(6, ((latentOff + latentLen) / layout.unitBytes() + 1) *
                          layout.stripeDataBytes());
            array.scrub();
            readBack();
            array.failDisk(2);
            writes(20, array.capacity());
            readBack();
            array.rebuildDisk(2);
            readBack();
            EXPECT_TRUE(array.redundancyConsistent());
        }
        for (unsigned d = 0; d < array.numDisks(); ++d)
            sums.push_back(lfs::blockChecksum(rawDisk(array, d)));
    }
    const std::span<const std::uint8_t> bytes{
        reinterpret_cast<const std::uint8_t *>(sums.data()),
        sums.size() * sizeof(std::uint64_t)};
    EXPECT_EQ(lfs::blockChecksum(bytes), goldenDigest);
}

} // namespace
