/**
 * @file
 * Timed array tests: topology wiring, read/write completion, the
 * RAID-5 write-algorithm choice (RMW vs reconstruct vs full-stripe),
 * degraded timing, rebuild, and service while the rebuild runs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "disk/disk_profile.hh"
#include "lfs/format.hh"
#include "raid/reconstruct.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using sim::Tick;

struct Rig
{
    sim::EventQueue eq;
    xbus::XbusBoard board{eq, "x"};
    raid::SimArray array;

    explicit Rig(raid::RaidLevel level = raid::RaidLevel::Raid5,
                 unsigned disks_per_string = 3,
                 std::uint64_t unit = 64 * 1024)
        : array(eq, board, "a", makeLayout(level, unit),
                makeTopo(disks_per_string))
    {
    }

    static raid::LayoutConfig
    makeLayout(raid::RaidLevel level, std::uint64_t unit)
    {
        raid::LayoutConfig cfg;
        cfg.level = level;
        cfg.stripeUnitBytes = unit;
        return cfg;
    }

    static raid::ArrayTopology
    makeTopo(unsigned dps)
    {
        raid::ArrayTopology topo;
        topo.disksPerString = dps;
        return topo;
    }
};

TEST(SimArray, TopologyWiring)
{
    Rig rig;
    EXPECT_EQ(rig.array.numDisks(), 24u);
    EXPECT_EQ(rig.array.numCougarControllers(), 4u);
    // String-major numbering: disks 0..11 on first strings.
    for (unsigned d = 0; d < 12; ++d)
        EXPECT_EQ(rig.array.stringOf(d), 0u) << d;
    for (unsigned d = 12; d < 24; ++d)
        EXPECT_EQ(rig.array.stringOf(d), 1u) << d;
    EXPECT_EQ(rig.array.cougarOf(0), 0u);
    EXPECT_EQ(rig.array.cougarOf(3), 1u);
    EXPECT_EQ(rig.array.cougarOf(12), 0u);
}

TEST(SimArray, ReadCompletesAndRecordsStats)
{
    Rig rig;
    bool done = false;
    rig.array.read(0, 1024 * 1024, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.array.reads(), 1u);
    EXPECT_EQ(rig.array.bytesRead(), 1024u * 1024);
    EXPECT_EQ(rig.array.readLatencyMs().count(), 1u);
    // A 1 MB read over 16 disks should land in tens of milliseconds.
    EXPECT_GT(rig.array.readLatencyMs().mean(), 10.0);
    EXPECT_LT(rig.array.readLatencyMs().mean(), 200.0);
}

TEST(SimArray, LargeReadsSpreadAcrossDisks)
{
    Rig rig;
    bool done = false;
    // One full stripe touches all 24 disks (23 data + no parity read).
    rig.array.read(0, 23ull * 64 * 1024, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    unsigned touched = 0;
    for (unsigned d = 0; d < rig.array.numDisks(); ++d)
        touched += rig.array.disk(d).requests() > 0 ? 1 : 0;
    EXPECT_EQ(touched, 23u);
}

TEST(SimArray, FullStripeWriteAvoidsOldDataReads)
{
    Rig rig;
    bool done = false;
    const std::uint64_t stripe =
        rig.array.layout().stripeDataBytes();
    rig.array.write(0, stripe, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.array.fullStripeWrites(), 1u);
    EXPECT_EQ(rig.array.rmwStripes(), 0u);
    // No disk performed a read.
    for (unsigned d = 0; d < rig.array.numDisks(); ++d)
        EXPECT_EQ(rig.array.disk(d).sectorsRead(), 0u) << d;
}

TEST(SimArray, SmallWriteUsesRmw)
{
    Rig rig;
    bool done = false;
    rig.array.write(0, 4096, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.array.rmwStripes(), 1u);
    // RMW reads old data + old parity before writing.
    std::uint64_t reads = 0, writes = 0;
    for (unsigned d = 0; d < rig.array.numDisks(); ++d) {
        reads += rig.array.disk(d).sectorsRead();
        writes += rig.array.disk(d).sectorsWritten();
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, 0u);
}

TEST(SimArray, WideParitalWriteUsesReconstruct)
{
    Rig rig;
    bool done = false;
    // 20 of 23 units: reconstruct-write (read 3) beats RMW (read 21).
    rig.array.write(0, 20ull * 64 * 1024, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.array.reconstructWriteStripes(), 1u);
    EXPECT_EQ(rig.array.rmwStripes(), 0u);
}

TEST(SimArray, WritesAreSlowerThanReads)
{
    auto run = [](bool write) {
        Rig rig;
        bool done = false;
        if (write)
            rig.array.write(64 * 1024, 256 * 1024,
                            [&] { done = true; });
        else
            rig.array.read(64 * 1024, 256 * 1024, [&] { done = true; });
        rig.eq.run();
        EXPECT_TRUE(done);
        return rig.eq.now();
    };
    EXPECT_GT(run(true), run(false));
}

TEST(SimArray, Raid0WriteTouchesOnlyTargets)
{
    Rig rig(raid::RaidLevel::Raid0);
    bool done = false;
    rig.array.write(0, 4096, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    std::uint64_t writes = 0, reads = 0;
    for (unsigned d = 0; d < rig.array.numDisks(); ++d) {
        writes += rig.array.disk(d).sectorsWritten();
        reads += rig.array.disk(d).sectorsRead();
    }
    EXPECT_EQ(writes, 8u); // 4 KB = 8 sectors, one disk
    EXPECT_EQ(reads, 0u);
}

TEST(SimArray, Raid1WritesBothMirrors)
{
    Rig rig(raid::RaidLevel::Raid1);
    bool done = false;
    rig.array.write(0, 4096, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    std::uint64_t writes = 0;
    for (unsigned d = 0; d < rig.array.numDisks(); ++d)
        writes += rig.array.disk(d).sectorsWritten();
    EXPECT_EQ(writes, 16u); // primary + mirror
}

TEST(SimArray, DegradedReadTouchesSurvivorsAndParityEngine)
{
    Rig rig;
    rig.array.failDisk(2);
    // Find a range living on disk 2: unit 0 of some stripe... just
    // read a whole stripe, which must include the dead disk.
    bool done = false;
    const std::uint64_t before = rig.board.parity().passes();
    rig.array.read(0, rig.array.layout().stripeDataBytes(),
                   [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GT(rig.board.parity().passes(), before);
    EXPECT_EQ(rig.array.disk(2).requests(), 0u);
}

/**
 * The disks a timed reconstruction reads are exactly
 * RaidLayout::forEachSource's, at every level and for every dead disk:
 * none at RAID-0 (nothing is issued), the mirror partner at RAID-1 (a
 * copy, no parity pass), every other disk at RAID-3/5 (one pass).  With
 * one of them failed it issues nothing.
 */
TEST(SimArray, ReconstructReadsExactlyTheSources)
{
    constexpr std::uint64_t bytes = 64 * 1024;
    for (const raid::RaidLevel level :
         {raid::RaidLevel::Raid0, raid::RaidLevel::Raid1,
          raid::RaidLevel::Raid3, raid::RaidLevel::Raid5}) {
        SCOPED_TRACE(raid::raidLevelName(level));
        Rig rig(level, 2); // 16 disks
        const unsigned n = rig.array.numDisks();
        for (unsigned dead = 0; dead < n; ++dead) {
            std::vector<bool> source(n, false);
            rig.array.layout().forEachSource(
                dead, [&](unsigned d) { source[d] = true; });
            std::vector<std::uint64_t> before(n);
            for (unsigned d = 0; d < n; ++d)
                before[d] = rig.array.disk(d).requests();
            const std::uint64_t passes = rig.board.parity().passes();
            bool done = false;
            const bool issued = rig.array.reconstruct(
                dead, 8 * bytes, bytes, [&] { done = true; });
            rig.eq.run();
            EXPECT_EQ(issued, level != raid::RaidLevel::Raid0);
            EXPECT_EQ(done, issued);
            EXPECT_EQ(rig.board.parity().passes() - passes,
                      issued && level != raid::RaidLevel::Raid1 ? 1u : 0u);
            // Each source reads the range once (a transfer may take
            // several drive requests); no other disk reads at all.
            std::uint64_t per = 0;
            for (unsigned d = 0; d < n; ++d) {
                const std::uint64_t reads =
                    rig.array.disk(d).requests() - before[d];
                if (source[d] && per == 0)
                    per = reads;
                EXPECT_EQ(reads, source[d] ? per : 0u)
                    << "dead " << dead << ", disk " << d;
            }
            EXPECT_EQ(per > 0, issued);
        }

        rig.array.failDisk(3);
        for (unsigned dead = 0; dead < n; ++dead) {
            bool lost = level == raid::RaidLevel::Raid0;
            rig.array.layout().forEachSource(
                dead, [&](unsigned d) { lost = lost || d == 3; });
            bool done = false;
            EXPECT_EQ(rig.array.reconstruct(dead, 0, bytes,
                                            [&] { done = true; }),
                      !lost)
                << "dead " << dead << " with disk 3 failed";
            rig.eq.run();
            EXPECT_EQ(done, !lost) << "dead " << dead;
        }
    }
}

/**
 * A read of a failed RAID-1 disk is a degraded read: it is counted, and
 * reconstruct() copies the mirror partner with the timing of a plain
 * read of the mirror.
 */
TEST(SimArray, Raid1ReadOfAFailedDiskIsDegraded)
{
    Rig rig(raid::RaidLevel::Raid1);
    const unsigned mirror = rig.array.layout().mirrorDisk(0);
    rig.array.failDisk(0);
    Tick at = 0;
    // Row 0 is even, so the read goes to the failed primary.
    rig.array.read(0, 64 * 1024, [&] { at = rig.eq.now(); });
    rig.eq.run();
    EXPECT_EQ(rig.array.degradedReads(), 1u);
    EXPECT_EQ(rig.array.degradedBytes(), 64u * 1024);
    EXPECT_EQ(at, 56002322u);
    EXPECT_EQ(rig.array.disk(mirror).sectorsRead(), 128u);
    EXPECT_EQ(rig.board.parity().passes(), 0u);
}

/** One "name = value" line of @p array's registry dump. */
std::string
statLine(const raid::SimArray &array, const std::string &name)
{
    sim::StatsRegistry reg;
    array.registerStats(reg);
    std::ostringstream os;
    reg.dump(os);
    const std::string text = os.str();
    const auto at = text.find(name + " = ");
    if (at == std::string::npos)
        return {};
    return text.substr(at, text.find('\n', at) - at);
}

TEST(SimArray, Raid0LatentReadCompletesUnrecoverable)
{
    // No redundancy: the read fails fast, with nothing to repair from.
    Rig rig(raid::RaidLevel::Raid0);
    const unsigned d = rig.array.layout().dataDisk(0, 0);
    rig.array.injectLatent(d, 4096, 8192);
    bool done = false;
    rig.array.read(0, 64 * 1024, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(statLine(rig.array, "raid.unrecoverable_reads"),
              "raid.unrecoverable_reads = 1");
    EXPECT_EQ(rig.array.latentRepairReads(), 0u);
    EXPECT_EQ(rig.array.latentRangesOutstanding(), 1u);
}

TEST(SimArray, LatentWhoseSourceFailedIsUnrecoverable)
{
    // A RAID-5 latent, then a failure of another disk of its stripe:
    // the drive's retry pass runs, and no reconstruction can follow.
    Rig rig;
    const auto &layout = rig.array.layout();
    const unsigned d = layout.dataDisk(0, 0);
    rig.array.injectLatent(d, 4096, 8192);
    rig.array.failDisk(layout.parityDisk(0));
    Tick at = 0;
    rig.array.read(0, 64 * 1024, [&] { at = rig.eq.now(); });
    rig.eq.run();
    EXPECT_GT(at, 0u);
    EXPECT_EQ(rig.array.latentRepairReads(), 1u);
    EXPECT_EQ(statLine(rig.array, "raid.unrecoverable_reads"),
              "raid.unrecoverable_reads = 1");
    EXPECT_EQ(rig.array.readRepairedRanges(), 0u);
    EXPECT_EQ(rig.array.latentRangesOutstanding(), 1u);
    EXPECT_EQ(rig.board.parity().passes(), 0u);
}

TEST(SimArray, DegradedReadSlowerThanHealthy)
{
    auto run = [](bool degrade) {
        Rig rig;
        if (degrade)
            rig.array.failDisk(0);
        bool done = false;
        rig.array.read(0, 1024 * 1024, [&] { done = true; });
        rig.eq.run();
        return rig.eq.now();
    };
    EXPECT_GT(run(true), run(false));
}

TEST(SimArray, ConcurrentWritesToOneStripeSerialize)
{
    auto run = [](bool same_stripe) {
        Rig rig;
        const std::uint64_t sdb =
            rig.array.layout().stripeDataBytes();
        int done = 0;
        rig.array.write(0, 4096, [&] { ++done; });
        rig.array.write(same_stripe ? 8192 : sdb, 4096,
                        [&] { ++done; });
        rig.eq.run();
        EXPECT_EQ(done, 2);
        return std::pair{rig.eq.now(), rig.array.stripeLockWaits()};
    };
    const auto [same_t, same_waits] = run(true);
    const auto [diff_t, diff_waits] = run(false);
    EXPECT_EQ(same_waits, 1u);
    EXPECT_EQ(diff_waits, 0u);
    // Same-stripe writes cannot overlap their RMW sequences.
    EXPECT_GT(same_t, diff_t);
}

TEST(SimArray, StripeLockDrainsAllWaiters)
{
    Rig rig;
    int done = 0;
    for (int i = 0; i < 6; ++i)
        rig.array.write(std::uint64_t(i) * 4096, 4096, [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 6);
    EXPECT_EQ(rig.array.stripeLockWaits(), 5u);
}

TEST(SimArray, DegradedWriteSkipsDeadDisk)
{
    Rig rig;
    rig.array.failDisk(0);
    bool done = false;
    // Full-stripe write: the dead disk's unit is simply not written
    // (parity covers it).
    rig.array.write(0, rig.array.layout().stripeDataBytes(),
                    [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.array.disk(0).sectorsWritten(), 0u);
}

/**
 * Pins the timed write path at every level, healthy and with disk 3
 * failed.  Fixed writes cover each parity update: a full stripe, a
 * 4 KB read-modify-write, a 20-unit reconstruct-write, two writes to
 * one stripe, an unaligned multi-stripe range and the tie (11 whole
 * units of a 23-unit stripe: both updates pre-read 12 units, and the
 * rule picks read-modify-write); seeded ragged writes follow.  All are
 * issued at once.  Each write's completion tick, the three stripe
 * counters, every disk's sectors read and written and the parity
 * engine's passes and bytes must hash to the value they had when this
 * test was written.  A change that only restructures the write path
 * leaves the digest alone; a change that moves an event updates the
 * constant and says why.
 */
TEST(SimArrayGolden, WriteTimeline)
{
    constexpr std::uint64_t goldenDigest = 0x077f31df2d54fc47;
    std::vector<std::uint64_t> trace;
    for (auto level : {raid::RaidLevel::Raid0, raid::RaidLevel::Raid1,
                       raid::RaidLevel::Raid3, raid::RaidLevel::Raid5}) {
        for (bool degraded : {false, true}) {
            Rig rig(level);
            if (degraded)
                rig.array.failDisk(3);
            const raid::RaidLayout &layout = rig.array.layout();
            const std::uint64_t unit = layout.unitBytes();
            const std::uint64_t sdb = layout.stripeDataBytes();
            std::vector<std::pair<std::uint64_t, std::uint64_t>> writes = {
                {0, sdb},
                {sdb + 4096, 4096},
                {2 * sdb, 20 * unit},
                {3 * sdb + 8192, 4096},
                {3 * sdb + 5 * unit, 4096},
                {4 * sdb + 12345, 2 * sdb + 54321},
                {7 * sdb + 3 * unit, 11 * unit},
            };
            sim::Random rng(17);
            for (int i = 0; i < 12; ++i) {
                const std::uint64_t len = 1 + rng.below(3 * sdb);
                writes.emplace_back(rng.below(64 * sdb), len);
            }
            std::vector<Tick> doneAt(writes.size(), 0);
            for (std::size_t i = 0; i < writes.size(); ++i)
                rig.array.write(writes[i].first, writes[i].second,
                                [&doneAt, &rig, i] {
                                    doneAt[i] = rig.eq.now();
                                });
            rig.eq.run();
            for (Tick t : doneAt) {
                ASSERT_GT(t, 0u);
                trace.push_back(t);
            }
            trace.push_back(rig.array.fullStripeWrites());
            trace.push_back(rig.array.rmwStripes());
            trace.push_back(rig.array.reconstructWriteStripes());
            for (unsigned d = 0; d < rig.array.numDisks(); ++d) {
                trace.push_back(rig.array.disk(d).sectorsRead());
                trace.push_back(rig.array.disk(d).sectorsWritten());
            }
            trace.push_back(rig.board.parity().passes());
            trace.push_back(rig.board.parity().bytesProcessed());
        }
    }
    const std::span<const std::uint8_t> bytes{
        reinterpret_cast<const std::uint8_t *>(trace.data()),
        trace.size() * sizeof(std::uint64_t)};
    EXPECT_EQ(lfs::blockChecksum(bytes), goldenDigest);
}

TEST(RebuildJob, RebuildsAllStripesAndRestoresDisk)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    raid::ArrayTopology topo;
    topo.disksPerString = 1; // 8 disks, keep the sweep small
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    lcfg.stripeUnitBytes = 1024 * 1024; // few, fat stripes
    raid::SimArray array(eq, board, "a", lcfg, topo);

    array.failDisk(3);
    raid::RebuildJob job(eq, "rebuild", array, 3, 2);
    bool done = false;
    job.start([&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(array.isFailed(3));
    EXPECT_EQ(job.stripesDone(), array.layout().numStripes());
    EXPECT_GT(array.disk(3).sectorsWritten(), 0u);
}

TEST(RebuildJob, Raid1CopiesTheMirror)
{
    // A mirror is rebuilt by copying its partner: no other survivor is
    // read and the parity engine stays idle.
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    disk::DiskProfile small = disk::ibm0661();
    small.cylinders /= 40; // a short sweep
    raid::ArrayTopology topo;
    topo.disksPerString = 2; // 16 disks
    topo.profile = &small;
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid1;
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::SimArray array(eq, board, "a", lcfg, topo);

    const unsigned dead = 3;
    const unsigned partner = array.layout().mirrorPartner(dead);
    array.failDisk(dead);
    raid::RebuildJob job(eq, "rebuild", array, dead, 4);
    bool done = false;
    job.start([&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(job.stripesDone(), array.layout().numStripes());

    EXPECT_GT(array.disk(dead).sectorsWritten(), 0u);
    EXPECT_EQ(array.disk(partner).sectorsRead(),
              array.disk(dead).sectorsWritten());
    for (unsigned d = 0; d < array.numDisks(); ++d) {
        if (d != partner) {
            EXPECT_EQ(array.disk(d).sectorsRead(), 0u) << "disk " << d;
        }
    }
    EXPECT_EQ(board.parity().passes(), 0u);
}

/**
 * A 16-disk array of small drives (RAID-5 unless given) with one disk
 * failed (disk 3 unless given) and a rebuild of it running, one stripe
 * at a time at full speed.
 */
struct RebuildRig
{
    static constexpr std::uint64_t unit = 64 * 1024;

    const unsigned dead;
    disk::DiskProfile small = smallProfile();
    sim::EventQueue eq;
    xbus::XbusBoard board{eq, "x"};
    raid::SimArray array;
    std::unique_ptr<raid::RebuildJob> job;
    bool rebuilt = false;

    explicit RebuildRig(raid::RaidLevel level = raid::RaidLevel::Raid5,
                        unsigned dead_disk = 3)
        : dead(dead_disk),
          array(eq, board, "a", Rig::makeLayout(level, unit),
                topology(small))
    {
        array.failDisk(dead);
        job = std::make_unique<raid::RebuildJob>(eq, "rebuild", array,
                                                 dead, 1);
        job->start([this] { rebuilt = true; });
    }

    static disk::DiskProfile
    smallProfile()
    {
        disk::DiskProfile p = disk::ibm0661();
        p.cylinders /= 40; // a short sweep
        return p;
    }

    static raid::ArrayTopology
    topology(const disk::DiskProfile &p)
    {
        raid::ArrayTopology topo;
        topo.disksPerString = 2; // 16 disks
        topo.profile = &p;
        return topo;
    }

    /** Run until @p n stripes are rebuilt.  The job then has just
     *  launched stripe n, which holds its stripe lock. */
    void
    runTo(std::uint64_t n)
    {
        eq.runUntilDone([this, n] { return job->stripesDone() >= n; });
    }

    /** Logical offset of the start of the dead disk's RAID-5 data unit
     *  in @p stripe. */
    std::uint64_t
    deadUnit(std::uint64_t stripe) const
    {
        const raid::RaidLayout &layout = array.layout();
        for (unsigned k = 0; k < layout.dataUnitsPerStripe(); ++k) {
            if (layout.dataDisk(stripe, k) == dead)
                return stripe * layout.stripeDataBytes() + k * unit;
        }
        ADD_FAILURE() << "disk " << dead << " holds parity in stripe "
                      << stripe;
        return 0;
    }

    /** Issue op(done) and run until it completes. */
    void
    complete(const std::function<void(std::function<void()>)> &op)
    {
        bool done = false;
        op([&done] { done = true; });
        ASSERT_TRUE(eq.runUntilDone([&done] { return done; }));
    }

    /** Sectors the rebuild itself writes to the dead disk. */
    std::uint64_t
    rebuildSectors() const
    {
        return array.layout().numStripes() * unit / 512;
    }
};

TEST(RebuildJob, ReadsBehindTheCursorGoToTheReplacement)
{
    RebuildRig rig;
    rig.runTo(8);
    ASSERT_TRUE(rig.array.live(rig.dead, 0, 8 * rig.unit));
    // The rebuild only writes the dead disk, so its reads are ours.
    const std::uint64_t degraded = rig.array.degradedReads();
    ASSERT_EQ(rig.array.disk(rig.dead).sectorsRead(), 0u);

    rig.complete([&](auto done) {
        rig.array.read(rig.deadUnit(2), 4096, std::move(done));
    });
    EXPECT_EQ(rig.array.degradedReads(), degraded);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);

    // Ahead of the cursor the survivors still reconstruct the unit.
    rig.complete([&](auto done) {
        rig.array.read(rig.deadUnit(40), 4096, std::move(done));
    });
    EXPECT_FALSE(rig.array.live(rig.dead, 40 * rig.unit, rig.unit));
    EXPECT_EQ(rig.array.degradedReads(), degraded + 1);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);

    rig.eq.run();
    EXPECT_TRUE(rig.rebuilt);
    EXPECT_FALSE(rig.array.isFailed(rig.dead));
}

TEST(RebuildJob, WritesBehindTheCursorReachTheReplacement)
{
    // Each write is a 4 KB read-modify-write of the dead disk's unit.
    // Behind the cursor it pre-reads and rewrites the replacement;
    // ahead of it the dead unit is reconstructed and not written (the
    // rebuild writes it later, with the new bytes).
    RebuildRig rig;
    rig.runTo(8);
    rig.complete([&](auto done) {
        rig.array.write(rig.deadUnit(2), 4096, std::move(done));
    });
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);
    const std::uint64_t degraded = rig.array.degradedReads();
    rig.complete([&](auto done) {
        rig.array.write(rig.deadUnit(40), 4096, std::move(done));
    });
    EXPECT_FALSE(rig.array.live(rig.dead, 40 * rig.unit, rig.unit));
    EXPECT_EQ(rig.array.degradedReads(), degraded + 1);

    rig.eq.run();
    ASSERT_TRUE(rig.rebuilt);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsWritten(),
              rig.rebuildSectors() + 8);
    EXPECT_EQ(rig.array.disk(rig.dead).requests(),
              rig.array.layout().numStripes() + 2);
}

TEST(RebuildJob, WriteRacingItsStripeWaitsForTheRebuild)
{
    // The rebuild step holds the stripe lock from reconstruction to
    // the replacement write, so a write to that stripe queues behind
    // it and then updates the replacement instead of leaving it stale.
    RebuildRig rig;
    rig.runTo(8);
    ASSERT_FALSE(rig.array.live(rig.dead, 8 * rig.unit, rig.unit));
    const std::uint64_t waits = rig.array.stripeLockWaits();
    const std::uint64_t degraded = rig.array.degradedReads();
    rig.complete([&](auto done) {
        rig.array.write(rig.deadUnit(8), 4096, std::move(done));
    });
    EXPECT_EQ(rig.array.stripeLockWaits(), waits + 1);
    EXPECT_GT(rig.array.stripeLockWaitMs().mean(), 0.0);
    EXPECT_EQ(rig.array.degradedReads(), degraded);

    rig.eq.run();
    ASSERT_TRUE(rig.rebuilt);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsWritten(),
              rig.rebuildSectors() + 8);
}

TEST(RebuildJob, Raid1RebuiltMirrorTakesItsRowsBack)
{
    // RAID-1 reads alternate stripe rows between a pair.  With mirror 11
    // (of primary 3) failed, its odd rows go to the primary; once the
    // rebuild has passed a row, the replacement serves it again.
    RebuildRig rig(raid::RaidLevel::Raid1, 11);
    ASSERT_EQ(rig.array.layout().mirrorPartner(rig.dead), 3u);
    rig.runTo(8);
    auto readRow = [&](std::uint64_t row) {
        rig.complete([&](auto done) {
            rig.array.read(row * rig.array.layout().stripeDataBytes() +
                               3 * rig.unit,
                           4096, std::move(done));
        });
    };
    readRow(5);
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);
    readRow(41);
    EXPECT_FALSE(rig.array.live(rig.dead, 41 * rig.unit, rig.unit));
    EXPECT_EQ(rig.array.disk(rig.dead).sectorsRead(), 8u);
    EXPECT_EQ(rig.array.degradedReads(), 0u);
}

} // namespace
