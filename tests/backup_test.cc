/**
 * @file
 * Backup/restore subsystem tests: full backup + restore + two-way
 * byte verification between two servers over HIPPI (and the verdict
 * when the target differs), incremental delta-since-base streams,
 * retry/backoff across injected link drops, a digest pin of the bytes
 * a restore leaves on the target, and the end-to-end online-backup
 * demo — an incremental stream with injected drops while a client
 * fleet hammers the source through the request scheduler, restored
 * onto a fresh array, fsck-clean and byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "lfs/format.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"
#include "snap/backup_engine.hh"
#include "snap/snapshot_manager.hh"
#include "workload/client_fleet.hh"

namespace {

using namespace raid2;

std::vector<std::uint8_t>
fill(std::uint64_t len, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(len);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (auto &b : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x);
    }
    return v;
}

server::Raid2Server::Config
serverConfig()
{
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.withFs = true;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

/** Two servers wired for backup, with some source content. */
struct Rig
{
    sim::EventQueue eq;
    server::Raid2Server src{eq, "src", serverConfig()};
    server::Raid2Server dst{eq, "dst", serverConfig()};
    snap::SnapshotManager mgr{src};
    snap::BackupEngine eng{eq, src, dst};

    std::vector<std::vector<std::uint8_t>> content;

    void
    populate(unsigned files, std::uint64_t bytes, std::uint64_t seed)
    {
        for (unsigned i = 0; i < files; ++i) {
            const std::string path =
                "/demo" + std::to_string(content.size());
            const lfs::InodeNum ino = src.createFile(path);
            content.push_back(fill(bytes, seed + i));
            src.fs().write(ino, 0,
                           {content.back().data(),
                            content.back().size()});
        }
    }

    void
    backupFull(const std::string &name)
    {
        bool done = false;
        eng.backupFull(name, [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        ASSERT_TRUE(done);
    }

    void
    backupIncremental(const std::string &name, const std::string &base)
    {
        bool done = false;
        eng.backupIncremental(name, base, [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        ASSERT_TRUE(done);
    }

    lfs::FsckReport
    restore(const std::string &name)
    {
        lfs::FsckReport rep;
        bool done = false;
        eng.restore(name, [&](const lfs::FsckReport &r) {
            rep = r;
            done = true;
        });
        eq.runUntilDone([&] { return done; });
        EXPECT_TRUE(done);
        return rep;
    }
};

TEST(BackupEngine, FullBackupRestoreVerifiesByteIdentical)
{
    Rig rig;
    rig.populate(4, 200 * 1024, 1);
    rig.mgr.create("s1");

    rig.backupFull("s1");
    EXPECT_GT(rig.eng.segmentsSent(), 0u);
    EXPECT_GT(rig.eng.bytesSent(), 0u);
    EXPECT_EQ(rig.eng.fullBackups(), 1u);
    EXPECT_GT(rig.eng.channel().packets(), 0u);

    const lfs::FsckReport rep = rig.restore("s1");
    EXPECT_TRUE(rep.ok);
    EXPECT_EQ(rig.eng.restoresDone(), 1u);

    const auto verdict = rig.eng.verify("s1");
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.files, 4u);
    EXPECT_TRUE(verdict.mismatches.empty());

    // Spot check through the restored server's own file system.
    const auto st = rig.dst.fs().stat("/demo0");
    std::vector<std::uint8_t> got(st.size);
    rig.dst.fs().read(st.ino, 0, {got.data(), got.size()});
    EXPECT_EQ(got, rig.content[0]);

    sim::StatsRegistry reg;
    rig.eng.registerStats(reg);
    for (const char *key :
         {"backup.segments", "backup.bytes", "backup.retries",
          "backup.skipped_segments", "backup.full",
          "backup.incremental", "backup.restores", "backup.window",
          "backup.hippi.packets"}) {
        EXPECT_TRUE(reg.contains(key)) << key;
    }
}

// verify() reads the snapshot and the target through one decoder, so
// it must still tell them apart.
TEST(BackupEngine, VerifyReportsABadRestore)
{
    Rig rig;
    rig.populate(2, 64 * 1024, 21);
    rig.mgr.create("s1");
    rig.backupFull("s1");
    ASSERT_TRUE(rig.restore("s1").ok);
    ASSERT_TRUE(rig.eng.verify("s1").ok);

    // One rewritten byte in a restored file, one node the snapshot
    // never had.
    lfs::Lfs &tfs = rig.dst.fs();
    const std::uint8_t flipped = rig.content[0][100] ^ 0xff;
    tfs.write(tfs.lookup("/demo0"), 100, {&flipped, 1});
    tfs.create("/extra");

    const auto verdict = rig.eng.verify("s1");
    EXPECT_FALSE(verdict.ok);
    EXPECT_EQ(verdict.mismatches,
              (std::vector<std::string>{"content mismatch /demo0",
                                        "unexpected node /extra"}));
}

/**
 * Pins the bytes a restore leaves on the target: a full backup, an
 * incremental one, and a restore of the incremental snapshot; the
 * XXH64 of the whole target device must hash to the value it had when
 * this test was written.  A change that only moves code leaves it
 * alone; a change that moves a byte on the media updates the constant
 * and says why.
 */
TEST(BackupGolden, RestoredDeviceDigest)
{
    constexpr std::uint64_t goldenDigest = 0x0541228718a895e6;
    Rig rig;
    rig.populate(4, 96 * 1024, 31);
    rig.src.fs().mkdir("/dir");
    const auto nested = fill(40 * 1024, 99);
    rig.src.fs().write(rig.src.createFile("/dir/nested"), 0,
                       {nested.data(), nested.size()});
    rig.mgr.create("base");
    rig.backupFull("base");
    rig.populate(2, 160 * 1024, 61);
    rig.mgr.create("delta");
    rig.backupIncremental("delta", "base");

    ASSERT_TRUE(rig.restore("delta").ok);
    const auto verdict = rig.eng.verify("delta");
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.files, 7u);
    EXPECT_EQ(verdict.directories, 2u);

    fs::BlockDevice &dev = rig.dst.rawFsDevice();
    std::vector<std::uint8_t> image(dev.numBlocks() * dev.blockSize());
    dev.readRange(0, dev.numBlocks(), {image.data(), image.size()});
    EXPECT_EQ(lfs::blockChecksum(image), goldenDigest);
}

TEST(BackupEngine, IncrementalShipsOnlyTheDelta)
{
    Rig rig;
    rig.populate(3, 150 * 1024, 2);
    rig.mgr.create("base");
    rig.backupFull("base");
    const std::uint64_t full_segs = rig.eng.segmentsSent();

    // New data after the base snapshot: the delta.
    rig.populate(2, 150 * 1024, 50);
    rig.mgr.create("delta");

    bool done = false;
    rig.eng.backupIncremental("delta", "base", [&] { done = true; });
    rig.eq.runUntilDone([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(rig.eng.incrementalBackups(), 1u);
    EXPECT_GT(rig.eng.segmentsSkipped(), 0u); // base segments reused
    const std::uint64_t delta_segs =
        rig.eng.segmentsSent() - full_segs;
    EXPECT_GT(delta_segs, 0u);
    EXPECT_LT(delta_segs, delta_segs + rig.eng.segmentsSkipped());

    const lfs::FsckReport rep = rig.restore("delta");
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rig.eng.verify("delta").ok);

    // Without its base on the target, an incremental must refuse.
    Rig fresh;
    fresh.populate(1, 64 * 1024, 3);
    fresh.mgr.create("b0");
    fresh.populate(1, 64 * 1024, 4);
    fresh.mgr.create("b1");
    bool threw = false;
    try {
        fresh.eng.backupIncremental("b1", "b0", [] {});
    } catch (const lfs::LfsError &) {
        threw = true;
    }
    EXPECT_TRUE(threw);
}

TEST(BackupEngine, SurvivesInjectedHippiLinkDrops)
{
    Rig rig;
    rig.populate(6, 300 * 1024, 7);
    rig.mgr.create("s1");

    // Replay scripted link drops through the fault layer while the
    // stream runs; backoff must absorb them.
    fault::FaultController ctl(
        rig.eq, "faults",
        {&rig.src.array(), &rig.eng.channel()});
    fault::FaultPlan plan;
    // An outage spanning most of the stream: reading one segment from
    // the array takes ~100ms of simulated time, so the first segment
    // send must probe a downed link and enter exponential backoff.
    plan.hippiLinkDrop(sim::usToTicks(10), sim::msToTicks(300.0));
    ctl.setPlan(plan);
    ctl.start();

    rig.backupFull("s1");
    EXPECT_GE(rig.eng.channel().linkDrops(), 1u);
    EXPECT_GT(rig.eng.retries(), 0u);

    const lfs::FsckReport rep = rig.restore("s1");
    EXPECT_TRUE(rep.ok);
    const auto verdict = rig.eng.verify("s1");
    EXPECT_TRUE(verdict.ok);
    EXPECT_TRUE(verdict.mismatches.empty());
}

TEST(BackupDemo, OnlineIncrementalBackupUnderFleetLoad)
{
    // The ISSUE's end-to-end demo: snapshot a loaded file system, run
    // an incremental backup over HIPPI with injected link drops while
    // a client fleet issues ops through the request scheduler, then
    // restore onto the fresh second array, fsck clean, and verify
    // every file byte-identical to the source snapshot.
    Rig rig;
    rig.populate(4, 256 * 1024, 11);
    rig.mgr.create("base");
    rig.backupFull("base");

    rig.populate(3, 256 * 1024, 40);
    rig.mgr.create("delta");

    fault::FaultController ctl(
        rig.eq, "faults",
        {&rig.src.array(), &rig.eng.channel()});
    fault::FaultPlan plan;
    // The delta segment's array read contends with the fleet, so the
    // outage has to span well past the stream's first send probe.
    plan.hippiLinkDrop(rig.eq.now() + sim::usToTicks(100),
                       sim::msToTicks(800.0));
    ctl.setPlan(plan);
    ctl.start();

    bool backup_done = false;
    rig.eng.backupIncremental("delta", "base",
                              [&] { backup_done = true; });

    // Fleet traffic through the scheduler while the stream runs.
    server::RequestScheduler sched(rig.eq, rig.src);
    workload::ClientFleet::Config fcfg;
    fcfg.sessions = 8;
    fcfg.fileCount = 4;
    fcfg.fileBytes = 256 * 1024;
    fcfg.opsPerSession = 6;
    fcfg.bulkBytes = 128 * 1024;
    const auto results =
        workload::ClientFleet::run(rig.eq, rig.src, sched, fcfg);
    EXPECT_EQ(results.ops, 8u * 6u);
    EXPECT_EQ(results.dropped, 0u);

    rig.eq.runUntilDone([&] { return backup_done; });
    ASSERT_TRUE(backup_done);
    EXPECT_GE(rig.eng.channel().linkDrops(), 1u);
    EXPECT_GE(rig.eng.retries() + rig.eng.channel().deferredSends(),
              1u);

    const lfs::FsckReport rep = rig.restore("delta");
    EXPECT_TRUE(rep.ok);

    const auto verdict = rig.eng.verify("delta");
    EXPECT_TRUE(verdict.ok) << (verdict.mismatches.empty()
                                    ? ""
                                    : verdict.mismatches.front());
    EXPECT_EQ(verdict.files, 7u); // 4 base + 3 delta demo files
    EXPECT_TRUE(verdict.mismatches.empty());

    // The fleet's own files exist only in the live source — the
    // restored target is exactly the snapshot, nothing newer.
    EXPECT_GT(verdict.bytes, 0u);
}

} // namespace
