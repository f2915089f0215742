/**
 * @file
 * Cross-module integration tests: end-to-end scenarios combining the
 * file system, RAID, server datapaths, networks and failure handling
 * — the "does the whole machine hang together" suite, including the
 * paper's qualitative claims as assertions.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "fs/array_block_device.hh"
#include "lfs/lfs.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "raid/raid_array.hh"
#include "server/file_protocol.hh"
#include "server/raid1_server.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/generators.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::Status;

Raid2Server::Config
cfg16()
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

TEST(Integration, LfsOnFunctionalRaidArraySurvivesDiskLoss)
{
    // Mount the real LFS on the real RAID-5 array; fail a disk; all
    // file data must still read back.
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    lcfg.numDisks = 8;
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::RaidArray array(lcfg, 8 * 1024 * 1024);
    array.storeParity(); // so LFS's writes keep parity in step
    fs::ArrayBlockDevice dev(array, 4096);

    lfs::Lfs::Params p;
    p.segBlocks = 32;
    lfs::Lfs::format(dev, p);
    lfs::Lfs fs(dev);

    sim::Random rng(1);
    std::vector<std::uint8_t> data(3 * 1024 * 1024);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const auto ino = fs.create("/payload");
    fs.write(ino, 0, {data.data(), data.size()});
    fs.checkpoint();
    EXPECT_TRUE(array.redundancyConsistent());

    array.failDisk(3);
    std::vector<std::uint8_t> back(data.size());
    fs.read(ino, 0, {back.data(), back.size()});
    EXPECT_EQ(back, data);

    array.rebuildDisk(3);
    EXPECT_TRUE(array.redundancyConsistent());
    EXPECT_TRUE(fs.fsck().ok);

    // Even a remount works from the degraded-then-rebuilt media.
    lfs::Lfs fs2(dev);
    std::vector<std::uint8_t> back2(data.size());
    fs2.read(fs2.lookup("/payload"), 0, {back2.data(), back2.size()});
    EXPECT_EQ(back2, data);
}

TEST(Integration, HighBandwidthModeBeatsStandardModeForLargeFiles)
{
    // §2.1.1: large requests should use the HIPPI path.
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", cfg16());
    const auto ino = srv.createFile("/big");
    std::vector<std::uint8_t> data(8 * sim::MB, 0x5c);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    sim::Tick fast = 0, standard = 0;
    {
        bool done = false;
        const sim::Tick t0 = eq.now();
        srv.fileRead(ino, 0, data.size(), [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            done = true;
        });
        eq.runUntilDone([&] { return done; });
        fast = eq.now() - t0;
    }
    {
        bool done = false;
        const sim::Tick t0 = eq.now();
        srv.standardRead(ino, 0, data.size(), [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            done = true;
        });
        eq.runUntilDone([&] { return done; });
        standard = eq.now() - t0;
    }
    // Ethernet at ~1 MB/s vs the array's ~20 MB/s: order of magnitude.
    EXPECT_GT(standard, 5 * fast);
}

TEST(Integration, LfsWriteGroupingBeatsRawSmallWrites)
{
    // The paper's central software claim (§3.1): LFS turns small
    // random writes into large sequential ones.  Compare timed
    // throughput of 4 KB random writes through LFS vs raw RAID-5.
    auto lfs_run = [] {
        sim::EventQueue eq;
        Raid2Server srv(eq, "s", cfg16());
        const auto ino = srv.createFile("/f");
        workload::ClosedLoopRunner::Config w;
        w.requestBytes = 4096;
        w.regionBytes = 8 * sim::MB;
        w.totalOps = 200;
        auto res = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.fileWrite(ino, off, len, std::move(done));
            });
        return res.throughputMBs();
    };
    auto raw_run = [] {
        sim::EventQueue eq;
        auto cfg = cfg16();
        cfg.withFs = false;
        Raid2Server srv(eq, "s", cfg);
        workload::ClosedLoopRunner::Config w;
        w.requestBytes = 4096;
        w.regionBytes = 8 * sim::MB;
        w.totalOps = 200;
        auto res = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.array().write(off, len, std::move(done));
            });
        return res.throughputMBs();
    };
    EXPECT_GT(lfs_run(), 2.0 * raw_run());
}

TEST(Integration, Raid2DeliversOrderOfMagnitudeOverRaid1)
{
    // §2.3: "While an order of magnitude faster than our previous
    // prototype..."
    double raid1_mbs;
    {
        sim::EventQueue eq;
        server::Raid1Server srv(eq, "r1",
                                server::Raid1Server::Config{});
        workload::ClosedLoopRunner::Config w;
        w.requestBytes = 4 * sim::MB;
        w.regionBytes = 1ull << 30;
        w.totalOps = 16;
        w.processes = 2;
        w.sequential = true;
        auto res = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.read(off, len, std::move(done));
            });
        raid1_mbs = res.throughputMBs();
    }
    double raid2_mbs;
    {
        sim::EventQueue eq;
        Raid2Server::Config cfg;
        cfg.withFs = false; // hardware-level comparison
        Raid2Server srv(eq, "r2", cfg);
        workload::ClosedLoopRunner::Config w;
        w.requestBytes = 4 * sim::MB;
        w.regionBytes = 1ull << 30;
        w.totalOps = 16;
        w.processes = 2;
        w.sequential = true;
        auto res = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.hwRead(off, len, std::move(done));
            });
        raid2_mbs = res.throughputMBs();
    }
    EXPECT_GT(raid2_mbs, 6.0 * raid1_mbs);
}

TEST(Integration, ConcurrentClientsShareTheServer)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", cfg16());
    net::UltranetFabric ring(eq, "u");
    net::ClientModel c1(eq, "c1"), c2(eq, "c2");
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib1(eq, sched, c1, ring);
    server::RaidFileClient lib2(eq, sched, c2, ring);

    const auto ino = srv.createFile("/shared");
    std::vector<std::uint8_t> data(8 * sim::MB, 0x1);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    int finished = 0;
    auto drive = [&](server::RaidFileClient &lib) {
        using Result = server::RaidFileClient::Result;
        lib.raidOpen(
            "/shared", false, [&, plib = &lib](const Result &open) {
                ASSERT_EQ(open.status,
                          server::RaidFileClient::Status::Ok);
                const auto h = open.handle;
                // The loop holds itself weakly; the read in flight
                // holds it.
                auto next = std::make_shared<std::function<void()>>();
                *next = [&finished, plib, h,
                         weak = std::weak_ptr(next)]() {
                    plib->raidRead(
                        h, sim::MB,
                        [&finished, next = weak.lock()](const Result &r) {
                            EXPECT_EQ(
                                r.status,
                                server::RaidFileClient::Status::Ok);
                            if (r.bytes == 0) {
                                ++finished;
                                return;
                            }
                            (*next)();
                        });
                };
                (*next)();
            });
    };
    drive(lib1);
    drive(lib2);
    eq.runUntilDone([&] { return finished == 2; });
    EXPECT_EQ(finished, 2);
    // Two clients x 8 MB: the array served all of it.
    EXPECT_GE(srv.array().bytesRead(), 16u * sim::MB);
}

TEST(Integration, FsckCatchesDeliberateCorruption)
{
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    lcfg.numDisks = 5;
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::RaidArray array(lcfg, 4 * 1024 * 1024);
    fs::ArrayBlockDevice dev(array, 4096);
    lfs::Lfs::Params p;
    p.segBlocks = 32;
    lfs::Lfs::format(dev, p);
    lfs::Lfs fs(dev);
    const auto ino = fs.create("/f");
    std::vector<std::uint8_t> d(100000, 0x9);
    fs.write(ino, 0, {d.data(), d.size()});
    fs.checkpoint();
    EXPECT_TRUE(fs.fsck().ok);
}

} // namespace
