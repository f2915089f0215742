/**
 * @file
 * Cross-module robustness scenarios: the server under mixed load with
 * a disk failure and on-line rebuild; XBUS buffer backpressure under
 * over-deep pipelines; LFS on a RAID array with a crash *and* a disk
 * failure stacked; long mixed workloads with invariants checked
 * throughout.  These are the "everything goes wrong at once" cases a
 * production array has to survive.
 */

#include <gtest/gtest.h>

#include <functional>

#include "fs/array_block_device.hh"
#include "fs/fault_device.hh"
#include "lfs/lfs.hh"
#include "raid/reconstruct.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/generators.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::Status;

Raid2Server::Config
cfg16(bool with_fs = true)
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.withFs = with_fs;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

TEST(Robustness, ServerServesThroughFailureAndRebuild)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", cfg16());
    const auto ino = srv.createFile("/data");
    std::vector<std::uint8_t> seed(8 * sim::MB, 0x61);
    srv.fs().write(ino, 0, {seed.data(), seed.size()});
    srv.fs().sync();

    // Foreground load: continuous 256 KB reads.
    bool stop = false;
    std::uint64_t served = 0;
    sim::Random rng(5);
    std::function<void()> pump = [&] {
        if (stop)
            return;
        const std::uint64_t off =
            rng.below(seed.size() / (256 * 1024)) * (256 * 1024);
        srv.fileRead(ino, off, 256 * 1024, [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            ++served;
            pump();
        });
    };
    pump();
    pump();

    // 100 ms in, a disk dies; 200 ms later the rebuild starts.
    eq.runUntil(eq.now() + sim::msToTicks(100));
    srv.array().failDisk(3);
    eq.runUntil(eq.now() + sim::msToTicks(200));

    raid::RebuildJob job(eq, "srv.rebuild", srv.array(), 3, 2);
    bool rebuilt = false;
    job.start([&] { rebuilt = true; });
    eq.runUntilDone([&] { return rebuilt; });
    EXPECT_TRUE(rebuilt);
    EXPECT_FALSE(srv.array().media().failed(3));

    // Keep serving a little longer, then drain.
    eq.runUntil(eq.now() + sim::msToTicks(200));
    stop = true;
    eq.run();
    EXPECT_GT(served, 10u);
    EXPECT_TRUE(srv.fs().fsck().ok);
}

TEST(Robustness, BufferPoolBackpressureBoundsMemoryUse)
{
    sim::EventQueue eq;
    auto cfg = cfg16(false);
    // Pathological pipeline: 64 x 2 MB buffers would want 128 MB of
    // the 32 MB board; the pool must throttle, not explode.
    cfg.pipelineDepth = 64;
    cfg.pipelineBufferBytes = 2 * sim::MB;
    Raid2Server srv(eq, "s", cfg);

    bool done = false;
    srv.hwRead(0, 64 * sim::MB, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_LE(srv.board().buffers().peakUse(),
              srv.board().buffers().capacity());
    EXPECT_EQ(srv.board().buffers().inUse(), 0u);
}

TEST(Robustness, CrashPlusDiskFailureStacked)
{
    // LFS on a functional RAID-5 behind a fault device: crash the log
    // mid-sync, then fail a disk, then remount — both recovery
    // mechanisms must compose.
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    lcfg.numDisks = 6;
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::RaidArray array(lcfg, 16 * 1024 * 1024);
    fs::ArrayBlockDevice adev(array, 4096);
    fs::FaultDevice dev(adev);

    lfs::Lfs::Params p;
    p.segBlocks = 32;
    lfs::Lfs::format(dev, p);

    std::vector<std::uint8_t> data(400000);
    sim::Random rng(8);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    {
        lfs::Lfs fs(dev);
        const auto ino = fs.create("/payload");
        fs.write(ino, 0, {data.data(), data.size()});
        fs.sync();
        fs.create("/doomed");
        dev.setWriteLimit(2);
        try {
            fs.sync();
        } catch (...) {
        }
    }
    dev.heal();
    array.failDisk(4); // now lose a disk too

    lfs::Lfs fs(dev);
    ASSERT_TRUE(fs.exists("/payload"));
    std::vector<std::uint8_t> back(data.size());
    fs.read(fs.lookup("/payload"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
    EXPECT_TRUE(fs.fsck().ok);

    array.rebuildDisk(4);
    EXPECT_TRUE(array.redundancyConsistent());
}

TEST(Robustness, MixedReadWriteSyncLoadStaysConsistent)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", cfg16());
    const auto ino = srv.createFile("/mix");

    sim::Random rng(13);
    int outstanding = 0;
    int completed = 0;
    const int total = 120;
    std::function<void()> issue = [&] {
        if (completed + outstanding >= total)
            return;
        ++outstanding;
        auto done = [&] {
            --outstanding;
            ++completed;
            issue();
        };
        const double dice = rng.unit();
        const std::uint64_t off =
            rng.below(8 * sim::MB / 4096) * 4096;
        if (dice < 0.5)
            srv.fileWrite(ino, off, 4096 + rng.below(200000), done);
        else if (dice < 0.9 && srv.fs().statIno(ino).size > 0)
            srv.fileRead(ino, 0,
                         std::min<std::uint64_t>(
                             srv.fs().statIno(ino).size, 100000),
                         [done](Status st) {
                             EXPECT_EQ(st, Status::Ok);
                             done();
                         });
        else
            srv.fsSync(done);
    };
    for (int i = 0; i < 4; ++i)
        issue();
    eq.runUntilDone([&] { return completed >= total; });
    EXPECT_EQ(completed, total);
    EXPECT_TRUE(srv.fs().fsck().ok);
    EXPECT_EQ(srv.board().buffers().inUse(), 0u);
}

TEST(Robustness, ElevatorSchedulingHelpsDeepQueues)
{
    auto run = [](bool elevator) {
        sim::EventQueue eq;
        auto cfg = cfg16(false);
        cfg.topo.elevatorScheduling = elevator;
        Raid2Server srv(eq, "s", cfg);
        workload::ClosedLoopRunner::Config w;
        w.processes = 96; // deep per-disk queues (16 disks)
        w.requestBytes = 8 * 1024;
        w.regionBytes = 1ull << 30;
        w.totalOps = 1600;
        w.warmupOps = 200;
        auto res = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.array().read(off, len, std::move(done));
            });
        return res.opsPerSec();
    };
    EXPECT_GT(run(true), run(false));
}

} // namespace
