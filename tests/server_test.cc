/**
 * @file
 * Server-layer tests: the pipelined reader, hardware-level ops, the
 * LFS timed paths (functional+timed coupling), standard mode, the
 * RAID-I baseline server and the client file protocol.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/request_scheduler.hh"
#include "server/raid1_server.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::Status;

Raid2Server::Config
smallConfig(bool with_fs)
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.withFs = with_fs;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

TEST(PipelinedReader, CompletesAllRanges)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(false));
    bool done = false;
    server::PipelinedReader::Config pcfg;
    pcfg.depth = 4;
    pcfg.bufferBytes = 128 * 1024;
    pcfg.buffers = &srv.board().buffers();
    server::PipelinedReader::start(
        eq, srv.array(),
        {{0, 1024 * 1024}, {16 * 1024 * 1024, 512 * 1024}}, pcfg,
        [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(srv.array().bytesRead(), 1536u * 1024);
    // All pipeline buffers returned.
    EXPECT_EQ(srv.board().buffers().inUse(), 0u);
}

TEST(PipelinedReader, EmptyRangesStillComplete)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(false));
    bool done = false;
    server::PipelinedReader::Config pcfg;
    server::PipelinedReader::start(eq, srv.array(), {}, pcfg,
                                   [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST(PipelinedReader, DeeperPipelineIsFaster)
{
    auto run = [](unsigned depth) {
        sim::EventQueue eq;
        Raid2Server srv(eq, "s", smallConfig(false));
        bool done = false;
        server::PipelinedReader::Config pcfg;
        pcfg.depth = depth;
        pcfg.bufferBytes = 256 * 1024;
        // A slow out stage, so overlap matters.
        pcfg.outStages = {sim::Stage(srv.board().hippiSrcPort()),
                          sim::Stage(srv.board().hippiDstPort())};
        server::PipelinedReader::start(eq, srv.array(),
                                       {{0, 8 * 1024 * 1024}}, pcfg,
                                       [&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return eq.now();
    };
    EXPECT_LT(run(4), run(1));
}

TEST(Raid2Server, HwReadAndWriteComplete)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(false));
    int done = 0;
    srv.hwRead(0, 2 * sim::MB, [&] { ++done; });
    eq.run();
    srv.hwWrite(64 * sim::MB, 2 * sim::MB, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_GT(srv.array().bytesRead(), 0u);
    EXPECT_GT(srv.array().bytesWritten(), 0u);
}

TEST(Raid2Server, FileWriteIsFunctionalAndTimed)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/f");
    bool done = false;
    srv.fileWrite(ino, 0, 4 * sim::MB, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    // Functional plane has the bytes.
    EXPECT_EQ(srv.fs().statIno(ino).size, 4 * sim::MB);
    // Timed plane flushed (most of) the segments.
    EXPECT_GT(srv.segmentFlushes(), 0u);

    bool synced = false;
    srv.fsSync([&] { synced = true; });
    eq.runUntilDone([&] { return synced; });
    // 4 MB of data => at least 4 segments of 960 KB flushed.
    EXPECT_GE(srv.flushedBytes(), 4u * sim::MB);
    EXPECT_GT(srv.array().bytesWritten(), 4u * sim::MB);
    EXPECT_TRUE(srv.fs().fsck().ok);
}

TEST(Raid2Server, FileReadUsesMappedExtents)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/f");
    std::vector<std::uint8_t> data(2 * sim::MB, 0x77);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    bool done = false;
    const sim::Tick t0 = eq.now();
    srv.fileRead(ino, 0, data.size(), [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        done = true;
    });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    EXPECT_GE(srv.array().bytesRead(), data.size());
    // The 4 ms FS overhead is charged up front.
    EXPECT_GE(eq.now() - t0, cal::lfsReadOpOverhead);
}

TEST(Raid2Server, SmallFileWritesAreBufferedQuickly)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/f");
    // A 4 KB write shouldn't wait for any disk I/O: just overhead +
    // memory copy (LFS write-behind).
    bool done = false;
    const sim::Tick t0 = eq.now();
    srv.fileWrite(ino, 0, 4096, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_LT(eq.now() - t0, sim::msToTicks(5));
}

TEST(Raid2Server, StandardReadGoesOverEthernet)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/small");
    std::vector<std::uint8_t> data(8 * 1024, 0x12);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    bool done = false;
    srv.standardRead(ino, 0, data.size(), [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        done = true;
    });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    EXPECT_GT(srv.ethernet().packets(), 0u);
    // 8 KB at Ethernet speed: several ms at least.
    EXPECT_GT(eq.now(), sim::msToTicks(6));
}

TEST(Raid2Server, HostCacheServesRepeatStandardReads)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/doc");
    std::vector<std::uint8_t> data(64 * 1024, 0x21);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    auto timed_read = [&] {
        bool done = false;
        const sim::Tick t0 = eq.now();
        srv.standardRead(ino, 0, data.size(), [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            done = true;
        });
        eq.runUntilDone([&] { return done; });
        return eq.now() - t0;
    };

    const std::uint64_t before = srv.array().bytesRead();
    const sim::Tick cold = timed_read();
    const std::uint64_t after_first = srv.array().bytesRead();
    EXPECT_GT(after_first, before); // cold read hits the array

    const sim::Tick warm = timed_read();
    EXPECT_EQ(srv.array().bytesRead(), after_first); // served from cache
    EXPECT_LT(warm, cold);
    EXPECT_GT(srv.hostCache().hits(), 0u);
}

TEST(Raid2Server, WritesInvalidateHostCache)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/doc");
    std::vector<std::uint8_t> data(16 * 1024, 0x3);
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();

    bool done = false;
    srv.standardRead(ino, 0, data.size(), [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        done = true;
    });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(srv.hostCache().lookup(ino));

    done = false;
    srv.fileWrite(ino, 0, 4096, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_FALSE(srv.hostCache().lookup(ino));
}

TEST(Raid2Server, StandardWriteIsStableByDefault)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/f");

    bool done = false;
    srv.standardWrite(ino, 0, 8192, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    // Stable semantics: by reply time the log segment reached the
    // array.
    EXPECT_GT(srv.array().bytesWritten(), 8192u);
    EXPECT_EQ(srv.fs().statIno(ino).size, 8192u);
}

TEST(Raid2Server, NvramMakesStandardWritesFast)
{
    auto run = [](std::uint64_t nvram) {
        sim::EventQueue eq;
        auto cfg = smallConfig(true);
        cfg.nvramBytes = nvram;
        Raid2Server srv(eq, "s", cfg);
        const auto ino = srv.createFile("/f");
        sim::Tick total = 0;
        for (int i = 0; i < 5; ++i) {
            bool done = false;
            const sim::Tick t0 = eq.now();
            srv.standardWrite(ino, std::uint64_t(i) * 8192, 8192,
                              [&] { done = true; });
            eq.runUntilDone([&] { return done; });
            total += eq.now() - t0;
        }
        eq.run(); // drain background flushes
        EXPECT_TRUE(srv.fs().fsck().ok);
        return total / 5;
    };
    const sim::Tick stable = run(0);
    const sim::Tick nvram = run(1 * sim::MiB);
    // §4.1: NVRAM exists precisely because stable NFS writes must
    // otherwise wait for the disks.
    EXPECT_LT(nvram, stable / 2);
}

TEST(Raid1Server, LargeReadIsCopyBound)
{
    sim::EventQueue eq;
    server::Raid1Server srv(eq, "r1", server::Raid1Server::Config{});
    bool done = false;
    const std::uint64_t bytes = 4 * sim::MB;
    const sim::Tick t0 = eq.now();
    srv.read(0, bytes, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
    const double mbs = sim::mbPerSec(bytes, eq.now() - t0);
    // §1: at best 2.3 MB/s through the host.
    EXPECT_LT(mbs, 2.5);
    EXPECT_GT(mbs, 1.5);
}

TEST(Raid1Server, WritesComplete)
{
    sim::EventQueue eq;
    server::Raid1Server srv(eq, "r1", server::Raid1Server::Config{});
    bool done = false;
    srv.write(0, sim::MB, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    EXPECT_TRUE(done);
}

TEST(FileProtocol, OpenReadWriteRoundTrip)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;
    server::RaidFileClient::Handle h = 0;
    std::uint64_t wrote = 0, read = 0;
    bool finished = false;
    lib.raidOpen("/data", true, [&](const Result &open) {
        ASSERT_EQ(open.status, Status::Ok);
        ASSERT_TRUE(open.ok());
        h = open.handle;
        lib.raidWrite(h, 256 * 1024, [&](const Result &w) {
            EXPECT_EQ(w.status, Status::Ok);
            wrote = w.bytes;
            // The Result timestamps bracket the op.
            EXPECT_LT(w.issued, w.completed);
            EXPECT_GT(w.latencyMs(), 0.0);
            EXPECT_EQ(lib.raidSeek(h, 0), Status::Ok);
            lib.raidRead(h, 256 * 1024, [&](const Result &r) {
                EXPECT_EQ(r.status, Status::Ok);
                read = r.bytes;
                finished = true;
            });
        });
    });
    eq.runUntilDone([&] { return finished; });
    EXPECT_EQ(wrote, 256u * 1024);
    EXPECT_EQ(read, 256u * 1024);
    ASSERT_TRUE(lib.position(h).has_value());
    EXPECT_EQ(lib.position(h).value(), 256u * 1024);
    EXPECT_EQ(srv.fs().stat("/data").size, 256u * 1024);
    EXPECT_EQ(lib.raidClose(h), Status::Ok);
}

TEST(FileProtocol, PositionalOpsLeaveCursorAlone)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;
    server::RaidFileClient::Handle h = 0;
    int finished = 0;
    lib.raidOpen("/p", true, [&](const Result &open) {
        ASSERT_EQ(open.status, Status::Ok);
        h = open.handle;
        // Two positional writes in flight on one handle at once —
        // impossible with the cursor API.
        lib.raidPWrite(h, 0, 128 * 1024, [&](const Result &r) {
            EXPECT_EQ(r.status, Status::Ok);
            EXPECT_EQ(r.bytes, 128u * 1024);
            ++finished;
        });
        lib.raidPWrite(h, 128 * 1024, 128 * 1024,
                       [&](const Result &r) {
                           EXPECT_EQ(r.status, Status::Ok);
                           ++finished;
                       });
    });
    eq.runUntilDone([&] { return finished == 2; });
    ASSERT_TRUE(lib.position(h).has_value());
    EXPECT_EQ(lib.position(h).value(), 0u); // cursor untouched
    EXPECT_EQ(srv.fs().stat("/p").size, 256u * 1024);

    bool read_done = false;
    lib.raidPRead(h, 64 * 1024, 64 * 1024, [&](const Result &r) {
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.bytes, 64u * 1024);
        read_done = true;
    });
    eq.runUntilDone([&] { return read_done; });
    EXPECT_EQ(lib.position(h).value(), 0u);
}

TEST(FileProtocol, ReadPastEofReturnsShort)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    const auto ino = srv.createFile("/tiny");
    std::vector<std::uint8_t> d(100, 1);
    srv.fs().write(ino, 0, {d.data(), d.size()});

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;
    std::uint64_t got = 1234;
    bool finished = false;
    lib.raidOpen("/tiny", false, [&](const Result &open) {
        ASSERT_EQ(open.status, Status::Ok);
        const auto h = open.handle;
        lib.raidRead(h, 4096, [&, h](const Result &r) {
            EXPECT_EQ(r.status, Status::Ok);
            got = r.bytes;
            lib.raidRead(h, 4096, [&](const Result &r2) {
                // Reading at EOF is a success with zero bytes, not an
                // error.
                EXPECT_EQ(r2.status, Status::Ok);
                EXPECT_EQ(r2.bytes, 0u);
                finished = true;
            });
        });
    });
    eq.runUntilDone([&] { return finished; });
    EXPECT_EQ(got, 100u);
}

TEST(FileProtocol, OpenMissingFileReportsNotFound)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;
    bool finished = false;
    lib.raidOpen("/no/such/file", false, [&](const Result &r) {
        EXPECT_EQ(r.status, Status::NotFound);
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.handle, server::RaidFileClient::invalidHandle);
        finished = true;
    });
    eq.runUntilDone([&] { return finished; });
    EXPECT_TRUE(finished);
}

TEST(FileProtocol, ClosedHandleReportsBadHandle)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;
    srv.createFile("/f");
    int finished = 0;
    lib.raidOpen("/f", false, [&](const Result &open) {
        ASSERT_EQ(open.status, Status::Ok);
        const auto h = open.handle;
        lib.raidClose(h);
        lib.raidRead(h, 4096, [&](const Result &r) {
            EXPECT_EQ(r.status, Status::BadHandle);
            EXPECT_EQ(r.bytes, 0u);
            ++finished;
        });
        lib.raidWrite(h, 4096, [&](const Result &r) {
            EXPECT_EQ(r.status, Status::BadHandle);
            EXPECT_EQ(r.bytes, 0u);
            ++finished;
        });
    });
    eq.runUntilDone([&] { return finished == 2; });
    EXPECT_EQ(finished, 2);
}

TEST(FileProtocol, SeekAndPositionOnBadHandleDontDie)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RaidFileClient lib(eq, srv, client, ring);

    using Result = server::RaidFileClient::Result;
    using Status = server::RaidFileClient::Status;

    // Never-opened handle: these used to call sim::fatal and abort.
    EXPECT_EQ(lib.raidSeek(42, 0), Status::BadHandle);
    EXPECT_FALSE(lib.position(42).has_value());
    EXPECT_EQ(lib.raidClose(42), Status::BadHandle);

    srv.createFile("/f");
    bool finished = false;
    lib.raidOpen("/f", false, [&](const Result &open) {
        ASSERT_EQ(open.status, Status::Ok);
        const auto h = open.handle;
        EXPECT_EQ(lib.raidClose(h), Status::Ok);
        // Closed handle: same contract.
        EXPECT_EQ(lib.raidSeek(h, 0), Status::BadHandle);
        EXPECT_FALSE(lib.position(h).has_value());
        EXPECT_EQ(lib.raidClose(h), Status::BadHandle);
        finished = true;
    });
    eq.runUntilDone([&] { return finished; });
    EXPECT_TRUE(finished);
}

TEST(Raid2Server, RestoreRejectsSchedulerTrafficWithBusy)
{
    using Sched = server::RequestScheduler;
    using server::Status;
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    Sched sched(eq, srv);

    const lfs::InodeNum ino = srv.createFile("/f");
    // > smallOpBytes, so the read classifies FastPath.
    std::vector<std::uint8_t> data(256 * 1024, 0xab);
    srv.fs().write(ino, 0, {data.data(), data.size()});

    auto readReq = [&](std::function<void(Status, lfs::InodeNum)> done) {
        Sched::Request r;
        r.session = 1;
        r.kind = Sched::OpKind::Read;
        r.ino = ino;
        r.len = data.size();
        r.done = std::move(done);
        return r;
    };

    // Mid-restore: both service classes refuse admission, completing
    // asynchronously with Busy (never synchronously from submit()).
    srv.beginRestore();
    int rejections = 0;
    sched.submit(readReq([&](Status st, lfs::InodeNum) {
        EXPECT_EQ(st, Status::Busy);
        ++rejections;
    }));
    Sched::Request open;
    open.session = 2;
    open.kind = Sched::OpKind::Open;
    open.path = "/f";
    open.done = [&](Status st, lfs::InodeNum) {
        EXPECT_EQ(st, Status::Busy);
        ++rejections;
    };
    sched.submit(std::move(open));
    EXPECT_EQ(rejections, 0); // asynchronous rejection
    eq.runUntilDone([&] { return rejections == 2; });
    EXPECT_EQ(rejections, 2);
    EXPECT_EQ(sched.rejected(Sched::ServiceClass::FastPath), 1u);
    EXPECT_EQ(sched.rejected(Sched::ServiceClass::Standard), 1u);
    EXPECT_EQ(sched.admitted(Sched::ServiceClass::FastPath), 0u);
    EXPECT_EQ(sched.admitted(Sched::ServiceClass::Standard), 0u);

    // After endRestore() the same traffic flows normally again.
    srv.endRestore();
    bool read_ok = false;
    sched.submit(readReq([&](Status st, lfs::InodeNum) {
        EXPECT_EQ(st, Status::Ok);
        read_ok = true;
    }));
    eq.runUntilDone([&] { return read_ok; });
    EXPECT_TRUE(read_ok);
    EXPECT_EQ(sched.admitted(Sched::ServiceClass::FastPath), 1u);
}

} // namespace
