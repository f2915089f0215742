/**
 * @file
 * Server-layer tests: the pipelined reader, hardware-level ops, the
 * LFS timed paths (functional+timed coupling), standard mode, the
 * RAID-I baseline server and the client file protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "raid/raid_array.hh"
#include "server/file_protocol.hh"
#include "server/request_scheduler.hh"
#include "server/raid1_server.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

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

TEST(Raid2Server, PlainServerKeepsLfsOnItsTwin)
{
    // Without integrity the file system still lives on the RAID twin
    // of the timed array; integrity adds only verification, and its
    // stats with it.
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    ASSERT_FALSE(srv.hasIntegrity());
    raid::RaidArray &twin = srv.functionalArray();
    EXPECT_EQ(srv.array().twin(), &twin);

    std::vector<std::uint8_t> data(3 * sim::MB + 1234);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + i / 4096);
    const auto ino = srv.createFile("/f");
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();
    std::uint64_t mapped = 0;
    for (const lfs::FileExtent &e : srv.fs().mapFile(ino, 0, data.size())) {
        ASSERT_FALSE(e.hole);
        std::vector<std::uint8_t> got(e.bytes);
        twin.read(e.deviceOffset, {got.data(), got.size()});
        EXPECT_TRUE(std::equal(got.begin(), got.end(),
                               data.begin() + e.fileOffset))
            << "extent at file offset " << e.fileOffset;
        mapped += e.bytes;
    }
    EXPECT_EQ(mapped, data.size());

    // A timed-array failure reaches the twin; LFS reads reconstruct.
    srv.array().failDisk(3);
    EXPECT_TRUE(twin.isFailed(3));
    std::vector<std::uint8_t> back(data.size());
    srv.fs().read(ino, 0, {back.data(), back.size()});
    EXPECT_EQ(back, data);

    sim::StatsRegistry reg;
    srv.registerStats(reg);
    std::ostringstream names;
    reg.dump(names);
    EXPECT_EQ(names.str().find("integrity"), std::string::npos);
}

TEST(Raid2Server, PlainServerTakesLatentsOnlyWhereItsTwinReaches)
{
    // With reliability on, a plain file-system server's media faults
    // span the twin's disks, the part of each member that holds file
    // system bytes.  A latent defect there garbles the twin too and
    // reads route around it; one beyond the twin is suppressed, as on
    // an integrity server.
    sim::EventQueue eq;
    Raid2Server::Config cfg = smallConfig(true);
    cfg.withReliability = true;
    Raid2Server srv(eq, "s", cfg);
    raid::RaidArray &twin = srv.functionalArray();
    ASSERT_EQ(srv.array().mediaSpan(), twin.diskBytes());

    std::vector<std::uint8_t> data(256 * 1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + i / 4096);
    const auto ino = srv.createFile("/f");
    srv.fs().write(ino, 0, {data.data(), data.size()});
    srv.fs().sync();
    const lfs::FileExtent e = srv.fs().mapFile(ino, 0, 4096).front();
    ASSERT_FALSE(e.hole);
    unsigned disk = 0;
    std::uint64_t doff = 0;
    twin.layout().forEachPiece(e.deviceOffset, 1,
                               [&](unsigned, const raid::DiskExtent &x) {
                                   disk = x.disk;
                                   doff = x.diskOffset;
                               });
    const unsigned other = (disk + 1) % twin.numDisks();

    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), disk, doff, 512)
        .latent(sim::msToTicks(1), other, twin.diskBytes() + 4096, 512);
    srv.faults().setPlan(std::move(plan));
    srv.faults().start();
    eq.runUntil(sim::msToTicks(2));

    EXPECT_EQ(srv.faults().injected(fault::FaultKind::LatentError), 1u);
    EXPECT_EQ(srv.faults().dataLossEvents(), 0u);
    EXPECT_EQ(srv.array().latentRangesOutstanding(), 1u);
    EXPECT_TRUE(srv.array().hasLatent(disk, doff, 512));
    EXPECT_TRUE(twin.latentOverlaps(disk, doff, 512));
    std::vector<std::uint8_t> back(e.bytes);
    twin.read(e.deviceOffset, {back.data(), back.size()});
    EXPECT_TRUE(std::equal(back.begin(), back.end(),
                           data.begin() + e.fileOffset));
}

TEST(Raid2Server, FileWritePayloadAtRaggedOffsets)
{
    // fileWrite copies one 256-byte period across its buffer: starts
    // and ends off the period boundary must keep the phase and the
    // tail of payloadByte().
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const std::uint64_t offs[] = {0, 1, 255, 257, 4095};
    const std::uint64_t lens[] = {1, 255, 256, 257, 4099};
    for (std::size_t k = 0; k < std::size(offs); ++k) {
        const auto ino = srv.createFile("/f" + std::to_string(k));
        bool done = false;
        srv.fileWrite(ino, offs[k], lens[k], [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        ASSERT_TRUE(done);
        ASSERT_EQ(srv.fs().statIno(ino).size, offs[k] + lens[k]);
        std::vector<std::uint8_t> got(lens[k]);
        ASSERT_EQ(srv.fs().read(ino, offs[k], {got.data(), got.size()}),
                  lens[k]);
        for (std::uint64_t i = 0; i < lens[k]; ++i) {
            ASSERT_EQ(got[i], server::payloadByte(offs[k] + i, ino))
                << "off " << offs[k] << " len " << lens[k] << " byte "
                << i;
        }
    }
}

TEST(Raid2Server, FileWritePayloadEveryPhase)
{
    // fileWrite reads each payload out of one table of payloadByte(j,
    // 0), from k = 43 * payloadByte(off, ino) mod 256 on.  Offsets
    // o * 4097 start at phase o, so o = 0..255 takes every k, for two
    // inode numbers; no two writes overlap.
    static_assert(131 * 43 % 256 == 1);
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    constexpr std::uint64_t len = 3000;
    auto read_back = [&](lfs::InodeNum ino, std::uint64_t off,
                         std::uint64_t n) {
        std::vector<std::uint8_t> got(n);
        EXPECT_EQ(srv.fs().read(ino, off, {got.data(), got.size()}), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (got[i] != server::payloadByte(off + i, ino)) {
                ADD_FAILURE() << "ino " << ino << " off " << off
                              << " byte " << i;
                return;
            }
        }
    };
    for (const char *name : {"/a", "/b"}) {
        const auto ino = srv.createFile(name);
        int done = 0;
        for (std::uint64_t o = 0; o < 256; ++o)
            srv.fileWrite(ino, o * 4097, len, [&] { ++done; });
        eq.run();
        EXPECT_EQ(done, 256);
        for (std::uint64_t o = 0; o < 256; ++o)
            read_back(ino, o * 4097, len);
    }

    // A longer write arrives while a shorter one still waits in the
    // fs CPU step, so the table grows (and moves) between the two.
    // Then 1 MB of other bytes is allocated and filled: the memory the
    // 1 MB table left is unmapped or holds them, so a window taken
    // before the move reads wrong bytes (or faults).
    const auto ino = srv.createFile("/c");
    const auto other = srv.createFile("/d");
    int done = 0;
    srv.fileWrite(ino, 0, sim::MiB, [&] { ++done; });
    eq.run();
    srv.fileWrite(ino, sim::MiB + 77, len, [&] { ++done; });
    srv.fileWrite(ino, 3 * sim::MiB + 5, 4 * sim::MiB, [&] { ++done; });
    const std::vector<std::uint8_t> fill(sim::MiB, 0xee);
    srv.fileWriteData(other, 0, fill, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 4);
    read_back(ino, 0, sim::MiB);
    read_back(ino, sim::MiB + 77, len);
    read_back(ino, 3 * sim::MiB + 5, 4 * sim::MiB);
    std::vector<std::uint8_t> got(sim::MiB);
    EXPECT_EQ(srv.fs().read(other, 0, {got.data(), got.size()}), sim::MiB);
    EXPECT_EQ(got, fill);
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

/** Whether Raid2Server::fileRead takes completion @p F: a call that
 *  matches no overload, or two, is ill-formed. */
template <typename F, typename = void>
constexpr bool fileReadTakes = false;
template <typename F>
constexpr bool fileReadTakes<
    F, std::void_t<decltype(std::declval<Raid2Server &>().fileRead(
           0, 0, 0, std::declval<F>()))>> = true;

TEST(Raid2Server, FileReadOverloadFollowsTheCompletionArguments)
{
    // A no-argument completion selects the status-free overload, a
    // (Status) one the ReadDone form; neither call is ambiguous.
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    const auto ino = srv.createFile("/f");
    srv.fileWrite(ino, 0, 64 * 1024, nullptr);
    int plain = 0;
    Status st = Status::DataCorrupt;
    auto no_arg = [&] { ++plain; };
    auto with_status = [&](Status s) { st = s; };
    using NoArg = decltype(no_arg);
    using WithStatus = decltype(with_status);
    static_assert(std::is_constructible_v<sim::Event, NoArg> &&
                  !std::is_constructible_v<Raid2Server::ReadDone, NoArg>);
    static_assert(!std::is_constructible_v<sim::Event, WithStatus> &&
                  std::is_constructible_v<Raid2Server::ReadDone, WithStatus>);
    static_assert(fileReadTakes<NoArg> && fileReadTakes<WithStatus>);

    srv.fileRead(ino, 0, 64 * 1024, no_arg);
    srv.fileRead(ino, 0, 64 * 1024, with_status);
    eq.runUntilDone([&] { return plain == 1 && st == Status::Ok; });
    EXPECT_EQ(plain, 1);
    EXPECT_EQ(st, Status::Ok);
}

TEST(Raid2Server, StatusCompletionsForwardTheirArguments)
{
    Status got = Status::Ok;
    Raid2Server::ReadDone read_done = [&](Status s) { got = s; };
    read_done(Status::DataCorrupt);
    EXPECT_EQ(got, Status::DataCorrupt);

    lfs::InodeNum ino = 0;
    server::RequestScheduler::Request::Done open_done =
        [&](Status s, lfs::InodeNum i) {
            got = s;
            ino = i;
        };
    open_done(Status::NotFound, 17);
    EXPECT_EQ(got, Status::NotFound);
    EXPECT_EQ(ino, 17u);
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
    auto run = [](bool nvram) {
        sim::EventQueue eq;
        auto cfg = smallConfig(true);
        cfg.nvram = nvram;
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
    const sim::Tick stable = run(false);
    const sim::Tick nvram = run(true);
    // §4.1: NVRAM exists precisely because stable NFS writes must
    // otherwise wait for the disks.
    EXPECT_LT(nvram, stable / 2);
}

TEST(Raid2Server, NvramWritesNeverWaitOnFlushes)
{
    // An NVRAM-acknowledged standard write hands fileWrite no
    // completion; with the flush window full it must not queue an
    // empty waiter that flushCompleted() would call.
    sim::EventQueue eq;
    auto cfg = smallConfig(true);
    cfg.nvram = true;
    cfg.maxFlushesInFlight = 1;
    Raid2Server srv(eq, "s", cfg);
    const auto small = srv.createFile("/small");
    const auto bulk = srv.createFile("/bulk");
    int replies = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        srv.standardWrite(small, i * 8192, 8192, [&] { ++replies; });
    int bulk_done = 0;
    eq.schedule(sim::msToTicks(50), [&] {
        for (std::uint64_t i = 0; i < 16; ++i)
            srv.fileWrite(bulk, i * 2 * sim::MiB, 2 * sim::MiB,
                          [&] { ++bulk_done; });
    });
    eq.run();
    EXPECT_EQ(replies, 64);
    EXPECT_EQ(bulk_done, 16);
    EXPECT_EQ(srv.fs().statIno(small).size, 64u * 8192);
    EXPECT_TRUE(srv.fs().fsck().ok);
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

/**
 * Reads and writes run one transfer path.  Overlapping ones, a write
 * nobody waits for and a single-disk read each finish at the tick, and
 * after as many events, as when each had a path of its own.
 */
TEST(Raid1Server, TransfersKeepTheirTicks)
{
    sim::EventQueue eq;
    server::Raid1Server srv(eq, "r1", server::Raid1Server::Config{});
    sim::Tick read_at = 0, write_at = 0, disk_at = 0;
    srv.read(96 * sim::KiB, sim::MiB, [&] { read_at = eq.now(); });
    srv.write(5 * sim::MiB + 4096, 256 * sim::KiB,
              [&] { write_at = eq.now(); });
    srv.write(9 * sim::MiB, 64 * sim::KiB, nullptr);
    srv.diskRead(3, 0, 64 * sim::KiB, [&] { disk_at = eq.now(); });
    eq.run();
    EXPECT_EQ(read_at, 603892595u);
    EXPECT_EQ(write_at, 127846046u);
    EXPECT_EQ(disk_at, 632386507u);
    EXPECT_EQ(eq.now(), 632386507u);
    EXPECT_EQ(eq.executed(), 390u);
}

TEST(FileProtocol, OpenReadWriteRoundTrip)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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

TEST(FileProtocol, CompletionOwnsAMoveOnlyCapture)
{
    // A unique_ptr captured by the client's completion rides a
    // positional read through the scheduler, the pipelined reader, the
    // array and its disk channels, and arrives with the completion.
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);
    using Result = server::RaidFileClient::Result;

    constexpr std::uint64_t len = 256 * 1024;
    bool written = false;
    srv.fileWrite(srv.createFile("/m"), 0, len, [&] { written = true; });
    eq.runUntilDone([&] { return written; });
    server::RaidFileClient::Handle h = 0;
    lib.raidOpen("/m", false, [&](const Result &r) { h = r.handle; });
    eq.runUntilDone([&] { return h != 0; });

    const std::uint64_t array_reads = srv.array().reads();
    int seen = 0;
    std::uint64_t bytes = 0;
    lib.raidPRead(h, 0, len,
                  [p = std::make_unique<int>(42), &seen,
                   &bytes](const Result &r) {
                      seen = *p;
                      bytes = r.bytes;
                  });
    eq.runUntilDone([&] { return seen != 0; });
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(bytes, len);
    EXPECT_GT(srv.array().reads(), array_reads);
    EXPECT_EQ(sched.completed(
                  server::RequestScheduler::ServiceClass::FastPath),
              1u);
}

TEST(FileProtocol, ReadPastEofReturnsShort)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig(true));
    net::UltranetFabric ring(eq, "u");
    net::ClientModel client(eq, "c");
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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
    server::RequestScheduler sched(eq, srv);
    server::RaidFileClient lib(eq, sched, client, ring);

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
