/**
 * @file
 * RequestScheduler tests: classification, bounded admission with
 * asynchronous Busy/Throttled rejection, deficit-round-robin fairness
 * across sessions, and host-CPU batching of metadata ops.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::RequestScheduler;
using server::Status;
using Cls = RequestScheduler::ServiceClass;
using Kind = RequestScheduler::OpKind;

Raid2Server::Config
smallConfig()
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    return cfg;
}

struct World
{
    sim::EventQueue eq;
    Raid2Server srv;
    lfs::InodeNum ino;

    explicit World(std::uint64_t file_bytes = 8ull * 1024 * 1024)
        : srv(eq, "s", smallConfig())
    {
        ino = srv.createFile("/data");
        std::vector<std::uint8_t> d(file_bytes, 0x5a);
        srv.fs().write(ino, 0, {d.data(), d.size()});
        srv.fs().checkpoint();
    }
};

RequestScheduler::Request
readReq(std::uint32_t session, lfs::InodeNum ino, std::uint64_t off,
        std::uint64_t len,
        std::function<void(Status, lfs::InodeNum)> done = nullptr)
{
    RequestScheduler::Request r;
    r.session = session;
    r.kind = Kind::Read;
    r.ino = ino;
    r.off = off;
    r.len = len;
    r.done = std::move(done);
    return r;
}

TEST(RequestScheduler, ClassifiesBySizeAndKind)
{
    World w;
    RequestScheduler sched(w.eq, w.srv);
    const auto s = sched.allocSession();

    EXPECT_EQ(sched.classify(readReq(s, w.ino, 0, 8 * 1024)),
              Cls::Standard);
    EXPECT_EQ(sched.classify(readReq(s, w.ino, 0, 64 * 1024)),
              Cls::Standard); // boundary: <= smallOpBytes
    EXPECT_EQ(sched.classify(readReq(s, w.ino, 0, 512 * 1024)),
              Cls::FastPath);

    RequestScheduler::Request open;
    open.kind = Kind::Open;
    open.path = "/data";
    open.len = 10 * 1024 * 1024; // irrelevant: opens are metadata
    EXPECT_EQ(sched.classify(open), Cls::Standard);
}

TEST(RequestScheduler, CompletesReadsAndWrites)
{
    World w;
    RequestScheduler sched(w.eq, w.srv);
    const auto s = sched.allocSession();

    int done = 0;
    sched.submit(readReq(s, w.ino, 0, 512 * 1024,
                         [&](Status st, lfs::InodeNum) {
                             EXPECT_EQ(st, Status::Ok);
                             ++done;
                         }));
    RequestScheduler::Request wr;
    wr.session = s;
    wr.kind = Kind::Write;
    wr.ino = w.ino;
    wr.off = 0;
    wr.len = 256 * 1024;
    wr.done = [&](Status st, lfs::InodeNum) {
        EXPECT_EQ(st, Status::Ok);
        ++done;
    };
    sched.submit(std::move(wr));

    w.eq.runUntilDone([&] { return done == 2; });
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sched.completed(Cls::FastPath), 2u);
    EXPECT_EQ(sched.queueDepth(Cls::FastPath), 0u);
    EXPECT_EQ(sched.inFlight(Cls::FastPath), 0u);
    EXPECT_GT(sched.serviceMs(Cls::FastPath).count(), 0u);
}

TEST(RequestScheduler, FullClassQueueRejectsBusyAsynchronously)
{
    World w;
    RequestScheduler::Config cfg;
    cfg.fastQueueCap = 2;
    cfg.fastInFlight = 1;
    cfg.sessionQueueCap = 0; // isolate the class cap
    RequestScheduler sched(w.eq, w.srv, cfg);
    const auto s = sched.allocSession();

    int ok = 0, busy = 0;
    bool busy_was_async = false;
    const sim::Tick t0 = w.eq.now();
    // One in flight + two queued fills the class; the rest bounce.
    for (int i = 0; i < 6; ++i)
        sched.submit(readReq(s, w.ino, 0, 512 * 1024,
                             [&](Status st, lfs::InodeNum) {
                                 if (st == Status::Ok) {
                                     ++ok;
                                     return;
                                 }
                                 EXPECT_EQ(st, Status::Busy);
                                 busy_was_async |= w.eq.now() > t0;
                                 ++busy;
                             }));
    w.eq.runUntilDone([&] { return ok + busy == 6; });
    EXPECT_EQ(ok, 3);
    EXPECT_EQ(busy, 3);
    EXPECT_TRUE(busy_was_async);
    EXPECT_EQ(sched.rejected(Cls::FastPath), 3u);
    EXPECT_EQ(sched.admitted(Cls::FastPath), 3u);
}

TEST(RequestScheduler, SessionBacklogCapThrottles)
{
    World w;
    RequestScheduler::Config cfg;
    cfg.fastQueueCap = 64;
    cfg.fastInFlight = 1;
    cfg.sessionQueueCap = 2;
    RequestScheduler sched(w.eq, w.srv, cfg);
    const auto hog = sched.allocSession();
    const auto meek = sched.allocSession();

    int throttled = 0, ok = 0;
    auto count = [&](Status st, lfs::InodeNum) {
        if (st == Status::Throttled)
            ++throttled;
        else if (st == Status::Ok)
            ++ok;
    };
    // The hog floods far past its backlog cap while the class queue
    // still has room; the meek session is untouched by the cap.
    for (int i = 0; i < 8; ++i)
        sched.submit(readReq(hog, w.ino, 0, 512 * 1024, count));
    sched.submit(readReq(meek, w.ino, 0, 512 * 1024, count));
    w.eq.runUntilDone([&] { return throttled + ok == 9; });

    EXPECT_GT(throttled, 0);
    EXPECT_EQ(ok, 9 - throttled);
    EXPECT_EQ(sched.rejected(Cls::FastPath),
              static_cast<std::uint64_t>(throttled));
}

TEST(RequestScheduler, DrrInterleavesAsymmetricSessions)
{
    World w;
    RequestScheduler::Config cfg;
    cfg.fastInFlight = 1;     // strict service order
    cfg.sessionQueueCap = 0;  // let the hog queue everything
    RequestScheduler sched(w.eq, w.srv, cfg);
    const auto hog = sched.allocSession();
    const auto meek = sched.allocSession();

    // The hog dumps 12 bulk reads before the meek session's 3 ever
    // arrive.  Strict FIFO would finish all 12 first; DRR alternates,
    // so by the time the meek session drains, the hog has completed
    // about as many requests — not four times as many.
    int hog_done = 0, meek_done = 0;
    int hog_done_at_meek_drain = -1;
    for (int i = 0; i < 12; ++i)
        sched.submit(readReq(hog, w.ino, 0, 256 * 1024,
                             [&](Status st, lfs::InodeNum) {
                                 ASSERT_EQ(st, Status::Ok);
                                 ++hog_done;
                             }));
    for (int i = 0; i < 3; ++i)
        sched.submit(readReq(meek, w.ino, 0, 256 * 1024,
                             [&](Status st, lfs::InodeNum) {
                                 ASSERT_EQ(st, Status::Ok);
                                 if (++meek_done == 3)
                                     hog_done_at_meek_drain = hog_done;
                             }));

    w.eq.runUntilDone([&] { return hog_done + meek_done == 15; });
    EXPECT_EQ(hog_done, 12);
    EXPECT_EQ(meek_done, 3);
    ASSERT_GE(hog_done_at_meek_drain, 0);
    // Fair interleave: the meek session drains after ~3 hog grants,
    // not after all 12 (the FIFO outcome).
    EXPECT_LE(hog_done_at_meek_drain, 6);
    // And both sessions' byte meters agree with their demand.
    EXPECT_EQ(sched.sessionServedBytes(Cls::FastPath, hog),
              12u * 256 * 1024);
    EXPECT_EQ(sched.sessionServedBytes(Cls::FastPath, meek),
              3u * 256 * 1024);
}

TEST(RequestScheduler, OpensBatchOnTheHostCpu)
{
    World w;
    RequestScheduler sched(w.eq, w.srv);
    const auto s = sched.allocSession();
    const unsigned n = RequestScheduler::metaBatchMax;

    int ok = 0, missing = 0;
    lfs::InodeNum opened = 0;
    for (unsigned i = 0; i < n; ++i) {
        RequestScheduler::Request r;
        r.session = s;
        r.kind = Kind::Open;
        r.path = i == 0 ? "/data" : "/missing" + std::to_string(i);
        r.done = [&](Status st, lfs::InodeNum ino) {
            if (st == Status::Ok) {
                ++ok;
                opened = ino;
            } else {
                EXPECT_EQ(st, Status::NotFound);
                ++missing;
            }
        };
        sched.submit(std::move(r));
    }
    w.eq.runUntilDone([&] { return ok + missing == int(n); });

    EXPECT_EQ(ok, 1);
    EXPECT_EQ(opened, w.ino);
    EXPECT_EQ(missing, int(n) - 1);
    // A full batch flushed as ONE host-CPU entry.
    EXPECT_EQ(sched.batches(), 1u);
    EXPECT_EQ(sched.batchedOps(), n);
}

TEST(RequestScheduler, PartialBatchFlushesAfterWindow)
{
    World w;
    RequestScheduler sched(w.eq, w.srv);
    const auto s = sched.allocSession();

    bool done = false;
    const sim::Tick t0 = w.eq.now();
    RequestScheduler::Request r;
    r.session = s;
    r.kind = Kind::Open;
    r.path = "/data";
    r.done = [&](Status st, lfs::InodeNum) {
        EXPECT_EQ(st, Status::Ok);
        done = true;
    };
    sched.submit(std::move(r));
    w.eq.runUntilDone([&] { return done; });

    // A lone open waits out the batch window before being served.
    EXPECT_GE(w.eq.now() - t0, RequestScheduler::metaBatchWindow);
    EXPECT_EQ(sched.batches(), 1u);
    EXPECT_EQ(sched.batchedOps(), 1u);
}

TEST(RequestScheduler, RegistersStats)
{
    World w;
    RequestScheduler sched(w.eq, w.srv);
    sim::StatsRegistry reg;
    sched.registerStats(reg);

    const auto s = sched.allocSession();
    bool done = false;
    sched.submit(readReq(s, w.ino, 0, 512 * 1024,
                         [&](Status, lfs::InodeNum) { done = true; }));
    w.eq.runUntilDone([&] { return done; });

    std::ostringstream ss;
    reg.toJson(ss, /*pretty=*/false);
    const std::string json = ss.str();
    // Dotted names nest in the JSON tree: server -> sched -> fast.
    EXPECT_NE(json.find("\"sched\""), std::string::npos);
    EXPECT_NE(json.find("\"admitted\""), std::string::npos);
    EXPECT_NE(json.find("\"batches\""), std::string::npos);
}

} // namespace
