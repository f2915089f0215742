/**
 * @file
 * ClientFleet tests: closed- and open-loop runs complete every op,
 * backpressure retries converge without drops, and a fleet run is
 * bit-reproducible from its (config, seed).
 */

#include <gtest/gtest.h>

#include <optional>

#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "workload/client_fleet.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::RequestScheduler;
using workload::ClientFleet;
using Cls = RequestScheduler::ServiceClass;

Raid2Server::Config
smallConfig()
{
    Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2; // 16 disks
    cfg.fsDeviceBytes = 96ull * 1024 * 1024;
    return cfg;
}

/** A fleet config scaled for unit tests, not benches. */
ClientFleet::Config
testFleet(unsigned sessions, unsigned ops)
{
    ClientFleet::Config fc;
    fc.sessions = sessions;
    fc.opsPerSession = ops;
    fc.fileCount = 4;
    fc.fileBytes = 512 * 1024;
    fc.bulkBytes = 256 * 1024; // > smallOpBytes => fast path
    fc.smallBytes = 8 * 1024;
    return fc;
}

TEST(ClientFleet, ClosedLoopCompletesEveryOp)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig());
    RequestScheduler sched(eq, srv);

    const auto fc = testFleet(16, 8);
    const auto res = ClientFleet::run(eq, srv, sched, fc);

    EXPECT_EQ(res.ops, 16u * 8);
    EXPECT_EQ(res.fast.ops + res.standard.ops, res.ops);
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_GT(res.bytes, 0u);
    EXPECT_GT(res.elapsed, 0u);
    // The default mix (80% read, 25% small) exercises both classes.
    EXPECT_GT(res.fast.ops, 0u);
    EXPECT_GT(res.standard.ops, 0u);
    EXPECT_EQ(res.fast.latencyMs.size(), res.fast.ops);
    EXPECT_EQ(res.standard.latencyMs.size(), res.standard.ops);
    // Session opens went through the metadata batcher.
    EXPECT_GT(sched.batchedOps(), 0u);
    EXPECT_LT(sched.batches(), sched.batchedOps());
}

TEST(ClientFleet, OpenLoopOffersTheConfiguredRate)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig());
    RequestScheduler sched(eq, srv);

    auto fc = testFleet(16, 0);
    fc.mode = ClientFleet::Mode::Open;
    fc.offeredOpsPerSec = 100.0;
    fc.duration = sim::secToTicks(2.0);
    const auto res = ClientFleet::run(eq, srv, sched, fc);

    // ~200 Poisson arrivals expected; allow generous slack.
    EXPECT_GT(res.ops, 100u);
    EXPECT_LT(res.ops, 400u);
    EXPECT_EQ(res.dropped, 0u);
    // Underloaded: achieved rate tracks offered rate.
    EXPECT_NEAR(res.opsPerSec(), 100.0, 40.0);
}

TEST(ClientFleet, BackpressureRetriesConvergeWithoutDrops)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig());
    RequestScheduler::Config scfg;
    scfg.fastQueueCap = 2;
    scfg.stdQueueCap = 2;
    scfg.sessionQueueCap = 1;
    scfg.fastInFlight = 1;
    scfg.stdInFlight = 1;
    RequestScheduler sched(eq, srv, scfg);

    auto fc = testFleet(12, 4);
    fc.startStagger = 0; // all sessions slam the queues at once
    const auto res = ClientFleet::run(eq, srv, sched, fc);

    EXPECT_EQ(res.ops, 12u * 4);
    EXPECT_EQ(res.dropped, 0u);
    // The tiny queues must actually have pushed back.
    EXPECT_GT(res.retries, 0u);
    EXPECT_GT(res.fast.rejects + res.standard.rejects, 0u);
    EXPECT_GT(sched.rejected(Cls::FastPath) +
                  sched.rejected(Cls::Standard),
              0u);
}

// Exactly-once effect: a Busy/Throttled completion means the op was
// never admitted, so the server applied nothing — the retry is the
// first and only application.  Run an all-write fleet against tiny
// admission queues (guaranteeing rejections on both classes) and
// count actual file-system write applications through the server's
// FsOp observer: one per completed op, despite all the retries.
TEST(ClientFleet, RetriedWritesApplyExactlyOnce)
{
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig());
    RequestScheduler::Config scfg;
    scfg.fastQueueCap = 2;
    scfg.stdQueueCap = 2;
    scfg.sessionQueueCap = 1;
    scfg.fastInFlight = 1;
    scfg.stdInFlight = 1;
    RequestScheduler sched(eq, srv, scfg);

    // The fleet pre-populates its files through fs() directly; the
    // observer sees only the ops the sessions issue.
    std::uint64_t applied = 0;
    srv.setFsOpObserver([&](const Raid2Server::FsOp &op) {
        if (op.kind == Raid2Server::FsOp::Kind::Write)
            ++applied;
    });

    auto fc = testFleet(12, 4);
    fc.readFraction = 0.0; // every op is a write
    fc.startStagger = 0;   // all sessions slam the queues at once
    const auto res = ClientFleet::run(eq, srv, sched, fc);

    EXPECT_EQ(res.ops, 12u * 4);
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_GT(res.retries, 0u); // rejections really happened
    EXPECT_GT(res.fast.rejects + res.standard.rejects, 0u);
    EXPECT_EQ(applied, res.ops)
        << "a rejected-then-retried write was applied more than once "
           "(or a completed write never reached the file system)";
}

// raidClose while a positional op is still in flight: the close must
// return a clean status and the op's completion must still fire with
// its full result — positional ops never touch the handle cursor, so
// tearing down the handle cannot corrupt or lose them.
TEST(ClientFleet, CloseDuringInFlightPositionalOpKeepsCompletion)
{
    using server::RaidFileClient;
    sim::EventQueue eq;
    Raid2Server srv(eq, "s", smallConfig());
    net::UltranetFabric ring(eq, "ring");
    net::ClientModel nic(eq, "c0");
    server::RequestScheduler sched(eq, srv);
    RaidFileClient lib(eq, sched, nic, ring, RaidFileClient::Config{});

    RaidFileClient::Handle h = RaidFileClient::invalidHandle;
    lib.raidOpen("/f", true, [&](const RaidFileClient::Result &r) {
        ASSERT_TRUE(r.ok());
        h = r.handle;
    });
    eq.runUntilDone([&] { return h != RaidFileClient::invalidHandle; });

    // Seed some bytes so the in-flight pread has data to return.
    bool seeded = false;
    lib.raidPWrite(h, 0, 64 * 1024,
                   [&](const RaidFileClient::Result &r) {
                       ASSERT_TRUE(r.ok());
                       seeded = true;
                   });
    eq.runUntilDone([&] { return seeded; });

    std::optional<RaidFileClient::Result> wr, rr;
    lib.raidPWrite(h, 16 * 1024, 32 * 1024,
                   [&](const RaidFileClient::Result &r) { wr = r; });
    lib.raidPRead(h, 0, 8 * 1024,
                  [&](const RaidFileClient::Result &r) { rr = r; });

    // Close while both are in flight: clean status, not an error or
    // a crash, and the handle is gone immediately.
    EXPECT_EQ(lib.raidClose(h), RaidFileClient::Status::Ok);
    EXPECT_FALSE(lib.position(h).has_value());

    eq.runUntilDone([&] { return wr && rr; });
    ASSERT_TRUE(wr && rr) << "a completion was lost by the close";
    EXPECT_EQ(wr->status, RaidFileClient::Status::Ok);
    EXPECT_EQ(wr->bytes, 32u * 1024);
    EXPECT_EQ(rr->status, RaidFileClient::Status::Ok);
    EXPECT_EQ(rr->bytes, 8u * 1024);

    // The handle stays closed: later ops fail cleanly.
    EXPECT_EQ(lib.raidClose(h), RaidFileClient::Status::BadHandle);
    bool badSeen = false;
    lib.raidPWrite(h, 0, 1024,
                   [&](const RaidFileClient::Result &r) {
                       EXPECT_EQ(r.status,
                                 RaidFileClient::Status::BadHandle);
                       badSeen = true;
                   });
    eq.runUntilDone([&] { return badSeen; });
    EXPECT_TRUE(badSeen);
}

TEST(ClientFleet, RunIsBitReproducible)
{
    auto once = [] {
        sim::EventQueue eq;
        Raid2Server srv(eq, "s", smallConfig());
        RequestScheduler sched(eq, srv);
        auto fc = testFleet(256, 2);
        fc.fileCount = 8;
        return ClientFleet::run(eq, srv, sched, fc);
    };
    const auto a = once();
    const auto b = once();

    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.fast.ops, b.fast.ops);
    EXPECT_EQ(a.standard.bytes, b.standard.bytes);
    EXPECT_EQ(a.fast.latencyMs, b.fast.latencyMs);
    EXPECT_EQ(a.standard.latencyMs, b.standard.latencyMs);
    EXPECT_EQ(a.ops, 256u * 2);
}

TEST(ClientFleet, SeedChangesTheSchedule)
{
    auto once = [](std::uint64_t seed) {
        sim::EventQueue eq;
        Raid2Server srv(eq, "s", smallConfig());
        RequestScheduler sched(eq, srv);
        auto fc = testFleet(8, 8);
        fc.seed = seed;
        return ClientFleet::run(eq, srv, sched, fc);
    };
    const auto a = once(1);
    const auto b = once(2);
    // Same op count, different draw sequence => different timeline.
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_NE(a.elapsed, b.elapsed);
}

TEST(ClientFleet, PopulationBytesFollowTheFormula)
{
    for (const std::size_t n : {std::size_t(0), std::size_t(1),
                                std::size_t(255), std::size_t(256),
                                std::size_t(257),
                                std::size_t(2 * 1024 * 1024 + 3)}) {
        const std::vector<std::uint8_t> buf =
            ClientFleet::populationBytes(n);
        ASSERT_EQ(buf.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 13 + 7))
                << "length " << n << ", byte " << i;
    }
}

} // namespace
