/**
 * @file
 * Network model tests: HIPPI setup overhead and asymptote (the two
 * regimes of Fig 6), Ethernet packetization, transfers across the
 * Ultranet ring, and the copy-limited client.
 */

#include <gtest/gtest.h>

#include <functional>

#include "net/client_model.hh"
#include "net/ethernet.hh"
#include "net/hippi.hh"
#include "net/ultranet.hh"
#include "sim/event_queue.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using sim::Tick;

double
loopbackMBs(std::uint64_t bytes, int reps = 10)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    net::HippiLoopback loop(eq, board);
    int done = 0;
    std::function<void()> issue = [&] {
        if (done == reps)
            return;
        loop.transfer(bytes, [&] {
            ++done;
            issue();
        });
    };
    issue();
    eq.run();
    return sim::mbPerSec(std::uint64_t(reps) * bytes, eq.now());
}

TEST(Hippi, SmallPacketsAreOverheadDominated)
{
    // A 4 KB packet takes ~1.1 ms setup + ~0.2 ms of transfers:
    // well under 4 MB/s.
    EXPECT_LT(loopbackMBs(4 * sim::KB), 4.0);
}

TEST(Hippi, LargePacketsApproach38MBs)
{
    const double mbs = loopbackMBs(4 * sim::MB);
    // Fig 6: 38.5 MB/s in each direction.
    EXPECT_GT(mbs, 35.0);
    EXPECT_LE(mbs, 38.6);
}

TEST(Hippi, ThroughputMonotonicInSize)
{
    double prev = 0.0;
    for (std::uint64_t kb : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
        const double mbs = loopbackMBs(kb * sim::KB, 5);
        EXPECT_GT(mbs, prev);
        prev = mbs;
    }
}

TEST(Hippi, SetupCostIsCharged)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    net::HippiChannel ch(eq, "ch", board.hippiSrcPort(),
                         board.hippiDstPort());
    bool done = false;
    ch.send(1, {}, {}, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(eq.now(), cal::hippiSetupOverhead);
    EXPECT_EQ(ch.packets(), 1u);
}

TEST(Hippi, SendDuringLinkDropWaitsForLinkUp)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    net::HippiChannel ch(eq, "ch", board.hippiSrcPort(),
                         board.hippiDstPort());
    const Tick down = sim::msToTicks(25);
    ch.injectLinkDown(down);
    ASSERT_TRUE(ch.linkDown());
    Tick at = 0;
    ch.send(4 * sim::KB, {}, {}, [&] { at = eq.now(); });
    EXPECT_EQ(ch.packets(), 0u);
    eq.run();
    EXPECT_EQ(ch.deferredSends(), 1u);
    EXPECT_EQ(ch.packets(), 1u);
    // Held until link-up, then charged the usual setup.
    EXPECT_GE(at, down + cal::hippiSetupOverhead);
}

TEST(Ethernet, WireRateIsTenMegabits)
{
    sim::EventQueue eq;
    net::EthernetLink link(eq, "e");
    bool done = false;
    const std::uint64_t bytes = 1 * sim::MB;
    link.send(bytes, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    const double mbs = sim::mbPerSec(bytes, eq.now());
    // 1.25 MB/s raw, minus ~0.5 ms per 1500 B packet.
    EXPECT_LT(mbs, 1.25);
    EXPECT_GT(mbs, 0.5);
    EXPECT_EQ(link.packets(), (bytes + cal::ethernetMTU - 1) /
                                  cal::ethernetMTU);
}

TEST(Ethernet, SmallTransferLatency)
{
    sim::EventQueue eq;
    net::EthernetLink link(eq, "e");
    Tick done_at = 0;
    link.send(1000, [&] { done_at = eq.now(); });
    eq.run();
    // One packet: ~0.5 ms overhead + 0.8 ms wire time.
    EXPECT_GE(done_at, cal::ethernetPacketOverhead);
    EXPECT_LT(done_at, sim::msToTicks(2.5));
}

TEST(Ultranet, TransferCrossesRingAtRingRate)
{
    // A transfer crosses the ring as one stage between its endpoints'
    // stages, as RaidFileClient's in and out stages do.
    sim::EventQueue eq;
    net::UltranetFabric ring(eq, "u");
    sim::Service src(eq, "src", sim::Service::Config{200.0, 0, 1});
    sim::Service dst(eq, "dst", sim::Service::Config{200.0, 0, 1});
    bool done = false;
    const std::uint64_t bytes = 10 * sim::MB;
    sim::Pipeline::start({sim::Stage(src), sim::Stage(ring.ring()),
                          sim::Stage(dst)},
                         bytes, cal::xbusChunkBytes, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // Ring is 100 MB/s: the slowest stage.
    EXPECT_NEAR(sim::mbPerSec(bytes, eq.now()), 100.0, 8.0);
}

TEST(Client, AsymmetricCopyLimitedRates)
{
    sim::EventQueue eq;
    net::ClientModel c(eq, "sparc");
    const std::uint64_t bytes = 8 * sim::MB;
    Tick rx_done = 0;
    c.rxStage().svc->submitAtRate(bytes, cal::clientReadMBs,
                                  [&] { rx_done = eq.now(); });
    eq.run();
    EXPECT_NEAR(sim::mbPerSec(bytes, rx_done), cal::clientReadMBs, 0.1);
}

TEST(Client, NicBoundEndToEndTransfer)
{
    // Server-side HIPPI (38.5) -> ring (100) -> client NIC (3.2):
    // the client NIC dominates, reproducing §3.4's ~3 MB/s.
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    net::UltranetFabric ring(eq, "u");
    net::ClientModel c(eq, "sparc");
    bool done = false;
    const std::uint64_t bytes = 8 * sim::MB;
    sim::Pipeline::start({sim::Stage(board.hippiSrcPort()),
                          sim::Stage(ring.ring()), c.rxStage()},
                         bytes, cal::xbusChunkBytes, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim::mbPerSec(bytes, eq.now()), cal::clientReadMBs,
                0.2);
}

} // namespace
