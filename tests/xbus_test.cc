/**
 * @file
 * XBUS board tests: memory-system aggregate bandwidth, port rates,
 * buffer pool accounting/backpressure, and parity engine timing.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using sim::Tick;

TEST(XbusBoard, MemoryAggregateIs160MBs)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    // Four concurrent streams, one per memory module.
    const std::uint64_t bytes = 16 * sim::MB;
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        sim::Pipeline::start({sim::Stage(board.memory())}, bytes,
                             16 * 1024, [&] { ++done; });
    }
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_NEAR(sim::mbPerSec(4 * bytes, eq.now()),
                cal::xbusMemModules * cal::xbusMemModuleMBs, 5.0);
}

TEST(XbusBoard, SingleStreamMemoryIsOneModule)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    bool done = false;
    const std::uint64_t bytes = 16 * sim::MB;
    sim::Pipeline::start({sim::Stage(board.memory())}, bytes,
                         16 * 1024, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // One chunked stream still spreads over the interleaved modules
    // (4 servers), so it exceeds a single module's 40 MB/s.
    EXPECT_GT(sim::mbPerSec(bytes, eq.now()), 40.0);
}

TEST(XbusBoard, VmePortDirectionalRates)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    const std::uint64_t bytes = 8 * sim::MB;
    Tick read_done = 0;
    board.vmePort(0).submitAtRate(bytes, cal::vmePortReadMBs,
                                  [&] { read_done = eq.now(); });
    eq.run();
    EXPECT_NEAR(sim::mbPerSec(bytes, read_done), cal::vmePortReadMBs,
                0.1);

    sim::EventQueue eq2;
    xbus::XbusBoard board2(eq2, "x2");
    Tick write_done = 0;
    board2.vmePort(0).submitAtRate(bytes, cal::vmePortWriteMBs,
                                   [&] { write_done = eq2.now(); });
    eq2.run();
    EXPECT_NEAR(sim::mbPerSec(bytes, write_done), cal::vmePortWriteMBs,
                0.1);
}

TEST(BufferPool, AllocationAccounting)
{
    sim::EventQueue eq;
    xbus::BufferPool pool(eq, "pool", 1024 * 1024);
    int granted = 0;
    pool.alloc(256 * 1024, [&] { ++granted; });
    pool.alloc(512 * 1024, [&] { ++granted; });
    eq.run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(pool.inUse(), 768u * 1024);
    EXPECT_EQ(pool.available(), 256u * 1024);
    pool.free(256 * 1024);
    EXPECT_EQ(pool.inUse(), 512u * 1024);
    EXPECT_EQ(pool.peakUse(), 768u * 1024);
}

TEST(BufferPool, WaitersAreFifoAndWakeOnFree)
{
    sim::EventQueue eq;
    xbus::BufferPool pool(eq, "pool", 100);
    std::vector<int> order;
    pool.alloc(80, [&] { order.push_back(0); });
    pool.alloc(50, [&] { order.push_back(1); }); // must wait
    pool.alloc(10, [&] { order.push_back(2); }); // behind 1 (FIFO)
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(pool.waiters(), 2u);

    pool.free(80);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(pool.inUse(), 60u);
}

TEST(ParityEngine, PassTimeMatchesPortRate)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    bool done = false;
    // Full-stripe pass: 15 data units in, 1 parity unit out.
    const std::uint64_t in = 15 * 64 * 1024;
    const std::uint64_t out = 64 * 1024;
    board.parity().pass(in, out, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    const double mbs = sim::mbPerSec(in + out, eq.now());
    // Port-rate bound, memory is faster.
    EXPECT_GT(mbs, cal::parityEngineMBs * 0.9);
    EXPECT_LE(mbs, cal::parityEngineMBs * 1.01);
    EXPECT_EQ(board.parity().passes(), 1u);
    EXPECT_EQ(board.parity().bytesProcessed(), in + out);
}

TEST(ParityEngine, PassesSerializeOnThePort)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    int done = 0;
    const std::uint64_t bytes = 1 * sim::MB;
    board.parity().pass(bytes, 0, [&] { ++done; });
    board.parity().pass(bytes, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_GE(eq.now(), sim::transferTicks(2 * bytes, 40.0));
}

TEST(XbusBoard, StageBuildersUseTheRightDirections)
{
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    auto to_mem = board.diskToMemory(1);
    ASSERT_EQ(to_mem.size(), 2u);
    EXPECT_EQ(to_mem[0].svc, &board.vmePort(1));
    EXPECT_DOUBLE_EQ(to_mem[0].mbPerSec, cal::vmePortReadMBs);
    EXPECT_EQ(to_mem[1].svc, &board.memory());

    auto to_disk = board.memoryToDisk(2);
    ASSERT_EQ(to_disk.size(), 2u);
    EXPECT_EQ(to_disk[0].svc, &board.memory());
    EXPECT_EQ(to_disk[1].svc, &board.vmePort(2));
    EXPECT_DOUBLE_EQ(to_disk[1].mbPerSec, cal::vmePortWriteMBs);
}

} // namespace
