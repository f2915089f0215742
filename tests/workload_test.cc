/**
 * @file
 * Workload generator tests: closed-loop accounting, sequential vs
 * random offsets, multi-process concurrency, warmup exclusion, and
 * the open-loop stream runner's deadline accounting.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/event_queue.hh"
#include "sim/service.hh"
#include "workload/generators.hh"

namespace {

using namespace raid2;
using workload::ClosedLoopRunner;
using workload::StreamRunner;

TEST(ClosedLoop, CountsOpsAndBytes)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 1});
    ClosedLoopRunner::Config cfg;
    cfg.requestBytes = 100 * sim::KB;
    cfg.regionBytes = 100 * sim::MB;
    cfg.totalOps = 50;
    auto res = ClosedLoopRunner::run(eq, cfg, [&](std::uint64_t,
                                                  std::uint64_t len,
                                                  sim::Event done) {
        svc.submit(len, std::move(done));
    });
    EXPECT_EQ(res.ops, 50u);
    EXPECT_EQ(res.bytes, 50u * 100 * sim::KB);
    // One 10 MB/s server, closed loop: throughput == service rate.
    EXPECT_NEAR(res.throughputMBs(), 10.0, 0.3);
    EXPECT_NEAR(res.latencyMs.mean(), 10.0, 0.5);
}

TEST(ClosedLoop, SequentialOffsetsAdvance)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{100.0, 0, 1});
    std::vector<std::uint64_t> offs;
    ClosedLoopRunner::Config cfg;
    cfg.requestBytes = 1000;
    cfg.regionBytes = 100000;
    cfg.sequential = true;
    cfg.totalOps = 20;
    ClosedLoopRunner::run(eq, cfg, [&](std::uint64_t off,
                                       std::uint64_t len, sim::Event done) {
        offs.push_back(off);
        svc.submit(len, std::move(done));
    });
    for (std::size_t i = 1; i < offs.size(); ++i)
        EXPECT_EQ(offs[i], offs[i - 1] + 1000);
}

TEST(ClosedLoop, RandomOffsetsAreAlignedAndInRange)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{100.0, 0, 1});
    std::set<std::uint64_t> offs;
    ClosedLoopRunner::Config cfg;
    cfg.requestBytes = 4096;
    cfg.regionBytes = 10 * sim::MB;
    cfg.alignBytes = 4096;
    cfg.totalOps = 200;
    ClosedLoopRunner::run(eq, cfg, [&](std::uint64_t off,
                                       std::uint64_t len, sim::Event done) {
        EXPECT_EQ(off % 4096, 0u);
        EXPECT_LE(off + len, 10 * sim::MB);
        offs.insert(off);
        svc.submit(len, std::move(done));
    });
    EXPECT_GT(offs.size(), 100u); // actually random
}

TEST(ClosedLoop, MultipleProcessesOverlap)
{
    sim::EventQueue eq;
    // 4 parallel servers; 4 processes should finish ~4x faster than 1.
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 4});
    ClosedLoopRunner::Config cfg;
    cfg.requestBytes = sim::MB;
    cfg.regionBytes = 100 * sim::MB;
    cfg.totalOps = 40;
    cfg.processes = 4;
    auto res = ClosedLoopRunner::run(eq, cfg, [&](std::uint64_t,
                                                  std::uint64_t len,
                                                  sim::Event done) {
        svc.submit(len, std::move(done));
    });
    EXPECT_NEAR(res.throughputMBs(), 40.0, 2.0);
}

TEST(ClosedLoop, WarmupExcluded)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 1});
    ClosedLoopRunner::Config cfg;
    cfg.requestBytes = 100 * sim::KB;
    cfg.regionBytes = 10 * sim::MB;
    cfg.totalOps = 30;
    cfg.warmupOps = 10;
    auto res = ClosedLoopRunner::run(eq, cfg, [&](std::uint64_t,
                                                  std::uint64_t len,
                                                  sim::Event done) {
        svc.submit(len, std::move(done));
    });
    EXPECT_EQ(res.ops, 30u);
    EXPECT_EQ(res.latencyMs.count(), 30u);
}

TEST(StreamRunner, NoMissesWhenServerIsFast)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{1000.0, 0, 4});
    StreamRunner::Config cfg;
    cfg.streams = 4;
    cfg.frameBytes = 256 * 1024;
    cfg.framePeriod = sim::msToTicks(100);
    cfg.framesPerStream = 20;
    auto res = StreamRunner::run(eq, cfg, [&](std::uint64_t,
                                              std::uint64_t len,
                                              sim::Event done) {
        svc.submit(len, std::move(done));
    });
    EXPECT_EQ(res.frames, 80u);
    EXPECT_EQ(res.deadlineMisses, 0u);
}

TEST(StreamRunner, MissesWhenOverloaded)
{
    sim::EventQueue eq;
    // 1 MB/s server vs 4 streams x 2.56 MB/s demand.
    sim::Service svc(eq, "svc", sim::Service::Config{1.0, 0, 1});
    StreamRunner::Config cfg;
    cfg.streams = 4;
    cfg.frameBytes = 256 * 1024;
    cfg.framePeriod = sim::msToTicks(100);
    cfg.framesPerStream = 10;
    auto res = StreamRunner::run(eq, cfg, [&](std::uint64_t,
                                              std::uint64_t len,
                                              sim::Event done) {
        svc.submit(len, std::move(done));
    });
    EXPECT_EQ(res.frames, 40u);
    EXPECT_GT(res.missRate(), 0.5);
}

TEST(StreamRunner, OffsetsAreStridedPerStream)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{1000.0, 0, 8});
    StreamRunner::Config cfg;
    cfg.streams = 2;
    cfg.frameBytes = 1000;
    cfg.framePeriod = sim::msToTicks(10);
    cfg.framesPerStream = 3;
    cfg.streamStrideBytes = 1000000;
    std::set<std::uint64_t> offs;
    StreamRunner::run(eq, cfg, [&](std::uint64_t off, std::uint64_t len,
                                   sim::Event done) {
        offs.insert(off);
        svc.submit(len, std::move(done));
    });
    EXPECT_TRUE(offs.count(0));
    EXPECT_TRUE(offs.count(2000));
    EXPECT_TRUE(offs.count(1000000));
    EXPECT_TRUE(offs.count(1002000));
}

} // namespace
