/**
 * @file
 * Determinism regression tests for the simulation kernel.
 *
 * The lazy-cancellation heap and the parallel sweep runner are only
 * admissible if they leave runs bit-reproducible: the same workload
 * must produce identical final ticks, event counts, and stats
 * snapshots every time, and a sweep executed across the thread pool
 * must return exactly the rows of a serial sweep.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "workload/client_fleet.hh"
#include "workload/generators.hh"

namespace {

using namespace raid2;

struct RunResult
{
    sim::Tick final_tick;
    std::uint64_t executed;
    double mbs;
    std::string stats_json;

    bool
    operator==(const RunResult &o) const
    {
        return final_tick == o.final_tick && executed == o.executed &&
               mbs == o.mbs && stats_json == o.stats_json;
    }
};

/** A small but non-trivial closed-loop random-read workload against
 *  the full timed server, with the stats tree captured at the end. */
RunResult
runWorkload(std::uint64_t req_bytes)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.withFs = false;
    server::Raid2Server srv(eq, "srv", cfg);

    sim::StatsRegistry reg;
    srv.registerStats(reg);
    reg.setElapsed([&eq] { return eq.now(); });

    workload::ClosedLoopRunner::Config w;
    w.processes = 4;
    w.requestBytes = req_bytes;
    w.regionBytes = 1ull << 30;
    w.totalOps = 64;
    w.warmupOps = 8;
    const auto res = workload::ClosedLoopRunner::run(
        eq, w,
        [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
            srv.array().read(off, len, std::move(done));
        });

    RunResult out;
    out.final_tick = eq.now();
    out.executed = eq.executed();
    out.mbs = res.throughputMBs();
    std::ostringstream ss;
    reg.toJson(ss, /*pretty=*/false);
    out.stats_json = ss.str();
    return out;
}

TEST(Determinism, SameWorkloadTwiceIsIdentical)
{
    const RunResult a = runWorkload(256 * sim::KB);
    const RunResult b = runWorkload(256 * sim::KB);
    EXPECT_EQ(a.final_tick, b.final_tick);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.mbs, b.mbs);
    EXPECT_EQ(a.stats_json, b.stats_json);
    EXPECT_GT(a.executed, 0u);
    EXPECT_GT(a.mbs, 0.0);
}

TEST(Determinism, CancellationDoesNotPerturbSurvivors)
{
    // Run once clean, once with extra events that are all cancelled
    // before firing; the surviving schedule must be untouched.
    auto run = [](bool with_cancels) {
        sim::EventQueue eq;
        std::vector<int> order;
        std::vector<sim::EventQueue::EventId> doomed;
        for (int i = 0; i < 50; ++i) {
            eq.schedule(sim::Tick(10 * (i % 7) + 5),
                        [&order, i] { order.push_back(i); });
            if (with_cancels)
                doomed.push_back(eq.schedule(
                    sim::Tick(10 * (i % 7) + 5), [&order] {
                        order.push_back(-1);
                    }));
        }
        for (const auto id : doomed)
            EXPECT_TRUE(eq.cancel(id));
        eq.run();
        return order;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Determinism, ParallelSweepMatchesSerialExactly)
{
    const std::vector<std::uint64_t> sizes_kb = {64, 256, 1024};
    auto body = [&](std::size_t i) -> std::vector<double> {
        const RunResult r = runWorkload(sizes_kb[i] * sim::KB);
        return {static_cast<double>(sizes_kb[i]), r.mbs,
                static_cast<double>(r.final_tick),
                static_cast<double>(r.executed)};
    };

    std::vector<std::vector<double>> serial(sizes_kb.size());
    for (std::size_t i = 0; i < sizes_kb.size(); ++i)
        serial[i] = body(i);

    // Force the threaded path even on single-core CI machines.
    setenv("RAID2_BENCH_THREADS", "3", /*overwrite=*/1);
    const auto parallel = bench::runSweepParallel(sizes_kb.size(), body);
    unsetenv("RAID2_BENCH_THREADS");

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "row " << i;
}

/** One client-fleet sweep point: a fresh world per offered load, as
 *  bench/load_latency runs it. */
std::vector<double>
fleetPoint(double offered_ops)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.fsDeviceBytes = 96ull * 1024 * 1024;
    server::Raid2Server srv(eq, "srv", cfg);
    server::RequestScheduler sched(eq, srv);

    workload::ClientFleet::Config fc;
    fc.sessions = 32;
    fc.mode = workload::ClientFleet::Mode::Open;
    fc.offeredOpsPerSec = offered_ops;
    fc.duration = sim::secToTicks(1.0);
    fc.fileCount = 4;
    fc.fileBytes = 512 * 1024;
    fc.bulkBytes = 256 * 1024;
    const auto r = workload::ClientFleet::run(eq, srv, sched, fc);

    auto lat = r.fast.latencyMs;
    lat.insert(lat.end(), r.standard.latencyMs.begin(),
               r.standard.latencyMs.end());
    return {static_cast<double>(r.elapsed),
            static_cast<double>(r.ops),
            static_cast<double>(r.bytes),
            static_cast<double>(r.retries),
            sim::exactQuantile(lat, 0.99)};
}

TEST(Determinism, FleetSweepMatchesSerialExactly)
{
    const std::vector<double> offered = {50, 150, 300};
    auto body = [&](std::size_t i) { return fleetPoint(offered[i]); };

    std::vector<std::vector<double>> serial(offered.size());
    for (std::size_t i = 0; i < offered.size(); ++i)
        serial[i] = body(i);

    setenv("RAID2_BENCH_THREADS", "3", /*overwrite=*/1);
    const auto parallel = bench::runSweepParallel(offered.size(), body);
    unsetenv("RAID2_BENCH_THREADS");

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "row " << i;
    for (const auto &row : serial)
        EXPECT_GT(row[1], 0.0); // every point did real work
}

TEST(Determinism, SweepRunnerPreservesIndexOrder)
{
    setenv("RAID2_BENCH_THREADS", "4", /*overwrite=*/1);
    const auto rows = bench::runSweepParallel(
        17, [](std::size_t i) -> std::vector<double> {
            return {static_cast<double>(i), static_cast<double>(i * i)};
        });
    unsetenv("RAID2_BENCH_THREADS");
    ASSERT_EQ(rows.size(), 17u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i][0], static_cast<double>(i));
        EXPECT_EQ(rows[i][1], static_cast<double>(i * i));
    }
}

} // namespace
