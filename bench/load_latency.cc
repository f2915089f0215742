/**
 * @file
 * Offered-load vs goodput/latency for the scheduled server front end.
 *
 * The paper reports point throughputs (Table 1, Fig 5-8) for one or
 * two clients; this bench asks the question those numbers imply: what
 * happens when an Ultranet full of clients pushes the server past its
 * service capacity?  A 256-session fleet offers an open-loop (Poisson)
 * request mix through the RequestScheduler, and we sweep the aggregate
 * arrival rate from underload through saturation.  The expected shape
 * is the classic open-loop curve: goodput tracks offered load up to
 * the knee — set by the fast path's concurrent-stream budget draining
 * through ~3 MB/s client NICs, with the serialized §3.4 LFS op
 * overhead (~4 ms) underneath — then flattens while p99 latency grows
 * by orders of magnitude as queueing and Busy-retries take over.
 *
 * Each sweep point builds its own simulated world, so the sweep is
 * trivially parallel (RAID2_BENCH_THREADS) and bit-identical to a
 * serial run.
 */

#include <vector>

#include "bench_util.hh"
#include "server/request_scheduler.hh"
#include "sim/stats.hh"
#include "workload/client_fleet.hh"

using namespace raid2;

namespace {

struct SweepCfg
{
    std::vector<double> offered;
    unsigned sessions;
    sim::Tick duration;
};

SweepCfg
sweepCfg()
{
    return {{25, 50, 75, 100, 125, 150, 200, 250, 300},
            256,
            sim::secToTicks(10.0)};
}

workload::ClientFleet::Config
fleetCfg(const SweepCfg &sw, double offered)
{
    workload::ClientFleet::Config fc;
    fc.sessions = sw.sessions;
    fc.mode = workload::ClientFleet::Mode::Open;
    fc.offeredOpsPerSec = offered;
    fc.duration = sw.duration;
    return fc;
}

std::vector<double>
runPoint(const SweepCfg &sw, double offered, bench::Reporter *rep)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    server::Raid2Server srv(eq, "srv", cfg);
    server::RequestScheduler sched(eq, srv);

    sim::StatsRegistry reg;
    if (rep) {
        srv.registerStats(reg);
        sched.registerStats(reg);
        reg.setElapsed([&eq] { return eq.now(); });
        rep->makeTracer(eq);
    }

    auto res =
        workload::ClientFleet::run(eq, srv, sched, fleetCfg(sw, offered));

    auto all = res.fast.latencyMs;
    all.insert(all.end(), res.standard.latencyMs.begin(),
               res.standard.latencyMs.end());

    if (rep)
        rep->snapshotRegistry(reg);

    return {offered,
            res.opsPerSec(),
            res.goodputMBs(),
            sim::exactQuantile(all, 0.50),
            sim::exactQuantile(all, 0.99),
            sim::exactQuantile(all, 0.999),
            sim::exactQuantile(res.fast.latencyMs, 0.99),
            sim::exactQuantile(res.standard.latencyMs, 0.99),
            static_cast<double>(res.fast.rejects + res.standard.rejects),
            static_cast<double>(res.dropped)};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("load_latency", argc, argv);
    const SweepCfg sw = sweepCfg();

    rep.header("Fleet offered load vs goodput and latency",
               "open-loop sweep past the §3.4 LFS op-overhead knee");
    std::printf("  %u sessions, open loop, %.0fs offered window\n\n",
                sw.sessions, sim::ticksToSec(sw.duration));

    rep.seriesHeader({"offered/s", "achieved/s", "goodput MB/s",
                      "p50 ms", "p99 ms", "p999 ms", "fast p99",
                      "std p99", "rejects", "dropped"});

    const auto rows = bench::runSweepParallel(
        sw.offered.size(), [&](std::size_t i) {
            return runPoint(sw, sw.offered[i], nullptr);
        });
    for (const auto &row : rows)
        rep.seriesRow(row);

    // One instrumented re-run near the knee feeds the registry
    // snapshot (scheduler depth/rejects/service-time stats) and the
    // optional Chrome trace into the JSON report.
    const double knee = sw.offered[sw.offered.size() / 2];
    const auto k = runPoint(sw, knee, &rep);

    rep.row("knee offered load", k[0], "ops/s", "near capacity");
    rep.row("knee goodput", k[2], "MB/s", "");
    rep.row("knee p99 latency", k[4], "ms", "");

    std::printf("\n  Expected shape: achieved tracks offered to the "
                "LFS-overhead knee, then\n  flattens; p99 rises "
                "orders of magnitude past it, rejects appear as the\n"
                "  admission queues fill, and the fast/standard split "
                "shows bulk traffic\n  monopolizing neither class "
                "(DRR fairness).\n");
    return 0;
}
