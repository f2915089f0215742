/**
 * @file
 * Ablation G: disk command scheduling.
 *
 * The prototype's driver queued FCFS.  With deep per-disk queues (many
 * concurrent clients), a C-SCAN elevator cuts seek time; with shallow
 * queues there is nothing to reorder.  This quantifies what RAID-II
 * left on the table for small-I/O server workloads (Table 2's regime).
 */

#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
run(bool elevator, unsigned processes)
{
    sim::EventQueue eq;
    auto cfg = bench::hwConfig();
    cfg.topo.elevatorScheduling = elevator;
    server::Raid2Server srv(eq, "srv", cfg);

    workload::ClosedLoopRunner::Config w;
    w.processes = processes;
    w.requestBytes = 8 * sim::KiB;
    w.regionBytes = 2ull << 30;
    w.totalOps = 60 * processes;
    w.warmupOps = 8 * processes;
    auto res = workload::ClosedLoopRunner::run(
        eq, w,
        [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
            srv.array().read(off, len, std::move(done));
        });
    return res.opsPerSec();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_scheduler", argc, argv);
    rep.header("Ablation G: FCFS vs C-SCAN elevator disk scheduling",
               "the prototype queued FCFS; reordering pays only with "
               "deep queues");

    const std::vector<unsigned> clients = {1, 8, 32, 64, 128, 256};
    const auto rows = bench::runSweepParallel(
        clients.size(), [&](std::size_t i) -> std::vector<double> {
            const unsigned procs = clients[i];
            const double fcfs = run(false, procs);
            const double scan = run(true, procs);
            return {static_cast<double>(procs), fcfs, scan,
                    100.0 * (scan / fcfs - 1.0)};
        });

    rep.seriesHeader({"clients", "FCFS ops/s", "SCAN ops/s", "gain %"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Expected shape: no difference at one outstanding "
                "request; the elevator\n  pulls ahead as per-disk "
                "queues deepen.\n");
    return 0;
}
