/**
 * @file
 * Ablation F: degraded service and on-line reconstruction.
 *
 * §2.3 defers reliability policy ("Techniques for maximizing
 * reliability are beyond the scope of this paper"), but the mechanism
 * matters for any RAID-5 deployment: how much does a dead disk cost
 * while degraded, and how does the rebuild window trade rebuild time
 * against foreground interference?
 */

#include <functional>
#include <vector>

#include "bench_util.hh"
#include "raid/reconstruct.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
randomReadMBs(sim::EventQueue &eq, raid::SimArray &array,
              std::uint64_t ops)
{
    workload::ClosedLoopRunner::Config w;
    w.processes = 2;
    w.requestBytes = 512 * sim::KiB;
    w.regionBytes = 1ull << 30;
    w.totalOps = ops;
    w.warmupOps = ops / 10;
    auto r = workload::ClosedLoopRunner::run(
        eq, w,
        [&](std::uint64_t off, std::uint64_t len,
            std::function<void()> done) {
            array.read(off, len, std::move(done));
        });
    return r.throughputMBs();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_rebuild", argc, argv);
    rep.header("Ablation F: degraded reads and rebuild-window sweep",
               "mechanism study; the paper defers the policy (§2.3)");

    // Healthy vs degraded service level.
    {
        sim::EventQueue eq;
        auto cfg = bench::lfsConfig();
        cfg.withFs = false;
        server::Raid2Server srv(eq, "srv", cfg);
        const double healthy = randomReadMBs(eq, srv.array(), 100);
        srv.array().failDisk(3);
        const double degraded = randomReadMBs(eq, srv.array(), 100);
        rep.row("Healthy 512 KB random reads", healthy, "MB/s", "-");
        rep.row("Degraded (1 of 16 disks dead)", degraded, "MB/s",
                "slower: survivor fan-out");
    }

    // Rebuild time vs window (concurrent stripes in flight); one
    // independent simulation per window, swept across the pool.
    const std::vector<unsigned> windows = {1, 2, 4, 8, 16};
    const auto rows = bench::runSweepParallel(
        windows.size(), [&](std::size_t i) -> std::vector<double> {
            const unsigned window = windows[i];
            sim::EventQueue eq;
            auto cfg = bench::lfsConfig();
            cfg.withFs = false;
            server::Raid2Server srv(eq, "srv", cfg);
            srv.array().failDisk(3);
            raid::RebuildJob job(eq, srv.array(), 3, window);
            bool done = false;
            job.start([&] { done = true; });
            eq.runUntilDone([&] { return done; });
            // The job tracks its own wall-clock and rate.
            const double minutes = job.durationMs() / 60000.0;
            const double sps = job.stripesPerSec();
            return {static_cast<double>(window), minutes, sps};
        });

    std::printf("\n");
    rep.seriesHeader({"window", "rebuild min", "stripes/s"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Expected shape: degraded reads lose ~30-40%%; "
                "rebuild time drops\n  steeply from window 1 and "
                "flattens once the datapath saturates.\n");
    return 0;
}
