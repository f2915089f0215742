/**
 * @file
 * Figure 6: HIPPI loopback performance.
 *
 * "Data are transferred from the XBUS memory to the HIPPI source
 * board, and then to the HIPPI destination board and back to XBUS
 * memory. ... In the loopback mode, the overhead of sending a HIPPI
 * packet is about 1.1 milliseconds ... For large requests, however,
 * the XBUS and HIPPI boards support 38 megabytes/second in both
 * directions."  (§2.3, Fig 6: throughput vs request size, asymptote
 * 38.5 MB/s.)
 */

#include <vector>

#include "bench_util.hh"
#include "net/hippi.hh"
#include "sim/event_queue.hh"
#include "xbus/xbus_board.hh"

using namespace raid2;

int
main(int argc, char **argv)
{
    bench::Reporter rep("fig6_hippi", argc, argv);
    rep.header("Figure 6: HIPPI loopback throughput vs request "
               "size",
               "paper: 1.1 ms packet overhead, 38.5 MB/s "
               "asymptote");

    const std::vector<std::uint64_t> sizes_kb = {
        4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192};

    // One loopback measurement; with a Reporter attached it becomes
    // the instrumented run (stats registry + optional trace).
    auto measure = [&rep](std::uint64_t kb,
                          bool instrumented) -> double {
        sim::EventQueue eq;
        xbus::XbusBoard board(eq, "xbus");
        net::HippiLoopback loop(eq, board);

        sim::StatsRegistry reg;
        if (instrumented) {
            board.registerStats(reg, "xbus");
            reg.setElapsed([&eq] { return eq.now(); });
            rep.makeTracer(eq);
        }

        const std::uint64_t bytes = kb * sim::KB;
        const int reps = 20;
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

        if (instrumented)
            rep.snapshotRegistry(reg);
        return sim::mbPerSec(std::uint64_t(reps) * bytes, eq.now());
    };

    // Sweep the sizes across a thread pool (each point is its own
    // simulation), then emit rows in order; the last size runs once
    // more, serially, to fill the registry snapshot and trace.
    const auto rows = bench::runSweepParallel(
        sizes_kb.size(), [&](std::size_t i) -> std::vector<double> {
            const std::uint64_t kb = sizes_kb[i];
            return {static_cast<double>(kb),
                    measure(kb, /*instrumented=*/false)};
        });

    rep.seriesHeader({"req KB", "MB/s"});
    for (const auto &row : rows)
        rep.seriesRow(row);
    // EXPERIMENTS.md's headline cells, pinned by experiments_check.
    rep.record("Loopback at 4 KB", rows.front()[1], "MB/s",
               "1.1 ms overhead dominated");
    rep.record("Loopback asymptote (8192 KB)", rows.back()[1], "MB/s",
               "38.5 MB/s");
    measure(sizes_kb.back(), /*instrumented=*/true);

    std::printf("\n  Expected shape: overhead-dominated at small sizes,"
                " saturating near 38.5 MB/s\n");
    return 0;
}
