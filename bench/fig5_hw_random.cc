/**
 * @file
 * Figure 5: hardware system level random read/write performance.
 *
 * "These performance measurements ... involve all the components of
 * the system from the disks to the HIPPI network. ... the disk system
 * is configured as a RAID Level 5 with one parity group of 24 disks.
 * For reads, data are read from the disk array into the memory on the
 * XBUS board; from there, data are sent over HIPPI, back to the XBUS
 * board, and into XBUS memory. ... For both reads and writes,
 * subsequent fixed size operations are at random locations."  (§2.3.)
 *
 * Expected shape: both curves climb to ~20 MB/s at large requests;
 * reads dip at 768 KB where the stripe span spills onto a second
 * string of one controller; writes sit below reads at small and
 * medium sizes because of parity work.
 */

#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
measure(bool writes, std::uint64_t req_bytes)
{
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "srv", bench::hwConfig());

    workload::ClosedLoopRunner::Config wcfg;
    // Two outstanding requests: the next request's disk phase overlaps
    // the current one's HIPPI stream-out.
    wcfg.processes = 2;
    wcfg.requestBytes = req_bytes;
    // Random locations across a large slice of the array, aligned to
    // the stripe unit as the prototype's test program was.
    wcfg.regionBytes = std::min<std::uint64_t>(srv.array().capacity(),
                                               4ull * 1024 * 1024 * 1024);
    wcfg.alignBytes = cal::lfsStripeUnitBytes;
    wcfg.totalOps = std::max<std::uint64_t>(16, 48 * sim::MB / req_bytes);
    wcfg.warmupOps = 2;

    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        if (writes)
            srv.hwWrite(off, len, std::move(done));
        else
            srv.hwRead(off, len, std::move(done));
    };
    const auto res = workload::ClosedLoopRunner::run(eq, wcfg, op);
    return res.throughputMBs();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("fig5_hw_random", argc, argv);
    rep.header(
        "Figure 5: hardware system level random read/write vs request "
        "size",
        "paper: ~20 MB/s plateau for both; read dip at 768 KB; writes "
        "slower than reads");

    const std::vector<std::uint64_t> sizes_kb = {
        64,  128,  256,  384,  512,  640,  704, 768,
        832, 1024, 1280, 1536, 2048, 4096, 8192};

    // Independent simulations per point: sweep in parallel, print in
    // order (RAID2_BENCH_THREADS=1 restores the serial path).
    const auto rows = bench::runSweepParallel(
        sizes_kb.size(), [&](std::size_t i) -> std::vector<double> {
            const std::uint64_t kb = sizes_kb[i];
            const double r = measure(false, kb * sim::KB);
            const double w = measure(true, kb * sim::KB);
            return {static_cast<double>(kb), r, w};
        });

    rep.seriesHeader({"req KB", "read MB/s", "write MB/s"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Paper reference points: reads and writes reach "
                "about 20 MB/s at the\n  largest sizes; the read curve "
                "dips at 768 KB (second-string contention).\n");
    return 0;
}
