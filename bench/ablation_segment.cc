/**
 * @file
 * Ablation C: LFS segment size.
 *
 * The paper fixes segments at 960 KB (§3.4).  This sweep shows why a
 * segment should span roughly a full stripe or more: small segments
 * turn the log's flushes back into partial-stripe RAID-5 writes
 * (read-modify-write parity traffic), while very large segments only
 * add buffering without much additional bandwidth.
 */

#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

struct SegPoint
{
    double write_mbs;
    double rmw_fraction;
};

SegPoint
run(std::uint32_t seg_blocks)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.fsParams.segBlocks = seg_blocks;
    server::Raid2Server srv(eq, "srv", cfg);
    const auto ino = srv.createFile("/f");

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 1;
    wcfg.requestBytes = 256 * sim::KB;
    wcfg.regionBytes = 64 * sim::MB;
    wcfg.totalOps = 256;
    wcfg.warmupOps = 16;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        srv.fileWrite(ino, off, len, std::move(done));
    };
    const auto res = workload::ClosedLoopRunner::run(eq, wcfg, op);

    SegPoint out;
    out.write_mbs = res.throughputMBs();
    const auto &arr = srv.array();
    const double stripes =
        static_cast<double>(arr.rmwStripes() +
                            arr.reconstructWriteStripes() +
                            arr.fullStripeWrites());
    out.rmw_fraction =
        stripes > 0 ? (arr.rmwStripes() +
                       arr.reconstructWriteStripes()) / stripes
                    : 0.0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_segment", argc, argv);
    rep.header("Ablation C: LFS segment size sweep",
               "paper: 960 KB segments over a 16-disk, 64 KB stripe-unit "
               "array (stripe = 960 KB)");

    const std::vector<std::uint32_t> segs = {30, 60, 120, 240, 480};
    const auto rows = bench::runSweepParallel(
        segs.size(), [&](std::size_t i) -> std::vector<double> {
            const auto pt = run(segs[i]);
            return {segs[i] * 4.0, pt.write_mbs,
                    100.0 * pt.rmw_fraction};
        });

    rep.seriesHeader({"seg KB", "write MB/s", "partial %"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Expected shape: throughput rises with segment size "
                "as flushes become\n  full-stripe writes; the paper's "
                "960 KB (= one full 15-unit stripe of the\n  16-disk "
                "array) sits at the knee.\n");
    return 0;
}
