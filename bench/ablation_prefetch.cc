/**
 * @file
 * Ablation D: read-pipeline depth on the high-bandwidth path.
 *
 * §3.3: "LFS may have several pipeline processes issuing read
 * requests, allowing disk reads to get ahead of network send
 * operations for efficient network transfers."  Depth 1 serializes
 * disk and network; deeper windows overlap them until the array
 * itself is the bottleneck.
 */

#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
run(unsigned depth)
{
    sim::EventQueue eq;
    auto cfg = bench::hwConfig();
    cfg.pipelineDepth = depth;
    server::Raid2Server srv(eq, "srv", cfg);

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 1;
    wcfg.requestBytes = 4 * sim::MB;
    wcfg.regionBytes = 2ull * 1024 * 1024 * 1024;
    wcfg.alignBytes = cal::lfsStripeUnitBytes;
    wcfg.totalOps = 24;
    wcfg.warmupOps = 2;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        srv.hwRead(off, len, std::move(done));
    };
    return workload::ClosedLoopRunner::run(eq, wcfg, op).throughputMBs();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_prefetch", argc, argv);
    rep.header("Ablation D: pipeline depth on the high-bandwidth read "
               "path",
               "paper §3.3: pipelining overlaps disk reads with network "
               "sends");

    const std::vector<unsigned> depths = {1, 2, 3, 4, 6, 8};
    const auto rows = bench::runSweepParallel(
        depths.size(), [&](std::size_t i) -> std::vector<double> {
            return {static_cast<double>(depths[i]), run(depths[i])};
        });

    rep.seriesHeader({"depth", "read MB/s"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Expected shape: depth 1 pays disk+network in "
                "series; throughput grows\n  with depth and flattens "
                "once the disk array is saturated.\n");
    return 0;
}
