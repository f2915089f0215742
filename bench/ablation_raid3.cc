/**
 * @file
 * Ablation E: RAID Level 3 vs Level 5 (the HPDS comparison, §4.2).
 *
 * "The main difference between HPDS and RAID-II is that HPDS uses a
 * bit-interleaved, or RAID Level 3, disk array, whereas RAID-II uses a
 * flexible crossbar interconnect that can support many different RAID
 * architectures.  In particular, RAID-II supports RAID Level 5, which
 * can execute several small, independent I/Os in parallel.  RAID Level
 * 3, on the other hand, supports only one small I/O at a time."
 */

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

struct LevelResult
{
    double small_iops;
    double large_mbs;
};

LevelResult
run(raid::RaidLevel level)
{
    LevelResult res{};

    // Small concurrent reads: 8 processes x 8 KB.
    {
        sim::EventQueue eq;
        auto cfg = bench::hwConfig();
        cfg.layout.level = level;
        server::Raid2Server srv(eq, "srv", cfg);
        workload::ClosedLoopRunner::Config w;
        w.processes = 8;
        w.requestBytes = 8 * sim::KiB;
        w.regionBytes = 1ull << 30;
        w.totalOps = 400;
        w.warmupOps = 40;
        auto r = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.array().read(off, len, std::move(done));
            });
        res.small_iops = r.opsPerSec();
    }

    // Large sequential reads: both levels use all spindles.
    {
        sim::EventQueue eq;
        auto cfg = bench::hwConfig();
        cfg.layout.level = level;
        server::Raid2Server srv(eq, "srv", cfg);
        workload::ClosedLoopRunner::Config w;
        w.processes = 2;
        w.requestBytes = 2 * sim::MB;
        w.regionBytes = 2ull << 30;
        w.sequential = true;
        w.sharedCursor = true;
        w.totalOps = 32;
        w.warmupOps = 4;
        auto r = workload::ClosedLoopRunner::run(
            eq, w,
            [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
                srv.array().read(off, len, std::move(done));
            });
        res.large_mbs = r.throughputMBs();
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_raid3", argc, argv);
    rep.header("Ablation E: RAID Level 3 vs Level 5 (§4.2, the "
               "HPDS comparison)",
               "paper: Level 3 supports only one small I/O at "
               "a time; Level 5 runs them in parallel");

    const auto r3 = run(raid::RaidLevel::Raid3);
    const auto r5 = run(raid::RaidLevel::Raid5);

    std::printf("  %-10s %20s %20s\n", "level", "8 KB reads (ops/s)",
                "2 MB seq (MB/s)");
    std::printf("  %-10s %20.1f %20.2f\n", "RAID-3", r3.small_iops,
                r3.large_mbs);
    std::printf("  %-10s %20.1f %20.2f\n", "RAID-5", r5.small_iops,
                r5.large_mbs);
    rep.record("RAID-3 8 KB reads", r3.small_iops, "ops/s",
               "one small I/O at a time");
    rep.record("RAID-3 2 MB seq", r3.large_mbs, "MB/s", "all spindles");
    rep.record("RAID-5 8 KB reads", r5.small_iops, "ops/s",
               "small I/Os in parallel");
    rep.record("RAID-5 2 MB seq", r5.large_mbs, "MB/s", "all spindles");
    rep.row("Level 5 small-I/O advantage", r5.small_iops / r3.small_iops,
            "x", ">> 1");
    std::printf("\n  Expected shape: comparable large-transfer "
                "bandwidth, but Level 3\n  serializes small requests "
                "across all spindles while Level 5 serves\n  them from "
                "independent disks.\n");
    return 0;
}
