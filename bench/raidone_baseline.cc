/**
 * @file
 * §1 baseline: why RAID-I motivated RAID-II.
 *
 * "Experiments with RAID-I show that it performs well when processing
 * small, random I/Os, achieving approximately 275 four-kilobyte random
 * I/Os per second.  However, RAID-I proved woefully inadequate at
 * providing high-bandwidth I/O, sustaining at best 2.3 megabytes/
 * second to a user-level application ... By comparison, a single disk
 * on RAID-I can sustain 1.3 megabytes/second."  Also reproduced here:
 * the 9 MB/s backplane ceiling with the copy bottleneck removed.
 */

#include <functional>

#include "bench_util.hh"
#include "server/raid1_server.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
largeReadMBs(bool bypass_copies)
{
    sim::EventQueue eq;
    server::Raid1Server::Config cfg;
    if (bypass_copies) {
        // Hypothetical: DMA straight to the user buffer, leaving only
        // the 9 MB/s backplane.
        cfg.hostCfg.copyMBs = 10000.0;
    }
    server::Raid1Server srv(eq, "raid1", cfg);

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 2;
    wcfg.requestBytes = 1 * sim::MB;
    wcfg.regionBytes = 2ull * 1024 * 1024 * 1024;
    wcfg.sequential = true;
    wcfg.totalOps = 48;
    wcfg.warmupOps = 4;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        srv.read(off, len, std::move(done));
    };
    return workload::ClosedLoopRunner::run(eq, wcfg, op).throughputMBs();
}

double
singleDiskMBs()
{
    sim::EventQueue eq;
    server::Raid1Server srv(eq, "raid1", server::Raid1Server::Config{});
    std::uint64_t pos = 0, bytes = 0;
    const std::uint64_t req = 256 * sim::KB;
    const int ops = 64;
    int done = 0;
    std::function<void()> issue = [&] {
        if (done == ops)
            return;
        srv.diskRead(0, pos, req, [&] {
            ++done;
            bytes += req;
            issue();
        });
        pos += req;
    };
    issue();
    eq.run();
    return sim::mbPerSec(bytes, eq.now());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("raidone_baseline", argc, argv);
    rep.header("RAID-I baseline (the problem statement of §1)",
               "paper: 2.3 MB/s to the application; 1.3 MB/s single "
               "disk; 9 MB/s backplane");

    rep.row("Large sequential reads, full path", largeReadMBs(false),
            "MB/s", "2.3");
    rep.row("  ...with host copies removed", largeReadMBs(true), "MB/s",
            "<= 9 (backplane)");
    rep.row("Single Wren IV disk, sequential", singleDiskMBs(), "MB/s",
            "1.3");

    std::printf("\n  Expected shape: the full path is copy-limited near "
                "2.3 MB/s -- an order\n  of magnitude under the 24+ "
                "disks' aggregate -- and even without copies\n  the 9 "
                "MB/s backplane caps the host-centric architecture.\n");
    return 0;
}
