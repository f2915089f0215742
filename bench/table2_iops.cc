/**
 * @file
 * Table 2: small random read I/O rates, RAID-I vs RAID-II.
 *
 * "Table 2 compares the I/O rates achieved on our two disk array
 * prototypes ... using a test program that performed random 4
 * kilobyte reads.  In each case, fifteen disks were accessed ... a
 * separate process issued 4 kilobyte, randomly distributed I/O
 * requests to each active disk in the system."  RAID-I reached ~275
 * I/Os/s (67% of its disks' potential), RAID-II over 400 (78%),
 * limited in both cases by host context switches.  (§2.3.)
 */

#include <functional>
#include <vector>

#include "bench_util.hh"
#include "server/raid1_server.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace raid2;

namespace {

struct IopsResult
{
    double iops;
};

/** Per-disk closed loop of 4 KB random reads, RAID-II style: disk ->
 *  XBUS -> host completion, no host data movement. */
IopsResult
raid2Iops(unsigned ndisks, std::uint64_t ops_per_disk)
{
    sim::EventQueue eq;
    auto cfg = bench::hwConfig();
    server::Raid2Server srv(eq, "srv", cfg);
    auto &array = srv.array();
    sim::Random rng(99);

    const std::uint64_t disk_bytes =
        cfg.topo.profile->capacityBytes() - 64 * sim::KB;
    std::uint64_t done_ops = 0;
    const std::uint64_t total = ops_per_disk * ndisks;

    std::function<void(unsigned)> issue = [&](unsigned d) {
        if (done_ops >= total)
            return;
        const std::uint64_t off =
            (rng.below(disk_bytes / 4096)) * 4096;
        array.rawDiskRead(d, off, 4096, [&, d] {
            // Completion processing on the host: the context-switch
            // bound of §2.3.
            srv.host().chargeIoCompletion(false, [&, d] {
                ++done_ops;
                issue(d);
            });
        });
    };
    for (unsigned d = 0; d < ndisks; ++d)
        issue(d);
    eq.runUntilDone([&] { return done_ops >= total; });
    return {static_cast<double>(done_ops) / sim::ticksToSec(eq.now())};
}

/** RAID-I: same loop but all data crosses the host backplane+memory. */
IopsResult
raid1Iops(unsigned ndisks, std::uint64_t ops_per_disk)
{
    sim::EventQueue eq;
    server::Raid1Server srv(eq, "raid1", server::Raid1Server::Config{});
    sim::Random rng(77);

    const std::uint64_t disk_bytes =
        disk::wrenIV().capacityBytes() - 64 * sim::KB;
    std::uint64_t done_ops = 0;
    const std::uint64_t total = ops_per_disk * ndisks;

    std::function<void(unsigned)> issue = [&](unsigned d) {
        if (done_ops >= total)
            return;
        const std::uint64_t off =
            (rng.below(disk_bytes / 4096)) * 4096;
        srv.diskRead(d, off, 4096, [&, d] {
            ++done_ops;
            issue(d);
        });
    };
    for (unsigned d = 0; d < ndisks; ++d)
        issue(d);
    eq.runUntilDone([&] { return done_ops >= total; });
    return {static_cast<double>(done_ops) / sim::ticksToSec(eq.now())};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("table2_iops", argc, argv);
    rep.header("Table 2: random 4 KB read I/O rates",
               "paper: RAID-I ~275/s at 15 disks (67% of "
               "potential); RAID-II 400+/s (78%)");

    // The four cells are independent simulations; run them across the
    // bench thread pool (RAID2_BENCH_THREADS=1 restores serial).
    const auto cells = bench::runSweepParallel(
        4, [](std::size_t i) -> std::vector<double> {
            switch (i) {
              case 0: return {raid1Iops(1, 400).iops};
              case 1: return {raid1Iops(15, 200).iops};
              case 2: return {raid2Iops(1, 400).iops};
              default: return {raid2Iops(15, 200).iops};
            }
        });
    const IopsResult r1_single{cells[0][0]};
    const IopsResult r1_fifteen{cells[1][0]};
    const IopsResult r2_single{cells[2][0]};
    const IopsResult r2_fifteen{cells[3][0]};

    std::printf("  %-10s %18s %18s\n", "system", "1 disk (I/Os/s)",
                "15 disks (I/Os/s)");
    std::printf("  %-10s %18.1f %18.1f\n", "RAID-I", r1_single.iops,
                r1_fifteen.iops);
    std::printf("  %-10s %18.1f %18.1f\n", "RAID-II", r2_single.iops,
                r2_fifteen.iops);
    rep.record("RAID-I 1-disk read rate", r1_single.iops, "I/Os/s", "");
    rep.record("RAID-I 15-disk read rate", r1_fifteen.iops, "I/Os/s",
               "~275");
    rep.record("RAID-II 1-disk read rate", r2_single.iops, "I/Os/s", "");
    rep.record("RAID-II 15-disk read rate", r2_fifteen.iops, "I/Os/s",
               "400+");

    const double r1_eff = r1_fifteen.iops / (15.0 * r1_single.iops);
    const double r2_eff = r2_fifteen.iops / (15.0 * r2_single.iops);
    std::printf("\n");
    rep.row("RAID-I scaling efficiency", 100.0 * r1_eff, "%", "~67%");
    rep.row("RAID-II scaling efficiency", 100.0 * r2_eff, "%", "~78%");
    std::printf("\n  Expected shape: RAID-II beats RAID-I per disk "
                "(faster IBM drives) and\n  in scaling (no data through "
                "host memory); both capped by host CPU.\n");
    return 0;
}
