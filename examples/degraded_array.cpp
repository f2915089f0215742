/**
 * @file
 * Disk failure, degraded service and on-line rebuild.
 *
 * RAID-5's point (§1): "this redundancy information can be used to
 * reconstruct the data on disks that fail."  The example fails a
 * member disk of a RAID-II array, shows that (a) the functional array
 * still returns correct bytes, (b) timed reads slow down while
 * degraded, and (c) a RebuildJob restores the disk and service speed.
 */

#include <cstdio>
#include <vector>

#include "raid/raid_array.hh"
#include "raid/reconstruct.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
randomReadMBs(sim::EventQueue &eq, raid::SimArray &array)
{
    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 2;
    wcfg.requestBytes = 512 * sim::KB;
    wcfg.regionBytes = 1ull << 30;
    wcfg.totalOps = 80;
    wcfg.warmupOps = 8;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        array.read(off, len, std::move(done));
    };
    return workload::ClosedLoopRunner::run(eq, wcfg, op).throughputMBs();
}

} // namespace

int
main()
{
    std::printf("Degraded operation and rebuild on RAID-II\n");
    std::printf("==========================================\n\n");

    // ---- Functional plane: bytes survive a failure. ----------------
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    lcfg.numDisks = 8;
    lcfg.stripeUnitBytes = 64 * 1024;
    raid::RaidArray farray(lcfg, 8 * sim::MB);
    // Keep parity from the first write, not the first fault, so the
    // check below has parity to check.
    farray.storeParity();

    sim::Random rng(17);
    std::vector<std::uint8_t> blob(3 * sim::MB);
    for (auto &b : blob)
        b = static_cast<std::uint8_t>(rng.next());
    farray.write(1 * sim::MB, {blob.data(), blob.size()});
    std::printf("functional array parity consistent: %s\n",
                farray.redundancyConsistent() ? "yes" : "NO");

    farray.failDisk(3);
    std::vector<std::uint8_t> back(blob.size());
    farray.read(1 * sim::MB, {back.data(), back.size()});
    std::printf("disk 3 failed; degraded read correct: %s\n",
                back == blob ? "yes" : "NO");

    farray.rebuildDisk(3);
    std::printf("after rebuild, parity consistent: %s\n\n",
                farray.redundancyConsistent() ? "yes" : "NO");

    // ---- Timing plane: service under degradation + rebuild. --------
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.withFs = false;
    cfg.topo.disksPerString = 2; // 16 disks
    server::Raid2Server server(eq, "srv", cfg);
    auto &array = server.array();

    const double healthy = randomReadMBs(eq, array);
    array.failDisk(5);
    const double degraded = randomReadMBs(eq, array);

    const sim::Tick rebuild_start = eq.now();
    raid::RebuildJob job(eq, "srv.rebuild", array, 5, /*window=*/4);
    bool rebuilt = false;
    job.start([&] { rebuilt = true; });
    eq.runUntilDone([&] { return rebuilt; });
    const double rebuild_min =
        sim::ticksToMs(eq.now() - rebuild_start) / 60000.0;
    const double restored = randomReadMBs(eq, array);

    std::printf("timed array, 512 KB random reads:\n");
    std::printf("  healthy:   %6.2f MB/s\n", healthy);
    std::printf("  degraded:  %6.2f MB/s  (reconstructing on the "
                "fly)\n", degraded);
    std::printf("  rebuild:   %6.2f simulated minutes for %llu "
                "stripes\n", rebuild_min,
                (unsigned long long)job.stripesTotal());
    std::printf("  restored:  %6.2f MB/s\n", restored);

    const bool ok = back == blob && farray.redundancyConsistent() &&
                    degraded < healthy && restored > degraded;
    std::printf("\n%s\n", ok ? "SUCCESS" : "FAILURE");
    return ok ? 0 : 1;
}
