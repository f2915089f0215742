/**
 * @file
 * Figure 8: performance of RAID-II running LFS.
 *
 * "All the measurements presented in this section use a single XBUS
 * board with 16 disks.  The LFS log is interleaved or striped across
 * the disks in units of 64 kilobytes.  The log is written to the disk
 * array in units or segments of 960 kilobytes. ... For each request
 * type, a single process issued requests to the disk array.  For both
 * reads and writes, data are transferred to/from network buffers, but
 * do not actually go across the network." (§3.4.)
 *
 * Expected shape: reads climb to ~20 MB/s only for very large
 * (effectively sequential) requests, burdened by ~23 ms per-op
 * overhead below that; writes reach ~15 MB/s from ~512 KB on because
 * LFS batches them into sequential segments; small random writes beat
 * small random reads.
 */

#include <functional>
#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

constexpr std::uint64_t fileBytes = 192ull * 1024 * 1024;

/**
 * One read measurement.  With a Reporter attached this becomes the
 * instrumented run: the server's full stats tree is registered and
 * snapshotted into the report, and (when tracing is enabled) a
 * TraceSink records the pipelined prefetch overlap.
 */
double
measureReads(std::uint64_t req_bytes, bench::Reporter *rep = nullptr)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.fsDeviceBytes = 256ull * 1024 * 1024;
    server::Raid2Server srv(eq, "srv", cfg);

    sim::StatsRegistry reg;
    if (rep) {
        srv.registerStats(reg);
        reg.setElapsed([&eq] { return eq.now(); });
        rep->makeTracer(eq);
    }

    // Lay down a large file sequentially (the log makes it contiguous
    // on the array), then read at random offsets.
    const auto ino = srv.createFile("/big");
    {
        std::vector<std::uint8_t> chunk(4 * sim::MB, 0xab);
        for (std::uint64_t off = 0; off < fileBytes; off += chunk.size())
            srv.fs().write(ino, off, {chunk.data(), chunk.size()});
        srv.fs().checkpoint();
    }
    // The layout writes above were functional only; drop their timed
    // mirror so the measurement starts clean.
    eq.run();

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 1; // §3.4: a single process
    wcfg.requestBytes = req_bytes;
    wcfg.regionBytes = fileBytes;
    wcfg.totalOps =
        std::max<std::uint64_t>(12, 96 * sim::MB / req_bytes);
    wcfg.warmupOps = 2;

    auto op = [&](std::uint64_t off, std::uint64_t len,
                  std::function<void()> done) {
        srv.fileRead(ino, off, len,
                     [done = std::move(done)](server::Status) { done(); });
    };
    const double mbs =
        workload::ClosedLoopRunner::run(eq, wcfg, op).throughputMBs();
    if (rep)
        rep->snapshotRegistry(reg);
    return mbs;
}

double
measureWrites(std::uint64_t req_bytes)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.fsDeviceBytes = 256ull * 1024 * 1024;
    server::Raid2Server srv(eq, "srv", cfg);

    const auto ino = srv.createFile("/big");
    const std::uint64_t region = 96ull * 1024 * 1024;

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 1;
    wcfg.requestBytes = req_bytes;
    wcfg.regionBytes = region;
    wcfg.totalOps =
        std::max<std::uint64_t>(16, 64 * sim::MB / req_bytes);
    wcfg.warmupOps = 2;

    auto op = [&](std::uint64_t off, std::uint64_t len,
                  std::function<void()> done) {
        srv.fileWrite(ino, off, len, std::move(done));
    };
    return workload::ClosedLoopRunner::run(eq, wcfg, op).throughputMBs();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("fig8_lfs", argc, argv);
    rep.header(
        "Figure 8: LFS on RAID-II, random reads/writes vs request size",
        "paper: reads to ~20 MB/s (>=10 MB reqs), writes ~15 MB/s "
        "(>=512 KB reqs)");

    const std::vector<std::uint64_t> sizes_kb = {
        16, 64, 128, 256, 512, 1024, 2048, 4096, 10240, 20480};

    // Each sweep point is an independent simulation, so the points run
    // across a thread pool (RAID2_BENCH_THREADS=1 restores serial) and
    // the rows are emitted in order afterwards — identical output.
    const auto rows = bench::runSweepParallel(
        sizes_kb.size(), [&](std::size_t i) -> std::vector<double> {
            const std::uint64_t kb = sizes_kb[i];
            const double r = measureReads(kb * sim::KB);
            const double w = measureWrites(kb * sim::KB);
            return {static_cast<double>(kb), r, w};
        });

    rep.seriesHeader({"req KB", "read MB/s", "write MB/s"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    // One more read run, instrumented: fills the report's registry
    // snapshot and (with --trace) the Chrome-trace file showing the
    // prefetch pipeline overlap.
    const double instr = measureReads(1024 * sim::KB, &rep);
    rep.row("Instrumented read run (1 MB reqs)", instr, "MB/s",
            "matches curve");

    std::printf("\n  Expected shape: small random writes beat small "
                "random reads (log\n  batching); reads overtake at "
                "multi-megabyte requests; read plateau ~20,\n  write "
                "plateau ~15 MB/s.\n");
    return 0;
}
