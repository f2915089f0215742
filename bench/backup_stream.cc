/**
 * @file
 * Online backup stream sweep: window depth x segment size x link
 * drop rate.
 *
 * RAID-II's high-bandwidth mission includes backup: the array is the
 * bandwidth source, and the HIPPI network is the pipe (§1, §4.2).  The
 * snap::BackupEngine streams pinned snapshot segments from the source
 * array over HIPPI into a second server, with a bounded in-flight
 * window drawn from the XBUS buffer pool and deterministic
 * retry/backoff when the link drops.  This bench sweeps the three
 * knobs that shape that stream:
 *
 *  - window depth (concurrent in-flight segments): how much array and
 *    link parallelism the stream can exploit;
 *  - LFS segment size (the transfer unit): per-segment overhead vs
 *    pipelining granularity;
 *  - link outage duty cycle (injected via fault::FaultPlan): how
 *    gracefully throughput degrades when the link misbehaves.
 *
 * Every row is pure simulated time and simulated work counters, so the
 * sweep is bit-identical no matter how many worker threads
 * RAID2_BENCH_THREADS spreads it over — that's what its golden test
 * byte-compares.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"
#include "snap/backup_engine.hh"
#include "snap/snapshot_manager.hh"

using namespace raid2;

namespace {

/** One sweep point. */
struct Point
{
    unsigned window;
    std::uint32_t segBlocks; // 4 KB blocks per LFS segment
    unsigned dropPct;        // link outage duty cycle, percent
};

constexpr std::uint64_t kFileBytes = 256 * 1024;
constexpr unsigned kFiles = 16; // 4 MB working set
/** Periodic outage pattern: every period, down for duty% of it. */
constexpr double kDropPeriodMs = 50.0;
/** Schedule outages out to here; runs end well before. */
constexpr double kDropHorizonMs = 4000.0;

server::Raid2Server::Config
serverConfig(std::uint32_t seg_blocks)
{
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.withFs = true;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    cfg.fsParams.segBlocks = seg_blocks;
    return cfg;
}

/**
 * Run one full-backup stream and report
 * {window, segKB, dropPct, elapsedMs, MB/s, segments, retries,
 *  deferred} — all derived from simulated time and counters.
 */
std::vector<double>
runPoint(const Point &p)
{
    sim::EventQueue eq;
    server::Raid2Server src(eq, "src", serverConfig(p.segBlocks));
    server::Raid2Server dst(eq, "dst", serverConfig(p.segBlocks));
    snap::SnapshotManager mgr(src);
    snap::BackupEngine::Config bcfg;
    bcfg.windowSegments = p.window;
    snap::BackupEngine eng(eq, src, dst, bcfg);

    std::vector<std::uint8_t> data(kFileBytes);
    for (unsigned i = 0; i < kFiles; ++i) {
        for (std::size_t j = 0; j < data.size(); ++j)
            data[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
        const lfs::InodeNum ino =
            src.createFile("/f" + std::to_string(i));
        src.fs().write(ino, 0, {data.data(), data.size()});
    }
    mgr.create("bench");

    fault::FaultController ctl(eq, "faults",
                               {&src.array(), &eng.channel()});
    if (p.dropPct > 0) {
        fault::FaultPlan plan;
        const double down_ms = kDropPeriodMs * p.dropPct / 100.0;
        for (double at = 1.0; at < kDropHorizonMs; at += kDropPeriodMs)
            plan.hippiLinkDrop(sim::msToTicks(at),
                               sim::msToTicks(down_ms));
        ctl.setPlan(plan);
        ctl.start();
    }

    const sim::Tick t0 = eq.now();
    bool done = false;
    eng.backupFull("bench", [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    const double elapsed_ms = sim::ticksToMs(eq.now() - t0);
    const double mbs = elapsed_ms > 0
                           ? static_cast<double>(eng.bytesSent()) /
                                 (1024.0 * 1024.0) / (elapsed_ms / 1e3)
                           : 0;

    return {static_cast<double>(p.window),
            static_cast<double>(p.segBlocks) * 4096 / 1024,
            static_cast<double>(p.dropPct),
            elapsed_ms,
            mbs,
            static_cast<double>(eng.segmentsSent()),
            static_cast<double>(eng.retries()),
            static_cast<double>(eng.channel().deferredSends())};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("backup_stream", argc, argv);

    rep.header("Online backup stream: window x segment x drop rate",
               "backup over HIPPI to a second server (§1, §4.2); "
               "repo subsystem sweep, not a paper figure");
    std::printf("  4 MB snapshot working set, full backup stream, "
                "outage period %.0f ms\n\n",
                kDropPeriodMs);

    const std::vector<unsigned> windows = {1, 2, 4, 8};
    const std::vector<std::uint32_t> segs = {64, 240};
    const std::vector<unsigned> drops = {0, 10, 30};

    std::vector<Point> points;
    for (std::uint32_t sb : segs)
        for (unsigned d : drops)
            for (unsigned w : windows)
                points.push_back(Point{w, sb, d});

    rep.seriesHeader({"window", "seg KB", "drop %", "elapsed ms",
                      "MB/s", "segments", "retries", "deferred"});
    const auto rows = bench::runSweepParallel(
        points.size(),
        [&](std::size_t i) { return runPoint(points[i]); });
    for (const auto &row : rows)
        rep.seriesRow(row);

    // Registry snapshot from one instrumented stream (deterministic,
    // so the JSON report stays byte-stable for its golden test).
    {
        sim::EventQueue eq;
        server::Raid2Server src(eq, "src", serverConfig(240));
        server::Raid2Server dst(eq, "dst", serverConfig(240));
        snap::SnapshotManager mgr(src);
        snap::BackupEngine eng(eq, src, dst);
        std::vector<std::uint8_t> data(kFileBytes, 0x5a);
        for (unsigned i = 0; i < 4; ++i) {
            const lfs::InodeNum ino =
                src.createFile("/f" + std::to_string(i));
            src.fs().write(ino, 0, {data.data(), data.size()});
        }
        mgr.create("bench");
        sim::StatsRegistry reg;
        mgr.registerStats(reg);
        eng.registerStats(reg);
        bool done = false;
        eng.backupFull("bench", [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        rep.snapshotRegistry(reg);
    }
    return 0;
}
