/**
 * @file
 * Verify-on-read overhead sweep: integrity off vs on x read size x
 * injected media corruption.
 *
 * The end-to-end integrity layer (src/integrity/) checksums every
 * functional block on write and verifies every read, repairing from
 * RAID redundancy on a mismatch.  That buys "no silent wrong data"
 * (docs/RELIABILITY.md) — this bench prices it: server read
 * throughput with the VerifyingDevice in the chain against the plain
 * MemBlockDevice baseline, and the marginal cost of actually hitting
 * corrupt blocks (detection + parity reconstruction + writeback).
 *
 * Every row is pure simulated time and simulated work counters, so
 * the sweep is bit-identical no matter how many worker threads
 * RAID2_BENCH_THREADS spreads it over — that's what the CI
 * determinism guard cmp's.  RAID2_INTEGRITY_QUICK=1 shrinks the sweep
 * for smoke runs (still deterministic).
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

using namespace raid2;

namespace {

/** One sweep point. */
struct Point
{
    bool integrity;
    std::uint64_t readBytes;
    unsigned corruptions;
};

constexpr std::uint64_t kFileBytes = 512 * 1024;
constexpr unsigned kFiles = 16; // 8 MB working set

bool
quickMode()
{
    const char *q = std::getenv("RAID2_INTEGRITY_QUICK");
    return q && q[0] && q[0] != '0';
}

server::Raid2Server::Config
serverConfig(bool integrity)
{
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    cfg.withFs = true;
    cfg.fsDeviceBytes = 64ull * 1024 * 1024;
    cfg.withIntegrity = integrity;
    return cfg;
}

/** Flip one functional media byte under file offset @p foff. */
void
corruptUnderFile(server::Raid2Server &srv, lfs::InodeNum ino,
                 std::uint64_t foff)
{
    const auto extents = srv.fs().mapFile(ino, foff, 1);
    if (extents.empty() || extents[0].hole)
        return;
    unsigned d = 0;
    std::uint64_t doff = 0;
    srv.functionalArray().layout().mapByte(extents[0].deviceOffset, d,
                                           doff);
    srv.functionalArray().diskData(d)[doff] ^= 0xa5;
}

/**
 * Run one sweep point and report
 * {integrity, read KB, corruptions, elapsed ms, MB/s, verified,
 *  detected, repairs} — all derived from simulated time and counters.
 */
std::vector<double>
runPoint(const Point &p)
{
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "s", serverConfig(p.integrity));
    srv.fs().setAutoClean(false);

    std::vector<lfs::InodeNum> inos;
    std::vector<std::uint8_t> data(kFileBytes);
    for (unsigned i = 0; i < kFiles; ++i) {
        for (std::size_t j = 0; j < data.size(); ++j)
            data[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
        const lfs::InodeNum ino =
            srv.createFile("/f" + std::to_string(i));
        srv.fs().write(ino, 0, {data.data(), data.size()});
        inos.push_back(ino);
    }
    srv.fs().checkpoint();

    // Offsets are staggered across files and stripe columns; at the
    // densest point a couple of hits still share a parity column
    // (pigeonhole over the stripe's block slots) and stay
    // unrepairable — detection is complete either way, and the gap
    // between "detected" and "repairs" is the redundancy ceiling,
    // not a checksum miss.
    for (unsigned c = 0; c < p.corruptions; ++c)
        corruptUnderFile(srv, inos[c % kFiles],
                         ((c * 37 + 11) + (c / kFiles) * 3) * 4096 %
                             kFileBytes);

    // Sequential checked reads over the whole working set, one
    // outstanding, p.readBytes at a time.
    const sim::Tick t0 = eq.now();
    std::uint64_t file = 0, off = 0, bytes = 0;
    bool done = false;
    std::function<void()> next = [&] {
        if (file == inos.size()) {
            done = true;
            return;
        }
        const std::uint64_t len =
            std::min(p.readBytes, kFileBytes - off);
        srv.fileRead(inos[file], off, len, [&, len](server::Status) {
            bytes += len;
            off += len;
            if (off >= kFileBytes) {
                off = 0;
                ++file;
            }
            next();
        });
    };
    next();
    eq.runUntilDone([&] { return done; });

    const double elapsed_ms = sim::ticksToMs(eq.now() - t0);
    const double mbs =
        elapsed_ms > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) /
                             (elapsed_ms / 1e3)
                       : 0;
    const bool hasIntegrity = srv.hasIntegrity();
    return {p.integrity ? 1.0 : 0.0,
            static_cast<double>(p.readBytes) / 1024,
            static_cast<double>(p.corruptions),
            elapsed_ms,
            mbs,
            hasIntegrity
                ? static_cast<double>(srv.integrity().verifiedBlocks())
                : 0.0,
            hasIntegrity
                ? static_cast<double>(srv.integrity().detected())
                : 0.0,
            hasIntegrity ? static_cast<double>(srv.integrity().repairs())
                         : 0.0};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("integrity_overhead", argc, argv);

    rep.header("End-to-end integrity: verify-on-read overhead",
               "checksum + read-repair layer cost vs plain device; "
               "repo subsystem sweep, not a paper figure");
    std::printf("  %u files x %llu KB, sequential checked reads\n\n",
                kFiles, (unsigned long long)(kFileBytes / 1024));

    const std::vector<std::uint64_t> sizes =
        quickMode() ? std::vector<std::uint64_t>{512 * 1024}
                    : std::vector<std::uint64_t>{64 * 1024, 512 * 1024};
    const std::vector<unsigned> corruptions =
        quickMode() ? std::vector<unsigned>{0, 8}
                    : std::vector<unsigned>{0, 8, 32};

    std::vector<Point> points;
    for (std::uint64_t s : sizes) {
        points.push_back(Point{false, s, 0});
        for (unsigned c : corruptions)
            points.push_back(Point{true, s, c});
    }

    rep.seriesHeader({"integrity", "read KB", "corrupt", "elapsed ms",
                      "MB/s", "verified", "detected", "repairs"});
    const auto rows = bench::runSweepParallel(
        points.size(),
        [&](std::size_t i) { return runPoint(points[i]); });
    for (const auto &row : rows)
        rep.seriesRow(row);

    // Registry snapshot from one instrumented run (deterministic, so
    // the quick-mode JSON stays cmp-stable for the CI guard).
    {
        sim::EventQueue eq;
        server::Raid2Server srv(eq, "s", serverConfig(true));
        srv.fs().setAutoClean(false);
        std::vector<std::uint8_t> data(kFileBytes, 0x5a);
        const lfs::InodeNum ino = srv.createFile("/f");
        srv.fs().write(ino, 0, {data.data(), data.size()});
        srv.fs().checkpoint();
        corruptUnderFile(srv, ino, 8192);
        sim::StatsRegistry reg;
        srv.registerStats(reg);
        bool done = false;
        srv.fileRead(ino, 0, kFileBytes,
                     [&](server::Status) { done = true; });
        eq.runUntilDone([&] { return done; });
        rep.snapshotRegistry(reg);
    }
    return 0;
}
