/**
 * @file
 * raid2sim — command-line front end for one-off experiments.
 *
 * Runs a workload against a configurable simulated RAID-II server and
 * prints throughput/latency plus a component-utilization breakdown, so
 * a user can explore the design space (disks, RAID level, stripe unit,
 * request mix) without writing C++.
 *
 *   raid2sim [--disks N] [--level 0|1|3|5] [--unit BYTES]
 *            [--workload read|write|rw] [--req BYTES] [--seq]
 *            [--procs N] [--ops N] [--lfs] [--elevator] [--seed N]
 *
 * Snapshot/backup subcommands (the snap/ subsystem):
 *   raid2sim snapshot [--files N] [--bytes B]
 *   raid2sim backup   [--files N] [--bytes B] [--incremental]
 *                     [--drop-ms D] [--window W]
 *   raid2sim restore  [--files N] [--bytes B]
 *
 * Examples:
 *   raid2sim --disks 24 --req 1048576 --workload read
 *   raid2sim --lfs --workload write --req 65536 --ops 400
 *   raid2sim --level 1 --workload rw --procs 8
 *   raid2sim backup --files 8 --drop-ms 300
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "snap/backup_engine.hh"
#include "snap/snapshot_manager.hh"
#include "snap/snapshot_view.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

struct Options
{
    unsigned disks = 16;
    raid::RaidLevel level = raid::RaidLevel::Raid5;
    std::uint64_t unitBytes = 64 * sim::KiB;
    std::string workload = "read";
    std::uint64_t reqBytes = 256 * sim::KiB;
    bool sequential = false;
    unsigned procs = 2;
    std::uint64_t ops = 200;
    bool lfs = false;
    bool elevator = false;
    std::uint64_t seed = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--disks N] [--level 0|1|3|5] [--unit BYTES]\n"
        "          [--workload read|write|rw] [--req BYTES] [--seq]\n"
        "          [--procs N] [--ops N] [--lfs] [--elevator] "
        "[--seed N]\n",
        argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--disks") {
            opt.disks = static_cast<unsigned>(std::atoi(need(i)));
        } else if (a == "--level") {
            switch (std::atoi(need(i))) {
              case 0: opt.level = raid::RaidLevel::Raid0; break;
              case 1: opt.level = raid::RaidLevel::Raid1; break;
              case 3: opt.level = raid::RaidLevel::Raid3; break;
              case 5: opt.level = raid::RaidLevel::Raid5; break;
              default: usage(argv[0]);
            }
        } else if (a == "--unit") {
            opt.unitBytes = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--workload") {
            opt.workload = need(i);
        } else if (a == "--req") {
            opt.reqBytes = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--seq") {
            opt.sequential = true;
        } else if (a == "--procs") {
            opt.procs = static_cast<unsigned>(std::atoi(need(i)));
        } else if (a == "--ops") {
            opt.ops = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--lfs") {
            opt.lfs = true;
        } else if (a == "--elevator") {
            opt.elevator = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(argv[0]);
        }
    }
    if (opt.workload != "read" && opt.workload != "write" &&
        opt.workload != "rw") {
        usage(argv[0]);
    }
    if (opt.disks < 4 || opt.disks % 4 != 0) {
        std::fprintf(stderr,
                     "--disks must be a multiple of 4 (got %u)\n",
                     opt.disks);
        std::exit(2);
    }
    return opt;
}

void
printUtilization(server::Raid2Server &srv, sim::Tick elapsed)
{
    std::printf("\ncomponent utilization over the run:\n");
    auto row = [&](const char *name, double frac) {
        std::printf("  %-22s %5.1f%%  ", name, 100.0 * frac);
        const int bars = static_cast<int>(frac * 40.0);
        for (int i = 0; i < bars; ++i)
            std::putchar('#');
        std::putchar('\n');
    };
    double disk_busy = 0;
    for (unsigned d = 0; d < srv.array().numDisks(); ++d)
        disk_busy += static_cast<double>(
                         srv.array().disk(d).busyTicks()) /
                     static_cast<double>(elapsed);
    row("disks (mean)", disk_busy / srv.array().numDisks());
    double string_busy = 0;
    for (unsigned c = 0; c < srv.array().numCougarControllers(); ++c) {
        string_busy += srv.array().cougar(c).string(0).bus().utilization(
            elapsed);
        string_busy += srv.array().cougar(c).string(1).bus().utilization(
            elapsed);
    }
    row("SCSI strings (mean)",
        string_busy / (2.0 * srv.array().numCougarControllers()));
    double vme_busy = 0;
    const unsigned nvme =
        std::min(srv.array().numCougarControllers(), 4u);
    for (unsigned c = 0; c < nvme; ++c)
        vme_busy += srv.board().vmePort(c).utilization(elapsed);
    row("XBUS VME ports (mean)", vme_busy / nvme);
    row("XBUS memory", srv.board().memory().utilization(elapsed) / 4.0);
    row("parity engine", srv.board().parityPort().utilization(elapsed));
    row("HIPPI source", srv.board().hippiSrcPort().utilization(elapsed));
}

/** Options for the snapshot/backup/restore subcommands. */
struct SnapOptions
{
    unsigned files = 8;
    std::uint64_t fileBytes = 256 * 1024;
    bool incremental = false;
    double dropMs = 0; // HIPPI outage length; 0 = healthy link
    unsigned window = 4;
};

SnapOptions
parseSnapArgs(int argc, char **argv, const char *cmd)
{
    SnapOptions opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing argument\n", cmd);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--files") {
            opt.files = static_cast<unsigned>(std::atoi(need(i)));
        } else if (a == "--bytes") {
            opt.fileBytes = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--incremental") {
            opt.incremental = true;
        } else if (a == "--drop-ms") {
            opt.dropMs = std::atof(need(i));
        } else if (a == "--window") {
            opt.window = static_cast<unsigned>(std::atoi(need(i)));
        } else {
            std::fprintf(stderr, "%s: unknown option %s\n", cmd,
                         a.c_str());
            std::exit(2);
        }
    }
    if (opt.files == 0 || opt.fileBytes == 0 || opt.window == 0) {
        std::fprintf(stderr, "%s: --files/--bytes/--window must be "
                     "positive\n", cmd);
        std::exit(2);
    }
    return opt;
}

server::Raid2Server::Config
snapServerConfig()
{
    server::Raid2Server::Config cfg;
    cfg.withFs = true;
    cfg.fsDeviceBytes = 256ull * 1024 * 1024;
    return cfg;
}

void
populateFiles(server::Raid2Server &srv, unsigned files,
              std::uint64_t bytes, unsigned salt)
{
    std::vector<std::uint8_t> data(bytes);
    for (unsigned i = 0; i < files; ++i) {
        for (std::size_t j = 0; j < data.size(); ++j)
            data[j] = static_cast<std::uint8_t>((salt + i) * 131 +
                                                j * 7);
        const lfs::InodeNum ino = srv.createFile(
            "/f" + std::to_string(salt * 1000 + i));
        srv.fs().write(ino, 0, {data.data(), data.size()});
    }
}

int
cmdSnapshot(const SnapOptions &opt)
{
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "srv", snapServerConfig());
    snap::SnapshotManager mgr(srv);

    populateFiles(srv, opt.files, opt.fileBytes, 0);
    const std::uint32_t id = mgr.create("demo");
    std::printf("snapshot \"demo\" (id %u): %llu segments pinned, "
                "%llu/%llu segments free\n",
                id, (unsigned long long)mgr.pinnedSegments(),
                (unsigned long long)srv.fs().freeSegments(),
                (unsigned long long)srv.fs().totalSegments());

    // Overwrite the live tree, then show the view still serves the
    // point-in-time bytes.
    populateFiles(srv, opt.files, opt.fileBytes / 2, 1);
    srv.fs().write(srv.fs().lookup("/f0"), 0,
                   {reinterpret_cast<const std::uint8_t *>("stale?"),
                    6});
    srv.fs().sync();

    const snap::SnapshotView view = mgr.open("demo");
    std::uint64_t nodes = 0, bytes = 0;
    view.walk([&](const std::string &, const lfs::Stat &st) {
        ++nodes;
        if (st.type != lfs::FileType::Directory)
            bytes += st.size;
    });
    std::printf("view of \"demo\": %llu nodes, %llu bytes "
                "(live tree has %u newer files and a dirty /f0)\n",
                (unsigned long long)nodes, (unsigned long long)bytes,
                opt.files);
    for (const auto &rec : mgr.list())
        std::printf("  snapshot %-8s id %u  root ino %llu\n",
                    rec.name.c_str(), rec.id,
                    (unsigned long long)rec.root);
    return 0;
}

int
cmdBackup(const SnapOptions &opt)
{
    sim::EventQueue eq;
    server::Raid2Server src(eq, "src", snapServerConfig());
    server::Raid2Server dst(eq, "dst", snapServerConfig());
    snap::SnapshotManager mgr(src);
    snap::BackupEngine::Config bcfg;
    bcfg.windowSegments = opt.window;
    snap::BackupEngine eng(eq, src, dst, bcfg);

    populateFiles(src, opt.files, opt.fileBytes, 0);
    mgr.create("base");

    fault::FaultController ctl(eq, "faults",
                               {&src.array(), nullptr, &eng.channel()});
    if (opt.dropMs > 0) {
        fault::FaultPlan plan;
        plan.hippiLinkDrop(sim::usToTicks(10),
                           sim::msToTicks(opt.dropMs));
        ctl.setPlan(plan);
        ctl.start();
        std::printf("link outage armed: %.1f ms\n", opt.dropMs);
    }

    sim::Tick t0 = eq.now();
    bool done = false;
    eng.backupFull("base", [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    double ms = sim::ticksToMs(eq.now() - t0);
    std::printf("full backup of \"base\": %llu segments, %.2f MB in "
                "%.1f ms (%.2f MB/s), %llu retries\n",
                (unsigned long long)eng.segmentsSent(),
                eng.bytesSent() / (1024.0 * 1024.0), ms,
                ms > 0 ? eng.bytesSent() / (1024.0 * 1024.0) /
                             (ms / 1e3)
                       : 0,
                (unsigned long long)eng.retries());

    if (opt.incremental) {
        populateFiles(src, opt.files / 2 + 1, opt.fileBytes, 1);
        mgr.create("delta");
        const std::uint64_t seg0 = eng.segmentsSent();
        t0 = eq.now();
        done = false;
        eng.backupIncremental("delta", "base", [&] { done = true; });
        eq.runUntilDone([&] { return done; });
        ms = sim::ticksToMs(eq.now() - t0);
        std::printf("incremental \"delta\" since \"base\": %llu new "
                    "segments, %llu skipped, %.1f ms\n",
                    (unsigned long long)(eng.segmentsSent() - seg0),
                    (unsigned long long)eng.segmentsSkipped(), ms);
    }
    return 0;
}

int
cmdRestore(const SnapOptions &opt)
{
    sim::EventQueue eq;
    server::Raid2Server src(eq, "src", snapServerConfig());
    server::Raid2Server dst(eq, "dst", snapServerConfig());
    snap::SnapshotManager mgr(src);
    snap::BackupEngine eng(eq, src, dst);

    populateFiles(src, opt.files, opt.fileBytes, 0);
    mgr.create("base");

    bool sent = false;
    eng.backupFull("base", [&] { sent = true; });
    eq.runUntilDone([&] { return sent; });

    const sim::Tick t0 = eq.now();
    bool done = false;
    lfs::FsckReport rep;
    eng.restore("base", [&](const lfs::FsckReport &r) {
        rep = r;
        done = true;
    });
    eq.runUntilDone([&] { return done; });
    std::printf("restore of \"base\" onto dst: %.1f ms, fsck %s\n",
                sim::ticksToMs(eq.now() - t0),
                rep.ok ? "clean" : "FAILED");

    const auto verdict = eng.verify("base");
    std::printf("verify: %llu files, %llu dirs, %.2f MB compared, "
                "%s\n",
                (unsigned long long)verdict.files,
                (unsigned long long)verdict.directories,
                verdict.bytes / (1024.0 * 1024.0),
                verdict.ok ? "byte-identical" : "MISMATCH");
    for (const auto &m : verdict.mismatches)
        std::printf("  %s\n", m.c_str());
    return (rep.ok && verdict.ok) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && argv[1][0] != '-') {
        const std::string cmd = argv[1];
        if (cmd == "snapshot")
            return cmdSnapshot(parseSnapArgs(argc, argv, "snapshot"));
        if (cmd == "backup")
            return cmdBackup(parseSnapArgs(argc, argv, "backup"));
        if (cmd == "restore")
            return cmdRestore(parseSnapArgs(argc, argv, "restore"));
        std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
        usage(argv[0]);
    }
    const Options opt = parseArgs(argc, argv);

    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.layout.level = opt.level;
    cfg.layout.stripeUnitBytes = opt.unitBytes;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = opt.disks / 8;
    cfg.topo.elevatorScheduling = opt.elevator;
    cfg.withFs = opt.lfs;
    cfg.pipelineDepth = 8;
    server::Raid2Server srv(eq, "cli", cfg);

    std::printf("raid2sim: %u disks, %s, %llu-byte stripe unit, "
                "%s%s workload, %llu-byte requests, %u process(es)\n",
                srv.array().numDisks(),
                raid::raidLevelName(opt.level),
                (unsigned long long)opt.unitBytes,
                opt.sequential ? "sequential " : "random ",
                opt.workload.c_str(),
                (unsigned long long)opt.reqBytes, opt.procs);
    if (opt.lfs)
        std::printf("           through LFS (960 KB segments, "
                    "write-behind)\n");

    lfs::InodeNum ino = 0;
    std::uint64_t region =
        std::min<std::uint64_t>(srv.array().capacity() / 2,
                                2ull << 30);
    if (opt.lfs) {
        ino = srv.createFile("/cli");
        region = std::min<std::uint64_t>(
            region, srv.config().fsDeviceBytes / 2);
        if (opt.workload != "write") {
            // Preload the file so reads have something to map.
            std::vector<std::uint8_t> chunk(4 * sim::MB, 0x5a);
            for (std::uint64_t off = 0; off < region;
                 off += chunk.size())
                srv.fs().write(ino, off, {chunk.data(), chunk.size()});
            srv.fs().checkpoint();
        }
    }

    sim::Random rw_dice(opt.seed);
    workload::ClosedLoopRunner::Config w;
    w.processes = opt.procs;
    w.requestBytes = opt.reqBytes;
    w.regionBytes = region;
    w.sequential = opt.sequential;
    w.sharedCursor = opt.sequential;
    w.totalOps = opt.ops;
    w.warmupOps = std::max<std::uint64_t>(2, opt.ops / 10);
    w.seed = opt.seed;

    auto op = [&](std::uint64_t off, std::uint64_t len,
                  std::function<void()> done) {
        const bool write =
            opt.workload == "write" ||
            (opt.workload == "rw" && rw_dice.chance(0.5));
        if (opt.lfs) {
            if (write)
                srv.fileWrite(ino, off, len, std::move(done));
            else
                srv.fileRead(ino, off, len,
                             [done = std::move(done)](server::Status) {
                                 done();
                             });
        } else {
            if (write)
                srv.hwWrite(off, len, std::move(done));
            else
                srv.hwRead(off, len, std::move(done));
        }
    };

    const sim::Tick t0 = eq.now();
    const auto res = workload::ClosedLoopRunner::run(eq, w, op);

    std::printf("\nresults (after %llu warmup ops):\n",
                (unsigned long long)w.warmupOps);
    std::printf("  throughput   %10.2f MB/s\n", res.throughputMBs());
    std::printf("  request rate %10.1f ops/s\n", res.opsPerSec());
    std::printf("  latency      %10.1f ms mean, %.1f ms max\n",
                res.latencyMs.mean(), res.latencyMs.max());
    printUtilization(srv, eq.now() - t0);
    return 0;
}
