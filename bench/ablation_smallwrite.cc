/**
 * @file
 * Ablation A: the small-write problem — RAID level x file system.
 *
 * §3.1: "disk arrays that use large block interleaving (Level 5 RAID)
 * perform poorly on small write operations because each small write
 * requires four disk accesses ... LFS eliminates small writes,
 * grouping them into efficient large, sequential write operations."
 *
 * Three views of the same effect:
 *  1. timed per-level small-write cost on the raw array (RAID 0/1/5);
 *  2. device writes per user write, FFS (update-in-place) vs LFS;
 *  3. timed throughput of 4 KB random writes, FFS-on-RAID-5 vs
 *     LFS-on-RAID-5.
 */

#include <functional>
#include <vector>

#include "bench_util.hh"
#include "ffs/ffs.hh"
#include "fs/mem_block_device.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

double
rawLevelWriteIops(raid::RaidLevel level)
{
    sim::EventQueue eq;
    auto cfg = bench::hwConfig();
    cfg.layout.level = level;
    server::Raid2Server srv(eq, "srv", cfg);

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 8;
    wcfg.requestBytes = 4096;
    wcfg.regionBytes = 1ull * 1024 * 1024 * 1024;
    wcfg.totalOps = 600;
    wcfg.warmupOps = 50;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        srv.array().write(off, len, std::move(done));
    };
    return workload::ClosedLoopRunner::run(eq, wcfg, op).opsPerSec();
}

struct FsCost
{
    double device_writes_per_op;
    double mbs;
};

FsCost
ffsCost()
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.withFs = false;
    server::Raid2Server srv(eq, "srv", cfg);

    fs::MemBlockDevice mem(4096, 64ull * 1024 * 1024 / 4096);
    fs::HookBlockDevice hook(mem);
    ffs::Ffs::format(hook);
    ffs::Ffs fs(hook);
    const auto ino = fs.create("/f");
    // Preallocate a 2 MB file (the FFS baseline caps at direct +
    // single-indirect) so the steady state is pure overwrites.
    std::vector<std::uint8_t> prefill(1 * sim::MB, 1);
    for (int i = 0; i < 2; ++i)
        fs.write(ino, std::uint64_t(i) * prefill.size(),
                 {prefill.data(), prefill.size()});

    std::vector<std::pair<std::uint64_t, std::uint64_t>> writes;
    hook.setWriteHook([&](std::uint64_t off, std::uint64_t len) {
        writes.emplace_back(off, len);
    });

    sim::Random rng(3);
    const int ops = 400;
    std::uint64_t device_writes = 0;
    int done = 0;
    std::vector<std::uint8_t> data(4096, 7);
    std::function<void()> issue = [&] {
        if (done == ops)
            return;
        writes.clear();
        const std::uint64_t off = rng.below(2 * 256) * 4096;
        fs.write(ino, off, {data.data(), data.size()});
        device_writes += writes.size();
        // Mirror each in-place block write into the timed RAID-5
        // array (each becomes a read-modify-write there).
        const sim::Join op_done(writes.size(), [&] {
            ++done;
            issue();
        });
        for (auto [woff, wlen] : writes)
            srv.array().write(woff, wlen, op_done);
    };
    issue();
    eq.runUntilDone([&] { return done >= ops; });

    FsCost out;
    out.device_writes_per_op =
        static_cast<double>(device_writes) / ops;
    out.mbs = sim::mbPerSec(std::uint64_t(ops) * 4096, eq.now());
    return out;
}

FsCost
lfsCost()
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    server::Raid2Server srv(eq, "srv", cfg);
    const auto ino = srv.createFile("/f");

    const std::uint64_t before_segments = srv.segmentFlushes();
    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 1;
    wcfg.requestBytes = 4096;
    wcfg.regionBytes = 32 * sim::MB;
    wcfg.totalOps = 400;
    wcfg.warmupOps = 20;
    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        srv.fileWrite(ino, off, len, std::move(done));
    };
    const auto res = workload::ClosedLoopRunner::run(eq, wcfg, op);

    FsCost out;
    out.device_writes_per_op =
        static_cast<double>(srv.segmentFlushes() - before_segments) /
        static_cast<double>(res.ops);
    out.mbs = res.throughputMBs();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_smallwrite", argc, argv);
    rep.header("Ablation A: the small-write problem",
               "paper §3.1: Level 5 small writes need 4 disk "
               "accesses; LFS groups them");

    std::printf("  Raw array, 4 KB random writes:\n");
    rep.row("RAID-0 write rate", rawLevelWriteIops(raid::RaidLevel::Raid0),
            "ops/s", "1 access/op");
    rep.row("RAID-1 write rate", rawLevelWriteIops(raid::RaidLevel::Raid1),
            "ops/s", "2 accesses/op");
    rep.row("RAID-5 write rate", rawLevelWriteIops(raid::RaidLevel::Raid5),
            "ops/s", "4 accesses/op (RMW)");

    std::printf("\n  4 KB random overwrites through a file system on "
                "RAID-5:\n");
    const auto ffs = ffsCost();
    const auto lfs = lfsCost();
    rep.row("FFS device writes per op", ffs.device_writes_per_op,
            "writes", ">= 1 in place");
    rep.row("FFS throughput", ffs.mbs, "MB/s", "low");
    rep.row("LFS segment flushes per op", lfs.device_writes_per_op,
            "flushes", "<< 1 (batched)");
    rep.row("LFS throughput", lfs.mbs, "MB/s", "much higher than FFS");

    std::printf("\n  Expected shape: RAID-5 raw small writes are the "
                "slowest level; LFS\n  recovers the loss by turning "
                "them into segment-sized sequential writes.\n");
    return 0;
}
