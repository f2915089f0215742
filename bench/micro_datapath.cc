/**
 * @file
 * Functional data-plane microbenchmark: block-loop vs extent I/O.
 *
 * RAID-II's argument is that bandwidth comes from moving data in large
 * sequential units (§3.3, Table 1); the functional plane used to
 * contradict it by degenerating every multi-block operation into a
 * per-4 KB virtual call chain and recomputing each stripe's parity
 * once per block.  This bench measures what the extent path
 * (readRange/writeRange + stripe-aware single-pass parity) buys, per
 * RAID level, for segment-sized sequential writes, ragged
 * (unaligned) extents, and segment-sized reads.
 *
 * Two kinds of output:
 *  - a deterministic work-counter sweep (device block writes, parity
 *    recomputes, full-stripe folds for one segment write down each
 *    path) — bit-identical regardless of RAID2_BENCH_THREADS, which is
 *    what the CI determinism guard cmp's;
 *  - wall-clock MB/s rows for each path (extent-vs-block-loop speedup
 *    per level).  RAID2_DATAPATH_QUICK=1 skips these, keeping the
 *    quick-mode JSON deterministic for the guard.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fs/array_block_device.hh"
#include "raid/raid_array.hh"
#include "sim/stats_registry.hh"

using namespace raid2;

namespace {

constexpr std::uint32_t kBs = 4096;
/** The paper's LFS segment (§3.4): 960 KB = 240 x 4 KB blocks. */
constexpr std::uint64_t kSegBlocks = 240;
/** A deliberately unaligned extent: odd start, partial stripes. */
constexpr std::uint64_t kRaggedStart = 7;
constexpr std::uint64_t kRaggedBlocks = 33;

const raid::RaidLevel kLevels[] = {
    raid::RaidLevel::Raid0, raid::RaidLevel::Raid1,
    raid::RaidLevel::Raid3, raid::RaidLevel::Raid5};

raid::LayoutConfig
levelConfig(raid::RaidLevel level)
{
    raid::LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks =
        (level == raid::RaidLevel::Raid0 || level == raid::RaidLevel::Raid1)
            ? 4
            : 5;
    // 16 KB units x 4 data disks = 64 KB stripes: a 960 KB segment is
    // exactly 15 stripes, the aligned full-stripe case LFS arranges.
    cfg.stripeUnitBytes = 16 * 1024;
    return cfg;
}

double
levelNumber(raid::RaidLevel level)
{
    switch (level) {
    case raid::RaidLevel::Raid0: return 0;
    case raid::RaidLevel::Raid1: return 1;
    case raid::RaidLevel::Raid3: return 3;
    case raid::RaidLevel::Raid5: return 5;
    }
    return -1;
}

bool
quickMode()
{
    const char *q = std::getenv("RAID2_DATAPATH_QUICK");
    return q && q[0] && q[0] != '0';
}

struct Rig
{
    raid::RaidArray array;
    fs::ArrayBlockDevice dev;

    explicit Rig(raid::RaidLevel level)
        : array(levelConfig(level), 4 * 1024 * 1024), dev(array, kBs)
    {
        // A fault-free array stores no parity; store it now, so every
        // write below pays the parity work this bench prices, and count
        // only that work.
        array.storeParity();
        array.resetStats();
    }
};

/**
 * One segment write down each path on fresh arrays; all returned
 * values are pure work counters, so the row is identical on every
 * machine and thread count.
 */
std::vector<double>
counterRow(raid::RaidLevel level)
{
    std::vector<std::uint8_t> seg(kSegBlocks * kBs, 0x5a);

    Rig loop(level);
    for (std::uint64_t b = 0; b < kSegBlocks; ++b)
        loop.dev.writeRange(b, 1, {seg.data() + b * kBs, kBs});

    Rig extent(level);
    extent.dev.writeRange(0, kSegBlocks, {seg.data(), seg.size()});

    return {levelNumber(level),
            static_cast<double>(kSegBlocks),
            static_cast<double>(loop.array.parityRecomputes()),
            static_cast<double>(extent.array.parityRecomputes()),
            static_cast<double>(
                extent.array.parityFullStripeWrites())};
}

/** Wall-clock MB/s of fn (which moves @p bytes per call). */
template <typename Fn>
double
measureMBs(std::uint64_t bytes, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    // Warm up once (page in the disk buffers).
    fn();
    const auto t0 = clock::now();
    std::uint64_t moved = 0;
    std::chrono::duration<double> elapsed{};
    do {
        fn();
        moved += bytes;
        elapsed = clock::now() - t0;
    } while (elapsed.count() < 0.15);
    return static_cast<double>(moved) / (1024.0 * 1024.0) /
           elapsed.count();
}

struct Timings
{
    double segWriteLoop, segWriteExtent;
    double raggedWriteLoop, raggedWriteExtent;
    double segReadLoop, segReadExtent;
};

Timings
timeLevel(raid::RaidLevel level)
{
    Rig rig(level);
    std::vector<std::uint8_t> seg(kSegBlocks * kBs, 0x5a);
    std::vector<std::uint8_t> ragged(kRaggedBlocks * kBs, 0xa5);

    Timings t;
    t.segWriteLoop = measureMBs(seg.size(), [&] {
        for (std::uint64_t b = 0; b < kSegBlocks; ++b)
            rig.dev.writeRange(b, 1, {seg.data() + b * kBs, kBs});
    });
    t.segWriteExtent = measureMBs(seg.size(), [&] {
        rig.dev.writeRange(0, kSegBlocks, {seg.data(), seg.size()});
    });
    t.raggedWriteLoop = measureMBs(ragged.size(), [&] {
        for (std::uint64_t b = 0; b < kRaggedBlocks; ++b)
            rig.dev.writeRange(kRaggedStart + b, 1,
                               {ragged.data() + b * kBs, kBs});
    });
    t.raggedWriteExtent = measureMBs(ragged.size(), [&] {
        rig.dev.writeRange(kRaggedStart, kRaggedBlocks,
                           {ragged.data(), ragged.size()});
    });
    t.segReadLoop = measureMBs(seg.size(), [&] {
        for (std::uint64_t b = 0; b < kSegBlocks; ++b)
            rig.dev.readRange(b, 1, {seg.data() + b * kBs, kBs});
    });
    t.segReadExtent = measureMBs(seg.size(), [&] {
        rig.dev.readRange(0, kSegBlocks, {seg.data(), seg.size()});
    });
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("micro_datapath", argc, argv);

    rep.header("Functional data plane: block-loop vs extent I/O",
               "repo microbenchmark; guards the vectored-I/O fast "
               "path, not a paper figure");
    std::printf("  960 KB segment (240 x 4 KB), 16 KB units, "
                "4 data disks per array\n\n");

    // Deterministic parity-work sweep: one segment write down each
    // path.  The block loop recomputes parity once per block; the
    // extent path folds each full stripe exactly once.
    rep.seriesHeader(
        {"level", "blocks", "loop recomp", "ext recomp", "folds"});
    const auto rows = bench::runSweepParallel(
        std::size(kLevels),
        [&](std::size_t i) { return counterRow(kLevels[i]); });
    for (const auto &row : rows)
        rep.seriesRow(row);

    // Registry snapshot from an instrumented Raid5 segment write
    // (deterministic, so quick-mode JSON stays cmp-stable).
    {
        Rig rig(raid::RaidLevel::Raid5);
        sim::StatsRegistry reg;
        rig.array.registerStats(reg, "array");
        rig.dev.registerStats(reg, "dev");
        std::vector<std::uint8_t> seg(kSegBlocks * kBs, 0x5a);
        rig.dev.writeRange(0, kSegBlocks, {seg.data(), seg.size()});
        rep.snapshotRegistry(reg);
    }

    if (quickMode()) {
        std::printf("\n  quick mode: wall-clock rows skipped "
                    "(deterministic output for the CI guard)\n");
        return 0;
    }

    // Wall-clock throughput per level.  The segment-sized sequential
    // write is the acceptance case: extent must be >= 3x block loop.
    for (raid::RaidLevel level : kLevels) {
        const Timings t = timeLevel(level);
        const std::string lv =
            "raid" + std::to_string(int(levelNumber(level)));
        rep.row(lv + " seg write block-loop", t.segWriteLoop, "MB/s",
                "");
        rep.row(lv + " seg write extent", t.segWriteExtent, "MB/s",
                "target: >= 3x block-loop");
        rep.row(lv + " seg write speedup",
                t.segWriteExtent / t.segWriteLoop, "x", "");
        rep.row(lv + " ragged write block-loop", t.raggedWriteLoop,
                "MB/s", "");
        rep.row(lv + " ragged write extent", t.raggedWriteExtent,
                "MB/s", "");
        rep.row(lv + " seg read block-loop", t.segReadLoop, "MB/s",
                "");
        rep.row(lv + " seg read extent", t.segReadExtent, "MB/s", "");
    }
    return 0;
}
