/**
 * @file
 * A look inside the log: build a file system, churn it, and dump the
 * LFS internals — segment utilization before and after cleaning, the
 * namespace tree, and the write-cost accounting that drives the
 * cost-benefit cleaner (§3.1's "log" made visible).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

using namespace raid2;

namespace {

void
printUtilizationHistogram(const lfs::Lfs &fs, const char *label)
{
    // Ten buckets of width 0.10001 over (0, 1].
    constexpr std::size_t buckets = 10;
    constexpr double width = 1.0001 / buckets;
    std::uint64_t counts[buckets] = {};
    std::uint64_t free_segs = 0;
    for (std::uint64_t s = 0; s < fs.totalSegments(); ++s) {
        const double u = fs.segmentUtilization(s);
        if (u == 0.0)
            ++free_segs;
        else
            ++counts[std::min(static_cast<std::size_t>(u / width),
                              buckets - 1)];
    }
    std::printf("%s\n", label);
    std::printf("  free segments: %llu / %llu\n",
                (unsigned long long)free_segs,
                (unsigned long long)fs.totalSegments());
    for (std::size_t b = 0; b < buckets; ++b) {
        if (counts[b] == 0)
            continue;
        const double lo = width * static_cast<double>(b);
        std::printf("  util %3.0f%%-%3.0f%%: %4llu segments  ", 100 * lo,
                    100 * (lo + width), (unsigned long long)counts[b]);
        for (std::uint64_t i = 0; i < counts[b] && i < 48; ++i)
            std::putchar('#');
        std::putchar('\n');
    }
}

void
printTree(const lfs::Lfs &fs, const std::string &path, int depth)
{
    for (const auto &e : fs.readdir(path)) {
        const std::string child =
            path == "/" ? "/" + e.name : path + "/" + e.name;
        const auto st = fs.stat(child);
        std::printf("  %*s%-20s", depth * 2, "", e.name.c_str());
        if (st.type == lfs::FileType::Directory) {
            std::printf(" <dir nlink=%u>\n", st.nlink);
            printTree(fs, child, depth + 1);
        } else {
            std::printf(" %8llu bytes  nlink=%u  ino=%u\n",
                        (unsigned long long)st.size, st.nlink, st.ino);
        }
    }
}

} // namespace

int
main()
{
    std::printf("Inside the log-structured file system\n");
    std::printf("======================================\n\n");

    fs::MemBlockDevice dev(4096, 16384); // 64 MB
    lfs::Lfs::Params params;
    params.segBlocks = 64; // 256 KB segments: more bars to look at
    lfs::Lfs::format(dev, params);
    lfs::Lfs fs(dev);

    // A small project tree plus heavy churn on a scratch file.
    fs.mkdir("/src");
    fs.mkdir("/src/core");
    fs.mkdir("/build");
    sim::Random rng(7);
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 6; ++i) {
        const auto ino =
            fs.create("/src/core/mod" + std::to_string(i) + ".cc");
        buf.assign(20000 + rng.below(60000), std::uint8_t(i));
        fs.write(ino, 0, {buf.data(), buf.size()});
    }
    const auto scratch = fs.create("/build/scratch.o");
    for (int round = 0; round < 40; ++round) {
        buf.assign(300000, std::uint8_t(round));
        fs.write(scratch, 0, {buf.data(), buf.size()});
        if (round % 5 == 0)
            fs.sync();
    }
    fs.create("/README");
    fs.link("/README", "/src/README-link");
    fs.checkpoint();

    std::printf("namespace:\n");
    printTree(fs, "/", 0);
    std::printf("\n");

    printUtilizationHistogram(
        fs, "segment utilization after churn (overwrites leave "
            "half-dead segments):");

    const auto before = fs.stats();
    const unsigned reclaimed =
        fs.clean(static_cast<unsigned>(fs.totalSegments()));
    const auto after = fs.stats();
    const double copied = static_cast<double>(
        after.cleanerBlocksCopied - before.cleanerBlocksCopied);
    const double freed_blocks =
        reclaimed > 0 ? 64.0 * reclaimed : 1.0;
    std::printf("\ncleaner: reclaimed %u segments, copied %.0f live "
                "blocks (write cost %.2fx)\n",
                reclaimed, copied, 1.0 + copied / freed_blocks);
    std::printf("\n");
    printUtilizationHistogram(fs, "segment utilization after cleaning:");

    const auto report = fs.fsck();
    std::printf("\nfsck: %s\n", report.ok ? "clean" : "PROBLEMS");
    for (const auto &p : report.problems())
        std::printf("  %s\n", p.c_str());
    std::printf("log stats: %llu segments written, %llu checkpoints, "
                "%llu cleaned\n",
                (unsigned long long)after.segmentsWritten,
                (unsigned long long)after.checkpoints,
                (unsigned long long)after.cleanerSegmentsCleaned);
    return report.ok ? 0 : 1;
}
