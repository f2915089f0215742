#include "integrity/log_seed.hh"

#include <cstring>
#include <span>
#include <vector>

#include "lfs/format.hh"

namespace raid2::integrity {

std::uint64_t
seedFromSegments(fs::BlockDevice &dev, ChecksumMap &map)
{
    const std::uint32_t bs = dev.blockSize();
    if (bs < sizeof(lfs::Superblock))
        return 0;
    std::vector<std::uint8_t> blk(bs);
    dev.readRange(0, 1, {blk.data(), blk.size()});
    lfs::Superblock sb{};
    std::memcpy(&sb, blk.data(), sizeof(sb));
    if (!sb.valid() || sb.blockSize != bs)
        return 0;

    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(
        std::size_t(summary_blocks) * bs);
    std::uint64_t seeded = 0;
    for (std::uint64_t seg = 0; seg < sb.numSegments; ++seg) {
        const std::uint64_t seg_start = sb.segmentStartBlock(seg);
        if (seg_start + sb.segBlocks > dev.numBlocks())
            break;
        dev.readRange(seg_start, summary_blocks,
                      {summary.data(), summary.size()});
        const std::span<const std::uint8_t> region{summary.data(),
                                                   summary.size()};
        lfs::SummaryHeader hdr{};
        if (!lfs::readSummary(region, sb, hdr))
            continue;
        for (std::uint32_t i = 0; i < hdr.count; ++i) {
            map.set(seg_start + summary_blocks + i,
                    lfs::summaryEntry(region, i).csum);
            ++seeded;
        }
    }
    return seeded;
}

} // namespace raid2::integrity
