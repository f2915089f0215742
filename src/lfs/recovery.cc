/**
 * @file
 * Mount-time crash recovery.
 *
 * Load the newest valid checkpoint, then roll the log forward: follow
 * the segment chain the summaries record, verifying sequence numbers,
 * the summary checksum and every payload block's own checksum, and
 * re-apply the imap chunk updates each segment carries.  Everything
 * synced before the crash becomes reachable again; a torn head segment
 * fails a checksum and ends the roll-forward, exactly as in Sprite LFS.
 * §3.1: "For a 1 gigabyte file system, it takes a few seconds to
 * perform an LFS file system check" — the work here is proportional to
 * the log written since the last checkpoint, not to the file system
 * size.
 *
 * forEachLoggedBlock() reads the same summaries for the integrity
 * layer, which re-seeds its checksum map from them after a restart.
 */

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

void
Lfs::mount()
{
    CheckpointHeader h0{}, h1{};
    std::vector<BlockAddr> a0, a1;
    std::vector<Usage> u0, u1;
    std::vector<SnapshotRecord> s0, s1;
    const bool v0 = readCheckpoint(sb.cp0Block, h0, a0, u0, s0);
    const bool v1 = readCheckpoint(sb.cp1Block, h1, a1, u1, s1);
    if (!v0 && !v1)
        throw LfsError(Errno::Invalid, "no valid checkpoint region");

    const bool use1 = v1 && (!v0 || h1.seqno > h0.seqno);
    const CheckpointHeader &hdr = use1 ? h1 : h0;
    imapChunkAddr = use1 ? a1 : a0;
    usage = use1 ? u1 : u0;
    snaps = use1 ? std::move(s1) : std::move(s0);
    cpSeqno = hdr.seqno;
    root = hdr.rootIno;
    nextIno = hdr.nextIno == nullIno ? 1 : hdr.nextIno;

    // Re-arm the snapshot pins before roll-forward touches the log so
    // the recovered head can never land on snapshot data.
    for (const SnapshotRecord &r : snaps) {
        pinSnapshot(r);
        if (r.id >= nextSnapId)
            nextSnapId = r.id + 1;
    }

    loadImapChunks();
    rollForward(hdr.logHeadSegment, hdr.nextSegSeq);

    if (root != nullIno && !imap[root].allocated())
        throw LfsError(Errno::Invalid, "root inode missing after recovery");

    // Advance past the highest allocated inode to cut down on reuse.
    for (InodeNum i = 1; i < sb.maxInodes; ++i) {
        if (imap[i].allocated() && i >= nextIno)
            nextIno = i + 1 >= sb.maxInodes ? 1 : i + 1;
    }
}

void
Lfs::rollForward(std::uint64_t start_seg, std::uint64_t start_seq)
{
    std::uint64_t seg = start_seg;
    std::uint64_t expect_seq = start_seq;
    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(
        std::size_t(summary_blocks) * sb.blockSize);
    const std::span<const std::uint8_t> region{summary.data(),
                                               summary.size()};
    std::vector<std::uint8_t> payload;
    std::vector<std::uint64_t> sums;
    bool any_applied = false;

    for (std::uint64_t hops = 0; hops <= sb.numSegments; ++hops) {
        if (seg >= sb.numSegments)
            break;
        dev.readRange(sb.segmentStartBlock(seg), summary_blocks,
                      {summary.data(), summary.size()});
        SummaryHeader hdr;
        if (!readSummary(region, sb, hdr) || hdr.segSeq != expect_seq)
            break;
        // Check every payload block against its own checksum: a torn
        // segment write ends recovery.
        payload.resize(std::size_t(hdr.count) * sb.blockSize);
        dev.readRange(sb.segmentStartBlock(seg) + summary_blocks,
                      hdr.count, {payload.data(), payload.size()});
        sums.resize(hdr.count);
        blockChecksums(payload.data(), hdr.count, sb.blockSize, sums.data());
        std::uint32_t intact = 0;
        while (intact < hdr.count &&
               sums[intact] == summaryEntry(region, intact).csum)
            ++intact;
        if (intact != hdr.count)
            break;

        // Apply: the segment is live; its imap chunks supersede the
        // checkpoint's.
        usage[seg].liveBytes =
            static_cast<std::uint32_t>(hdr.count) * sb.blockSize;
        usage[seg].writeSeq = hdr.segSeq;
        for (std::uint32_t i = 0; i < hdr.count; ++i) {
            const SummaryEntry e = summaryEntry(region, i);
            if (static_cast<BlockKind>(e.kind) == BlockKind::ImapChunk) {
                const std::uint64_t chunk = e.aux;
                if (chunk < imapChunkAddr.size()) {
                    imapChunkAddr[chunk] = sb.segmentStartBlock(seg) +
                                           summary_blocks + i;
                }
            }
        }
        ++_stats.rollForwardSegments;
        any_applied = true;

        seg = hdr.nextSegment;
        ++expect_seq;
    }

    if (any_applied)
        loadImapChunks();

    // The first segment that failed validation becomes the new head —
    // unless it is pinned by a snapshot (or the successor pointer is
    // corrupt), in which case fall back to any clean unpinned segment.
    if (seg >= sb.numSegments || segPinCount[seg] > 0) {
        seg = 0;
        while (seg < sb.numSegments &&
               (usage[seg].liveBytes != 0 || segPinCount[seg] > 0)) {
            ++seg;
        }
        if (seg == sb.numSegments)
            throw LfsError(Errno::NoSpace,
                           "no clean segment for the log head");
    }
    usage[seg].liveBytes = 0;
    nextSegSeq = expect_seq + 1;
    segw->open(seg, expect_seq);
}

std::uint64_t
Lfs::forEachLoggedBlock(
    fs::BlockDevice &dev,
    const std::function<void(BlockAddr, std::uint64_t)> &fn)
{
    const Superblock sb = loadSuperblock(dev);
    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(
        std::size_t(summary_blocks) * sb.blockSize);
    const std::span<const std::uint8_t> region{summary.data(),
                                               summary.size()};
    std::uint64_t visited = 0;
    for (std::uint64_t seg = 0; seg < sb.numSegments; ++seg) {
        const std::uint64_t start = sb.segmentStartBlock(seg);
        if (start + sb.segBlocks > dev.numBlocks())
            break;
        dev.readRange(start, summary_blocks,
                      {summary.data(), summary.size()});
        SummaryHeader hdr;
        if (!readSummary(region, sb, hdr))
            continue;
        for (std::uint32_t i = 0; i < hdr.count; ++i)
            fn(start + summary_blocks + i, summaryEntry(region, i).csum);
        visited += hdr.count;
    }
    return visited;
}

} // namespace raid2::lfs
