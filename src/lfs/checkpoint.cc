/**
 * @file
 * Checkpoint regions.
 *
 * Two fixed regions alternate; each holds the imap chunk addresses,
 * the segment usage table and the log head position.  Mount picks the
 * valid region with the highest sequence number, so a crash during a
 * checkpoint write simply falls back to the previous checkpoint
 * (§3.1: "LFS periodically performs checkpoint operations that record
 * the current state of the file system").
 */

#include <algorithm>
#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

std::vector<std::uint8_t>
Lfs::encodeCheckpoint(const Superblock &sb, CheckpointHeader hdr,
                      std::span<const BlockAddr> chunk_addrs,
                      std::span<const Usage> usage,
                      std::span<const SnapshotRecord> snaps)
{
    hdr.magic = checkpointMagic;
    hdr.numSnapshots = static_cast<std::uint32_t>(snaps.size());
    hdr.numImapChunks = static_cast<std::uint32_t>(chunk_addrs.size());
    hdr.numSegments = static_cast<std::uint32_t>(usage.size());

    // Body: imap chunk addresses, usage table, then the snapshot table
    // (fixed record + name + imap addrs + pin bitmap per snapshot), all
    // inside the body checksum so a torn checkpoint can never surface
    // a half-updated table.
    std::uint64_t body_size = 8ull * chunk_addrs.size() +
                              sizeof(UsageEntry) * usage.size();
    for (const SnapshotRecord &r : snaps)
        body_size += snapshotRecordBytes(r.name.size(),
                                         r.imapChunkAddr.size(),
                                         sb.numSegments);
    std::vector<std::uint8_t> region(
        std::size_t(sb.cpBlocks) * sb.blockSize, 0);
    if (sizeof(hdr) + body_size > region.size())
        sim::panic("Lfs: checkpoint body exceeds region size");

    std::uint8_t *const body = region.data() + sizeof(hdr);
    std::uint8_t *p = body;
    std::memcpy(p, chunk_addrs.data(), 8ull * chunk_addrs.size());
    p += 8ull * chunk_addrs.size();
    for (const Usage &u : usage) {
        const UsageEntry ue{u.liveBytes, 0, u.writeSeq};
        std::memcpy(p, &ue, sizeof(ue));
        p += sizeof(ue);
    }
    for (const SnapshotRecord &r : snaps) {
        SnapshotDiskRecord sr{};
        sr.id = r.id;
        sr.nameLen = static_cast<std::uint32_t>(r.name.size());
        sr.createSeq = r.createSeq;
        sr.nextSegSeq = r.nextSegSeq;
        sr.root = r.root;
        sr.nextIno = r.nextIno;
        sr.numImapChunks =
            static_cast<std::uint32_t>(r.imapChunkAddr.size());
        sr.numSegments = static_cast<std::uint32_t>(sb.numSegments);
        std::memcpy(p, &sr, sizeof(sr));
        p += sizeof(sr);
        std::memcpy(p, r.name.data(), r.name.size());
        p += r.name.size();
        std::memcpy(p, r.imapChunkAddr.data(),
                    8ull * r.imapChunkAddr.size());
        p += 8ull * r.imapChunkAddr.size();
        for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
            if (r.pinned[s])
                p[s / 8] |= std::uint8_t(1u << (s % 8));
        }
        p += (sb.numSegments + 7) / 8;
    }

    hdr.bodyChecksum = fnv1a({body, body_size});
    hdr.checksum = 0;
    hdr.checksum =
        fnv1a({reinterpret_cast<const std::uint8_t *>(&hdr), sizeof(hdr)});
    std::memcpy(region.data(), &hdr, sizeof(hdr));
    return region;
}

void
Lfs::writeCheckpoint()
{
    CheckpointHeader hdr{};
    hdr.seqno = ++cpSeqno;
    hdr.logHeadSegment = segw->currentSegment();
    hdr.nextSegSeq = segw->segSeq();
    hdr.nextIno = nextIno;
    hdr.rootIno = root;
    const std::vector<std::uint8_t> region =
        encodeCheckpoint(sb, hdr, imapChunkAddr, usage, snaps);

    const std::uint64_t base =
        (cpSeqno % 2 == 0) ? sb.cp0Block : sb.cp1Block;
    dev.writeRange(base, sb.cpBlocks, {region.data(), region.size()});
    dev.flush();
}

std::vector<std::uint8_t>
Lfs::restoreCheckpoint(fs::BlockDevice &dev, const SnapshotRecord &rec)
{
    const Superblock sb = loadSuperblock(dev);
    CheckpointHeader hdr{};
    hdr.seqno = std::max<std::uint64_t>(rec.createSeq, 1);
    hdr.nextSegSeq = rec.nextSegSeq;
    hdr.nextIno = rec.nextIno;
    hdr.rootIno = rec.root;

    // Log head: the first segment the snapshot does not pin.  It was
    // never shipped, so roll-forward finds no matching summary there
    // and mount opens it fresh.
    while (hdr.logHeadSegment < sb.numSegments &&
           rec.pinned[hdr.logHeadSegment])
        ++hdr.logHeadSegment;
    if (hdr.logHeadSegment == sb.numSegments)
        sim::panic("Lfs: snapshot %s pins every segment", rec.name.c_str());

    // Usage table: a pinned segment gets its summary's block count — a
    // safe superset of the live bytes, which is all the allocator and
    // cleaner need to stay away; everything else is clean.
    std::vector<Usage> usage(sb.numSegments);
    const std::uint32_t summary_blocks = sb.summaryBlocksPerSegment();
    std::vector<std::uint8_t> summary(std::size_t(summary_blocks) *
                                      sb.blockSize);
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (!rec.pinned[s])
            continue;
        dev.readRange(sb.segmentStartBlock(s), summary_blocks,
                      {summary.data(), summary.size()});
        SummaryHeader sh;
        if (!readSummary(summary, sb, sh))
            sim::panic("Lfs: pinned segment %llu has no valid summary",
                       (unsigned long long)s);
        usage[s].liveBytes = sh.count * sb.blockSize;
        usage[s].writeSeq = sh.segSeq;
    }
    // The record is the snapshot table, so the restored file system
    // keeps the pins and the snapshot stays mountable on the target.
    return encodeCheckpoint(sb, hdr, rec.imapChunkAddr, usage, {&rec, 1});
}

bool
Lfs::readCheckpoint(std::uint64_t region_block, CheckpointHeader &hdr,
                    std::vector<BlockAddr> &chunk_addrs,
                    std::vector<Usage> &usage_out,
                    std::vector<SnapshotRecord> &snaps_out) const
{
    std::vector<std::uint8_t> region(
        std::size_t(sb.cpBlocks) * sb.blockSize);
    dev.readRange(region_block, sb.cpBlocks,
                  {region.data(), region.size()});

    std::memcpy(&hdr, region.data(), sizeof(hdr));
    if (hdr.magic != checkpointMagic)
        return false;
    {
        CheckpointHeader tmp = hdr;
        tmp.checksum = 0;
        if (hdr.checksum !=
            fnv1a({reinterpret_cast<const std::uint8_t *>(&tmp),
                   sizeof(tmp)})) {
            return false;
        }
    }
    if (hdr.numImapChunks != imapChunkAddr.size() ||
        hdr.numSegments != sb.numSegments ||
        hdr.numSnapshots > maxSnapshots) {
        return false;
    }

    const std::size_t fixed_size = 8ull * hdr.numImapChunks +
                                   sizeof(UsageEntry) * hdr.numSegments;
    if (sizeof(hdr) + fixed_size > region.size())
        return false;
    const std::uint8_t *body = region.data() + sizeof(hdr);
    const std::size_t body_cap = region.size() - sizeof(hdr);

    // Walk the snapshot records to learn the body's total size (each
    // is length-prefixed); any inconsistency means a torn or foreign
    // region and invalidates the whole checkpoint.
    std::size_t body_size = fixed_size;
    std::vector<SnapshotDiskRecord> recs(hdr.numSnapshots);
    std::vector<std::size_t> rec_off(hdr.numSnapshots);
    for (std::uint32_t i = 0; i < hdr.numSnapshots; ++i) {
        if (body_size + sizeof(SnapshotDiskRecord) > body_cap)
            return false;
        std::memcpy(&recs[i], body + body_size,
                    sizeof(SnapshotDiskRecord));
        const SnapshotDiskRecord &sr = recs[i];
        if (sr.nameLen == 0 || sr.nameLen > maxSnapshotNameLen ||
            sr.numImapChunks != hdr.numImapChunks ||
            sr.numSegments != hdr.numSegments) {
            return false;
        }
        rec_off[i] = body_size;
        body_size += snapshotRecordBytes(sr.nameLen, sr.numImapChunks,
                                         sr.numSegments);
        if (body_size > body_cap)
            return false;
    }
    if (hdr.bodyChecksum != fnv1a({body, body_size}))
        return false;

    chunk_addrs.resize(hdr.numImapChunks);
    std::memcpy(chunk_addrs.data(), body, 8ull * hdr.numImapChunks);
    const auto *ue = reinterpret_cast<const UsageEntry *>(
        body + 8ull * hdr.numImapChunks);
    usage_out.resize(hdr.numSegments);
    for (std::size_t s = 0; s < usage_out.size(); ++s) {
        usage_out[s].liveBytes = ue[s].liveBytes;
        usage_out[s].writeSeq = ue[s].writeSeq;
    }

    snaps_out.clear();
    snaps_out.reserve(hdr.numSnapshots);
    for (std::uint32_t i = 0; i < hdr.numSnapshots; ++i) {
        const SnapshotDiskRecord &sr = recs[i];
        const std::uint8_t *p =
            body + rec_off[i] + sizeof(SnapshotDiskRecord);
        SnapshotRecord r;
        r.id = sr.id;
        r.name.assign(reinterpret_cast<const char *>(p), sr.nameLen);
        p += sr.nameLen;
        r.createSeq = sr.createSeq;
        r.nextSegSeq = sr.nextSegSeq;
        r.root = sr.root;
        r.nextIno = sr.nextIno;
        r.imapChunkAddr.resize(sr.numImapChunks);
        std::memcpy(r.imapChunkAddr.data(), p, 8ull * sr.numImapChunks);
        p += 8ull * sr.numImapChunks;
        r.pinned.assign(sr.numSegments, false);
        for (std::uint64_t s = 0; s < sr.numSegments; ++s)
            r.pinned[s] = (p[s / 8] >> (s % 8)) & 1u;
        snaps_out.push_back(std::move(r));
    }
    return true;
}

} // namespace raid2::lfs
