#include "lfs/segment_writer.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace raid2::lfs {

SegmentWriter::SegmentWriter(fs::BlockDevice &dev_, const Superblock &sb_)
    : dev(dev_), sb(sb_), summaryBlocks(sb_.summaryBlocksPerSegment()),
      image(std::size_t(sb_.segBlocks) * sb_.blockSize, 0),
      sums(sb_.payloadBlocksPerSegment())
{
}

void
SegmentWriter::open(std::uint64_t seg, std::uint64_t seg_seq)
{
    if (dirty())
        sim::panic("SegmentWriter: opening over a dirty segment");
    if (seg >= sb.numSegments)
        sim::panic("SegmentWriter: segment %llu out of range",
                   (unsigned long long)seg);
    if (reuseGuard && !reuseGuard(seg))
        sim::panic("SegmentWriter: opening pinned segment %llu",
                   (unsigned long long)seg);
    opened = true;
    segIdx = seg;
    seq = seg_seq;
    used = 0;
}

bool
SegmentWriter::hasSpace(unsigned blocks) const
{
    return used + blocks <= sb.payloadBlocksPerSegment();
}

BlockAddr
SegmentWriter::add(BlockKind kind, InodeNum ino, std::uint64_t aux,
                   std::span<const std::uint8_t> data)
{
    if (data.size() != sb.blockSize)
        sim::panic("SegmentWriter: bad block size %zu", data.size());
    const BlockAddr addr = append(kind, ino, aux);
    std::memcpy(slotData(addr - payloadBase()), data.data(), sb.blockSize);
    return addr;
}

BlockAddr
SegmentWriter::append(BlockKind kind, InodeNum ino, std::uint64_t aux)
{
    if (!opened)
        sim::panic("SegmentWriter: add with no open segment");
    if (!hasSpace())
        sim::panic("SegmentWriter: segment overflow");

    // csum is filled in by writeOut, once the block's bytes are final.
    const SummaryEntry e{static_cast<std::uint32_t>(kind), ino, aux, 0};
    std::memcpy(entryData(used), &e, sizeof(e));
    return payloadBase() + used++;
}

bool
SegmentWriter::contains(BlockAddr addr) const
{
    return opened && addr >= payloadBase() && addr < payloadBase() + used;
}

std::span<std::uint8_t>
SegmentWriter::block(BlockAddr addr)
{
    if (!contains(addr))
        sim::panic("SegmentWriter: access to non-buffered block");
    return {slotData(addr - payloadBase()), sb.blockSize};
}

void
SegmentWriter::writeOut(std::uint64_t next_segment)
{
    if (!opened)
        sim::panic("SegmentWriter: writeOut with no open segment");
    if (!dirty())
        sim::panic("SegmentWriter: writeOut of empty segment");

    // Every block's SummaryEntry::csum over its final bytes.
    blockChecksums(slotData(0), used, sb.blockSize, sums.data());
    for (unsigned i = 0; i < used; ++i) {
        std::memcpy(entryData(i) + offsetof(SummaryEntry, csum), &sums[i],
                    sizeof(sums[i]));
    }

    // Zero what a fuller earlier segment left past the last entry and
    // the last payload slot.  The image then goes out as a single
    // extent covering the whole segment: a segment usually closes a
    // few slots short (pointer-block reservation), and padding keeps
    // the device write exactly one full stripe — the efficient RAID-5
    // case (§3.1).  One extent also means the array computes each
    // stripe's parity exactly once, single-pass.  The summary's count
    // ignores the padding.
    const std::size_t summary_bytes =
        std::size_t(summaryBlocks) * sb.blockSize;
    std::fill(entryData(used), image.data() + summary_bytes, 0);
    std::fill(slotData(used), image.data() + image.size(), 0);

    SummaryHeader hdr{};
    hdr.magic = summaryMagic;
    hdr.count = used;
    hdr.segSeq = seq;
    hdr.nextSegment = next_segment;
    std::memcpy(image.data(), &hdr, sizeof(hdr));
    hdr.checksum = summaryChecksum({image.data(), summary_bytes});
    std::memcpy(image.data() + offsetof(SummaryHeader, checksum),
                &hdr.checksum, sizeof(hdr.checksum));

    dev.writeRange(sb.segmentStartBlock(segIdx), sb.segBlocks,
                   {image.data(), image.size()});

    ++written;
    payloadBytes += std::uint64_t(used) * sb.blockSize;
    used = 0;
    opened = false;
}

} // namespace raid2::lfs
