/**
 * @file
 * The open log segment.
 *
 * Dirty blocks accumulate in an in-memory image of the whole segment
 * (summary region, payload slots, padding) with their final device
 * addresses already assigned; when the segment fills (or the file
 * system syncs) the image goes to the device as one large sequential
 * write — the key LFS idea ("LFS ... writes all file data and metadata
 * to a sequential append-only log", §3.1).  Repeated
 * updates to a block that is still in the open segment are folded in
 * place, so a burst of small writes to one file costs one log slot.
 * Callers read and edit a buffered block through block(), a view of
 * its slot in the image: a pointer-block update is an 8-byte store,
 * not a copy of the block.
 */

#ifndef RAID2_LFS_SEGMENT_WRITER_HH
#define RAID2_LFS_SEGMENT_WRITER_HH

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fs/block_device.hh"
#include "lfs/format.hh"

namespace raid2::lfs {

/** In-memory image of the segment currently being filled. */
class SegmentWriter
{
  public:
    SegmentWriter(fs::BlockDevice &dev, const Superblock &sb);

    /** Begin filling segment @p seg with log sequence @p seg_seq. */
    void open(std::uint64_t seg, std::uint64_t seg_seq);

    /**
     * Last-line defence for snapshot pinning: open() panics when the
     * guard returns false for the target segment (a pinned segment
     * must never be rewritten).
     */
    void setReuseGuard(std::function<bool(std::uint64_t)> guard)
    {
        reuseGuard = std::move(guard);
    }

    bool isOpen() const { return opened; }
    std::uint64_t currentSegment() const { return segIdx; }
    std::uint64_t segSeq() const { return seq; }
    bool hasSpace(unsigned blocks = 1) const;
    bool dirty() const { return used != 0; }

    /**
     * Append a block; returns its (final) device address.
     * @pre hasSpace()
     */
    BlockAddr add(BlockKind kind, InodeNum ino, std::uint64_t aux,
                  std::span<const std::uint8_t> data);

    /**
     * add() without the copy: the new slot holds whatever an earlier
     * segment left there, and the caller fills block() of the returned
     * address before anything reads it.
     * @pre hasSpace()
     */
    BlockAddr append(BlockKind kind, InodeNum ino, std::uint64_t aux);

    /** True if @p addr is a slot of the open segment. */
    bool contains(BlockAddr addr) const;

    /** The buffered copy of @p addr (must be contained), to read or
     *  edit in place.  Valid until the segment is written out. */
    std::span<std::uint8_t> block(BlockAddr addr);

    /**
     * Write the segment image to the device and reset.  @p next_segment
     * is recorded in the summary so recovery can follow the chain.
     * Every checksum in the summary is computed here, over the final
     * bytes: add() and edits through block() only change the image.
     */
    void writeOut(std::uint64_t next_segment);

    /** Total segments written to the device so far. */
    std::uint64_t segmentsWritten() const { return written; }
    /** Total payload bytes written to the device so far. */
    std::uint64_t payloadBytesWritten() const { return payloadBytes; }

  private:
    std::uint64_t payloadBase() const
    {
        return sb.segmentStartBlock(segIdx) + summaryBlocks;
    }
    /** Payload slot @p slot's bytes in the image. */
    std::uint8_t *slotData(std::size_t slot)
    {
        return image.data() + (summaryBlocks + slot) * sb.blockSize;
    }
    /** Summary entry @p slot's bytes in the image. */
    std::uint8_t *entryData(std::size_t slot)
    {
        return image.data() + sizeof(SummaryHeader) +
               slot * sizeof(SummaryEntry);
    }

    fs::BlockDevice &dev;
    const Superblock &sb;
    const std::uint32_t summaryBlocks;
    std::function<bool(std::uint64_t)> reuseGuard;

    bool opened = false;
    std::uint64_t segIdx = 0;
    std::uint64_t seq = 0;
    unsigned used = 0; // payload slots filled
    std::vector<std::uint8_t> image; // segBlocks * blockSize
    std::vector<std::uint64_t> sums; // writeOut's per-slot checksums
    std::uint64_t written = 0;
    std::uint64_t payloadBytes = 0;
};

} // namespace raid2::lfs

#endif // RAID2_LFS_SEGMENT_WRITER_HH
