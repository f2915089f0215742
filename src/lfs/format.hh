/**
 * @file
 * On-media format of the log-structured file system.
 *
 * The layout follows Sprite LFS (Rosenblum & Ousterhout, SOSP '91),
 * which RAID-II runs (§3): the device is a superblock, two checkpoint
 * regions, and a log of fixed-size segments.  Each segment starts with
 * a summary block describing every payload block (the information the
 * cleaner and roll-forward recovery need), followed by payload blocks:
 * file data, indirect blocks, inode blocks (16 packed inodes) and
 * inode-map chunks.  The checkpoint stores the inode-map chunk
 * addresses and the segment usage table; recovery rolls the log
 * forward from the last checkpoint by following the summary chain
 * (§3.1: "To recover from a file system crash, the LFS server need
 * only process the log from the position of the last checkpoint").
 */

#ifndef RAID2_LFS_FORMAT_HH
#define RAID2_LFS_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace raid2::lfs {

/** Absolute device block number; 0 (the superblock) doubles as null. */
using BlockAddr = std::uint64_t;
constexpr BlockAddr nullAddr = 0;

using InodeNum = std::uint32_t;
constexpr InodeNum nullIno = 0;

constexpr std::uint32_t superMagic = 0x4c465321;      // "LFS!"
constexpr std::uint32_t summaryMagic = 0x5345474d;    // "SEGM"
constexpr std::uint32_t checkpointMagic = 0x43484b50; // "CHKP"
// v2: SummaryEntry.csum.  v3: each payload block is checked against its
// own csum; the header's whole-payload checksum is gone.
constexpr std::uint32_t formatVersion = 3;

constexpr unsigned numDirect = 12;
constexpr std::uint32_t inodeBytes = 256;

/** Snapshot table limits (records live in the checkpoint body). */
constexpr std::uint32_t maxSnapshots = 8;
constexpr std::uint32_t maxSnapshotNameLen = 64;

/** File types stored in DiskInode::type. */
enum class FileType : std::uint16_t { Free = 0, Regular = 1, Directory = 2 };

/** What a segment payload block holds (summary bookkeeping). */
enum class BlockKind : std::uint32_t {
    Invalid = 0,
    Data = 1,      // file/dir contents; aux = file block number
    InodeBlock = 2, // 16 packed inodes; aux unused
    ImapChunk = 3, // inode-map chunk; aux = chunk index
    Ind1 = 4,      // single-indirect block; aux unused
    Ind2Root = 5,  // double-indirect root; aux unused
    Ind2Child = 6, // double-indirect child; aux = child index
};

constexpr std::uint32_t fnv32Basis = 0x811c9dc5;
constexpr std::uint32_t fnv32Prime = 16777619u;
constexpr std::uint64_t fnv64Basis = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnv64Prime = 0x100000001b3ull;

/** Simple FNV-1a over a byte range (format checksums). */
inline std::uint32_t
fnv1a(std::span<const std::uint8_t> bytes, std::uint32_t seed = fnv32Basis)
{
    std::uint32_t h = seed;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= fnv32Prime;
    }
    return h;
}

/** 64-bit FNV-1a (per-block content checksums; see src/integrity/). */
inline std::uint64_t
fnv1a64(std::span<const std::uint8_t> bytes,
        std::uint64_t seed = fnv64Basis)
{
    std::uint64_t h = seed;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= fnv64Prime;
    }
    return h;
}

/**
 * fnv1a64 of each of @p n consecutive @p bs-byte blocks at @p data,
 * into out[0..n).  FNV-1a is one serial multiply chain per block, so
 * hashing blocks one after another is bound by the multiply latency;
 * four blocks advance together here, their chains overlapping in the
 * pipeline.  out[i] == fnv1a64(block i) exactly.
 */
inline void
fnv1a64Blocks(const std::uint8_t *data, std::size_t n, std::size_t bs,
              std::uint64_t *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::uint8_t *p0 = data + i * bs;
        const std::uint8_t *p1 = p0 + bs;
        const std::uint8_t *p2 = p1 + bs;
        const std::uint8_t *p3 = p2 + bs;
        std::uint64_t h0 = fnv64Basis, h1 = fnv64Basis;
        std::uint64_t h2 = fnv64Basis, h3 = fnv64Basis;
        for (std::size_t j = 0; j < bs; ++j) {
            h0 = (h0 ^ p0[j]) * fnv64Prime;
            h1 = (h1 ^ p1[j]) * fnv64Prime;
            h2 = (h2 ^ p2[j]) * fnv64Prime;
            h3 = (h3 ^ p3[j]) * fnv64Prime;
        }
        out[i] = h0;
        out[i + 1] = h1;
        out[i + 2] = h2;
        out[i + 3] = h3;
    }
    for (; i < n; ++i)
        out[i] = fnv1a64({data + i * bs, bs});
}

#pragma pack(push, 1)

/** Block 0 of the device. */
struct Superblock
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t blockSize;
    std::uint32_t segBlocks;     // blocks per segment incl. summary
    std::uint64_t numSegments;
    std::uint64_t firstSegBlock; // device block of segment 0
    std::uint32_t maxInodes;
    std::uint32_t cpBlocks;      // blocks per checkpoint region
    std::uint64_t cp0Block;
    std::uint64_t cp1Block;
    std::uint32_t checksum;      // over all fields above

    std::uint32_t computeChecksum() const;
    bool valid() const;

    std::uint64_t segmentStartBlock(std::uint64_t seg) const
    {
        return firstSegBlock + seg * segBlocks;
    }
    std::uint64_t segmentOfBlock(BlockAddr b) const
    {
        return (b - firstSegBlock) / segBlocks;
    }
    /** Blocks needed for the summary region (header + one entry per
     *  payload block); more than one for very large segments. */
    std::uint32_t summaryBlocksPerSegment() const;
    std::uint32_t payloadBlocksPerSegment() const
    {
        return segBlocks - summaryBlocksPerSegment();
    }
    std::uint32_t inodesPerBlock() const
    {
        return blockSize / inodeBytes;
    }
    std::uint32_t imapEntriesPerChunk() const;
    std::uint32_t numImapChunks() const
    {
        return (maxInodes + imapEntriesPerChunk() - 1) /
               imapEntriesPerChunk();
    }
};

/** One file or directory, 256 bytes on media. */
struct DiskInode
{
    InodeNum ino;
    std::uint16_t type;   // FileType
    std::uint16_t nlink;
    std::uint64_t size;
    std::uint32_t gen;    // bumped on every reuse of the inode number
    std::uint32_t mtime;  // coarse logical timestamp
    std::uint64_t direct[numDirect];
    std::uint64_t indirect;
    std::uint64_t dindirect;
    std::uint8_t pad[inodeBytes - (4 + 2 + 2 + 8 + 4 + 4 +
                                   8 * numDirect + 8 + 8)];

    FileType fileType() const { return static_cast<FileType>(type); }
};
static_assert(sizeof(DiskInode) == inodeBytes);

/** Inode-map entry: where inode @c ino currently lives. */
struct ImapEntry
{
    BlockAddr blockAddr;  // inode block; nullAddr = inode free
    std::uint32_t slot;   // index within the inode block
    std::uint32_t gen;    // generation of the current incarnation

    bool allocated() const { return blockAddr != nullAddr; }
};
static_assert(sizeof(ImapEntry) == 16);

/** Per-payload-block record in a segment summary. */
struct SummaryEntry
{
    std::uint32_t kind; // BlockKind
    InodeNum ino;
    std::uint64_t aux;
    std::uint64_t csum; // fnv1a64 of the payload block's contents
};
static_assert(sizeof(SummaryEntry) == 24);

/** First block of every written segment. */
struct SummaryHeader
{
    std::uint32_t magic;
    std::uint32_t count;          // payload blocks present
    std::uint64_t segSeq;         // monotonic log sequence number
    std::uint64_t nextSegment;    // successor segment in the log
    std::uint32_t reserved;       // zero (v2: payloadChecksum)
    std::uint32_t checksum;       // over the whole summary region
};
static_assert(sizeof(SummaryHeader) == 32);

/** Segment usage table entry (lives in the checkpoint region). */
struct UsageEntry
{
    std::uint32_t liveBytes;
    std::uint32_t pad;
    std::uint64_t writeSeq; // segSeq when last written
};
static_assert(sizeof(UsageEntry) == 16);

/** Header of a checkpoint region. */
struct CheckpointHeader
{
    std::uint32_t magic;
    std::uint32_t numSnapshots;   // records after the usage table
    std::uint64_t seqno;          // higher wins at mount
    std::uint64_t logHeadSegment; // open (unwritten) segment
    std::uint64_t nextSegSeq;     // sequence the open segment will get
    InodeNum nextIno;
    InodeNum rootIno;
    std::uint32_t numImapChunks;
    std::uint32_t numSegments;
    std::uint32_t bodyChecksum;   // over imap addrs + usage + snapshots
    std::uint32_t checksum;       // over this header
};
static_assert(sizeof(CheckpointHeader) == 56);

/**
 * Fixed prefix of one snapshot-table record in the checkpoint body.
 * Followed by nameLen name bytes, numImapChunks 8-byte imap chunk
 * addresses, and a ceil(numSegments / 8)-byte pinned-segment bitmap.
 */
struct SnapshotDiskRecord
{
    std::uint32_t id;
    std::uint32_t nameLen;
    std::uint64_t createSeq;      // checkpoint seqno that captured it
    std::uint64_t nextSegSeq;     // log sequence at capture
    InodeNum root;
    InodeNum nextIno;
    std::uint32_t numImapChunks;
    std::uint32_t numSegments;
};
static_assert(sizeof(SnapshotDiskRecord) == 40);

/** Serialized size of one snapshot record with @p name_len name bytes. */
inline std::uint64_t
snapshotRecordBytes(std::uint64_t name_len, std::uint64_t num_imap_chunks,
                    std::uint64_t num_segments)
{
    return sizeof(SnapshotDiskRecord) + name_len + 8 * num_imap_chunks +
           (num_segments + 7) / 8;
}

/** Checkpoint-body bytes format() reserves for a full snapshot table. */
inline std::uint64_t
snapshotReserveBytes(std::uint64_t num_imap_chunks,
                     std::uint64_t num_segments)
{
    return maxSnapshots * snapshotRecordBytes(maxSnapshotNameLen,
                                              num_imap_chunks,
                                              num_segments);
}

#pragma pack(pop)

inline std::uint32_t
Superblock::computeChecksum() const
{
    Superblock copy = *this;
    copy.checksum = 0;
    return fnv1a({reinterpret_cast<const std::uint8_t *>(&copy),
                  sizeof(copy)});
}

inline bool
Superblock::valid() const
{
    return magic == superMagic && version == formatVersion &&
           checksum == computeChecksum();
}

/**
 * Checksum of a segment's summary region (header, entries, zero tail):
 * fnv1a over @p region with the header's checksum field read as zero.
 */
inline std::uint32_t
summaryChecksum(std::span<const std::uint8_t> region)
{
    constexpr std::size_t off = offsetof(SummaryHeader, checksum);
    constexpr std::uint8_t zero[sizeof(std::uint32_t)] = {};
    const std::uint32_t h = fnv1a(zero, fnv1a(region.first(off)));
    return fnv1a(region.subspan(off + sizeof(zero)), h);
}

/**
 * Validate the summary region @p region of a segment of @p sb and copy
 * its header to @p hdr: magic, a payload count that fits the segment,
 * and the summary checksum.  False for a never-written, foreign or
 * torn summary.  Payload blocks are validated separately, each against
 * its own SummaryEntry::csum.
 */
inline bool
readSummary(std::span<const std::uint8_t> region, const Superblock &sb,
            SummaryHeader &hdr)
{
    std::memcpy(&hdr, region.data(), sizeof(hdr));
    return hdr.magic == summaryMagic && hdr.count != 0 &&
           hdr.count <= sb.payloadBlocksPerSegment() &&
           hdr.checksum == summaryChecksum(region);
}

/** Entry @p i of a summary region (the entries follow the header). */
inline SummaryEntry
summaryEntry(std::span<const std::uint8_t> region, std::size_t i)
{
    SummaryEntry e;
    std::memcpy(&e, region.data() + sizeof(SummaryHeader) + i * sizeof(e),
                sizeof(e));
    return e;
}

inline std::uint32_t
Superblock::imapEntriesPerChunk() const
{
    return blockSize / sizeof(ImapEntry);
}

inline std::uint32_t
Superblock::summaryBlocksPerSegment() const
{
    std::uint32_t s = 1;
    while (sizeof(SummaryHeader) +
               std::uint64_t(segBlocks - s) * sizeof(SummaryEntry) >
           std::uint64_t(s) * blockSize) {
        ++s;
    }
    return s;
}

} // namespace raid2::lfs

#endif // RAID2_LFS_FORMAT_HH
