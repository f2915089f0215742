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
#include <initializer_list>
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
// own csum; the header's whole-payload checksum is gone.  v4: csum is
// XXH64 (blockChecksum) instead of 64-bit FNV-1a.
constexpr std::uint32_t formatVersion = 4;

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

/** Simple FNV-1a over a byte range (superblock, summary and
 *  checkpoint checksums). */
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

namespace xxh64 {

constexpr std::uint64_t p1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t p2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t p3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t p4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t p5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
round(std::uint64_t acc, std::uint64_t lane)
{
    return rotl(acc + lane * p2, 31) * p1;
}

/** A host-endian word at @p p (the format's byte order throughout). */
template <typename T>
inline T
load(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace xxh64

/**
 * Per-block content checksum (SummaryEntry::csum, integrity::ChecksumMap):
 * XXH64 with seed 0, as the xxHash specification defines it.  Four
 * independent 64-bit lanes take one multiply round per 8-byte word, so
 * the CPU overlaps their multiplies.
 */
inline std::uint64_t
blockChecksum(std::span<const std::uint8_t> bytes)
{
    using namespace xxh64;
    const std::uint8_t *p = bytes.data();
    const std::uint8_t *const end = p + bytes.size();
    std::uint64_t acc;
    if (bytes.size() >= 32) {
        std::uint64_t v1 = p1 + p2, v2 = p2, v3 = 0, v4 = 0 - p1;
        for (; end - p >= 32; p += 32) {
            v1 = round(v1, load<std::uint64_t>(p));
            v2 = round(v2, load<std::uint64_t>(p + 8));
            v3 = round(v3, load<std::uint64_t>(p + 16));
            v4 = round(v4, load<std::uint64_t>(p + 24));
        }
        acc = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        for (std::uint64_t v : {v1, v2, v3, v4})
            acc = (acc ^ round(0, v)) * p1 + p4;
    } else {
        acc = p5;
    }
    acc += bytes.size();
    for (; end - p >= 8; p += 8)
        acc = rotl(acc ^ round(0, load<std::uint64_t>(p)), 27) * p1 + p4;
    if (end - p >= 4) {
        acc = rotl(acc ^ load<std::uint32_t>(p) * p1, 23) * p2 + p3;
        p += 4;
    }
    for (; p < end; ++p)
        acc = rotl(acc ^ *p * p5, 11) * p1;
    acc = (acc ^ (acc >> 33)) * p2;
    acc = (acc ^ (acc >> 29)) * p3;
    return acc ^ (acc >> 32);
}

/** blockChecksum of each of @p n consecutive @p bs-byte blocks at
 *  @p data, into out[0..n).  Sixteen blocks per pass on a CPU with
 *  AVX-512 (checksum.cc); the values are blockChecksum's. */
void blockChecksums(const std::uint8_t *data, std::size_t n, std::size_t bs,
                    std::uint64_t *out);

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
    std::uint64_t csum; // blockChecksum of the payload block's contents
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
 * fnv1a of @p zeros zero bytes after state @p h: a zero byte leaves the
 * xor unchanged, so the run is one multiply by fnv32Prime^zeros
 * (mod 2^32), raised by squaring.
 */
inline std::uint32_t
fnv1aZeros(std::uint64_t zeros, std::uint32_t h)
{
    std::uint32_t p = fnv32Prime;
    for (; zeros != 0; zeros >>= 1, p *= p) {
        if (zeros & 1)
            h *= p;
    }
    return h;
}

/**
 * Checksum of a segment's summary region (header, entries, zero tail):
 * fnv1a over @p region with the header's checksum field read as zero.
 * The zero tail past the last entry, found a word at a time, is folded
 * by fnv1aZeros() instead of hashed byte by byte; the value is the
 * byte-serial one.
 */
inline std::uint32_t
summaryChecksum(std::span<const std::uint8_t> region)
{
    constexpr std::size_t off = offsetof(SummaryHeader, checksum);
    constexpr std::uint8_t zero[sizeof(std::uint32_t)] = {};
    const std::uint32_t h = fnv1a(zero, fnv1a(region.first(off)));
    std::span<const std::uint8_t> rest = region.subspan(off + sizeof(zero));
    std::size_t end = rest.size();
    for (std::uint64_t w; end >= sizeof(w); end -= sizeof(w)) {
        std::memcpy(&w, rest.data() + end - sizeof(w), sizeof(w));
        if (w != 0)
            break;
    }
    while (end > 0 && rest[end - 1] == 0)
        --end;
    return fnv1aZeros(rest.size() - end, fnv1a(rest.first(end), h));
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

/** @{ Entry @p idx of a pointer block (an array of BlockAddr) held at
 *  @p block. */
inline BlockAddr
pointerEntry(const std::uint8_t *block, std::uint64_t idx)
{
    BlockAddr addr;
    std::memcpy(&addr, block + idx * sizeof(addr), sizeof(addr));
    return addr;
}
inline void
setPointerEntry(std::uint8_t *block, std::uint64_t idx, BlockAddr addr)
{
    std::memcpy(block + idx * sizeof(addr), &addr, sizeof(addr));
}
/** @} */

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
