/**
 * @file
 * The Log-Structured File System.
 *
 * A functional implementation of Sprite LFS as run on RAID-II (§3):
 * path-based namespace (files and directories), append-only segmented
 * log with 960 KB default segments, inode map, two-region checkpoints,
 * roll-forward crash recovery, and the segment cleaner (which the
 * paper's prototype had not yet finished — "LFS cleaning ... has not
 * yet been implemented" §3.4 — implemented here).
 *
 * The class is synchronous over a fs::BlockDevice.  The timed server
 * (server/) uses mapFile() to learn where a file's bytes live and
 * drives the simulated array with that layout, exactly as the paper's
 * host software directed the XBUS board.
 *
 * src/lfs is the only code that encodes or decodes the on-media format.
 * A snapshot is read through a read-only mount of this class
 * (mountSnapshot), so snapshot reads run through the same inode,
 * block-map, directory and path code as live reads.
 */

#ifndef RAID2_LFS_LFS_HH
#define RAID2_LFS_LFS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/calibration.hh"
#include "fs/block_device.hh"
#include "lfs/format.hh"
#include "lfs/segment_writer.hh"

namespace raid2::lfs {

/** POSIX-flavored error conditions surfaced to callers. */
enum class Errno {
    NoEntry,       // ENOENT
    Exists,        // EEXIST
    NotDirectory,  // ENOTDIR
    IsDirectory,   // EISDIR
    NotEmpty,      // ENOTEMPTY
    NoSpace,       // ENOSPC
    Invalid,       // EINVAL
    FileTooBig,    // EFBIG
};

/** Exception carrying an Errno (user errors, never internal bugs). */
class LfsError : public std::runtime_error
{
  public:
    LfsError(Errno code, const std::string &what)
        : std::runtime_error(what), _code(code)
    {
    }
    Errno code() const { return _code; }

  private:
    Errno _code;
};

/** stat() result. */
struct Stat
{
    InodeNum ino = nullIno;
    FileType type = FileType::Free;
    std::uint64_t size = 0;
    std::uint16_t nlink = 0;
};

/** One directory entry. */
struct DirEntry
{
    InodeNum ino;
    std::string name;
};

/** A contiguous byte range on the device backing part of a file. */
struct FileExtent
{
    std::uint64_t deviceOffset; // bytes from device start
    std::uint64_t bytes;
    std::uint64_t fileOffset;   // corresponding file offset
    bool hole = false;          // unwritten range (reads as zero)
};

/**
 * One instant, read-only snapshot: the root/imap state captured by
 * takeSnapshot() plus the set of segments pinned against cleaning.
 * Persisted in the checkpoint body, so snapshots survive crash +
 * roll-forward (a torn checkpoint falls back to the previous table).
 */
struct SnapshotRecord
{
    std::uint32_t id = 0;
    std::string name;
    std::uint64_t createSeq = 0; // checkpoint seqno that captured it
    std::uint64_t nextSegSeq = 0; // log sequence at capture
    InodeNum root = nullIno;
    InodeNum nextIno = 1;
    std::vector<BlockAddr> imapChunkAddr;
    std::vector<bool> pinned;    // per-segment: holds snapshot data
};

/** Kinds of inconsistency fsck() can report. */
enum class FsckIssue {
    AddrOutsideLog,     // block pointer outside the segment log
    AddrInCleanSegment, // pointer into a segment marked clean
    AddrInSummaryArea,  // pointer at a segment summary block
    ImapSlotRange,      // imap slot index out of range
    WrongInodeSlot,     // inode block slot holds a different inode
    GenMismatch,        // imap/inode generation disagree
    FreeTypeAllocated,  // allocated inode has Free type
    SizeBeyondMax,      // file size exceeds the format maximum
    MissingRoot,        // root directory unreachable
    NotADirectory,      // tree walk reached a non-directory inode
    DuplicateName,      // directory holds the same name twice
    EntryUnallocated,   // directory entry references a free inode
    MultipleParents,    // directory reachable via two parents
    OrphanDirectory,    // allocated directory not reachable from root
    OrphanFile,         // allocated file with no directory entry
    BadNlink,           // link count disagrees with the entry count
    CorruptMetadata,    // unreadable inode/directory structure
};

/** Printable name of an FsckIssue ("addr-outside-log", ...). */
const char *fsckIssueName(FsckIssue kind);

/** One structural inconsistency found by fsck(). */
struct FsckInconsistency
{
    FsckIssue kind;
    InodeNum ino = nullIno;  // involved inode (nullIno if n/a)
    BlockAddr addr = nullAddr; // involved block (nullAddr if n/a)
    std::string detail;      // human-readable specifics

    /** Stable one-line rendering ("addr-outside-log ino=3 ..."). */
    std::string str() const;
};

/** fsck() result: a structured verdict, not just a boolean. */
struct FsckReport
{
    bool ok = true;
    std::vector<FsckInconsistency> issues;

    void
    fail(FsckIssue kind, InodeNum ino, BlockAddr addr,
         std::string detail)
    {
        ok = false;
        issues.push_back(FsckInconsistency{kind, ino, addr,
                                           std::move(detail)});
    }

    /** Rendered issues, one line each (for logs and test output). */
    std::vector<std::string> problems() const;
};

/** The file system. */
class Lfs
{
  public:
    struct Params
    {
        static constexpr std::uint32_t defaultBlockSize = 4096;
        std::uint32_t blockSize = defaultBlockSize;
        /** Blocks per segment incl. summary; by default the paper's
         *  960 KB segment (§3.4) in default-sized blocks: 240.  A
         *  caller that changes blockSize keeps the block count. */
        std::uint32_t segBlocks = static_cast<std::uint32_t>(
            cal::lfsSegmentBytes / defaultBlockSize);
        std::uint32_t maxInodes = 4096;
        /** Byte alignment of segment 0 on the device; set to the
         *  array's stripe width so every segment flush is a
         *  full-stripe write (0 = no alignment). */
        std::uint64_t alignSegmentsTo = 0;
    };

    /** Statistics exposed to benches and tests. */
    struct Stats
    {
        std::uint64_t segmentsWritten = 0;
        std::uint64_t cleanerSegmentsCleaned = 0;
        std::uint64_t cleanerBlocksCopied = 0;
        std::uint64_t checkpoints = 0;
        std::uint64_t rollForwardSegments = 0;
        std::uint64_t snapshotsCreated = 0;
        std::uint64_t snapshotsDeleted = 0;
    };

    /** Write a fresh, empty file system to @p dev. */
    static void format(fs::BlockDevice &dev, const Params &params);
    static void format(fs::BlockDevice &dev)
    {
        format(dev, Params{});
    }

    /** Mount (runs checkpoint load + roll-forward recovery). */
    explicit Lfs(fs::BlockDevice &dev);
    ~Lfs();

    /**
     * Mount snapshot @p rec of the file system on @p dev read-only: the
     * record's imap chunk addresses, root and next inode number stand in
     * for a checkpoint.  No checkpoint is read, nothing rolls forward
     * and no segment opens.  The record's imap chunks lie in segments
     * it pins, so the mount sees exactly the bytes the snapshot froze
     * while the live file system keeps writing and cleaning.  @p dev
     * must outlive the mount.
     * @throw LfsError(Invalid) if @p dev holds no LFS or the record's
     *        imap chunk count differs from the superblock's.
     */
    static std::unique_ptr<const Lfs>
    mountSnapshot(fs::BlockDevice &dev, const SnapshotRecord &rec);

    /**
     * The checkpoint region that mounts the file system on @p dev as
     * snapshot @p rec, once every segment the record pins holds its
     * image there (a restore from backup): the log head at the first
     * unpinned segment, each pinned segment's usage from its summary,
     * and the record as the snapshot table.  A pinned segment without
     * a valid summary is a hard error.
     */
    static std::vector<std::uint8_t>
    restoreCheckpoint(fs::BlockDevice &dev, const SnapshotRecord &rec);

    /** @p dev's superblock.
     *  @throw LfsError(Invalid) if it is not a readable LFS one. */
    static Superblock loadSuperblock(fs::BlockDevice &dev);

    /**
     * Visit every payload block that a valid segment summary on @p dev
     * logs, with the checksum the summary records for it, in segment
     * order.  Unlike roll-forward this follows no chain: a stale
     * (cleaned, not yet reused) segment still describes its payload,
     * because a segment is only ever rewritten whole.
     * @return the blocks visited.
     * @throw LfsError(Invalid) if @p dev holds no LFS.
     */
    static std::uint64_t forEachLoggedBlock(
        fs::BlockDevice &dev,
        const std::function<void(BlockAddr, std::uint64_t)> &fn);

    Lfs(const Lfs &) = delete;
    Lfs &operator=(const Lfs &) = delete;

    /** @{ Namespace operations (absolute paths, '/'-separated). */
    InodeNum create(const std::string &path);
    InodeNum mkdir(const std::string &path);
    void unlink(const std::string &path);
    /** Hard link: @p newpath becomes another name for @p existing. */
    void link(const std::string &existing, const std::string &newpath);
    void rmdir(const std::string &path);
    void rename(const std::string &from, const std::string &to);
    InodeNum lookup(const std::string &path) const;
    bool exists(const std::string &path) const;
    std::vector<DirEntry> readdir(const std::string &path) const;
    Stat stat(const std::string &path) const;
    Stat statIno(InodeNum ino) const;
    /**
     * Visit the whole tree depth first, in pre-order and directory
     * entry order: @p fn gets each node's absolute path ("/" for the
     * root) and stat.
     */
    void walk(const std::function<void(const std::string &, const Stat &)>
                  &fn) const;
    /** @} */

    /** @{ File I/O.  read() of a directory raises IsDirectory. */
    std::uint64_t write(InodeNum ino, std::uint64_t off,
                        std::span<const std::uint8_t> data);
    std::uint64_t read(InodeNum ino, std::uint64_t off,
                       std::span<std::uint8_t> out) const;
    void truncate(InodeNum ino, std::uint64_t new_size);
    /** @} */

    /** Flush dirty inodes + inode map and close the open segment. */
    void sync();

    /** sync() plus an atomic checkpoint-region update. */
    void checkpoint();

    /**
     * Run the segment cleaner until @p target_free segments are free
     * or no further progress is possible.
     * @return segments reclaimed.
     */
    unsigned clean(unsigned target_free);

    /** Clean when free segments drop below a low-water mark. */
    void setAutoClean(bool on) { autoClean = on; }

    /**
     * @{ Snapshots.  takeSnapshot() syncs, captures the current
     * root/imap state under @p name, pins every live segment so the
     * cleaner and allocator never reclaim snapshot data, and
     * checkpoints so the snapshot is durable.  deleteSnapshot()
     * removes the record durably before releasing the pins.
     */
    std::uint32_t takeSnapshot(const std::string &name);
    void deleteSnapshot(const std::string &name);
    const std::vector<SnapshotRecord> &listSnapshots() const
    {
        return snaps;
    }
    /** Snapshot by name, or nullptr (invalidated by snapshot ops). */
    const SnapshotRecord *findSnapshot(const std::string &name) const;
    /** True if any snapshot pins segment @p seg. */
    bool segmentPinned(std::uint64_t seg) const
    {
        return segPinCount[seg] > 0;
    }
    /** @} */

    /** @{ Introspection. */
    std::uint64_t freeSegments() const;
    std::uint64_t totalSegments() const { return sb.numSegments; }
    double segmentUtilization(std::uint64_t seg) const;
    InodeNum rootIno() const { return root; }
    const Params &params() const { return prm; }
    const Stats &stats() const { return _stats; }
    std::uint32_t blockSize() const { return sb.blockSize; }
    const Superblock &superblock() const { return sb; }
    /** @} */

    /** Device byte extents of [off, off+len) of a file (for the timed
     *  high-bandwidth read path). */
    std::vector<FileExtent> mapFile(InodeNum ino, std::uint64_t off,
                                    std::uint64_t len) const;

    /** Full consistency check (read-only). */
    FsckReport fsck() const;

  private:
    friend class Cleaner;

    struct Usage
    {
        std::uint32_t liveBytes = 0;
        std::uint64_t writeSeq = 0;
    };

    /** The part of a mount both kinds share: @p sb and tables sized
     *  for it, all empty, and a segment writer with no segment open. */
    Lfs(fs::BlockDevice &dev, const Superblock &sb);

    /** @{ Block-level helpers (lfs.cc). */
    /** Read block @p addr, an address taken from the media, from the
     *  device.  @throw LfsError(Invalid) if it lies beyond the device. */
    void readMedia(BlockAddr addr, std::span<std::uint8_t> out) const;
    /** readMedia(), or the open segment's copy of a buffered block. */
    void readBlockAny(BlockAddr addr, std::span<std::uint8_t> out) const;
    std::uint64_t segOfAddr(BlockAddr addr) const;
    void usageAdd(BlockAddr addr, std::uint32_t bytes);
    void usageSub(BlockAddr addr, std::uint32_t bytes);
    void ensureSpace();
    void closeSegment();
    std::uint64_t pickFreeSegment() const;
    void maybeAutoClean();
    /** @} */

    /** @{ Type-agnostic data I/O cores (lfs.cc). */
    std::uint64_t writeData(DiskInode &inode, std::uint64_t off,
                            std::span<const std::uint8_t> data);
    std::uint64_t readData(const DiskInode &inode, std::uint64_t off,
                           std::span<std::uint8_t> out) const;
    /** @} */

    /** @{ Inode layer (inode.cc). */
    DiskInode &getInode(InodeNum ino);
    const DiskInode &getInodeConst(InodeNum ino) const;
    void markInodeDirty(InodeNum ino);
    InodeNum allocInode(FileType type);
    void freeInode(InodeNum ino);
    void flushInodes();
    /**
     * Pointer blocks read by one block-map walk.  A block in the open
     * segment is read in place, through the segment writer's view of
     * its slot, and never cached; any other block is read from the
     * device into its slot once.  A read-only walk (mapFile, readData)
     * goes through readWalk, forgotten at the start of each call, so
     * each pointer block is read once per call rather than once per
     * file block, no block is trusted across calls, and a warm call
     * allocates nothing.  On the write path no cached block outlives
     * one lookup: within one long write a segment can be freed and
     * reused, and a copy of a block that was in it would be stale.
     */
    struct BlockMapWalk
    {
        struct Slot
        {
            BlockAddr addr = nullAddr;
            std::vector<std::uint8_t> bytes;
        };
        Slot ind1, root, child;
        /** Drop the cached blocks; keep their buffers. */
        void forget() { ind1.addr = root.addr = child.addr = nullAddr; }
    };
    /** Pointer block @p blk's bytes (pointerEntry() reads them): the
     *  open segment's copy in place, else read into @p slot unless it
     *  already holds @p blk. */
    const std::uint8_t *pointerBlock(BlockMapWalk::Slot &slot,
                                     BlockAddr blk) const;
    BlockAddr getFileBlock(const DiskInode &inode, std::uint64_t fbno,
                           BlockMapWalk &walk) const;
    /** One lookup through scratchWalk, afresh (write path, cleaner). */
    BlockAddr getFileBlock(const DiskInode &inode,
                           std::uint64_t fbno) const;
    /** Store @p value at entry @p idx of pointer block @p ref, in the
     *  open segment's copy.  A block outside it is first appended
     *  there, read once from the device straight into its new slot
     *  (zero-filled when @p ref is nullAddr), and its usage moves.
     *  @return the block's address in the open segment. */
    BlockAddr setPointer(BlockKind kind, InodeNum ino, std::uint64_t aux,
                         BlockAddr ref, std::uint64_t idx, BlockAddr value);
    void setFileBlock(DiskInode &inode, std::uint64_t fbno,
                      BlockAddr addr);
    void writeFileBlock(DiskInode &inode, std::uint64_t fbno,
                        std::span<const std::uint8_t> data);
    void freeFileBlocks(DiskInode &inode, std::uint64_t first_keep_fbno);
    static std::uint64_t maxFileBlocks(std::uint32_t block_size);
    /** @} */

    /** @{ Inode map (imap.cc). */
    ImapEntry &imapEntry(InodeNum ino);
    const ImapEntry &imapEntryConst(InodeNum ino) const;
    void markImapDirty(InodeNum ino);
    void flushImap();
    void loadImapChunks();
    /** @} */

    /** @{ Directories (directory.cc). */
    std::vector<DirEntry> readDirEntries(const DiskInode &dir) const;
    void writeDirEntries(DiskInode &dir,
                         const std::vector<DirEntry> &entries);
    InodeNum dirLookup(const DiskInode &dir,
                       const std::string &name) const;
    void dirAdd(DiskInode &dir, const std::string &name, InodeNum ino);
    void dirRemove(DiskInode &dir, const std::string &name);
    /** Resolve a path to (parent inode, leaf name); parent must exist. */
    InodeNum resolveParent(const std::string &path,
                           std::string &leaf) const;
    InodeNum resolve(const std::string &path) const;
    void walkFrom(const std::string &path, InodeNum ino,
                  const std::function<void(const std::string &,
                                           const Stat &)> &fn) const;
    /** @} */

    /** @{ Checkpoint (checkpoint.cc). */
    /**
     * The one checkpoint encoder: a region of @p sb's checkpoint size
     * holding @p hdr, whose log position (seqno, logHeadSegment,
     * nextSegSeq) and roots (nextIno, rootIno) the caller sets, then
     * the imap chunk addresses, the usage table and the snapshot
     * table.  Fills in the magic, the counts, both checksums and the
     * zero padding.  readCheckpoint() is its decoder.
     */
    static std::vector<std::uint8_t>
    encodeCheckpoint(const Superblock &sb, CheckpointHeader hdr,
                     std::span<const BlockAddr> chunk_addrs,
                     std::span<const Usage> usage,
                     std::span<const SnapshotRecord> snaps);
    void writeCheckpoint();
    bool readCheckpoint(std::uint64_t region_block,
                        CheckpointHeader &hdr,
                        std::vector<BlockAddr> &chunk_addrs,
                        std::vector<Usage> &usage_out,
                        std::vector<SnapshotRecord> &snaps_out) const;
    /** @} */

    /** @{ Snapshot pin accounting (lfs.cc). */
    void pinSnapshot(const SnapshotRecord &rec);
    void unpinSnapshot(const SnapshotRecord &rec);
    /** @} */

    /** Mount-time recovery (recovery.cc). */
    void mount();
    void rollForward(std::uint64_t start_seg, std::uint64_t start_seq);

    fs::BlockDevice &dev;
    Params prm;
    Superblock sb;

    std::vector<ImapEntry> imap;
    std::vector<BlockAddr> imapChunkAddr;
    std::vector<bool> imapChunkDirty;
    std::vector<Usage> usage;
    std::vector<SnapshotRecord> snaps;
    std::vector<std::uint32_t> segPinCount; // snapshots pinning each seg
    std::uint32_t nextSnapId = 1;

    mutable std::map<InodeNum, DiskInode> inodeCache;
    std::set<InodeNum> dirtyInodes;

    /** @{ Scratch kept across calls so a warm call allocates nothing:
     *  the buffers for pointer blocks read from the device, one lookup
     *  at a time (write path, cleaner) or one call at a time (mapFile,
     *  readData), readData's partial-block bounce, and writeData's
     *  partial-block merge. */
    mutable BlockMapWalk scratchWalk;
    mutable BlockMapWalk readWalk;
    mutable std::vector<std::uint8_t> readBuf;
    std::vector<std::uint8_t> mergeBuf;
    /** @} */

    std::unique_ptr<SegmentWriter> segw;
    std::uint64_t nextSegSeq = 1;
    std::uint64_t cpSeqno = 0;
    InodeNum nextIno = 1;
    InodeNum root = nullIno;
    std::uint32_t logicalTime = 0;
    bool autoClean = false;
    bool inCleaner = false;

    Stats _stats;
};

} // namespace raid2::lfs

#endif // RAID2_LFS_LFS_HH
