#include "lfs/lfs.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace raid2::lfs {

// ---------------------------------------------------------------------
// Format
// ---------------------------------------------------------------------

void
Lfs::format(fs::BlockDevice &dev, const Params &params)
{
    if (dev.blockSize() != params.blockSize)
        sim::fatal("Lfs::format: device block size %u != fs block size %u",
                   dev.blockSize(), params.blockSize);
    if (params.segBlocks < 4)
        sim::fatal("Lfs::format: segment too small");

    Superblock sb{};
    sb.magic = superMagic;
    sb.version = formatVersion;
    sb.blockSize = params.blockSize;
    sb.segBlocks = params.segBlocks;
    sb.maxInodes = params.maxInodes;

    // Checkpoint-region size depends on the segment count and vice
    // versa; iterate to a fixed point (monotone decreasing, converges
    // in a couple of rounds).
    const std::uint64_t total = dev.numBlocks();
    std::uint64_t nseg = total / params.segBlocks;
    std::uint32_t cp_blocks = 1;
    for (int round = 0; round < 8; ++round) {
        const std::uint64_t body =
            sizeof(CheckpointHeader) + 8ull * sb.numImapChunks() +
            sizeof(UsageEntry) * nseg +
            snapshotReserveBytes(sb.numImapChunks(), nseg);
        cp_blocks = static_cast<std::uint32_t>(
            (body + params.blockSize - 1) / params.blockSize);
        const std::uint64_t avail = total - 1 - 2ull * cp_blocks;
        const std::uint64_t next = avail / params.segBlocks;
        if (next == nseg)
            break;
        nseg = next;
    }
    if (nseg < 4)
        sim::fatal("Lfs::format: device too small (%llu segments)",
                   (unsigned long long)nseg);

    sb.numSegments = nseg;
    sb.cpBlocks = cp_blocks;
    sb.cp0Block = 1;
    sb.cp1Block = 1 + cp_blocks;
    sb.firstSegBlock = 1 + 2ull * cp_blocks;
    if (params.alignSegmentsTo != 0) {
        // Round segment 0 up to the requested byte alignment (stripe
        // width) so each segment write is one full-stripe write.
        const std::uint64_t align_blocks =
            (params.alignSegmentsTo + params.blockSize - 1) /
            params.blockSize;
        const std::uint64_t rem = sb.firstSegBlock % align_blocks;
        if (rem != 0)
            sb.firstSegBlock += align_blocks - rem;
        while (sb.firstSegBlock + sb.numSegments * params.segBlocks >
               total) {
            --sb.numSegments;
        }
        if (sb.numSegments < 4)
            sim::fatal("Lfs::format: device too small after alignment");
    }
    sb.checksum = sb.computeChecksum();

    std::vector<std::uint8_t> block(params.blockSize, 0);
    std::memcpy(block.data(), &sb, sizeof(sb));
    dev.writeRange(0, 1, {block.data(), block.size()});

    // Fresh checkpoint: empty imap, empty usage table, no root yet
    // (the first mount creates it).
    CheckpointHeader hdr{};
    hdr.seqno = 1;
    hdr.nextSegSeq = 1;
    hdr.nextIno = 1;
    std::vector<std::uint8_t> region = encodeCheckpoint(
        sb, hdr, std::vector<BlockAddr>(sb.numImapChunks(), nullAddr),
        std::vector<Usage>(sb.numSegments), {});
    dev.writeRange(sb.cp0Block, sb.cpBlocks,
                   {region.data(), region.size()});
    // Region 1 is deliberately left invalid (zeroed).
    std::fill(region.begin(), region.end(), 0);
    dev.writeRange(sb.cp1Block, sb.cpBlocks,
                   {region.data(), region.size()});
    dev.flush();
}

// ---------------------------------------------------------------------
// Mount / teardown
// ---------------------------------------------------------------------

Superblock
Lfs::loadSuperblock(fs::BlockDevice &dev)
{
    std::vector<std::uint8_t> block(dev.blockSize(), 0);
    dev.readRange(0, 1, {block.data(), block.size()});
    Superblock sb;
    std::memcpy(&sb, block.data(), sizeof(sb));
    if (sb.magic == superMagic && sb.version != formatVersion) {
        throw LfsError(Errno::Invalid,
                       "LFS format v" + std::to_string(sb.version) +
                           " is not readable; this build reads v" +
                           std::to_string(formatVersion));
    }
    if (!sb.valid())
        throw LfsError(Errno::Invalid, "not an LFS device (bad superblock)");
    return sb;
}

Lfs::Lfs(fs::BlockDevice &dev_, const Superblock &sb_) : dev(dev_), sb(sb_)
{
    prm.blockSize = sb.blockSize;
    prm.segBlocks = sb.segBlocks;
    prm.maxInodes = sb.maxInodes;
    mergeBuf.resize(sb.blockSize);

    imap.assign(sb.maxInodes, ImapEntry{});
    imapChunkAddr.assign(sb.numImapChunks(), nullAddr);
    imapChunkDirty.assign(sb.numImapChunks(), false);
    usage.assign(sb.numSegments, Usage{});
    segPinCount.assign(sb.numSegments, 0);
    segw = std::make_unique<SegmentWriter>(dev, sb);
    segw->setReuseGuard([this](std::uint64_t seg) {
        return segPinCount[seg] == 0;
    });
}

Lfs::Lfs(fs::BlockDevice &dev_) : Lfs(dev_, loadSuperblock(dev_))
{
    mount();

    if (root == nullIno) {
        // Fresh file system: create the root directory.
        root = allocInode(FileType::Directory);
        DiskInode &ri = getInode(root);
        ri.nlink = 2;
        markInodeDirty(root);
        checkpoint();
    }
}

std::unique_ptr<const Lfs>
Lfs::mountSnapshot(fs::BlockDevice &dev, const SnapshotRecord &rec)
{
    std::unique_ptr<Lfs> fs(new Lfs(dev, loadSuperblock(dev)));
    if (rec.imapChunkAddr.size() != fs->imapChunkAddr.size())
        throw LfsError(Errno::Invalid,
                       "snapshot " + rec.name +
                           ": imap chunk count differs from the superblock");
    fs->imapChunkAddr = rec.imapChunkAddr;
    fs->root = rec.root;
    fs->nextIno = rec.nextIno;
    fs->loadImapChunks();
    return fs;
}

Lfs::~Lfs() = default;

// ---------------------------------------------------------------------
// Block helpers
// ---------------------------------------------------------------------

void
Lfs::readMedia(BlockAddr addr, std::span<std::uint8_t> out) const
{
    // A garbled pointer or imap entry, not a program bug.
    if (addr >= dev.numBlocks()) {
        throw LfsError(Errno::Invalid,
                       "block address " + std::to_string(addr) +
                           " beyond the device");
    }
    dev.readRange(addr, 1, out);
}

void
Lfs::readBlockAny(BlockAddr addr, std::span<std::uint8_t> out) const
{
    if (addr == nullAddr)
        sim::panic("Lfs: read of null block address");
    if (segw->contains(addr)) {
        const std::span<const std::uint8_t> buffered = segw->block(addr);
        if (out.size() != buffered.size())
            sim::panic("Lfs: bad block size %zu", out.size());
        std::copy(buffered.begin(), buffered.end(), out.begin());
        return;
    }
    readMedia(addr, out);
}

std::uint64_t
Lfs::segOfAddr(BlockAddr addr) const
{
    if (addr < sb.firstSegBlock)
        sim::panic("Lfs: address %llu not in the log",
                   (unsigned long long)addr);
    return sb.segmentOfBlock(addr);
}

void
Lfs::usageAdd(BlockAddr addr, std::uint32_t bytes)
{
    usage[segOfAddr(addr)].liveBytes += bytes;
}

void
Lfs::usageSub(BlockAddr addr, std::uint32_t bytes)
{
    Usage &u = usage[segOfAddr(addr)];
    if (u.liveBytes < bytes) {
        // Roll-forward usage reconstruction is approximate; clamp.
        u.liveBytes = 0;
        return;
    }
    u.liveBytes -= bytes;
}

std::uint64_t
Lfs::pickFreeSegment() const
{
    const std::uint64_t cur =
        segw->isOpen() ? segw->currentSegment() : sb.numSegments;
    for (std::uint64_t i = 1; i <= sb.numSegments; ++i) {
        const std::uint64_t seg =
            (cur + i) % sb.numSegments;
        if (seg != cur && usage[seg].liveBytes == 0 &&
            segPinCount[seg] == 0) {
            return seg;
        }
    }
    throw LfsError(Errno::NoSpace, "log full: no clean segments");
}

void
Lfs::closeSegment()
{
    if (!segw->dirty())
        return;
    const std::uint64_t next = pickFreeSegment();
    usage[segw->currentSegment()].writeSeq = segw->segSeq();
    segw->writeOut(next);
    ++_stats.segmentsWritten;
    segw->open(next, nextSegSeq++);
}

void
Lfs::ensureSpace()
{
    // Worst case one operation appends a data block plus rewritten
    // single-indirect, double-indirect child and root blocks.
    if (!segw->hasSpace(4))
        closeSegment();
}

void
Lfs::maybeAutoClean()
{
    if (!autoClean || inCleaner)
        return;
    if (freeSegments() < 4)
        clean(8);
}

std::uint64_t
Lfs::freeSegments() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (usage[s].liveBytes == 0 && segPinCount[s] == 0 &&
            !(segw->isOpen() && s == segw->currentSegment())) {
            ++n;
        }
    }
    return n;
}

double
Lfs::segmentUtilization(std::uint64_t seg) const
{
    const double cap = static_cast<double>(
        sb.payloadBlocksPerSegment()) * sb.blockSize;
    return static_cast<double>(usage.at(seg).liveBytes) / cap;
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

std::uint64_t
Lfs::write(InodeNum ino, std::uint64_t off,
           std::span<const std::uint8_t> data)
{
    DiskInode &inode = getInode(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory, "write to a directory");
    return writeData(inode, off, data);
}

std::uint64_t
Lfs::writeData(DiskInode &inode, std::uint64_t off,
               std::span<const std::uint8_t> data)
{
    if (data.empty())
        return 0;
    maybeAutoClean();

    const std::uint32_t bs = sb.blockSize;
    std::uint64_t pos = off;
    std::uint64_t left = data.size();

    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));
        const std::uint8_t *src = data.data() + (pos - off);

        if (take == bs) {
            writeFileBlock(inode, fbno, {src, bs});
        } else {
            // Partial block: merge with the existing contents.
            const BlockAddr old = getFileBlock(inode, fbno);
            if (old != nullAddr)
                readBlockAny(old, {mergeBuf.data(), bs});
            else
                std::fill(mergeBuf.begin(), mergeBuf.end(), 0);
            std::memcpy(mergeBuf.data() + in_block, src, take);
            writeFileBlock(inode, fbno, {mergeBuf.data(), bs});
        }
        pos += take;
        left -= take;
    }

    // DiskInode is packed: read its size by value (std::max takes
    // const T&, and a reference to a misaligned member is undefined).
    const std::uint64_t old_size = inode.size;
    inode.size = std::max(old_size, off + data.size());
    inode.mtime = ++logicalTime;
    markInodeDirty(inode.ino);
    return data.size();
}

std::uint64_t
Lfs::read(InodeNum ino, std::uint64_t off,
          std::span<std::uint8_t> out) const
{
    const DiskInode &inode = getInodeConst(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory, "read of a directory");
    return readData(inode, off, out);
}

std::uint64_t
Lfs::readData(const DiskInode &inode, std::uint64_t off,
              std::span<std::uint8_t> out) const
{
    if (off >= inode.size || out.empty())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), inode.size - off);

    const std::uint32_t bs = sb.blockSize;
    readWalk.forget();
    std::uint64_t pos = off;
    std::uint64_t left = n;
    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));
        std::uint8_t *dst = out.data() + (pos - off);

        const BlockAddr addr = getFileBlock(inode, fbno, readWalk);
        if (addr == nullAddr) {
            std::memset(dst, 0, take);
        } else if (take == bs) {
            readBlockAny(addr, {dst, bs});
        } else {
            // Only a partial first or last block bounces.
            readBuf.resize(bs);
            readBlockAny(addr, {readBuf.data(), bs});
            std::memcpy(dst, readBuf.data() + in_block, take);
        }
        pos += take;
        left -= take;
    }
    return n;
}

void
Lfs::truncate(InodeNum ino, std::uint64_t new_size)
{
    DiskInode &inode = getInode(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory, "truncate of a directory");
    if (new_size >= inode.size) {
        inode.size = new_size; // extending truncate leaves a hole
        markInodeDirty(ino);
        return;
    }
    const std::uint32_t bs = sb.blockSize;
    const std::uint64_t keep = (new_size + bs - 1) / bs;
    freeFileBlocks(inode, keep);

    // Zero the tail of the now-final partial block so later extends
    // read zeros.
    if (new_size % bs != 0) {
        const std::uint64_t fbno = new_size / bs;
        const BlockAddr addr = getFileBlock(inode, fbno);
        if (addr != nullAddr) {
            std::vector<std::uint8_t> buf(bs);
            readBlockAny(addr, {buf.data(), bs});
            std::fill(buf.begin() +
                          static_cast<std::ptrdiff_t>(new_size % bs),
                      buf.end(), 0);
            writeFileBlock(inode, fbno, {buf.data(), bs});
        }
    }
    inode.size = new_size;
    inode.mtime = ++logicalTime;
    markInodeDirty(ino);
}

// ---------------------------------------------------------------------
// Sync / checkpoint
// ---------------------------------------------------------------------

void
Lfs::sync()
{
    flushInodes();
    flushImap();
    if (segw->dirty())
        closeSegment();
    dev.flush();
}

void
Lfs::checkpoint()
{
    sync();
    writeCheckpoint();
    ++_stats.checkpoints;
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

void
Lfs::pinSnapshot(const SnapshotRecord &rec)
{
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (rec.pinned[s])
            ++segPinCount[s];
    }
}

void
Lfs::unpinSnapshot(const SnapshotRecord &rec)
{
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (rec.pinned[s]) {
            if (segPinCount[s] == 0)
                sim::panic("Lfs: unpin of unpinned segment %llu",
                           (unsigned long long)s);
            --segPinCount[s];
        }
    }
}

const SnapshotRecord *
Lfs::findSnapshot(const std::string &name) const
{
    for (const SnapshotRecord &r : snaps) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

std::uint32_t
Lfs::takeSnapshot(const std::string &name)
{
    if (name.empty() || name.size() > maxSnapshotNameLen)
        throw LfsError(Errno::Invalid, "bad snapshot name");
    if (findSnapshot(name) != nullptr)
        throw LfsError(Errno::Exists, "snapshot " + name + " exists");
    if (snaps.size() >= maxSnapshots)
        throw LfsError(Errno::NoSpace, "snapshot table full");

    // After sync() every snapshot-reachable block sits in a segment
    // with non-zero live bytes, so pinning exactly those segments pins
    // the snapshot's whole closure.  The freshly opened head segment
    // has zero live bytes and stays writable.
    sync();

    SnapshotRecord rec;
    rec.id = nextSnapId++;
    rec.name = name;
    rec.createSeq = cpSeqno + 1; // the checkpoint written below
    rec.nextSegSeq = segw->segSeq();
    rec.root = root;
    rec.nextIno = nextIno;
    rec.imapChunkAddr = imapChunkAddr;
    rec.pinned.assign(sb.numSegments, false);
    for (std::uint64_t s = 0; s < sb.numSegments; ++s)
        rec.pinned[s] = usage[s].liveBytes > 0;

    snaps.push_back(rec);
    pinSnapshot(snaps.back());
    writeCheckpoint();
    ++_stats.checkpoints;
    ++_stats.snapshotsCreated;
    return rec.id;
}

void
Lfs::deleteSnapshot(const std::string &name)
{
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        if (snaps[i].name != name)
            continue;
        // Make the deletion durable while the pins are still in
        // place; only then may the segments be reused.
        SnapshotRecord rec = std::move(snaps[i]);
        snaps.erase(snaps.begin() +
                    static_cast<std::ptrdiff_t>(i));
        sync();
        writeCheckpoint();
        ++_stats.checkpoints;
        unpinSnapshot(rec);
        ++_stats.snapshotsDeleted;
        return;
    }
    throw LfsError(Errno::NoEntry, "snapshot " + name + " not found");
}

// ---------------------------------------------------------------------
// Extent mapping for the timed datapath
// ---------------------------------------------------------------------

std::vector<FileExtent>
Lfs::mapFile(InodeNum ino, std::uint64_t off, std::uint64_t len) const
{
    const DiskInode &inode = getInodeConst(ino);
    std::vector<FileExtent> extents;
    if (off >= inode.size || len == 0)
        return extents;
    len = std::min<std::uint64_t>(len, inode.size - off);

    const std::uint32_t bs = sb.blockSize;
    readWalk.forget();
    std::uint64_t pos = off;
    std::uint64_t left = len;
    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));
        const BlockAddr addr = getFileBlock(inode, fbno, readWalk);

        const bool hole = addr == nullAddr;
        const std::uint64_t dev_off =
            hole ? 0 : addr * std::uint64_t(bs) + in_block;

        if (!extents.empty()) {
            FileExtent &prev = extents.back();
            const bool merges =
                prev.hole == hole &&
                prev.fileOffset + prev.bytes == pos &&
                (hole || prev.deviceOffset + prev.bytes == dev_off);
            if (merges) {
                prev.bytes += take;
                pos += take;
                left -= take;
                continue;
            }
        }
        extents.push_back(FileExtent{dev_off, take, pos, hole});
        pos += take;
        left -= take;
    }
    return extents;
}

// ---------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------

InodeNum
Lfs::create(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    DiskInode &parent = getInode(parent_ino);
    if (dirLookup(parent, leaf) != nullIno)
        throw LfsError(Errno::Exists, path + " exists");
    const InodeNum ino = allocInode(FileType::Regular);
    getInode(ino).nlink = 1;
    markInodeDirty(ino);
    dirAdd(getInode(parent_ino), leaf, ino);
    return ino;
}

InodeNum
Lfs::mkdir(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    DiskInode &parent = getInode(parent_ino);
    if (dirLookup(parent, leaf) != nullIno)
        throw LfsError(Errno::Exists, path + " exists");
    const InodeNum ino = allocInode(FileType::Directory);
    getInode(ino).nlink = 2;
    markInodeDirty(ino);
    dirAdd(getInode(parent_ino), leaf, ino);
    DiskInode &p = getInode(parent_ino);
    ++p.nlink;
    markInodeDirty(parent_ino);
    return ino;
}

void
Lfs::link(const std::string &existing, const std::string &newpath)
{
    const InodeNum ino = resolve(existing);
    DiskInode &inode = getInode(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory,
                       "hard links to directories are not allowed");
    std::string leaf;
    const InodeNum parent_ino = resolveParent(newpath, leaf);
    if (dirLookup(getInode(parent_ino), leaf) != nullIno)
        throw LfsError(Errno::Exists, newpath + " exists");
    dirAdd(getInode(parent_ino), leaf, ino);
    ++inode.nlink;
    markInodeDirty(ino);
}

void
Lfs::unlink(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    const InodeNum ino = dirLookup(getInode(parent_ino), leaf);
    if (ino == nullIno)
        throw LfsError(Errno::NoEntry, path + " not found");
    DiskInode &inode = getInode(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory, path + " is a directory");

    dirRemove(getInode(parent_ino), leaf);
    --inode.nlink;
    markInodeDirty(ino);
    if (inode.nlink == 0) {
        freeFileBlocks(inode, 0);
        freeInode(ino);
    }
}

void
Lfs::rmdir(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    const InodeNum ino = dirLookup(getInode(parent_ino), leaf);
    if (ino == nullIno)
        throw LfsError(Errno::NoEntry, path + " not found");
    DiskInode &inode = getInode(ino);
    if (inode.fileType() != FileType::Directory)
        throw LfsError(Errno::NotDirectory, path + " is not a directory");
    if (!readDirEntries(inode).empty())
        throw LfsError(Errno::NotEmpty, path + " not empty");

    dirRemove(getInode(parent_ino), leaf);
    freeFileBlocks(inode, 0);
    freeInode(ino);
    DiskInode &p = getInode(parent_ino);
    --p.nlink;
    markInodeDirty(parent_ino);
}

void
Lfs::rename(const std::string &from, const std::string &to)
{
    std::string from_leaf, to_leaf;
    const InodeNum from_parent = resolveParent(from, from_leaf);
    const InodeNum to_parent = resolveParent(to, to_leaf);
    const InodeNum ino = dirLookup(getInode(from_parent), from_leaf);
    if (ino == nullIno)
        throw LfsError(Errno::NoEntry, from + " not found");
    const bool moving_dir =
        getInode(ino).fileType() == FileType::Directory;
    if (moving_dir && to.size() > from.size() &&
        to.compare(0, from.size(), from) == 0 &&
        to[from.size()] == '/') {
        // Moving a directory into its own subtree would disconnect it
        // from the root and create a cycle.
        throw LfsError(Errno::Invalid,
                       "cannot move a directory into itself");
    }

    const InodeNum target = dirLookup(getInode(to_parent), to_leaf);
    if (target != nullIno) {
        if (target == ino)
            return;
        DiskInode &t = getInode(target);
        if (t.fileType() == FileType::Directory) {
            if (!moving_dir)
                throw LfsError(Errno::IsDirectory, to + " is a directory");
            if (!readDirEntries(t).empty())
                throw LfsError(Errno::NotEmpty, to + " not empty");
            rmdir(to);
        } else {
            if (moving_dir)
                throw LfsError(Errno::NotDirectory,
                               to + " is not a directory");
            unlink(to);
        }
    }

    dirRemove(getInode(from_parent), from_leaf);
    dirAdd(getInode(to_parent), to_leaf, ino);
    if (moving_dir && from_parent != to_parent) {
        DiskInode &fp = getInode(from_parent);
        --fp.nlink;
        markInodeDirty(from_parent);
        DiskInode &tp = getInode(to_parent);
        ++tp.nlink;
        markInodeDirty(to_parent);
    }
}

InodeNum
Lfs::lookup(const std::string &path) const
{
    return resolve(path);
}

bool
Lfs::exists(const std::string &path) const
{
    try {
        resolve(path);
        return true;
    } catch (const LfsError &) {
        return false;
    }
}

std::vector<DirEntry>
Lfs::readdir(const std::string &path) const
{
    const InodeNum ino = resolve(path);
    const DiskInode &inode = getInodeConst(ino);
    if (inode.fileType() != FileType::Directory)
        throw LfsError(Errno::NotDirectory, path + " is not a directory");
    return readDirEntries(inode);
}

Stat
Lfs::stat(const std::string &path) const
{
    return statIno(resolve(path));
}

Stat
Lfs::statIno(InodeNum ino) const
{
    const DiskInode &inode = getInodeConst(ino);
    Stat st;
    st.ino = ino;
    st.type = inode.fileType();
    st.size = inode.size;
    st.nlink = inode.nlink;
    return st;
}

} // namespace raid2::lfs
