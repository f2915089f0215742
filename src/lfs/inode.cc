/**
 * @file
 * Inode layer of the LFS: inode cache, allocation, block-pointer
 * traversal and the log-append write path for file blocks and
 * indirect blocks.
 */

#include <algorithm>
#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

namespace {

/** Block pointers per pointer block. */
std::uint32_t
ptrsPer(std::uint32_t block_size)
{
    return block_size / sizeof(BlockAddr);
}

} // namespace

std::uint64_t
Lfs::maxFileBlocks(std::uint32_t block_size)
{
    const std::uint64_t p = ptrsPer(block_size);
    return numDirect + p + p * p;
}

DiskInode &
Lfs::getInode(InodeNum ino)
{
    return const_cast<DiskInode &>(getInodeConst(ino));
}

const DiskInode &
Lfs::getInodeConst(InodeNum ino) const
{
    if (ino == nullIno || ino >= sb.maxInodes)
        throw LfsError(Errno::Invalid, "bad inode number");
    auto it = inodeCache.find(ino);
    if (it != inodeCache.end())
        return it->second;

    const ImapEntry &e = imapEntryConst(ino);
    if (!e.allocated())
        throw LfsError(Errno::NoEntry, "inode not allocated");

    std::vector<std::uint8_t> block(sb.blockSize);
    readBlockAny(e.blockAddr, {block.data(), block.size()});
    DiskInode inode;
    std::memcpy(&inode, block.data() + std::size_t(e.slot) * inodeBytes,
                sizeof(inode));
    if (inode.ino != ino) {
        // Corrupt media, not a program bug: surface it to callers.
        throw LfsError(Errno::Invalid,
                       "inode block corrupt (want " +
                           std::to_string(ino) + " got " +
                           std::to_string(inode.ino) + ")");
    }
    return inodeCache.emplace(ino, inode).first->second;
}

void
Lfs::markInodeDirty(InodeNum ino)
{
    dirtyInodes.insert(ino);
}

InodeNum
Lfs::allocInode(FileType type)
{
    auto in_use = [this](InodeNum i) {
        if (imap[i].allocated())
            return true;
        auto it = inodeCache.find(i);
        return it != inodeCache.end() &&
               it->second.fileType() != FileType::Free;
    };

    for (std::uint32_t tries = 0; tries < sb.maxInodes; ++tries) {
        InodeNum cand = nextIno;
        nextIno = nextIno + 1 >= sb.maxInodes ? 1 : nextIno + 1;
        if (cand == nullIno || cand >= sb.maxInodes)
            continue;
        if (in_use(cand))
            continue;
        DiskInode inode{};
        inode.ino = cand;
        inode.type = static_cast<std::uint16_t>(type);
        inode.gen = imap[cand].gen + 1;
        inode.mtime = ++logicalTime;
        inodeCache[cand] = inode;
        markInodeDirty(cand);
        return cand;
    }
    throw LfsError(Errno::NoSpace, "out of inodes");
}

void
Lfs::freeInode(InodeNum ino)
{
    ImapEntry &e = imapEntry(ino);
    if (e.allocated()) {
        usageSub(e.blockAddr, inodeBytes);
        e.blockAddr = nullAddr;
        e.slot = 0;
        ++e.gen;
        markImapDirty(ino);
    }
    inodeCache.erase(ino);
    dirtyInodes.erase(ino);
}

void
Lfs::flushInodes()
{
    if (dirtyInodes.empty())
        return;
    std::vector<InodeNum> pending(dirtyInodes.begin(), dirtyInodes.end());
    dirtyInodes.clear();

    const std::uint32_t per_block = sb.inodesPerBlock();
    std::vector<std::uint8_t> block(sb.blockSize);
    std::size_t i = 0;
    while (i < pending.size()) {
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::size_t>(per_block, pending.size() - i));
        std::fill(block.begin(), block.end(), 0);
        for (std::uint32_t s = 0; s < n; ++s) {
            const DiskInode &inode = inodeCache.at(pending[i + s]);
            std::memcpy(block.data() + std::size_t(s) * inodeBytes,
                        &inode, sizeof(inode));
        }
        ensureSpace();
        const BlockAddr addr = segw->add(BlockKind::InodeBlock,
                                         pending[i], 0,
                                         {block.data(), block.size()});
        for (std::uint32_t s = 0; s < n; ++s) {
            const InodeNum ino = pending[i + s];
            ImapEntry &e = imapEntry(ino);
            if (e.allocated())
                usageSub(e.blockAddr, inodeBytes);
            e.blockAddr = addr;
            e.slot = s;
            e.gen = inodeCache.at(ino).gen;
            markImapDirty(ino);
        }
        usageAdd(addr, n * inodeBytes);
        i += n;
    }
}

const std::uint8_t *
Lfs::pointerBlock(BlockMapWalk::Slot &slot, BlockAddr blk) const
{
    if (segw->contains(blk))
        return segw->block(blk).data();
    if (slot.addr != blk) {
        slot.bytes.resize(sb.blockSize);
        readMedia(blk, {slot.bytes.data(), slot.bytes.size()});
        slot.addr = blk;
    }
    return slot.bytes.data();
}

BlockAddr
Lfs::getFileBlock(const DiskInode &inode, std::uint64_t fbno,
                  BlockMapWalk &walk) const
{
    const std::uint32_t p = ptrsPer(sb.blockSize);
    if (fbno < numDirect)
        return inode.direct[fbno];

    if (fbno < numDirect + p) {
        if (inode.indirect == nullAddr)
            return nullAddr;
        return pointerEntry(pointerBlock(walk.ind1, inode.indirect),
                            fbno - numDirect);
    }
    if (fbno < maxFileBlocks(sb.blockSize)) {
        if (inode.dindirect == nullAddr)
            return nullAddr;
        const std::uint64_t rel = fbno - numDirect - p;
        const BlockAddr child =
            pointerEntry(pointerBlock(walk.root, inode.dindirect), rel / p);
        if (child == nullAddr)
            return nullAddr;
        return pointerEntry(pointerBlock(walk.child, child), rel % p);
    }
    throw LfsError(Errno::FileTooBig, "file block number out of range");
}

BlockAddr
Lfs::getFileBlock(const DiskInode &inode, std::uint64_t fbno) const
{
    scratchWalk.forget();
    return getFileBlock(inode, fbno, scratchWalk);
}

BlockAddr
Lfs::setPointer(BlockKind kind, InodeNum ino, std::uint64_t aux,
                BlockAddr ref, std::uint64_t idx, BlockAddr value)
{
    BlockAddr at = ref;
    if (ref == nullAddr || !segw->contains(ref)) {
        at = segw->append(kind, ino, aux);
        usageAdd(at, sb.blockSize);
        const std::span<std::uint8_t> slot = segw->block(at);
        if (ref == nullAddr) {
            std::fill(slot.begin(), slot.end(), 0);
        } else {
            readMedia(ref, slot);
            usageSub(ref, sb.blockSize);
        }
    }
    setPointerEntry(segw->block(at).data(), idx, value);
    return at;
}

void
Lfs::setFileBlock(DiskInode &inode, std::uint64_t fbno, BlockAddr addr)
{
    const std::uint32_t p = ptrsPer(sb.blockSize);

    if (fbno < numDirect) {
        inode.direct[fbno] = addr;
        return;
    }
    if (fbno < numDirect + p) {
        inode.indirect = setPointer(BlockKind::Ind1, inode.ino, 0,
                                    inode.indirect, fbno - numDirect, addr);
        return;
    }
    if (fbno >= maxFileBlocks(sb.blockSize))
        throw LfsError(Errno::FileTooBig, "file too big");

    const std::uint64_t rel = fbno - numDirect - p;
    const std::uint64_t ci = rel / p;
    const std::uint64_t idx = rel % p;

    // The child first, then the root only if the child moved: the
    // order of the appends is the log layout.
    scratchWalk.forget();
    const BlockAddr child =
        inode.dindirect == nullAddr
            ? nullAddr
            : pointerEntry(pointerBlock(scratchWalk.root, inode.dindirect),
                           ci);
    const BlockAddr new_child = setPointer(BlockKind::Ind2Child, inode.ino,
                                           ci, child, idx, addr);
    if (new_child != child) {
        inode.dindirect = setPointer(BlockKind::Ind2Root, inode.ino, 0,
                                     inode.dindirect, ci, new_child);
    }
}

void
Lfs::writeFileBlock(DiskInode &inode, std::uint64_t fbno,
                    std::span<const std::uint8_t> data)
{
    ensureSpace();
    const BlockAddr old = getFileBlock(inode, fbno);
    if (old != nullAddr && segw->contains(old)) {
        const std::span<std::uint8_t> slot = segw->block(old);
        if (data.size() != slot.size())
            sim::panic("Lfs: bad block size %zu", data.size());
        std::copy(data.begin(), data.end(), slot.begin());
        return;
    }
    const BlockAddr addr =
        segw->add(BlockKind::Data, inode.ino, fbno, data);
    usageAdd(addr, sb.blockSize);
    if (old != nullAddr)
        usageSub(old, sb.blockSize);
    setFileBlock(inode, fbno, addr);
}

void
Lfs::freeFileBlocks(DiskInode &inode, std::uint64_t first_keep_fbno)
{
    const std::uint32_t bs = sb.blockSize;
    const std::uint32_t p = ptrsPer(bs);
    const std::uint64_t keep = first_keep_fbno;

    // Directs.
    for (std::uint64_t i = std::min<std::uint64_t>(keep, numDirect);
         i < numDirect; ++i) {
        if (inode.direct[i] != nullAddr) {
            usageSub(inode.direct[i], bs);
            inode.direct[i] = nullAddr;
        }
    }

    // Clear entries [from, p) of pointer block @p ref (freeing deep
    // children first); returns its new address, nullAddr once empty.
    // The open segment's copy is trimmed in place; any other is
    // trimmed in @c copy and relocated.  An emptied block is dead and
    // keeps its bytes.  By value: @p ref is often a packed DiskInode
    // field, which a reference must not bind to.
    std::vector<std::uint8_t> copy;
    auto clear_tail = [&](BlockAddr ref, std::uint64_t from,
                          bool entries_are_children,
                          auto &&clear_child) -> BlockAddr {
        if (ref == nullAddr)
            return nullAddr;
        const bool buffered = segw->contains(ref);
        if (!buffered) {
            copy.resize(bs);
            readMedia(ref, {copy.data(), copy.size()});
        }
        std::uint8_t *ptrs =
            buffered ? segw->block(ref).data() : copy.data();
        bool any_live = false;
        for (std::uint64_t i = 0; i < from; ++i)
            any_live = any_live || pointerEntry(ptrs, i) != nullAddr;
        bool changed = false;
        for (std::uint64_t i = from; i < p; ++i) {
            const BlockAddr entry = pointerEntry(ptrs, i);
            if (entry == nullAddr)
                continue;
            if (entries_are_children) {
                clear_child(entry);
            } else {
                usageSub(entry, bs);
            }
            if (any_live)
                setPointerEntry(ptrs, i, nullAddr);
            changed = true;
        }
        if (!any_live) {
            usageSub(ref, bs);
            return nullAddr;
        }
        if (!changed || buffered)
            return ref;
        // The trimmed pointer block must be relocated; kind is
        // approximate (Ind1) — the cleaner re-derives liveness from the
        // inode, not the summary kind.
        const BlockAddr naddr = segw->add(BlockKind::Ind1, inode.ino, 0,
                                          {copy.data(), copy.size()});
        usageAdd(naddr, bs);
        usageSub(ref, bs);
        return naddr;
    };

    auto free_whole_child = [&](BlockAddr child) {
        scratchWalk.forget();
        const std::uint8_t *ptrs = pointerBlock(scratchWalk.child, child);
        for (std::uint64_t i = 0; i < p; ++i) {
            const BlockAddr entry = pointerEntry(ptrs, i);
            if (entry != nullAddr)
                usageSub(entry, bs);
        }
        usageSub(child, bs);
    };

    // Single indirect: file blocks [numDirect, numDirect + p).
    {
        const std::uint64_t from =
            keep <= numDirect ? 0 : std::min<std::uint64_t>(keep -
                                                            numDirect, p);
        if (from < p) {
            ensureSpace();
            inode.indirect = clear_tail(inode.indirect, from, false,
                                        free_whole_child);
        }
    }

    // Double indirect: file blocks [numDirect + p, ...).
    if (inode.dindirect != nullAddr) {
        const std::uint64_t base = numDirect + p;
        const std::uint64_t from_rel = keep <= base ? 0 : keep - base;
        const std::uint64_t first_child = from_rel / p;
        const std::uint64_t within = from_rel % p;

        // The root as it stands now: the trim below can close the
        // segment it sits in, and then this copy is what relocates.
        std::vector<std::uint8_t> root(bs);
        readBlockAny(inode.dindirect, {root.data(), root.size()});
        const BlockAddr old_child = first_child < p
                                        ? pointerEntry(root.data(), first_child)
                                        : nullAddr;

        // Partially trim the boundary child.
        if (within != 0 && old_child != nullAddr) {
            ensureSpace();
            const BlockAddr child = clear_tail(old_child, within, false,
                                               free_whole_child);
            if (child != old_child) {
                if (segw->contains(inode.dindirect)) {
                    setPointerEntry(segw->block(inode.dindirect).data(),
                                    first_child, child);
                } else {
                    setPointerEntry(root.data(), first_child, child);
                    ensureSpace();
                    const BlockAddr naddr = segw->add(
                        BlockKind::Ind2Root, inode.ino, 0,
                        {root.data(), root.size()});
                    usageAdd(naddr, bs);
                    usageSub(inode.dindirect, bs);
                    inode.dindirect = naddr;
                }
            }
        }

        // Fully free children after the boundary.
        const std::uint64_t first_whole =
            within == 0 ? first_child : first_child + 1;
        if (first_whole < p) {
            ensureSpace();
            inode.dindirect = clear_tail(inode.dindirect, first_whole,
                                         true, free_whole_child);
        }
    }

    markInodeDirty(inode.ino);
}

} // namespace raid2::lfs
