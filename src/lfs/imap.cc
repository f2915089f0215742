/**
 * @file
 * Inode map: the level of indirection that lets LFS move inodes.
 *
 * The imap translates inode numbers to the log address of the inode's
 * current copy.  It lives in memory, is written to the log in chunks
 * (so updates are themselves log appends), and the checkpoint region
 * records the chunk addresses.
 */

#include <algorithm>
#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

ImapEntry &
Lfs::imapEntry(InodeNum ino)
{
    return const_cast<ImapEntry &>(imapEntryConst(ino));
}

const ImapEntry &
Lfs::imapEntryConst(InodeNum ino) const
{
    if (ino == nullIno || ino >= sb.maxInodes)
        throw LfsError(Errno::Invalid, "bad inode number");
    return imap[ino];
}

void
Lfs::markImapDirty(InodeNum ino)
{
    imapChunkDirty.at(ino / sb.imapEntriesPerChunk()) = true;
}

void
Lfs::flushImap()
{
    const std::uint32_t per_chunk = sb.imapEntriesPerChunk();
    std::vector<std::uint8_t> block(sb.blockSize, 0);

    for (std::uint32_t c = 0; c < imapChunkDirty.size(); ++c) {
        if (!imapChunkDirty[c])
            continue;
        std::fill(block.begin(), block.end(), 0);
        const std::uint32_t first = c * per_chunk;
        const std::uint32_t count =
            std::min(per_chunk, sb.maxInodes - first);
        std::memcpy(block.data(), imap.data() + first,
                    std::size_t(count) * sizeof(ImapEntry));

        ensureSpace();
        const BlockAddr old = imapChunkAddr[c];
        if (old != nullAddr && segw->contains(old)) {
            std::copy(block.begin(), block.end(), segw->block(old).begin());
        } else {
            const BlockAddr addr =
                segw->add(BlockKind::ImapChunk, nullIno, c,
                          {block.data(), block.size()});
            usageAdd(addr, sb.blockSize);
            if (old != nullAddr)
                usageSub(old, sb.blockSize);
            imapChunkAddr[c] = addr;
        }
        imapChunkDirty[c] = false;
    }
}

void
Lfs::loadImapChunks()
{
    const std::uint32_t per_chunk = sb.imapEntriesPerChunk();
    std::vector<std::uint8_t> block(sb.blockSize);

    std::fill(imap.begin(), imap.end(), ImapEntry{});
    for (std::uint32_t c = 0; c < imapChunkAddr.size(); ++c) {
        if (imapChunkAddr[c] == nullAddr)
            continue;
        readMedia(imapChunkAddr[c], {block.data(), block.size()});
        const std::uint32_t first = c * per_chunk;
        const std::uint32_t count =
            std::min(per_chunk, sb.maxInodes - first);
        std::memcpy(imap.data() + first, block.data(),
                    std::size_t(count) * sizeof(ImapEntry));
    }
}

} // namespace raid2::lfs
