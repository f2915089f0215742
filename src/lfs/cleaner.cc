/**
 * @file
 * The segment cleaner.
 *
 * Implements the Sprite LFS cost-benefit policy: victims maximize
 * (1 - u) * age / (1 + u), where u is the segment's live fraction.
 * Liveness is decided precisely per block — a data block is live iff
 * the owning inode's block pointer still references it; inode copies
 * iff the imap points at them with a matching generation; imap chunks
 * iff the chunk address table does; pointer blocks iff they appear in
 * the owning inode's pointer tree.  Live blocks are re-appended to the
 * log and the victim becomes clean.
 *
 * The paper's prototype shipped without this ("LFS cleaning ... has
 * not yet been implemented", §3.4); it is implemented here as the
 * natural completion of the system.
 */

#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

namespace {

/** What role a pointer block plays in an inode's block tree. */
enum class PtrRole { None, Ind1, Ind2Root, Ind2Child };

struct PtrRoleResult
{
    PtrRole role = PtrRole::None;
    std::uint64_t childIndex = 0;
};

} // namespace

/** RAII cleaner-reentry guard + the cleaning pass itself. */
unsigned
Lfs::clean(unsigned target_free)
{
    if (inCleaner)
        return 0;
    struct Guard
    {
        bool &flag;
        explicit Guard(bool &f) : flag(f) { flag = true; }
        ~Guard() { flag = false; }
    } guard(inCleaner);
    unsigned cleaned = 0;
    const std::uint32_t bs = sb.blockSize;
    const std::uint32_t ptrs_per = bs / sizeof(BlockAddr);

    auto pointer_role = [&](const DiskInode &inode,
                            BlockAddr addr) -> PtrRoleResult {
        if (inode.indirect == addr)
            return {PtrRole::Ind1, 0};
        if (inode.dindirect == addr)
            return {PtrRole::Ind2Root, 0};
        if (inode.dindirect != nullAddr) {
            scratchWalk.forget();
            const std::uint8_t *root =
                pointerBlock(scratchWalk.root, inode.dindirect);
            for (std::uint64_t ci = 0; ci < ptrs_per; ++ci) {
                if (pointerEntry(root, ci) == addr)
                    return {PtrRole::Ind2Child, ci};
            }
        }
        return {PtrRole::None, 0};
    };

    // Relocate one live pointer block to the log head: read once,
    // straight into its new slot.
    auto relocate_pointer = [&](DiskInode &inode, BlockAddr addr,
                                const PtrRoleResult &role) {
        ensureSpace();
        BlockKind kind = role.role == PtrRole::Ind1 ? BlockKind::Ind1
                         : role.role == PtrRole::Ind2Root
                             ? BlockKind::Ind2Root
                             : BlockKind::Ind2Child;
        const BlockAddr naddr = segw->append(kind, inode.ino,
                                             role.childIndex);
        readBlockAny(addr, segw->block(naddr));
        usageAdd(naddr, bs);
        usageSub(addr, bs);

        switch (role.role) {
          case PtrRole::Ind1:
            inode.indirect = naddr;
            break;
          case PtrRole::Ind2Root:
            inode.dindirect = naddr;
            break;
          case PtrRole::Ind2Child:
            // Update the root entry for this child.
            if (!segw->contains(inode.dindirect))
                ensureSpace();
            inode.dindirect = setPointer(BlockKind::Ind2Root, inode.ino, 0,
                                         inode.dindirect, role.childIndex,
                                         naddr);
            break;
          case PtrRole::None:
            sim::panic("relocate_pointer with no role");
        }
        markInodeDirty(inode.ino);
    };

    auto clean_segment = [&](std::uint64_t victim) -> std::uint64_t {
        const std::uint32_t summary_blocks =
            sb.summaryBlocksPerSegment();
        std::vector<std::uint8_t> summary(
            std::size_t(summary_blocks) * bs);
        dev.readRange(sb.segmentStartBlock(victim), summary_blocks,
                      {summary.data(), summary.size()});
        SummaryHeader hdr;
        std::memcpy(&hdr, summary.data(), sizeof(hdr));
        if (hdr.magic != summaryMagic ||
            hdr.count > sb.payloadBlocksPerSegment()) {
            // Stale usage for a never-properly-written segment.
            usage[victim] = Usage{};
            return 0;
        }

        std::uint64_t copied = 0;
        std::vector<std::uint8_t> content(bs);
        for (std::uint32_t i = 0; i < hdr.count; ++i) {
            const BlockAddr addr =
                sb.segmentStartBlock(victim) + summary_blocks + i;
            const SummaryEntry e =
                summaryEntry({summary.data(), summary.size()}, i);
            const auto kind = static_cast<BlockKind>(e.kind);

            if (kind == BlockKind::ImapChunk) {
                if (e.aux < imapChunkAddr.size() &&
                    imapChunkAddr[e.aux] == addr) {
                    imapChunkDirty[e.aux] = true; // flush relocates it
                    ++copied;
                }
                continue;
            }

            if (kind == BlockKind::InodeBlock) {
                dev.readRange(addr, 1, {content.data(), content.size()});
                const std::uint32_t per = sb.inodesPerBlock();
                for (std::uint32_t s = 0; s < per; ++s) {
                    DiskInode di;
                    std::memcpy(&di,
                                content.data() +
                                    std::size_t(s) * inodeBytes,
                                sizeof(di));
                    if (di.ino == nullIno || di.ino >= sb.maxInodes)
                        continue;
                    const ImapEntry &ie = imap[di.ino];
                    if (ie.blockAddr == addr && ie.slot == s &&
                        ie.gen == di.gen) {
                        // Live inode: pull into cache and mark dirty so
                        // flushInodes() relocates it.
                        getInode(di.ino);
                        markInodeDirty(di.ino);
                        ++copied;
                    }
                }
                continue;
            }

            // Data and pointer blocks: owned by an inode.
            if (e.ino == nullIno || e.ino >= sb.maxInodes ||
                !imap[e.ino].allocated()) {
                continue;
            }
            DiskInode &inode = getInode(e.ino);

            if (kind == BlockKind::Data) {
                if (getFileBlock(inode, e.aux) != addr)
                    continue;
                readBlockAny(addr, {content.data(), content.size()});
                writeFileBlock(inode, e.aux,
                               {content.data(), content.size()});
                markInodeDirty(e.ino);
                ++copied;
                continue;
            }

            // Pointer blocks: derive the true role from the inode
            // (summary kinds can be stale after partial truncates).
            const PtrRoleResult role = pointer_role(inode, addr);
            if (role.role == PtrRole::None)
                continue;
            relocate_pointer(inode, addr, role);
            ++copied;
        }

        // Persist relocated inodes/imap chunks, then the victim holds
        // nothing live.
        flushInodes();
        flushImap();
        usage[victim] = Usage{};
        return copied;
    };

    // Main loop: pick cost-benefit victims until the target is met.
    unsigned no_progress = 0;
    while (freeSegments() < target_free && no_progress < 2) {
        const double cap =
            static_cast<double>(sb.payloadBlocksPerSegment()) * bs;
        std::uint64_t best = sb.numSegments;
        double best_score = -1.0;
        for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
            if (segw->isOpen() && s == segw->currentSegment())
                continue;
            if (usage[s].liveBytes == 0 || usage[s].writeSeq == 0)
                continue;
            // Pinned segments hold snapshot data; cleaning one would
            // relocate blocks the snapshot still references.
            if (segPinCount[s] > 0)
                continue;
            const double u =
                std::min(1.0, usage[s].liveBytes / cap);
            const double age = static_cast<double>(
                nextSegSeq - usage[s].writeSeq);
            const double score = (1.0 - u) * age / (1.0 + u);
            if (score > best_score) {
                best_score = score;
                best = s;
            }
        }
        if (best == sb.numSegments)
            break; // nothing cleanable

        const std::uint64_t before = freeSegments();
        _stats.cleanerBlocksCopied += clean_segment(best);
        ++_stats.cleanerSegmentsCleaned;
        ++cleaned;
        no_progress = freeSegments() > before ? 0 : no_progress + 1;
    }

    return cleaned;
}

} // namespace raid2::lfs
