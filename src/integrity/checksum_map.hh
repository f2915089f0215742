/**
 * @file
 * Per-block content checksums for the functional data plane.
 *
 * RAID parity protects against *reported* failures; a silently flipped
 * bit on media or on a transfer is invisible to it.  The ChecksumMap
 * closes that gap: every block written through the functional device
 * chain records a 64-bit lfs::blockChecksum (XXH64) of its contents,
 * and verify-on-read (integrity::VerifyingDevice) compares what came
 * back against what was written.  The same checksum is persisted in
 * each segment summary's SummaryEntry::csum (since format v2; XXH64
 * since v4), so the map can be re-seeded from the log after a crash
 * (lfs::Lfs::forEachLoggedBlock).
 *
 * Blocks never written have no expectation and verify trivially — the
 * map answers "does this match what the server last wrote", not "is
 * this byte pattern plausible".
 */

#ifndef RAID2_INTEGRITY_CHECKSUM_MAP_HH
#define RAID2_INTEGRITY_CHECKSUM_MAP_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "lfs/format.hh"
#include "sim/logging.hh"

namespace raid2::integrity {

/** Block number -> expected content checksum (lfs::blockChecksum). */
class ChecksumMap
{
  public:
    ChecksumMap(std::uint64_t num_blocks, std::uint32_t block_size)
        : bs(block_size), sums(num_blocks, 0), isKnown(num_blocks, false)
    {
    }

    std::uint32_t blockSize() const { return bs; }
    std::uint64_t numBlocks() const { return sums.size(); }

    /**
     * Record the checksums of freshly written blocks: @p blocks holds
     * whole blocks for @p bno, @p bno + 1, ..., hashed in one
     * lfs::blockChecksums pass straight into the map.
     */
    void
    record(std::uint64_t bno, std::span<const std::uint8_t> blocks)
    {
        if (blocks.empty() || blocks.size() % bs != 0)
            sim::panic("ChecksumMap: bad extent size %zu", blocks.size());
        const std::uint64_t n = blocks.size() / bs;
        if (bno > sums.size() || n > sums.size() - bno)
            sim::panic("ChecksumMap: block %llu out of range",
                       (unsigned long long)bno);
        lfs::blockChecksums(blocks.data(), n, bs, sums.data() + bno);
        for (std::uint64_t b = bno; b < bno + n; ++b)
            markKnown(b);
    }

    /** Install a known-good checksum directly (log re-seeding). */
    void
    set(std::uint64_t bno, std::uint64_t csum)
    {
        if (bno >= sums.size())
            sim::panic("ChecksumMap: block %llu out of range",
                       (unsigned long long)bno);
        markKnown(bno);
        sums[bno] = csum;
    }

    bool
    known(std::uint64_t bno) const
    {
        return bno < isKnown.size() && isKnown[bno];
    }

    /** @pre known(bno) */
    std::uint64_t
    expected(std::uint64_t bno) const
    {
        return sums.at(bno);
    }

    /** True if @p block matches the expectation (or none exists). */
    bool
    matches(std::uint64_t bno, std::span<const std::uint8_t> block) const
    {
        return matchesChecksum(bno, lfs::blockChecksum(block));
    }

    /** matches() for a block whose checksum @p csum the caller has. */
    bool
    matchesChecksum(std::uint64_t bno, std::uint64_t csum) const
    {
        return !known(bno) || csum == sums[bno];
    }

    /** Blocks with a recorded expectation (by reference: the
     *  verifying device registers it as "integrity.checksums_known"). */
    const std::uint64_t &knownCount() const { return _known; }

    /** Forget every expectation (a remount re-seeds from the log). */
    void
    reset()
    {
        std::fill(isKnown.begin(), isKnown.end(), false);
        _known = 0;
    }

  private:
    void
    markKnown(std::uint64_t bno)
    {
        if (!isKnown[bno]) {
            isKnown[bno] = true;
            ++_known;
        }
    }

    std::uint32_t bs;
    std::vector<std::uint64_t> sums;
    std::vector<bool> isKnown;
    std::uint64_t _known = 0;
};

} // namespace raid2::integrity

#endif // RAID2_INTEGRITY_CHECKSUM_MAP_HH
