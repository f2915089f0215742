/**
 * @file
 * Functional RAID array: real bytes, real parity.
 *
 * This is the data plane of the reproduction: an in-memory array of
 * member disks with true XOR parity maintenance, mirrored writes,
 * degraded-mode reconstruction and on-line rebuild.  The timing plane
 * (SimArray) shares the same RaidLayout, so every timed experiment has
 * a functional twin whose correctness the tests assert.
 *
 * Member disks are sim::ByteStore buffers, which read zeros until
 * written, so an array costs only the bytes its writes store.  Work
 * over never-written ranges is skipped, not done on zeros: parity and
 * reconstruction fold only the survivors' written granules, and
 * rebuilding a range no survivor has written leaves the replacement
 * unwritten.
 *
 * Parity (levels 3/5) is stored only from storeParity() on, which the
 * first call that can destroy a data byte or hands out raw bytes makes:
 * failDisk(), injectLatent(), diskRange() and the mutable diskData().
 * It folds every stripe's parity from the still-intact data in one
 * pass; until then writes store data only, for parity serves only to
 * rebuild what a failure or defect destroys.  Mirrors (level 1) are
 * written with their data from the start.
 *
 * A failed disk's buffer stands for its replacement drive, which starts
 * empty.  Every write lands in it, but only the ranges rebuildRange()
 * has reconstructed are read from it; the rest of the disk is still
 * reconstructed from the survivors on every read.
 */

#ifndef RAID2_RAID_RAID_ARRAY_HH
#define RAID2_RAID_RAID_ARRAY_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "raid/interval_set.hh"
#include "raid/raid_layout.hh"
#include "sim/byte_store.hh"
#include "sim/stats.hh"

namespace raid2::raid {

/** In-memory functional disk array with parity. */
class RaidArray
{
  public:
    RaidArray(const LayoutConfig &cfg, std::uint64_t disk_bytes);

    const RaidLayout &layout() const { return _layout; }
    std::uint64_t capacity() const { return _layout.dataCapacity(); }
    unsigned numDisks() const { return _layout.numDisks(); }

    /** Write @p data at logical byte @p off, maintaining redundancy. */
    void write(std::uint64_t off, std::span<const std::uint8_t> data);

    /** Read into @p out from logical byte @p off; reconstructs data
     *  a failed disk's rebuild has not reached from the survivors. */
    void read(std::uint64_t off, std::span<std::uint8_t> out) const;

    /** Mark a disk failed: its contents are destroyed (after parity
     *  is stored from them), and its buffer, now the empty
     *  replacement, reads zeros. */
    void failDisk(unsigned d);

    /** One on-line rebuild step: reconstruct [off, off+bytes) of failed
     *  disk @p d from the survivors into its buffer and serve it from
     *  there from now on.  Bytes beyond the striped region, and bytes
     *  an earlier step rebuilt, are left alone. */
    void rebuildRange(unsigned d, std::uint64_t off, std::uint64_t bytes);

    /** Finish a failed disk's rebuild: reconstruct the ranges
     *  rebuildRange() did not, and bring the disk back online. */
    void rebuildDisk(unsigned d);

    bool isFailed(unsigned d) const { return failed.at(d); }
    unsigned failedCount() const;

    /** @{ Latent (unreadable) media errors.
     *
     * A latent range models a grown media defect: the stored bytes are
     * garbled in place, and reads route around them by reconstructing
     * from redundancy (parity for levels 3/5, the mirror for level 1).
     * The redundancy still encodes the original data, so reconstruction
     * recovers it exactly; repairLatent() writes it back and clears the
     * defect, which is what the scrubber does in bulk.
     *
     * Recoverability invariant (enforced with fatal errors, maintained
     * by fault::FaultController through SimArray): latent ranges on
     * different disks never overlap in disk-offset space, and no
     * latents exist while a disk is failed.  Either condition would
     * make the range unrecoverable — a data-loss event, which the
     * controller accounts for instead of injecting.
     */
    /** Garble @p bytes at disk offset @p off of disk @p d (after
     *  parity is stored from the intact bytes). */
    void injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** True if disk @p d has a latent range intersecting [off, off+bytes). */
    bool latentOverlaps(unsigned d, std::uint64_t off,
                        std::uint64_t bytes) const;
    /** Reconstruct the latent range from redundancy, write it back, and
     *  clear the defect. */
    void repairLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** Repair every outstanding latent range.  @return ranges repaired. */
    std::uint64_t scrub();
    /** Outstanding latent ranges across all disks. */
    std::uint64_t latentCount() const;
    const IntervalSet &latentIntervals(unsigned d) const
    {
        return latents.at(d);
    }
    /** @} */

    /** @{ Parity-work counters (levels 3/5).
     *
     * parity.recomputes counts every parity computation the array
     * performs — one per stripe whose parity is (re)generated, by
     * either path.  parity.fullStripeWrites is the subset served by
     * the single-pass full-stripe path (parity folded straight from
     * the caller's buffer, no pre-read).  Once parity is stored, a
     * full-segment LFS write should show recomputes == stripes
     * touched — anything higher is redundant parity work.
     * storeParity() counts one recompute per stripe; writes before it
     * count nothing. */
    const sim::Scalar &parityRecomputes() const
    {
        return _parityRecomputes;
    }
    const sim::Scalar &parityFullStripeWrites() const
    {
        return _parityFullStripes;
    }
    /** Register "<prefix>.parity.recomputes" /
     *  "<prefix>.parity.fullStripeWrites". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;
    /** Zero both counters. */
    void resetStats();
    /** @} */

    /** @{ Integrity-repair primitives (see src/integrity/).
     *
     * tryReconstructRange() is the array's one recovery routine: it
     * recovers what disk @p dead should hold at
     * [disk_off, disk_off+out.size()) from redundancy (the mirror for
     * level 1, the XOR of the survivors for levels 3/5) and reports
     * failure — RAID-0, parity not stored yet, a second failed disk, a
     * survivor latent range overlapping the request, or a range beyond
     * the parity-covered region — by returning false with @p out
     * untouched.  It never returns stale or partially reconstructed
     * bytes, and where no survivor has been written it returns zeros
     * without reading any.
     * Degraded reads call it directly, and latent repairs and rebuilds
     * through recoverInPlace(); both make a failure fatal.
     */
    bool tryReconstructRange(unsigned dead, std::uint64_t disk_off,
                             std::span<std::uint8_t> out) const;
    /** Patch verified bytes straight into disk @p d's buffer without
     *  touching parity (the parity already encodes @p data — this is
     *  the repair-writeback step, same shape as repairLatent). */
    void patchDiskRange(unsigned d, std::uint64_t off,
                        std::span<const std::uint8_t> data);
    /** Re-derive the redundancy covering [off, off+len) of disk @p d
     *  from (verified) data: recompute parity for stripes where @p d
     *  is the parity disk, or re-copy the mirror pair for level 1.
     *  Before parity is stored there is none to heal.
     *  @return false if the array is degraded (heal needs all disks). */
    bool healRedundancyRange(unsigned d, std::uint64_t off,
                             std::uint64_t len);
    /** @} */

    /** True if every stripe's stored parity equals the XOR of its data
     *  (and every mirror pair matches).  Levels 0 trivially true.
     *  Before storeParity() levels 3/5 hold data only, so written data
     *  makes this false: a check of parity upkeep stores it first. */
    bool redundancyConsistent() const;

    /** Levels 3/5: fold every stripe's parity from its data, once;
     *  from then on writes keep it in step.  The calls that destroy
     *  bytes or hand them out make it first; a caller that checks or
     *  prices parity upkeep on a fault-free array makes it up front. */
    void storeParity();

    /** Bytes per member disk. */
    std::uint64_t diskBytes() const { return _diskBytes; }

    /** @{ Raw member-disk bytes, for tests.  The first call zeroes
     *  the never-written rest of the disk; the mutable one stores
     *  parity first. */
    std::span<const std::uint8_t> diskData(unsigned d) const;
    std::span<std::uint8_t> diskData(unsigned d);
    /** @} */
    /** Raw bytes [off, off+bytes) of disk @p d, for fault injection
     *  (parity is stored first); only this range is zeroed where never
     *  written. */
    std::span<std::uint8_t> diskRange(unsigned d, std::uint64_t off,
                                      std::uint64_t bytes);
    /** True if nothing has been stored in the granules that
     *  [off, off+bytes) of disk @p d overlaps since the array was built
     *  or the disk failed: the range reads zeros (tests). */
    bool untouched(unsigned d, std::uint64_t off,
                   std::uint64_t bytes) const;

  private:
    void recomputeParity(std::uint64_t stripe);
    /** True if redundancy covers [off, off+bytes) of disk @p dead:
     *  every survivor it is folded from is online and has no latent
     *  range there (tryReconstructRange()'s vetting). */
    bool redundant(unsigned dead, std::uint64_t off,
                   std::uint64_t bytes) const;
    /** Fold [off, off+bytes) of disk @p dead from the disks that hold
     *  its redundancy, one granule at a time: fn(pos, srcs, k, n) gets
     *  the k of them written in [pos, pos+n) (a never-written one holds
     *  zeros, which fold to nothing). */
    template <typename Fn>
    void foldSurvivors(unsigned dead, std::uint64_t off,
                       std::uint64_t bytes, Fn &&fn) const;
    /** Store the XOR of @p srcs over [off, off+n) of disk @p d; with no
     *  sources a never-written range is left so. */
    void storeFold(unsigned d, std::uint64_t off,
                   const std::uint8_t *const *srcs, std::size_t k,
                   std::size_t n);
    /** Fatal: no redundancy is left for a range the recoverability
     *  invariant says cannot be lost. */
    [[noreturn]] void lost(unsigned d, std::uint64_t off,
                           std::uint64_t bytes) const;
    /** Reconstruct [off, off+bytes) of disk @p d into its own buffer
     *  (the sources exclude it); lost() if there is no redundancy. */
    void recoverInPlace(unsigned d, std::uint64_t off,
                        std::uint64_t bytes);
    /** The parts of [off, off+bytes) of disk @p d its buffer cannot
     *  vouch for: latent ranges, or for a failed disk what the rebuild
     *  has not reached. */
    std::vector<IntervalSet::Range> unreadable(unsigned d, std::uint64_t off,
                                               std::uint64_t bytes) const;
    /** Copy [off, off+out.size()) of disk @p d into @p out, routing
     *  unreadable subranges through reconstruction. */
    void readDiskRange(unsigned d, std::uint64_t off,
                       std::span<std::uint8_t> out) const;
    /** Make stripe @p s safe to recompute parity over: bring every
     *  data unit's buffer to its true content first. */
    void prepareStripeForUpdate(std::uint64_t s);
    /** Reconstruct the unreadable parts of [off, off+bytes) of disk
     *  @p d into its buffer, clearing the latent ranges among them.  A
     *  failed disk's parts stay unreadable: only rebuildRange() marks
     *  them rebuilt. */
    void recoverUnreadable(unsigned d, std::uint64_t off,
                           std::uint64_t bytes);

    RaidLayout _layout;
    std::uint64_t _diskBytes;
    std::vector<sim::ByteStore> disks;
    std::vector<bool> failed;
    /** Per-disk garbled ranges. */
    std::vector<IntervalSet> latents;
    /** Per failed disk, the ranges rebuildRange() has reconstructed. */
    std::vector<IntervalSet> rebuilt;
    /** storeParity() has run: writes keep parity in step. */
    bool parityStored = false;
    sim::Scalar _parityRecomputes;
    sim::Scalar _parityFullStripes;
};

} // namespace raid2::raid

#endif // RAID2_RAID_RAID_ARRAY_HH
