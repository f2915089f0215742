/**
 * @file
 * RAID address mapping.
 *
 * Maps the array's logical byte space onto per-disk locations for the
 * RAID levels the paper discusses: Level 0 (striping only), Level 1
 * (mirrored pairs), Level 3 (fine-grain interleave with a dedicated
 * parity disk, as in HPDS, §4.2) and Level 5 (rotated block-interleaved
 * parity, the RAID-II configuration, §2.3).  Level 5 uses the
 * left-symmetric layout, which keeps sequential runs on each disk
 * contiguous.
 */

#ifndef RAID2_RAID_RAID_LAYOUT_HH
#define RAID2_RAID_RAID_LAYOUT_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace raid2::raid {

enum class RaidLevel { Raid0, Raid1, Raid3, Raid5 };

const char *raidLevelName(RaidLevel level);

/** Static array-geometry configuration. */
struct LayoutConfig
{
    RaidLevel level = RaidLevel::Raid5;
    unsigned numDisks = 0;
    /** Striping unit; ignored for Level 3 (sector interleave). */
    std::uint64_t stripeUnitBytes = 64 * 1024;
    /** Sector size used by Level 3 interleaving. */
    std::uint32_t sectorBytes = 512;
};

/** A contiguous range on one member disk. */
struct DiskExtent
{
    unsigned disk = 0;
    std::uint64_t diskOffset = 0;
    std::uint64_t bytes = 0;
    /** Logical byte this extent's first byte corresponds to (data
     *  extents only; parity extents use ~0). */
    std::uint64_t logicalOffset = ~std::uint64_t(0);
};

/** How a write updates the parity of one stripe it touches. */
enum class StripeUpdate
{
    /** Every data unit is rewritten: parity folds from the new data
     *  alone, with no pre-read. */
    Full,
    /** Pre-read the bytes the write replaces and the parity unit; new
     *  parity = old parity ^ old data ^ new data. */
    ReadModifyWrite,
    /** Pre-read the data units the write does not wholly rewrite; new
     *  parity folds from them and the new data. */
    ReconstructWrite,
};

/** The slice of one stripe touched by a logical range. */
struct StripeSpan
{
    std::uint64_t stripe = 0;
    std::uint64_t logicalOffset = 0;
    std::uint64_t bytes = 0; // data bytes in this stripe
    /** The parity update with the fewest pre-reads (Levels 0/1 have
     *  no parity and ignore it). */
    StripeUpdate update = StripeUpdate::Full;
};

/** Logical-to-physical mapping for one array geometry. */
class RaidLayout
{
  public:
    RaidLayout(const LayoutConfig &cfg, std::uint64_t disk_capacity_bytes);

    RaidLevel level() const { return cfg.level; }
    unsigned numDisks() const { return cfg.numDisks; }
    std::uint64_t unitBytes() const { return cfg.stripeUnitBytes; }

    /** Data units per stripe (excludes parity/mirror redundancy). */
    unsigned dataUnitsPerStripe() const;

    /** Data bytes per stripe. */
    std::uint64_t stripeDataBytes() const;

    /** Number of stripes the disk capacity provides. */
    std::uint64_t numStripes() const;

    /** Usable logical capacity in bytes. */
    std::uint64_t dataCapacity() const;

    /**
     * Disk holding parity for @p stripe (Levels 3 and 5 only;
     * left-symmetric rotation for Level 5).
     */
    unsigned parityDisk(std::uint64_t stripe) const;

    /** Disk holding data unit @p k of @p stripe. */
    unsigned dataDisk(std::uint64_t stripe, unsigned k) const;

    /** Mirror partner of a Level 1 primary disk. */
    unsigned mirrorDisk(unsigned primary) const;

    /** The other disk of @p d's Level 1 mirror pair, for a disk in
     *  either half of the array. */
    unsigned mirrorPartner(unsigned d) const;

    /** Extent of data unit @p k of @p stripe, restricted to
     *  [@p off_in_unit, @p off_in_unit + @p bytes). */
    DiskExtent dataExtent(std::uint64_t stripe, unsigned k,
                          std::uint64_t off_in_unit,
                          std::uint64_t bytes) const;

    /** Extent of the parity unit of @p stripe. */
    DiskExtent parityExtent(std::uint64_t stripe) const;

    /**
     * Walk [off, off+len) in logical order: fn(k, piece) for each part
     * of data unit k of one stripe that the range covers.  Exact to
     * the byte at every level (Level 3 stripes are sector rows, and
     * Level 1 yields the primary), so byte copies run over it.
     */
    template <typename Fn>
    void forEachPiece(std::uint64_t off, std::uint64_t len, Fn &&fn) const;

    /**
     * Decompose [off, off+len) into per-disk data extents for timing.
     * The walk's pieces merge into physically contiguous runs on each
     * disk: the left-symmetric layout makes a sequential range one
     * command per disk, though a merged extent's bytes are logically
     * strided.  Level 3 spreads every range across all data disks,
     * one extent of the sector rows touched per disk.
     */
    std::vector<DiskExtent> mapRange(std::uint64_t off,
                                     std::uint64_t len) const;

    /**
     * Decompose [off, off+len) into per-stripe spans, each with its
     * parity update: Full for a whole stripe, else read-modify-write
     * when its pre-reads (the touched units plus parity) are no more
     * than reconstruct-write's (the units not wholly rewritten).
     */
    std::vector<StripeSpan> mapStripes(std::uint64_t off,
                                       std::uint64_t len) const;

    /**
     * fn(s) for each disk @p dead is rebuilt from: none at Level 0, the
     * mirror partner at Level 1, and every other disk in ascending
     * order at Levels 3/5 (Thomasian, arXiv:1801.08873).  Every choice
     * of reconstruction sources, timed or functional, asks this.
     */
    template <typename Fn>
    void forEachSource(unsigned dead, Fn &&fn) const;

  private:
    void checkRange(std::uint64_t off, std::uint64_t len) const;

    LayoutConfig cfg;
    std::uint64_t diskCapacity;
};

template <typename Fn>
void
RaidLayout::forEachPiece(std::uint64_t off, std::uint64_t len,
                         Fn &&fn) const
{
    checkRange(off, len);
    const std::uint64_t unit = cfg.stripeUnitBytes;
    const std::uint64_t sdb = stripeDataBytes();
    for (std::uint64_t pos = off, end = off + len; pos < end;) {
        const std::uint64_t stripe = pos / sdb;
        const std::uint64_t in_stripe = pos % sdb;
        const unsigned k = static_cast<unsigned>(in_stripe / unit);
        const std::uint64_t in_unit = in_stripe % unit;
        const DiskExtent piece = dataExtent(
            stripe, k, in_unit, std::min(end - pos, unit - in_unit));
        fn(k, piece);
        pos += piece.bytes;
    }
}

template <typename Fn>
void
RaidLayout::forEachSource(unsigned dead, Fn &&fn) const
{
    switch (cfg.level) {
      case RaidLevel::Raid0:
        return;
      case RaidLevel::Raid1:
        fn(mirrorPartner(dead));
        return;
      default:
        for (unsigned d = 0; d < cfg.numDisks; ++d)
            if (d != dead)
                fn(d);
    }
}

} // namespace raid2::raid

#endif // RAID2_RAID_RAID_LAYOUT_HH
