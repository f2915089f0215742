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

    bool
    isParity() const
    {
        return logicalOffset == ~std::uint64_t(0);
    }
};

/** The slice of one stripe touched by a logical range. */
struct StripeSpan
{
    std::uint64_t stripe = 0;
    unsigned firstUnit = 0;       // first data unit index touched
    unsigned unitCount = 0;       // number of data units touched
    std::uint64_t offsetInUnit = 0; // byte offset within the first unit
    std::uint64_t bytes = 0;      // data bytes in this stripe
    std::uint64_t logicalOffset = 0;
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

    /** Stripe index containing logical byte @p off. */
    std::uint64_t stripeOf(std::uint64_t off) const;

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
     * Decompose [off, off+len) into per-disk data extents.  Level 3
     * spreads every range across all data disks at sector grain.
     *
     * With @p coalesce, physically contiguous runs on the same disk
     * merge into one extent — the left-symmetric layout makes
     * sequential ranges one command per disk.  Merged extents are
     * correct for *timing* but their bytes are logically strided, so
     * functional copies must use @p coalesce = false (each returned
     * extent then maps one logically contiguous piece).
     */
    std::vector<DiskExtent> mapRange(std::uint64_t off,
                                     std::uint64_t len,
                                     bool coalesce = true) const;

    /** Decompose [off, off+len) into per-stripe spans (Levels 0/1/5). */
    std::vector<StripeSpan> mapStripes(std::uint64_t off,
                                       std::uint64_t len) const;

    /**
     * Exact per-byte map for functional I/O: logical byte -> (disk,
     * disk byte).  Valid for all levels (Level 1 returns the primary).
     */
    void mapByte(std::uint64_t logical, unsigned &disk,
                 std::uint64_t &disk_byte) const;

  private:
    void checkRange(std::uint64_t off, std::uint64_t len) const;

    LayoutConfig cfg;
    std::uint64_t diskCapacity;
};

} // namespace raid2::raid

#endif // RAID2_RAID_RAID_LAYOUT_HH
