#include "raid/raid_layout.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace raid2::raid {

const char *
raidLevelName(RaidLevel level)
{
    switch (level) {
      case RaidLevel::Raid0: return "RAID-0";
      case RaidLevel::Raid1: return "RAID-1";
      case RaidLevel::Raid3: return "RAID-3";
      case RaidLevel::Raid5: return "RAID-5";
    }
    return "RAID-?";
}

RaidLayout::RaidLayout(const LayoutConfig &cfg_,
                       std::uint64_t disk_capacity_bytes)
    : cfg(cfg_), diskCapacity(disk_capacity_bytes)
{
    if (cfg.numDisks < 2)
        sim::fatal("RaidLayout: need at least 2 disks");
    if (cfg.level == RaidLevel::Raid1 && cfg.numDisks % 2 != 0)
        sim::fatal("RaidLayout: RAID-1 needs an even disk count");
    if (cfg.stripeUnitBytes == 0)
        sim::fatal("RaidLayout: zero stripe unit");
    if (cfg.level == RaidLevel::Raid3) {
        // Level 3 interleaves at sector grain.
        cfg.stripeUnitBytes = cfg.sectorBytes;
    }
    if (diskCapacity < cfg.stripeUnitBytes)
        sim::fatal("RaidLayout: disk smaller than one stripe unit");
}

unsigned
RaidLayout::dataUnitsPerStripe() const
{
    switch (cfg.level) {
      case RaidLevel::Raid0: return cfg.numDisks;
      case RaidLevel::Raid1: return cfg.numDisks / 2;
      case RaidLevel::Raid3: return cfg.numDisks - 1;
      case RaidLevel::Raid5: return cfg.numDisks - 1;
    }
    return 0;
}

std::uint64_t
RaidLayout::stripeDataBytes() const
{
    return std::uint64_t(dataUnitsPerStripe()) * cfg.stripeUnitBytes;
}

std::uint64_t
RaidLayout::numStripes() const
{
    return diskCapacity / cfg.stripeUnitBytes;
}

std::uint64_t
RaidLayout::dataCapacity() const
{
    return numStripes() * stripeDataBytes();
}

unsigned
RaidLayout::parityDisk(std::uint64_t stripe) const
{
    switch (cfg.level) {
      case RaidLevel::Raid3:
        return cfg.numDisks - 1;
      case RaidLevel::Raid5:
        // Left-symmetric rotation.
        return cfg.numDisks - 1 -
               static_cast<unsigned>(stripe % cfg.numDisks);
      default:
        sim::panic("parityDisk on %s", raidLevelName(cfg.level));
    }
}

unsigned
RaidLayout::dataDisk(std::uint64_t stripe, unsigned k) const
{
    if (k >= dataUnitsPerStripe())
        sim::panic("dataDisk: unit %u out of range", k);
    switch (cfg.level) {
      case RaidLevel::Raid0:
        return k;
      case RaidLevel::Raid1:
        return k;                       // primaries are disks [0, N/2)
      case RaidLevel::Raid3:
        return k;                       // data disks [0, N-1)
      case RaidLevel::Raid5:
        return (parityDisk(stripe) + 1 + k) % cfg.numDisks;
    }
    return 0;
}

unsigned
RaidLayout::mirrorDisk(unsigned primary) const
{
    if (cfg.level != RaidLevel::Raid1)
        sim::panic("mirrorDisk on %s", raidLevelName(cfg.level));
    return primary + cfg.numDisks / 2;
}

unsigned
RaidLayout::mirrorPartner(unsigned d) const
{
    const unsigned half = cfg.numDisks / 2;
    return d < half ? mirrorDisk(d) : d - half;
}

DiskExtent
RaidLayout::dataExtent(std::uint64_t stripe, unsigned k,
                       std::uint64_t off_in_unit, std::uint64_t bytes) const
{
    if (off_in_unit + bytes > cfg.stripeUnitBytes)
        sim::panic("dataExtent: slice exceeds unit");
    DiskExtent e;
    e.disk = dataDisk(stripe, k);
    e.diskOffset = stripe * cfg.stripeUnitBytes + off_in_unit;
    e.bytes = bytes;
    e.logicalOffset = stripe * stripeDataBytes() +
                      std::uint64_t(k) * cfg.stripeUnitBytes + off_in_unit;
    return e;
}

DiskExtent
RaidLayout::parityExtent(std::uint64_t stripe) const
{
    DiskExtent e;
    e.disk = parityDisk(stripe);
    e.diskOffset = stripe * cfg.stripeUnitBytes;
    e.bytes = cfg.stripeUnitBytes;
    return e;
}

void
RaidLayout::checkRange(std::uint64_t off, std::uint64_t len) const
{
    if (len == 0)
        sim::panic("RaidLayout: zero-length range");
    if (off + len > dataCapacity())
        sim::panic("RaidLayout: range [%llu, +%llu) beyond capacity %llu",
                   (unsigned long long)off, (unsigned long long)len,
                   (unsigned long long)dataCapacity());
}

std::vector<StripeSpan>
RaidLayout::mapStripes(std::uint64_t off, std::uint64_t len) const
{
    checkRange(off, len);

    std::vector<StripeSpan> spans;
    const std::uint64_t unit = cfg.stripeUnitBytes;
    const std::uint64_t sdb = stripeDataBytes();
    const std::uint64_t data_units = dataUnitsPerStripe();
    for (std::uint64_t pos = off, end = off + len; pos < end;) {
        // The span covers [a, b) of its stripe's data bytes.
        const std::uint64_t a = pos % sdb;
        const std::uint64_t b = std::min(a + (end - pos), sdb);
        StripeSpan s;
        s.stripe = pos / sdb;
        s.logicalOffset = pos;
        s.bytes = b - a;
        if (s.bytes < sdb) {
            // Read-modify-write pre-reads the touched units and the
            // parity unit; reconstruct-write pre-reads the units not
            // wholly rewritten.  A tie goes to read-modify-write.
            const std::uint64_t touched = (b + unit - 1) / unit - a / unit;
            const std::uint64_t first_whole = (a + unit - 1) / unit;
            const std::uint64_t whole =
                b / unit > first_whole ? b / unit - first_whole : 0;
            s.update = touched + 1 <= data_units - whole
                           ? StripeUpdate::ReadModifyWrite
                           : StripeUpdate::ReconstructWrite;
        }
        spans.push_back(s);
        pos += s.bytes;
    }
    return spans;
}

std::vector<DiskExtent>
RaidLayout::mapRange(std::uint64_t off, std::uint64_t len) const
{
    checkRange(off, len);

    std::vector<DiskExtent> extents;
    if (cfg.level == RaidLevel::Raid3) {
        // Every range spreads over all data disks at sector grain; for
        // timing purposes each data disk sees one contiguous extent of
        // the rows touched.
        const unsigned data_disks = cfg.numDisks - 1;
        const std::uint64_t sector = cfg.sectorBytes;
        const std::uint64_t row_bytes = sector * data_disks;
        const std::uint64_t row0 = off / row_bytes;
        const std::uint64_t row1 = (off + len - 1) / row_bytes;
        const std::uint64_t rows = row1 - row0 + 1;
        for (unsigned d = 0; d < data_disks; ++d) {
            DiskExtent e;
            e.disk = d;
            e.diskOffset = row0 * sector;
            e.bytes = rows * sector;
            e.logicalOffset = off; // representative only
            extents.push_back(e);
        }
        return extents;
    }

    forEachPiece(off, len, [&](unsigned, const DiskExtent &e) {
        for (DiskExtent &prev : extents) {
            if (prev.disk == e.disk &&
                prev.diskOffset + prev.bytes == e.diskOffset) {
                prev.bytes += e.bytes;
                return;
            }
        }
        extents.push_back(e);
    });
    return extents;
}

} // namespace raid2::raid
