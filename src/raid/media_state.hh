/**
 * @file
 * The media state of an array's member disks, one record for both RAID
 * planes.  The timed SimArray owns it; a functional RaidArray works on
 * its own or, as the twin, on the SimArray's.  Each change is applied
 * once: by the twin, in the call that does its byte work, or by the
 * SimArray alone when it has no twin.
 *
 * A latent leaves the record only when it is repaired or its disk
 * fails; reads route around it until then, even after a write over it.
 */

#ifndef RAID2_RAID_MEDIA_STATE_HH
#define RAID2_RAID_MEDIA_STATE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "raid/interval_set.hh"
#include "raid/raid_layout.hh"

namespace raid2::raid {

/** Failed disks, rebuild progress and latent defects of one array. */
class MediaState
{
  public:
    /** One member disk's record. */
    struct Disk
    {
        bool failed = false;
        /** While failed, the ranges its rebuild has written. */
        IntervalSet rebuilt;
        /** Latent defects; none while failed. */
        IntervalSet latents;
    };

    /** Only @p layout's level and disk count are kept. */
    explicit MediaState(const RaidLayout &layout)
        : layout(layout), disks(layout.numDisks())
    {
    }

    unsigned numDisks() const { return static_cast<unsigned>(disks.size()); }
    const Disk &disk(unsigned d) const { return disks.at(d); }
    bool failed(unsigned d) const { return disk(d).failed; }
    bool
    degraded() const
    {
        return std::any_of(disks.begin(), disks.end(),
                           [](const Disk &m) { return m.failed; });
    }
    /** Is every byte of [off, off+bytes) of disk @p d live: its disk
     *  healthy, or written by the rebuild? */
    bool
    live(unsigned d, std::uint64_t off, std::uint64_t bytes) const
    {
        return !failed(d) || disks[d].rebuilt.contains(off, bytes);
    }
    bool
    hasLatent(unsigned d, std::uint64_t off, std::uint64_t bytes) const
    {
        return disk(d).latents.overlaps(off, bytes);
    }
    /** The parts of [off, off+bytes) of disk @p d its media cannot
     *  vouch for: the latent parts of a healthy disk, or the parts of a
     *  failed one its rebuild has not reached. */
    std::vector<IntervalSet::Range>
    unreadable(unsigned d, std::uint64_t off, std::uint64_t bytes) const
    {
        const Disk &m = disk(d);
        return m.failed ? m.rebuilt.gaps(off, bytes)
                        : m.latents.within(off, bytes);
    }
    /** Outstanding latent ranges, and bytes, on all disks. */
    std::uint64_t
    latentRanges() const
    {
        std::uint64_t n = 0;
        for (const Disk &m : disks)
            n += m.latents.size();
        return n;
    }
    std::uint64_t
    latentBytes() const
    {
        std::uint64_t n = 0;
        for (const Disk &m : disks)
            n += m.latents.bytes();
        return n;
    }

    /** The disks @p d is rebuilt from (RaidLayout::forEachSource): how
     *  many there are (none at RAID-0), whether one has failed, and
     *  whether one holds a latent overlapping [off, off+bytes). */
    struct Sources
    {
        unsigned count = 0;
        bool failed = false;
        bool latent = false;
    };
    Sources
    sources(unsigned d, std::uint64_t off, std::uint64_t bytes) const
    {
        Sources s;
        layout.forEachSource(d, [&](unsigned o) {
            ++s.count;
            s.failed = s.failed || disks[o].failed;
            s.latent = s.latent || disks[o].latents.overlaps(off, bytes);
        });
        return s;
    }

    /** @{ Changes.  A failed disk loses its latents and its rebuild
     *  progress, and grows no defect until it is restored. */
    void fail(unsigned d) { disks.at(d) = Disk{true, {}, {}}; }
    void
    markRebuilt(unsigned d, std::uint64_t off, std::uint64_t bytes)
    {
        disks.at(d).rebuilt.insert(off, bytes);
    }
    void restore(unsigned d) { disks.at(d) = Disk{}; }
    void
    addLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
    {
        if (!failed(d))
            disks[d].latents.insert(off, bytes);
    }
    /** A repair rewrote [off, off+bytes) of disk @p d.  @return the
     *  latent ranges it touched. */
    std::uint64_t
    repaired(unsigned d, std::uint64_t off, std::uint64_t bytes)
    {
        return disks.at(d).latents.erase(off, bytes);
    }
    /** @} */

  private:
    const RaidLayout layout;
    std::vector<Disk> disks;
};

} // namespace raid2::raid

#endif // RAID2_RAID_MEDIA_STATE_HH
