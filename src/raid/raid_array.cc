#include "raid/raid_array.hh"

#include <algorithm>
#include <memory>

#include "raid/parity.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::raid {

namespace {

constexpr std::uint64_t G = sim::ByteStore::granuleBytes;

} // namespace

RaidArray::RaidArray(const LayoutConfig &cfg, std::uint64_t disk_bytes)
    : _layout(cfg, disk_bytes), _diskBytes(disk_bytes),
      failed(cfg.numDisks, false), latents(cfg.numDisks),
      rebuilt(cfg.numDisks),
      placed(cfg.level == RaidLevel::Raid5 &&
             _layout.unitBytes() % G == 0)
{
    if (cfg.numDisks > kMaxFoldSources)
        sim::fatal("RaidArray: %u disks exceeds the %zu-way parity "
                   "fold limit",
                   cfg.numDisks, kMaxFoldSources);
    disks.reserve(cfg.numDisks);
    for (unsigned d = 0; d < cfg.numDisks; ++d)
        disks.emplace_back(static_cast<std::size_t>(disk_bytes));
}

unsigned
RaidArray::failedCount() const
{
    unsigned n = 0;
    for (bool f : failed)
        n += f ? 1 : 0;
    return n;
}

std::uint64_t
RaidArray::place(unsigned d, std::uint64_t off) const
{
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t stripes = _layout.numStripes();
    const std::uint64_t s = off / unit;
    if (!placed || s >= stripes)
        return off;
    // Disk d holds the parity of stripes s with s % n == n - 1 - d
    // (left-symmetric), (s + d) / n of them below s.
    const std::uint64_t n = _layout.numDisks();
    const std::uint64_t below = (s + d) / n;
    const std::uint64_t slot = (s + d + 1) % n == 0
                                   ? stripes - (stripes + d) / n + below
                                   : s - below;
    return slot * unit + off % unit;
}

std::uint64_t
RaidArray::runEnd(std::uint64_t off) const
{
    const std::uint64_t unit = _layout.unitBytes();
    if (!placed || off / unit >= _layout.numStripes())
        return _diskBytes;
    return (off / unit + 1) * unit;
}

template <typename Fn>
void
RaidArray::forEachRun(std::uint64_t off, std::uint64_t bytes, Fn &&fn) const
{
    for (std::uint64_t pos = off, end = off + bytes; pos < end;) {
        const std::uint64_t stop = std::min(end, runEnd(pos));
        fn(pos, static_cast<std::size_t>(stop - pos));
        pos = stop;
    }
}

void
RaidArray::inDiskOrder() const
{
    if (!placed)
        return;
    // A unit is whole granules, so moving granule by granule keeps
    // exactly the touched ones touched.
    const auto image = std::make_unique_for_overwrite<std::uint8_t[]>(
        static_cast<std::size_t>(_diskBytes));
    std::vector<std::uint64_t> kept;
    for (unsigned d = 0; d < disks.size(); ++d) {
        kept.clear();
        for (std::uint64_t off = 0; off < _diskBytes; off += G) {
            const std::size_t n =
                static_cast<std::size_t>(std::min(G, _diskBytes - off));
            const std::uint64_t at = place(d, off);
            if (disks[d].untouched(at, n))
                continue;
            disks[d].read(at, {image.get() + off, n});
            kept.push_back(off);
        }
        disks[d].forget();
        for (const std::uint64_t off : kept)
            disks[d].write(off, {image.get() + off,
                                 static_cast<std::size_t>(
                                     std::min(G, _diskBytes - off))});
    }
    placed = false;
}

std::span<const std::uint8_t>
RaidArray::diskData(unsigned d) const
{
    inDiskOrder();
    return disks.at(d).bytes();
}

std::span<std::uint8_t>
RaidArray::diskData(unsigned d)
{
    inDiskOrder();
    storeParity();
    return disks.at(d).bytes();
}

std::span<std::uint8_t>
RaidArray::diskRange(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (off + bytes > _diskBytes)
        sim::panic("diskRange: range [%llu, +%llu) beyond disk",
                   (unsigned long long)off, (unsigned long long)bytes);
    if (off + bytes > runEnd(off))
        inDiskOrder();
    storeParity();
    return disks.at(d).span(static_cast<std::size_t>(place(d, off)),
                            static_cast<std::size_t>(bytes));
}

bool
RaidArray::untouched(unsigned d, std::uint64_t off,
                     std::uint64_t bytes) const
{
    const sim::ByteStore &disk = disks.at(d);
    bool none = true;
    forEachRun(off, bytes, [&](std::uint64_t pos, std::size_t n) {
        none = none && disk.untouched(place(d, pos), n);
    });
    return none;
}

bool
RaidArray::redundant(unsigned dead, std::uint64_t off,
                     std::uint64_t bytes) const
{
    if (!redundancyStored || dead >= disks.size() ||
        off + bytes > _diskBytes)
        return false;
    auto usable = [&](unsigned d) {
        return !failed[d] && !latentOverlaps(d, off, bytes);
    };
    switch (_layout.level()) {
      case RaidLevel::Raid0:
        return false;
      case RaidLevel::Raid1:
        return usable(_layout.mirrorPartner(dead));
      default:
        // Levels 3/5: parity covers whole stripes.
        if (off + bytes > _layout.numStripes() * _layout.unitBytes())
            return false;
        for (unsigned d = 0; d < disks.size(); ++d)
            if (d != dead && !usable(d))
                return false;
        return true;
    }
}

template <typename Fn>
void
RaidArray::foldSurvivors(unsigned dead, std::uint64_t off,
                         std::uint64_t bytes, Fn &&fn) const
{
    const std::uint8_t *srcs[kMaxFoldSources];
    // A granule never crosses a run: placed units are whole granules.
    for (std::uint64_t pos = off; pos < off + bytes;) {
        const std::uint64_t stop = std::min(off + bytes, (pos / G + 1) * G);
        const std::size_t n = static_cast<std::size_t>(stop - pos);
        std::size_t k = 0;
        auto take = [&](unsigned d) {
            const std::uint64_t at = place(d, pos);
            if (!disks[d].untouched(at, n))
                srcs[k++] = disks[d].span(at, n).data();
        };
        if (_layout.level() == RaidLevel::Raid1) {
            take(_layout.mirrorPartner(dead));
        } else {
            for (unsigned d = 0; d < disks.size(); ++d)
                if (d != dead)
                    take(d);
        }
        fn(pos, srcs, k, n);
        pos = stop;
    }
}

void
RaidArray::storeFold(unsigned d, std::uint64_t off,
                     const std::uint8_t *const *srcs, std::size_t k,
                     std::size_t n)
{
    const std::uint64_t at = place(d, off);
    if (k == 0 && disks[d].untouched(at, n))
        return;
    xorFold(disks[d].overwriteSpan(at, n).data(), srcs, k, n);
}

void
RaidArray::recomputeParity(std::uint64_t stripe)
{
    // A stripe's parity unit is the fold of every other disk's unit at
    // the same offset; a failed disk's buffer counts, for
    // prepareStripeForUpdate() has brought it to its true content.
    const std::uint64_t unit = _layout.unitBytes();
    const unsigned pd = _layout.parityDisk(stripe);
    foldSurvivors(pd, stripe * unit, unit,
                  [&](std::uint64_t pos, const std::uint8_t *const *srcs,
                      std::size_t k, std::size_t n) {
                      storeFold(pd, pos, srcs, k, n);
                  });
    _parityRecomputes.inc();
}

void
RaidArray::storeParity()
{
    const RaidLevel level = _layout.level();
    if (redundancyStored || level == RaidLevel::Raid0)
        return;
    redundancyStored = true;
    // No disk has failed or holds a latent range yet (either would have
    // stored redundancy first), so everything folds from intact data.
    if (level == RaidLevel::Raid1) {
        // Each mirror takes its primary's written granules.
        for (unsigned m = numDisks() / 2; m < numDisks(); ++m)
            recoverInPlace(m, 0, _diskBytes);
        return;
    }
    for (std::uint64_t s = 0; s < _layout.numStripes(); ++s)
        recomputeParity(s);
}

void
RaidArray::write(std::uint64_t off, std::span<const std::uint8_t> data)
{
    if (data.empty())
        return;
    const RaidLevel level = _layout.level();
    // Until storeParity() has run, every level stores data only.
    const bool mirror = redundancyStored && level == RaidLevel::Raid1;
    const bool parity = redundancyStored && !mirror;
    const std::uint8_t *srcs[kMaxFoldSources];
    // A piece lies in one unit, so in one run.
    auto store = [this](unsigned d, std::uint64_t doff,
                        const std::uint8_t *src, std::uint64_t n) {
        disks[d].write(place(d, doff), {src, static_cast<std::size_t>(n)});
        // Overwriting a latent sector rewrites (remaps) it.
        latents[d].erase(doff, n);
    };

    for (const StripeSpan &s : _layout.mapStripes(off, data.size())) {
        // A partial stripe is brought to a known-good state first, so
        // the parity recompute re-encodes the bytes it does not touch.
        // Both partial updates store the same bytes; they differ only
        // in what the timed plan pre-reads.
        if (parity && s.update != StripeUpdate::Full)
            prepareStripeForUpdate(s.stripe);
        // New data lands in every buffer, a failed disk's included:
        // that buffer is the replacement drive, which must not go
        // stale behind the rebuild.
        _layout.forEachPiece(
            s.logicalOffset, s.bytes,
            [&](unsigned k, const DiskExtent &e) {
                srcs[k] = data.data() + (e.logicalOffset - off);
                store(e.disk, e.diskOffset, srcs[k], e.bytes);
                if (mirror)
                    store(_layout.mirrorDisk(e.disk), e.diskOffset,
                          srcs[k], e.bytes);
            });
        if (!parity)
            continue;
        if (s.update != StripeUpdate::Full) {
            recomputeParity(s.stripe);
            continue;
        }
        // Full stripe: parity is one k-way XOR fold straight from the
        // caller's buffer, with no pre-read of the old contents.
        const std::uint64_t unit = _layout.unitBytes();
        const std::uint64_t base = s.stripe * unit;
        const unsigned pd = _layout.parityDisk(s.stripe);
        storeFold(pd, base, srcs, _layout.dataUnitsPerStripe(),
                  static_cast<std::size_t>(unit));
        latents[pd].erase(base, unit);
        _parityRecomputes.inc();
        _parityFullStripes.inc();
    }
}

void
RaidArray::prepareStripeForUpdate(std::uint64_t s)
{
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t base = s * unit;
    // Parity is rewritten wholesale by recomputeParity, which heals
    // any latent defect there without reconstruction.
    latents[_layout.parityDisk(s)].erase(base, unit);
    // A failed disk's unit the rebuild has not reached is reconstructed
    // into its buffer too, so the parity recompute re-encodes the bytes
    // the write does not touch.  Without this, a degraded
    // partial-stripe write would fold the destroyed buffer into parity
    // and lose the untouched region of the unit.
    for (unsigned k = 0; k < _layout.dataUnitsPerStripe(); ++k)
        recoverUnreadable(_layout.dataDisk(s, k), base, unit);
}

bool
RaidArray::tryReconstructRange(unsigned dead, std::uint64_t disk_off,
                               std::span<std::uint8_t> out) const
{
    if (out.empty())
        return true;
    // Vet every survivor before touching out: a second failure or a
    // survivor latent range means the fold would produce garbage.
    if (!redundant(dead, disk_off, out.size()))
        return false;
    foldSurvivors(dead, disk_off, out.size(),
                  [&](std::uint64_t pos, const std::uint8_t *const *srcs,
                      std::size_t k, std::size_t n) {
                      xorFold(out.data() + (pos - disk_off), srcs, k, n);
                  });
    return true;
}

void
RaidArray::patchDiskRange(unsigned d, std::uint64_t off,
                          std::span<const std::uint8_t> data)
{
    if (d >= disks.size())
        sim::panic("patchDiskRange: bad disk %u", d);
    if (off + data.size() > _diskBytes)
        sim::panic("patchDiskRange: range [%llu, +%zu) beyond disk",
                   (unsigned long long)off, data.size());
    if (failed[d])
        sim::panic("patchDiskRange: disk %u is failed", d);
    if (data.empty())
        return;
    forEachRun(off, data.size(), [&](std::uint64_t pos, std::size_t n) {
        disks[d].write(place(d, pos), data.subspan(pos - off, n));
    });
    latents[d].erase(off, data.size());
}

bool
RaidArray::healRedundancyRange(unsigned d, std::uint64_t off,
                               std::uint64_t len)
{
    if (len == 0 || _layout.level() == RaidLevel::Raid0)
        return true;
    if (d >= disks.size() || failedCount() > 0)
        return false;
    const std::uint64_t end = std::min(off + len, _diskBytes);
    if (off >= end || !redundancyStored)
        return true;

    if (_layout.level() == RaidLevel::Raid1) {
        // The primary copy holds the verified data; re-copy it onto
        // the mirror half regardless of which side was scanned.
        const unsigned half = _layout.numDisks() / 2;
        const unsigned p = d < half ? d : d - half;
        const unsigned m = _layout.mirrorDisk(p);
        // Heal known-garbled primary bytes from the mirror first, or
        // the copy below would launder them into the good side.
        recoverUnreadable(p, off, end - off);
        recoverInPlace(m, off, end - off);
        latents[m].erase(off, end - off);
        return true;
    }

    // Levels 3/5: re-derive parity for every stripe in the range where
    // @p d holds the parity unit (data units were verified upstream).
    const std::uint64_t unit = _layout.unitBytes();
    const std::uint64_t covered = _layout.numStripes() * unit;
    for (std::uint64_t s = off / unit;
         s * unit < std::min(end, covered); ++s) {
        if (_layout.parityDisk(s) == d) {
            // Repairs data-unit latents (and drops the parity-unit
            // latent record) before the recompute folds raw bytes.
            prepareStripeForUpdate(s);
            recomputeParity(s);
        }
    }
    return true;
}

void
RaidArray::lost(unsigned d, std::uint64_t off, std::uint64_t bytes) const
{
    sim::fatal("RaidArray: range [%llu, +%llu) of disk %u is "
               "unrecoverable: %s has no usable redundancy there",
               (unsigned long long)off, (unsigned long long)bytes, d,
               raidLevelName(_layout.level()));
}

void
RaidArray::recoverInPlace(unsigned d, std::uint64_t off,
                          std::uint64_t bytes)
{
    if (!redundant(d, off, bytes))
        lost(d, off, bytes);
    foldSurvivors(d, off, bytes,
                  [&](std::uint64_t pos, const std::uint8_t *const *srcs,
                      std::size_t k, std::size_t n) {
                      storeFold(d, pos, srcs, k, n);
                  });
}

std::vector<IntervalSet::Range>
RaidArray::unreadable(unsigned d, std::uint64_t off,
                      std::uint64_t bytes) const
{
    // A failed disk has no latent ranges: failDisk drops them.
    return failed[d] ? rebuilt[d].gaps(off, bytes)
                     : latents[d].within(off, bytes);
}

void
RaidArray::readDiskRange(unsigned d, std::uint64_t off,
                         std::span<std::uint8_t> out) const
{
    // Readable bytes come off the disk; the rest from redundancy.
    std::uint64_t pos = off;
    auto copyUpTo = [&](std::uint64_t until) {
        forEachRun(pos, until - pos, [&](std::uint64_t at, std::size_t n) {
            disks[d].read(place(d, at), out.subspan(at - off, n));
        });
    };
    for (const auto &[s, len] : unreadable(d, off, out.size())) {
        copyUpTo(s);
        if (!tryReconstructRange(d, s, out.subspan(s - off, len)))
            lost(d, s, len);
        pos = s + len;
    }
    copyUpTo(off + out.size());
}

void
RaidArray::read(std::uint64_t off, std::span<std::uint8_t> out) const
{
    if (out.empty())
        return;
    _layout.forEachPiece(
        off, out.size(), [&](unsigned, const DiskExtent &e) {
            readDiskRange(e.disk, e.diskOffset,
                          {out.data() + (e.logicalOffset - off),
                           static_cast<std::size_t>(e.bytes)});
        });
}

void
RaidArray::failDisk(unsigned d)
{
    if (d >= disks.size())
        sim::panic("failDisk: bad disk %u", d);
    // Parity is folded from the disk before its bytes are lost.
    storeParity();
    failed[d] = true;
    // The whole disk is gone, and its latent defects with it.  Its
    // buffer, the replacement, starts empty and reads zeros; what the
    // rebuild has not reached is never read from it.
    disks[d].forget();
    latents[d].clear();
    rebuilt[d].clear();
}

void
RaidArray::injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= disks.size())
        sim::panic("injectLatent: bad disk %u", d);
    if (off + bytes > _diskBytes)
        sim::panic("injectLatent: range [%llu, +%llu) beyond disk",
                   (unsigned long long)off, (unsigned long long)bytes);
    if (bytes == 0 || failed[d])
        return;
    storeParity();

    // Garble in place with a position-based pattern (idempotent, so
    // re-injecting an overlapping range is harmless).  The redundancy
    // still encodes the original bytes; only this copy is damaged.
    forEachRun(off, bytes, [&](std::uint64_t pos, std::size_t n) {
        const std::span<std::uint8_t> media = disks[d].span(place(d, pos), n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t p = pos + i;
            media[i] = static_cast<std::uint8_t>(0xb5 ^ p ^ (p >> 8));
        }
    });

    latents[d].insert(off, bytes);
}

bool
RaidArray::latentOverlaps(unsigned d, std::uint64_t off,
                          std::uint64_t bytes) const
{
    return latents.at(d).overlaps(off, bytes);
}

void
RaidArray::repairLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= disks.size())
        sim::panic("repairLatent: bad disk %u", d);
    if (bytes == 0)
        return;
    if (failed[d])
        sim::panic("repairLatent: disk %u is failed", d);

    recoverInPlace(d, off, bytes);
    latents[d].erase(off, bytes);
}

void
RaidArray::recoverUnreadable(unsigned d, std::uint64_t off,
                             std::uint64_t bytes)
{
    for (const auto &[s, len] : unreadable(d, off, bytes)) {
        recoverInPlace(d, s, len);
        latents[d].erase(s, len);
    }
}

std::uint64_t
RaidArray::scrub()
{
    std::uint64_t repaired = 0;
    for (unsigned d = 0; d < disks.size(); ++d) {
        if (failed[d])
            continue;
        const auto todo = latents[d]; // copy: repairLatent mutates
        for (const auto &[s, len] : todo) {
            repairLatent(d, s, len);
            ++repaired;
        }
    }
    return repaired;
}

std::uint64_t
RaidArray::latentCount() const
{
    std::uint64_t n = 0;
    for (const auto &lm : latents)
        n += lm.size();
    return n;
}

void
RaidArray::rebuildRange(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    if (d >= disks.size() || !failed[d])
        sim::panic("rebuildRange: disk %u is not failed", d);
    // Parity covers whole stripes only; the tail beyond them holds no
    // data.
    const std::uint64_t end =
        std::min(off + bytes, _layout.numStripes() * _layout.unitBytes());
    if (off >= end)
        return;
    recoverUnreadable(d, off, end - off);
    rebuilt[d].insert(off, end - off);
}

void
RaidArray::rebuildDisk(unsigned d)
{
    if (d >= disks.size())
        sim::panic("rebuildDisk: bad disk %u", d);
    if (!failed[d])
        return;
    const std::uint64_t covered =
        _layout.numStripes() * _layout.unitBytes();
    // The tail beyond the stripes has read zeros since failDisk(): no
    // write reaches it.
    rebuildRange(d, 0, covered);
    failed[d] = false;
    rebuilt[d].clear();
}

bool
RaidArray::foldsToZero(std::span<const unsigned> set,
                       std::uint64_t bytes) const
{
    std::vector<std::uint8_t> acc(G);
    const std::uint8_t *srcs[kMaxFoldSources];
    for (std::uint64_t pos = 0; pos < bytes;) {
        const std::uint64_t stop = std::min(bytes, (pos / G + 1) * G);
        const std::size_t n = static_cast<std::size_t>(stop - pos);
        std::size_t k = 0;
        for (const unsigned d : set) {
            const std::uint64_t at = place(d, pos);
            if (!disks[d].untouched(at, n))
                srcs[k++] = disks[d].span(at, n).data();
        }
        xorFold(acc.data(), srcs, k, n);
        if (!allZero({acc.data(), n}))
            return false;
        pos = stop;
    }
    return true;
}

bool
RaidArray::redundancyConsistent() const
{
    const RaidLevel level = _layout.level();
    if (level == RaidLevel::Raid0)
        return true;
    if (failedCount() > 0)
        return false;

    if (level == RaidLevel::Raid1) {
        for (unsigned d = 0; d < numDisks() / 2; ++d) {
            const unsigned pair[] = {d, _layout.mirrorDisk(d)};
            if (!foldsToZero(pair, _diskBytes))
                return false;
        }
        return true;
    }
    std::vector<unsigned> all(numDisks());
    for (unsigned d = 0; d < numDisks(); ++d)
        all[d] = d;
    return foldsToZero(all, _layout.numStripes() * _layout.unitBytes());
}

void
RaidArray::registerStats(sim::StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.add(prefix + ".parity.recomputes", _parityRecomputes);
    reg.add(prefix + ".parity.fullStripeWrites", _parityFullStripes);
}

void
RaidArray::resetStats()
{
    _parityRecomputes.reset();
    _parityFullStripes.reset();
}

} // namespace raid2::raid
