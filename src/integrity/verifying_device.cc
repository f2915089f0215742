#include "integrity/verifying_device.hh"

#include <cstring>

#include "sim/stats_registry.hh"

namespace raid2::integrity {

VerifyingDevice::VerifyingDevice(fs::BlockDevice &inner_,
                                 raid::RaidArray *array_,
                                 const Config &cfg_)
    : inner(inner_), array(array_), cfg(cfg_),
      map(inner_.numBlocks(), inner_.blockSize()),
      scratch(inner_.blockSize())
{
    if (array && array->capacity() < inner.capacityBytes())
        sim::panic("VerifyingDevice: array smaller than inner device");
}

VerifyingDevice::VerifyingDevice(fs::BlockDevice &inner_,
                                 raid::RaidArray *array_)
    : VerifyingDevice(inner_, array_, Config{})
{
}

std::uint32_t
VerifyingDevice::blockSize() const
{
    return inner.blockSize();
}

std::uint64_t
VerifyingDevice::numBlocks() const
{
    return inner.numBlocks();
}

void
VerifyingDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                            std::span<const std::uint8_t> data)
{
    if (count == 0)
        return;
    checkExtent(bno, count, data.size());
    noteWrite(count);
    inner.writeRange(bno, count, data);

    // Checksums come from the *source* buffer — the writer's intent —
    // so a corrupted landing is detectable later.
    map.record(bno, data);
    if (!poisoned.empty()) {
        for (std::uint64_t i = 0; i < count; ++i)
            poisoned.erase(bno + i); // fresh data clears any poison
    }
    if (_armedWriteFlips > 0)
        applyArmedWriteFlip(bno, count);
}

void
VerifyingDevice::readRange(std::uint64_t bno, std::uint64_t count,
                           std::span<std::uint8_t> out)
{
    verifiedReadRange(bno, count, out);
}

bool
VerifyingDevice::verifiedReadRange(std::uint64_t bno, std::uint64_t count,
                                   std::span<std::uint8_t> out)
{
    if (count == 0)
        return true;
    checkExtent(bno, count, out.size());
    noteRead(count);
    inner.readRange(bno, count, out);
    if (_armedReadFlips > 0)
        applyArmedReadFlips(out);
    if (!cfg.verifyReads)
        return true;

    // Hash the whole extent in one pass; only blocks whose hash
    // mismatches go down the repair ladder.  Repairing block i
    // rewrites only block i's bytes, so the other hashes stay valid.
    const std::uint32_t bs = blockSize();
    readSums.resize(static_cast<std::size_t>(count));
    lfs::blockChecksums(out.data(), static_cast<std::size_t>(count), bs,
                        readSums.data());
    bool ok = true;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::span<std::uint8_t> blk =
            out.subspan(static_cast<std::size_t>(i) * bs, bs);
        if (!verifyOneBlock(bno + i, blk, readSums[i])) {
            ++_unrepairableReads;
            ok = false;
        }
    }
    return ok;
}

void
VerifyingDevice::flush()
{
    inner.flush();
}

bool
VerifyingDevice::verifyOneBlock(std::uint64_t bno,
                                std::span<std::uint8_t> blk,
                                std::uint64_t csum)
{
    ++_verifiedBlocks;
    if (map.matchesChecksum(bno, csum)) {
        poisoned.erase(bno);
        return true;
    }
    ++_detected;
    if (repairBlock(bno, blk)) {
        ++_repairs;
        poisoned.erase(bno);
        return true;
    }
    poisoned.insert(bno);
    return false;
}

bool
VerifyingDevice::repairBlock(std::uint64_t bno,
                             std::span<std::uint8_t> blk)
{
    const std::uint32_t bs = blockSize();

    // Step 1: re-read.  Transfer corruption damaged the bytes in
    // flight, not the media copy — a second read comes back clean.
    inner.readRange(bno, 1, {scratch.data(), bs});
    if (map.matches(bno, {scratch.data(), bs})) {
        std::memcpy(blk.data(), scratch.data(), bs);
        ++_transferRepairs;
        return true;
    }

    // Step 2: the media copy itself is wrong — rebuild from
    // redundancy under the single-corrupt-disk model.  A block that
    // spans several member disks (RAID-3: the stripe unit is smaller
    // than a file-system block) cannot simply reconstruct *every*
    // piece: rebuilding a clean sibling folds the corrupt disk's
    // bytes right back in.  Instead, suspect each member disk in
    // turn: start from the media image, reconstruct only that disk's
    // pieces from the others, and keep the first candidate the
    // checksum vouches for.
    if (!array)
        return false;
    const std::uint64_t base = bno * bs;
    std::vector<raid::DiskExtent> pieces;
    array->layout().forEachPiece(
        base, bs, [&](unsigned, const raid::DiskExtent &e) {
            pieces.push_back(e);
        });
    // The candidate bytes a piece of the block occupies.
    std::vector<std::uint8_t> cand(bs);
    auto candBytes = [&](const raid::DiskExtent &e) {
        return std::span<std::uint8_t>{
            cand.data() + (e.logicalOffset - base),
            static_cast<std::size_t>(e.bytes)};
    };
    std::vector<bool> tried(array->numDisks(), false);
    unsigned suspect = 0;
    bool repaired = false;
    for (const raid::DiskExtent &lead : pieces) {
        if (tried[lead.disk])
            continue; // each disk suspected once
        tried[lead.disk] = true;
        std::memcpy(cand.data(), scratch.data(), bs);
        bool reconstructed = true;
        for (const raid::DiskExtent &e : pieces) {
            if (e.disk == lead.disk &&
                !array->tryReconstructRange(e.disk, e.diskOffset,
                                            candBytes(e)))
                reconstructed = false;
        }
        if (reconstructed && map.matches(bno, {cand.data(), bs})) {
            suspect = lead.disk;
            repaired = true;
            break;
        }
    }
    if (!repaired)
        return false;

    // Commit: patch the suspect disk's buffer directly.  Parity is
    // NOT recomputed — it already encodes the bytes the candidate was
    // reconstructed from; folding the corrupt copy into a parity
    // update is exactly the laundering this layer exists to prevent.
    for (const raid::DiskExtent &e : pieces)
        if (e.disk == suspect)
            array->patchDiskRange(e.disk, e.diskOffset, candBytes(e));
    inner.readRange(bno, 1, {scratch.data(), bs});
    if (!map.matches(bno, {scratch.data(), bs}))
        return false;
    std::memcpy(blk.data(), scratch.data(), bs);
    ++_mediaRepairs;
    return true;
}

VerifyingDevice::ScrubSummary
VerifyingDevice::scrubVerify(std::uint64_t bno, std::uint64_t count)
{
    ScrubSummary s;
    const std::uint32_t bs = blockSize();
    std::vector<std::uint8_t> blk(bs);
    for (std::uint64_t i = 0; i < count && bno + i < numBlocks(); ++i) {
        const std::uint64_t b = bno + i;
        ++s.scanned;
        inner.readRange(b, 1, {blk.data(), bs});
        ++_verifiedBlocks;
        if (map.matches(b, {blk.data(), bs})) {
            poisoned.erase(b);
            continue;
        }
        ++_detected;
        if (repairBlock(b, {blk.data(), bs})) {
            ++_repairs;
            ++_scrubRepairs;
            ++s.repaired;
            poisoned.erase(b);
        } else {
            poisoned.insert(b);
            ++s.unrepairable;
        }
    }
    return s;
}

std::uint64_t
VerifyingDevice::nextFlipPos(std::uint64_t space)
{
    _flipSalt = _flipSalt * 6364136223846793005ull +
                1442695040888963407ull;
    return space ? _flipSalt % space : 0;
}

void
VerifyingDevice::applyArmedWriteFlip(std::uint64_t bno,
                                     std::uint64_t count)
{
    // Corrupt one landed disk copy, post-parity: the redundancy still
    // encodes the writer's bytes, so the flip is reconstructible.
    if (!array) {
        --_armedWriteFlips;
        return;
    }
    const std::uint64_t span_bytes = count * std::uint64_t(blockSize());
    const std::uint64_t abs =
        bno * std::uint64_t(blockSize()) + nextFlipPos(span_bytes);
    array->layout().forEachPiece(
        abs, 1, [&](unsigned, const raid::DiskExtent &e) {
            if (!array->media().failed(e.disk)) {
                array->corrupt(e.disk, e.diskOffset, 1, 0x4a);
                ++_writeFlipsApplied;
            }
        });
    --_armedWriteFlips;
}

void
VerifyingDevice::applyArmedReadFlips(std::span<std::uint8_t> out)
{
    while (_armedReadFlips > 0) {
        out[static_cast<std::size_t>(nextFlipPos(out.size()))] ^= 0x10;
        ++_readFlipsApplied;
        --_armedReadFlips;
    }
}

void
VerifyingDevice::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("integrity.verified_blocks", _verifiedBlocks);
    reg.add("integrity.detected", _detected);
    reg.add("integrity.repairs", _repairs);
    reg.add("integrity.repairs_media", _mediaRepairs);
    reg.add("integrity.repairs_transfer", _transferRepairs);
    reg.add("integrity.repairs_scrub", _scrubRepairs);
    reg.add("integrity.unrepairable_reads", _unrepairableReads);
    reg.add("integrity.transfer_read_flips", _readFlipsApplied);
    reg.add("integrity.transfer_write_flips", _writeFlipsApplied);
    reg.addGauge("integrity.poisoned_blocks", [this] {
        return static_cast<double>(poisoned.size());
    });
    reg.add("integrity.checksums_known", map.knownCount());
}

} // namespace raid2::integrity
