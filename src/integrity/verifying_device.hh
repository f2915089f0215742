/**
 * @file
 * Verify-on-read block device with read-repair.
 *
 * Sits between the file system's device chain and the functional RAID
 * array: every write records a per-block checksum (ChecksumMap), every
 * read is verified against it, and a mismatch runs the repair ladder —
 *
 *   1. re-read the inner device (clears one-shot transfer corruption:
 *      the media copy was never wrong, only the bytes in flight);
 *   2. reconstruct the block from redundancy (mirror / parity XOR via
 *      raid::RaidArray::tryReconstructRange), verify the candidate
 *      against the expected checksum, and patch it back into the
 *      member-disk buffer (parity untouched — it already encodes the
 *      bytes the candidate was reconstructed from);
 *   3. neither works (degraded array, corrupt redundancy): the block
 *      is poisoned and verifiedReadRange() reports failure, which the
 *      server surfaces as Status::DataCorrupt — honest refusal, never
 *      silent wrong data.
 *
 * The device also hosts the transfer-corruption injection points:
 * armed one-shot bit flips applied to read buffers after the inner
 * read (SCSI/XBUS return path) or to one landed disk copy after a
 * write (outbound path), both bit-reproducible.
 */

#ifndef RAID2_INTEGRITY_VERIFYING_DEVICE_HH
#define RAID2_INTEGRITY_VERIFYING_DEVICE_HH

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "fs/block_device.hh"
#include "integrity/checksum_map.hh"
#include "raid/raid_array.hh"

namespace raid2::integrity {

/** Checksumming + verifying wrapper over the functional device. */
class VerifyingDevice : public fs::BlockDevice
{
  public:
    struct Config
    {
        /** Verify every read against the checksum map.  Off = detection
         *  disabled (the mutation self-test mode: corruption flows
         *  through untouched, and the test harness must notice). */
        bool verifyReads = true;
    };

    /** @p array enables the reconstruction step of the repair ladder
     *  (nullptr: only the re-read step is available). */
    VerifyingDevice(fs::BlockDevice &inner, raid::RaidArray *array,
                    const Config &cfg);
    VerifyingDevice(fs::BlockDevice &inner, raid::RaidArray *array);

    std::uint32_t blockSize() const override;
    std::uint64_t numBlocks() const override;
    void readRange(std::uint64_t bno, std::uint64_t count,
                   std::span<std::uint8_t> out) override;
    void writeRange(std::uint64_t bno, std::uint64_t count,
                    std::span<const std::uint8_t> data) override;
    void flush() override;

    /**
     * Read + verify + repair; @return false if any block in the range
     * is unrepairably corrupt (its bytes in @p out are then the best
     * available copy, but wrong — the caller must not serve them).
     * With Config::verifyReads off this is a plain read, always true.
     */
    bool verifiedReadRange(std::uint64_t bno, std::uint64_t count,
                           std::span<std::uint8_t> out);

    /** @{ One-shot transfer-corruption injection (FaultController). */
    void armReadCorruption(unsigned flips = 1) { _armedReadFlips += flips; }
    void armWriteCorruption(unsigned flips = 1)
    {
        _armedWriteFlips += flips;
    }
    /** @} */

    /** Verify @p count blocks from @p bno in place on the device (the
     *  scrub path: no caller buffer, repairs are committed to media). */
    struct ScrubSummary
    {
        std::uint64_t scanned = 0;
        std::uint64_t repaired = 0;
        std::uint64_t unrepairable = 0;
    };
    ScrubSummary scrubVerify(std::uint64_t bno, std::uint64_t count);

    const ChecksumMap &checksums() const { return map; }
    ChecksumMap &checksums() { return map; }

    /** @{ Counters. */
    std::uint64_t verifiedBlocks() const { return _verifiedBlocks; }
    std::uint64_t detected() const { return _detected; }
    std::uint64_t repairs() const { return _repairs; }
    std::uint64_t mediaRepairs() const { return _mediaRepairs; }
    std::uint64_t transferRepairs() const { return _transferRepairs; }
    std::uint64_t scrubRepairs() const { return _scrubRepairs; }
    std::uint64_t unrepairableReads() const { return _unrepairableReads; }
    std::uint64_t readFlipsApplied() const { return _readFlipsApplied; }
    std::uint64_t writeFlipsApplied() const { return _writeFlipsApplied; }
    std::size_t poisonedBlocks() const { return poisoned.size(); }
    bool isPoisoned(std::uint64_t bno) const
    {
        return poisoned.count(bno) != 0;
    }
    /** @} */

    /** Register "integrity.verified_blocks" etc. */
    void registerStats(sim::StatsRegistry &reg) const;

  private:
    /** Verify one block in @p blk (its read image, whose checksum is
     *  @p csum); detect, repair, poison.  @return true if @p blk now
     *  holds verified bytes. */
    bool verifyOneBlock(std::uint64_t bno, std::span<std::uint8_t> blk,
                        std::uint64_t csum);
    /** The repair ladder (steps 1 and 2 above). */
    bool repairBlock(std::uint64_t bno, std::span<std::uint8_t> blk);
    std::uint64_t nextFlipPos(std::uint64_t space);
    void applyArmedWriteFlip(std::uint64_t bno, std::uint64_t count);
    void applyArmedReadFlips(std::span<std::uint8_t> out);

    fs::BlockDevice &inner;
    raid::RaidArray *array;
    Config cfg;
    ChecksumMap map;
    std::unordered_set<std::uint64_t> poisoned;
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint64_t> readSums; // verifiedReadRange scratch

    unsigned _armedReadFlips = 0;
    unsigned _armedWriteFlips = 0;
    std::uint64_t _flipSalt = 0x9e3779b97f4a7c15ull;

    std::uint64_t _verifiedBlocks = 0;
    std::uint64_t _detected = 0;
    std::uint64_t _repairs = 0;
    std::uint64_t _mediaRepairs = 0;
    std::uint64_t _transferRepairs = 0;
    std::uint64_t _scrubRepairs = 0;
    std::uint64_t _unrepairableReads = 0;
    std::uint64_t _readFlipsApplied = 0;
    std::uint64_t _writeFlipsApplied = 0;
};

} // namespace raid2::integrity

#endif // RAID2_INTEGRITY_VERIFYING_DEVICE_HH
