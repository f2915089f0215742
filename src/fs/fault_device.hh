/**
 * @file
 * Fault-injecting block device wrapper for crash-recovery testing.
 *
 * The LFS recovery tests need to "pull the plug" at an arbitrary point
 * in a write stream: after a configurable number of block writes the
 * device silently drops everything (as a losing-power disk does), and
 * the test then remounts from whatever made it to the media.  A
 * torn-write mode garbles the first post-limit block instead of
 * dropping it.
 */

#ifndef RAID2_FS_FAULT_DEVICE_HH
#define RAID2_FS_FAULT_DEVICE_HH

#include <cstdint>
#include <limits>

#include "fs/block_device.hh"

namespace raid2::fs {

/** Wrapper that kills writes after a set point. */
class FaultDevice : public BlockDevice
{
  public:
    explicit FaultDevice(BlockDevice &inner);

    std::uint32_t blockSize() const override
    {
        return inner.blockSize();
    }
    std::uint64_t numBlocks() const override
    {
        return inner.numBlocks();
    }

    void readRange(std::uint64_t bno, std::uint64_t count,
                   std::span<std::uint8_t> out) override;
    /** The write limit counts blocks, so a limit landing inside an
     *  extent crashes mid-extent: the leading blocks land, the rest
     *  drop (or the first dropped block tears).  An extent is checked
     *  before any of it lands or drops, crashed or not. */
    void writeRange(std::uint64_t bno, std::uint64_t count,
                    std::span<const std::uint8_t> data) override;
    void flush() override;

    /** Allow @p n more block writes, then drop everything ("crash"). */
    void setWriteLimit(std::uint64_t n) { limit = n; }

    /** If set, the first dropped block is instead written torn (half
     *  new data, half garbage). */
    void setTearOnCrash(bool tear) { tearOnCrash = tear; }

    /** Clear the fault: writes flow again (a "repaired" device).  All
     *  crash state resets so a healed device can be crashed again —
     *  the tear fires once per crash, not once per device lifetime. */
    void heal()
    {
        limit = std::numeric_limits<std::uint64_t>::max();
        tearDone = false;
        dropped = 0;
    }

    bool crashed() const { return limit == 0; }
    std::uint64_t droppedWrites() const { return dropped; }

    /** Record every write that reaches the inner device (including
     *  torn payloads, as written) plus completed flush barriers into
     *  @p log.  nullptr detaches. */
    void attachWriteLog(WriteLog *log) { wlog = log; }

  private:
    BlockDevice &inner;
    WriteLog *wlog = nullptr;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t dropped = 0;
    bool tearOnCrash = false;
    bool tearDone = false;
};

} // namespace raid2::fs

#endif // RAID2_FS_FAULT_DEVICE_HH
