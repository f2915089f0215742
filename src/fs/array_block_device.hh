/**
 * @file
 * Block device backed by a functional RAID array.
 *
 * Runs a file system on real RAID bytes (degraded reads work); every
 * Raid2Server with a file system keeps LFS on one, over the twin of its
 * timed array.  The server keeps the timing plane in step above this
 * device, through its HookBlockDevice.
 */

#ifndef RAID2_FS_ARRAY_BLOCK_DEVICE_HH
#define RAID2_FS_ARRAY_BLOCK_DEVICE_HH

#include <cstdint>

#include "fs/block_device.hh"
#include "raid/raid_array.hh"

namespace raid2::fs {

/** BlockDevice view of a raid::RaidArray. */
class ArrayBlockDevice : public BlockDevice
{
  public:
    /** @p max_blocks caps the exposed geometry (0 = the array's full
     *  data capacity); the array is usually stripe-rounded and callers
     *  may need the device to match an exact byte budget. */
    ArrayBlockDevice(raid::RaidArray &array, std::uint32_t block_size,
                     std::uint64_t max_blocks = 0);

    std::uint32_t blockSize() const override { return bs; }
    std::uint64_t numBlocks() const override { return blocks; }

    void readRange(std::uint64_t bno, std::uint64_t count,
                   std::span<std::uint8_t> out) override;
    void writeRange(std::uint64_t bno, std::uint64_t count,
                    std::span<const std::uint8_t> data) override;

    raid::RaidArray &array() { return _array; }

  private:
    raid::RaidArray &_array;
    std::uint32_t bs;
    std::uint64_t blocks;
};

} // namespace raid2::fs

#endif // RAID2_FS_ARRAY_BLOCK_DEVICE_HH
