/**
 * @file
 * In-memory block device: a plain device for functional tests, the
 * crash checker and the LFS tools.
 *
 * Its bytes are one sim::ByteStore, so a new device reads all zeros
 * without being zeroed: reads of never-written blocks return zeros, and
 * a write zeroes only what it leaves of a 64 KB granule it is the first
 * to touch.  A segment write of whole granules writes no zeros at all.
 */

#ifndef RAID2_FS_MEM_BLOCK_DEVICE_HH
#define RAID2_FS_MEM_BLOCK_DEVICE_HH

#include <cstdint>

#include "fs/block_device.hh"
#include "sim/byte_store.hh"

namespace raid2::fs {

/** RAM-backed block device; its bytes come from a sim::ByteStore. */
class MemBlockDevice : public BlockDevice
{
  public:
    MemBlockDevice(std::uint32_t block_size, std::uint64_t num_blocks);

    std::uint32_t blockSize() const override { return bs; }
    std::uint64_t numBlocks() const override { return blocks; }

    void readRange(std::uint64_t bno, std::uint64_t count,
                   std::span<std::uint8_t> out) override;
    void writeRange(std::uint64_t bno, std::uint64_t count,
                    std::span<const std::uint8_t> data) override;

    /** Direct access for tests (e.g. corrupting a block); zeroes the
     *  block's granule first if nothing has touched it. */
    std::span<std::uint8_t> raw(std::uint64_t bno);

  private:
    std::uint32_t bs;
    std::uint64_t blocks;
    sim::ByteStore data;
};

} // namespace raid2::fs

#endif // RAID2_FS_MEM_BLOCK_DEVICE_HH
