#include "fs/array_block_device.hh"

namespace raid2::fs {

ArrayBlockDevice::ArrayBlockDevice(raid::RaidArray &array,
                                   std::uint32_t block_size,
                                   std::uint64_t max_blocks)
    : _array(array), bs(block_size),
      blocks(array.capacity() / block_size)
{
    if (max_blocks != 0 && max_blocks < blocks)
        blocks = max_blocks;
}

void
ArrayBlockDevice::readRange(std::uint64_t bno, std::uint64_t count,
                            std::span<std::uint8_t> out)
{
    if (count == 0)
        return;
    checkExtent(bno, count, out.size());
    noteRead(count);
    _array.read(bno * bs, out);
}

void
ArrayBlockDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                             std::span<const std::uint8_t> data)
{
    if (count == 0)
        return;
    checkExtent(bno, count, data.size());
    noteWrite(count);
    _array.write(bno * bs, data);
}

} // namespace raid2::fs
