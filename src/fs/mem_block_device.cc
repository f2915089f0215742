#include "fs/mem_block_device.hh"

#include <cstring>

namespace raid2::fs {

MemBlockDevice::MemBlockDevice(std::uint32_t block_size,
                               std::uint64_t num_blocks)
    : bs(block_size), blocks(num_blocks),
      data(static_cast<std::size_t>(block_size) * num_blocks)
{
}

void
MemBlockDevice::readRange(std::uint64_t bno, std::uint64_t count,
                          std::span<std::uint8_t> out)
{
    if (count == 0)
        return;
    checkExtent(bno, count, out.size());
    noteRead(count);
    std::memcpy(out.data(), data.data() + bno * bs, count * bs);
}

void
MemBlockDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                           std::span<const std::uint8_t> in)
{
    if (count == 0)
        return;
    checkExtent(bno, count, in.size());
    noteWrite(count);
    std::memcpy(data.data() + bno * bs, in.data(), count * bs);
}

std::span<std::uint8_t>
MemBlockDevice::raw(std::uint64_t bno)
{
    checkExtent(bno, 1, bs);
    return {data.data() + bno * bs, bs};
}

} // namespace raid2::fs
