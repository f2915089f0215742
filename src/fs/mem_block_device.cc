#include "fs/mem_block_device.hh"

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
    data.read(bno * bs, out);
}

void
MemBlockDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                           std::span<const std::uint8_t> in)
{
    if (count == 0)
        return;
    checkExtent(bno, count, in.size());
    noteWrite(count);
    data.write(bno * bs, in);
}

std::span<std::uint8_t>
MemBlockDevice::raw(std::uint64_t bno)
{
    checkExtent(bno, 1, bs);
    return data.span(bno * bs, bs);
}

} // namespace raid2::fs
