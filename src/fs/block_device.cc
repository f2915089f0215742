#include "fs/block_device.hh"

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::fs {

void
BlockDevice::registerStats(sim::StatsRegistry &reg,
                           const std::string &prefix) const
{
    reg.add(prefix + ".reads", _reads);
    reg.add(prefix + ".writes", _writes);
}

void
BlockDevice::checkExtent(std::uint64_t bno, std::uint64_t count,
                         std::size_t len) const
{
    // Bounds first, phrased so bno + count cannot wrap.
    const std::uint64_t nb = numBlocks();
    if (bno >= nb || count > nb - bno)
        sim::panic("BlockDevice: extent [%llu, +%llu) beyond device "
                   "size %llu",
                   (unsigned long long)bno, (unsigned long long)count,
                   (unsigned long long)nb);
    if (std::uint64_t(len) != count * std::uint64_t(blockSize()))
        sim::panic("BlockDevice: buffer size %zu != %llu blocks of %u",
                   len, (unsigned long long)count, blockSize());
}

} // namespace raid2::fs
