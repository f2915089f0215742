#include "fs/fault_device.hh"

#include <vector>

namespace raid2::fs {

FaultDevice::FaultDevice(BlockDevice &inner_) : inner(inner_) {}

void
FaultDevice::readRange(std::uint64_t bno, std::uint64_t count,
                       std::span<std::uint8_t> out)
{
    if (count == 0)
        return;
    noteRead(count);
    inner.readRange(bno, count, out);
}

void
FaultDevice::writeRange(std::uint64_t bno, std::uint64_t count,
                        std::span<const std::uint8_t> data)
{
    if (count == 0)
        return;
    checkExtent(bno, count, data.size());
    noteWrite(count);
    const std::uint32_t bs = blockSize();
    if (limit >= count) {
        limit -= count;
        inner.writeRange(bno, count, data);
        if (wlog)
            wlog->noteWrite(bno, data, std::uint32_t(count));
        return;
    }
    // Crash lands inside this extent: the first `landed` blocks reach
    // the media, the rest drop (the first dropped one tears if armed).
    const std::uint64_t landed = limit;
    limit = 0;
    if (landed > 0) {
        inner.writeRange(bno, landed, data.subspan(0, landed * bs));
        if (wlog)
            wlog->noteWrite(bno, data.subspan(0, landed * bs),
                            std::uint32_t(landed));
    }
    dropped += count - landed;
    if (tearOnCrash && !tearDone) {
        tearDone = true;
        // Half the new data lands, the rest is garbage.
        auto block = data.subspan(landed * bs, bs);
        std::vector<std::uint8_t> torn(block.begin(), block.end());
        for (std::size_t i = torn.size() / 2; i < torn.size(); ++i)
            torn[i] = 0xbd;
        inner.writeRange(bno + landed, 1, torn);
        if (wlog)
            wlog->noteWrite(bno + landed, {torn.data(), torn.size()});
    }
}

void
FaultDevice::flush()
{
    if (limit > 0) {
        inner.flush();
        if (wlog)
            wlog->noteBarrier();
    }
}

} // namespace raid2::fs
