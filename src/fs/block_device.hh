/**
 * @file
 * Synchronous block-device interface for the file systems.
 *
 * The functional plane of LFS and FFS runs against this interface:
 * real bytes in, real bytes out.  Every transfer is an extent of
 * consecutive blocks (one block is count = 1), so each device has one
 * read and one write.  MemBlockDevice backs tests, ArrayBlockDevice
 * runs the file system on a functional RAID array (every server's
 * twin), HookBlockDevice reports every write to an observer (the
 * server mirrors them into the timing plane), and FaultDevice injects
 * crashes for recovery testing.
 */

#ifndef RAID2_FS_BLOCK_DEVICE_HH
#define RAID2_FS_BLOCK_DEVICE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "fs/write_log.hh"

namespace raid2::sim {
class StatsRegistry;
}

namespace raid2::fs {

/** Abstract synchronous block device. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    virtual std::uint32_t blockSize() const = 0;
    virtual std::uint64_t numBlocks() const = 0;

    /** @{ Read or write @p count consecutive blocks starting at @p bno;
     *  the buffer holds exactly count * blockSize() bytes.  Zero-length
     *  extents return before they count or check bounds; an extent
     *  beyond the device or a mis-sized buffer panics. */
    virtual void readRange(std::uint64_t bno, std::uint64_t count,
                           std::span<std::uint8_t> out) = 0;
    virtual void writeRange(std::uint64_t bno, std::uint64_t count,
                            std::span<const std::uint8_t> data) = 0;
    /** @} */

    /** Barrier: all previous writes are durable afterwards. */
    virtual void flush() {}

    std::uint64_t capacityBytes() const
    {
        return std::uint64_t(blockSize()) * numBlocks();
    }

    /** @{ Statistics in blocks (maintained by implementations via
     *  note*()). */
    std::uint64_t readsStat() const { return _reads; }
    std::uint64_t writesStat() const { return _writes; }
    void resetCounters() { _reads = _writes = 0; }

    /** Register "<prefix>.reads" / "<prefix>.writes". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;
    /** @} */

  protected:
    /** Validate an extent: in-bounds (overflow-safe) and the buffer
     *  exactly count * blockSize() bytes. */
    void checkExtent(std::uint64_t bno, std::uint64_t count,
                     std::size_t len) const;
    void noteRead(std::uint64_t n) { _reads += n; }
    void noteWrite(std::uint64_t n) { _writes += n; }

  private:
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
};

/**
 * Pass-through wrapper that reports every write to an observer.
 * The timed server uses it to mirror the file system's device writes
 * into the simulation plane.
 */
class HookBlockDevice : public BlockDevice
{
  public:
    /** (byte offset, byte length) of each write, after it lands. */
    using WriteHook = std::function<void(std::uint64_t, std::uint64_t)>;

    explicit HookBlockDevice(BlockDevice &inner) : inner(inner) {}

    std::uint32_t blockSize() const override
    {
        return inner.blockSize();
    }
    std::uint64_t numBlocks() const override
    {
        return inner.numBlocks();
    }

    void
    readRange(std::uint64_t bno, std::uint64_t count,
              std::span<std::uint8_t> out) override
    {
        if (count == 0)
            return;
        noteRead(count);
        inner.readRange(bno, count, out);
    }

    void
    writeRange(std::uint64_t bno, std::uint64_t count,
               std::span<const std::uint8_t> data) override
    {
        if (count == 0)
            return;
        noteWrite(count);
        inner.writeRange(bno, count, data);
        if (wlog)
            wlog->noteWrite(bno, data, std::uint32_t(count));
        if (hook)
            hook(bno * blockSize(), count * std::uint64_t(blockSize()));
    }

    void
    flush() override
    {
        inner.flush();
        if (wlog)
            wlog->noteBarrier();
    }

    /** Observe every write (one call per writeRange). */
    void setWriteHook(WriteHook h) { hook = std::move(h); }

    /** Record every write + barrier into @p log (nullptr detaches). */
    void attachWriteLog(WriteLog *log) { wlog = log; }

  private:
    BlockDevice &inner;
    WriteHook hook;
    WriteLog *wlog = nullptr;
};

} // namespace raid2::fs

#endif // RAID2_FS_BLOCK_DEVICE_HH
