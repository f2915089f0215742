/**
 * @file
 * Large byte stores that read as zeros until written, recycled per
 * thread.
 *
 * The functional plane keeps its media in memory: a file-system device
 * or a RAID member disk is one buffer of tens to hundreds of MB.  Sweeps,
 * tests and the benchmark build one world after another, and a fresh
 * buffer costs a page fault per 4 KB page.  A ByteStore therefore gives
 * its buffer to a thread-local pool when it is destroyed, and the next
 * store of the same size on that thread adopts it.
 *
 * No buffer is zeroed when it is handed out, fresh or adopted.  The
 * store keeps one bit per 64 KB granule, in the same allocation after
 * its bytes, and zeroes a granule the first time it is touched:
 *   - read() returns zeros for an untouched granule and leaves it so;
 *   - write() zero-fills only the part of an untouched granule that it
 *     leaves uncovered, so a write of whole granules writes no zeros;
 *     overwriteSpan() does the same for a caller that will store every
 *     byte of its range in place (a RAID parity fold);
 *   - span() zeroes the untouched granules it covers before handing
 *     them out for in-place access.
 * Either way a new store reads all zeros, and a world never writes
 * zeros it does not read.  untouched() tells a caller that a range
 * holds only those zeros, so it can skip work on it (a RAID array
 * folds no parity from never-written units), and forget() makes the
 * whole store read zeros again (a failed disk's replacement).
 *
 * The pool holds buffers of one size only and hands them back first in,
 * first out, so an array rebuilt on the same thread gets each member
 * disk's own buffer back, its pages resident where that disk wrote.
 * Last in, first out, disk d of n would get disk n - 1 - d's buffer, and
 * each world would fault in pages beside those the last one left.  A
 * request for any other size empties the pool and allocates fresh, so
 * pooled plus live buffers never exceed the most this thread has had
 * alive at once.  Under AddressSanitizer pooled buffers are poisoned,
 * so a span that outlived its store still faults.
 *
 * On x86-64, write() stores each whole granule it covers with
 * streaming (non-temporal) stores: landing a segment on hundreds of MB
 * of media then costs no read-for-ownership of lines the simulator
 * will not read soon.  Partial granules, and other platforms, memcpy.
 *
 * A store of 2 MiB or more is 2 MiB-aligned, and every whole 2 MiB
 * region of its allocation is advised onto transparent huge pages
 * (madvise(MADV_HUGEPAGE)); the partial tail, which holds the granule
 * map, stays on 4 KB pages.  Address translation, not DRAM, bounds
 * those copies: streaming stores into sixteen 18 MiB buffers ran at
 * 31-35 GB/s on 4 KB pages and 78-81 GB/s on 2 MiB pages.  The first
 * byte written to a region makes the whole region resident, so a
 * caller that leaves part of a large store unwritten for good keeps
 * that part together, at the end (raid::RaidArray stores RAID-5 parity
 * after each disk's data).  Where the platform or the kernel has no
 * transparent huge pages the hint does nothing.
 */

#ifndef RAID2_SIM_BYTE_STORE_HH
#define RAID2_SIM_BYTE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace raid2::sim {

/** Fixed-size byte buffer that reads all zeros when built. */
class ByteStore
{
  public:
    /** The unit of first-touch zeroing. */
    static constexpr std::size_t granuleBytes = 64 * 1024;
    /** The huge page a store of this size or more is aligned to. */
    static constexpr std::size_t hugePageBytes = 2 * 1024 * 1024;

    explicit ByteStore(std::size_t bytes);
    ~ByteStore();

    ByteStore(ByteStore &&other) noexcept;
    ByteStore &operator=(ByteStore &&) = delete;
    ByteStore(const ByteStore &) = delete;
    ByteStore &operator=(const ByteStore &) = delete;

    std::size_t size() const { return n; }

    /** Copy [off, off + out.size()) into @p out. */
    void read(std::size_t off, std::span<std::uint8_t> out) const;
    /** Copy @p in over [off, off + in.size()). */
    void write(std::size_t off, std::span<const std::uint8_t> in);
    /** [off, off + len) for in-place access by a caller that stores
     *  every byte of it before reading any: like write(), it zeroes
     *  only what the range leaves of an untouched granule, and the
     *  range's own bytes are unspecified until the caller stores
     *  them. */
    std::span<std::uint8_t>
    overwriteSpan(std::size_t off, std::size_t len)
    {
        claim(off, len);
        return {buf + off, len};
    }
    /** @{ [off, off + len), zeroed where untouched, for in-place
     *  access. */
    std::span<std::uint8_t>
    span(std::size_t off, std::size_t len)
    {
        touchRange(off, len);
        return {buf + off, len};
    }
    std::span<const std::uint8_t>
    span(std::size_t off, std::size_t len) const
    {
        touchRange(off, len);
        return {buf + off, len};
    }
    /** @} */

    /** True if no granule that [off, off + len) overlaps has been
     *  touched: the range holds only the zeros a new store reads. */
    bool untouched(std::size_t off, std::size_t len) const;
    /** Drop every byte: the store reads all zeros again, and zeroes
     *  nothing now. */
    void forget();

  private:
    bool
    touched(std::size_t g) const
    {
        return map[g / 8] >> (g % 8) & 1;
    }
    void mark(std::size_t g) const { map[g / 8] |= 1 << (g % 8); }
    /** Zero granule @p g if it is untouched, and mark it touched. */
    void touch(std::size_t g) const;
    void touchRange(std::size_t off, std::size_t len) const;
    /** Mark every granule [off, off + len) overlaps touched, zeroing
     *  only what lies outside the range of those that were not. */
    void claim(std::size_t off, std::size_t len);

    std::uint8_t *buf = nullptr;
    std::size_t n = 0;
    /** One bit per granule, set once it holds the store's bytes; it
     *  lives in buf's allocation, after the bytes. */
    std::uint8_t *map = nullptr;
};

} // namespace raid2::sim

#endif // RAID2_SIM_BYTE_STORE_HH
