/**
 * @file
 * Large zero-filled byte stores, recycled per thread.
 *
 * The functional plane keeps its media in memory: a file-system device
 * or a RAID member disk is one buffer of tens to hundreds of MB.  Sweeps,
 * tests and the benchmark build one world after another, and a fresh
 * buffer costs a page fault per 4 KB page — far more than zeroing memory
 * that is already mapped.  A ByteStore therefore gives its buffer to a
 * thread-local pool when it is destroyed, and the next store of the
 * same size on that thread adopts it and zeroes it with one memset.
 * Either way a new store reads all zeros.
 *
 * The pool holds buffers of one size only.  A request for any other
 * size empties it and allocates fresh, so pooled plus live buffers never
 * exceed the most this thread has had alive at once.  Under
 * AddressSanitizer pooled buffers are poisoned, so a span that outlived
 * its store still faults.
 */

#ifndef RAID2_SIM_BYTE_STORE_HH
#define RAID2_SIM_BYTE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace raid2::sim {

/** Fixed-size byte buffer, zero-filled when built. */
class ByteStore
{
  public:
    explicit ByteStore(std::size_t bytes);
    ~ByteStore();

    ByteStore(ByteStore &&other) noexcept;
    ByteStore &operator=(ByteStore &&) = delete;
    ByteStore(const ByteStore &) = delete;
    ByteStore &operator=(const ByteStore &) = delete;

    std::uint8_t *data() { return buf; }
    const std::uint8_t *data() const { return buf; }
    std::size_t size() const { return n; }
    std::span<std::uint8_t> bytes() { return {buf, n}; }
    std::span<const std::uint8_t> bytes() const { return {buf, n}; }

  private:
    std::uint8_t *buf = nullptr;
    std::size_t n = 0;
};

} // namespace raid2::sim

#endif // RAID2_SIM_BYTE_STORE_HH
