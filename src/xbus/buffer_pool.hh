/**
 * @file
 * XBUS on-board memory allocator.
 *
 * The XBUS board carries 4 x 8 MB of DRAM (§2.2) used for "prefetch
 * buffers, pipelining buffers, HIPPI network buffers, and write
 * buffers for LFS segments" (§3.2).  The pool tracks allocation
 * against that capacity; requests that don't fit wait FIFO until
 * space frees, which is how a too-deep prefetch pipeline throttles
 * itself.
 */

#ifndef RAID2_XBUS_BUFFER_POOL_HH
#define RAID2_XBUS_BUFFER_POOL_HH

#include <cstdint>
#include <deque>
#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace raid2::xbus {

/** FIFO byte-granular allocator over the board's DRAM capacity. */
class BufferPool
{
  public:
    BufferPool(sim::EventQueue &eq, std::string name,
               std::uint64_t capacity_bytes);

    /**
     * Request @p bytes; @p granted runs (possibly immediately) once
     * the reservation is made.  Requests are granted strictly FIFO to
     * avoid starvation of large buffers.
     */
    void alloc(std::uint64_t bytes, sim::Event granted);

    /** Return @p bytes to the pool, waking waiters in order. */
    void free(std::uint64_t bytes);

    /** By reference, as peakUse(): the board registers both as
     *  "xbus.dram.*". */
    const std::uint64_t &capacity() const { return _capacity; }
    std::uint64_t inUse() const { return used; }
    std::uint64_t available() const { return _capacity - used; }
    std::size_t waiters() const { return waitQueue.size(); }

    /** High-water mark of bytes in use. */
    const std::uint64_t &peakUse() const { return _peakUse; }

  private:
    struct Waiter
    {
        std::uint64_t bytes;
        sim::Event granted;
    };

    void drain();

    sim::EventQueue &eq;
    std::string _name;
    std::uint64_t _capacity;
    std::uint64_t used = 0;
    std::uint64_t _peakUse = 0;
    std::deque<Waiter> waitQueue;
};

} // namespace raid2::xbus

#endif // RAID2_XBUS_BUFFER_POOL_HH
