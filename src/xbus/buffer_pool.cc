#include "xbus/buffer_pool.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace raid2::xbus {

BufferPool::BufferPool(sim::EventQueue &eq_, std::string name,
                       std::uint64_t capacity_bytes)
    : eq(eq_), _name(std::move(name)), _capacity(capacity_bytes)
{
}

void
BufferPool::alloc(std::uint64_t bytes, sim::Event granted)
{
    if (bytes > _capacity)
        sim::fatal("BufferPool %s: request of %llu exceeds capacity %llu",
                   _name.c_str(), (unsigned long long)bytes,
                   (unsigned long long)_capacity);
    waitQueue.push_back(Waiter{bytes, std::move(granted)});
    drain();
}

void
BufferPool::free(std::uint64_t bytes)
{
    if (bytes > used)
        sim::panic("BufferPool %s: freeing %llu with only %llu in use",
                   _name.c_str(), (unsigned long long)bytes,
                   (unsigned long long)used);
    used -= bytes;
    drain();
}

void
BufferPool::drain()
{
    while (!waitQueue.empty() &&
           waitQueue.front().bytes <= _capacity - used) {
        Waiter w = std::move(waitQueue.front());
        waitQueue.pop_front();
        used += w.bytes;
        _peakUse = std::max(_peakUse, used);
        if (w.granted) {
            // Defer to an event so the caller never reenters itself.
            eq.scheduleIn(0, std::move(w.granted));
        }
    }
}

} // namespace raid2::xbus
