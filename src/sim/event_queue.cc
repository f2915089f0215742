#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace raid2::sim {

/** Storage retained from destroyed queues for reuse on this thread.
 *  Holds at most one queue's vectors plus a bounded stack of arena
 *  chunks (all Events empty), so retention is a few MB per thread. */
struct EventQueue::Recycler
{
    static constexpr std::size_t maxChunks = 64;

    std::vector<std::unique_ptr<Event[]>> chunks;
    std::vector<Entry> heap;
    std::vector<EventId> slotState;
    std::vector<std::uint32_t> freeSlots;
};

EventQueue::Recycler &
EventQueue::recycler()
{
    thread_local Recycler r;
    return r;
}

EventQueue::EventQueue()
{
    // Adopt pooled vector capacity (the pooled vectors are empty);
    // arena chunks are taken one at a time by acquireSlot() so a small
    // queue does not claim the whole pool.
    Recycler &r = recycler();
    heap.swap(r.heap);
    slotState.swap(r.slotState);
    freeSlots.swap(r.freeSlots);
}

EventQueue::~EventQueue()
{
    // Destroy surviving closures; pooled chunks must hold only empty
    // Events so no user state outlives its queue.
    for (std::uint32_t s = 0; s < slotCount; ++s)
        if (slotState[s] != 0)
            slotRef(s).reset();

    Recycler &r = recycler();
    if (r.chunks.size() < slotChunks.size() &&
        slotChunks.size() <= Recycler::maxChunks)
        r.chunks.swap(slotChunks);
    const auto keepLarger = [](auto &mine, auto &pooled) {
        if (mine.capacity() > pooled.capacity()) {
            mine.clear();
            pooled.swap(mine);
        }
    };
    keepLarger(heap, r.heap);
    keepLarger(slotState, r.slotState);
    keepLarger(freeSlots, r.freeSlots);
}

EventQueue::EventId
EventQueue::schedule(Tick when, Event fn)
{
    if (when < _now)
        panic("scheduling event in the past: when=%llu now=%llu",
              (unsigned long long)when, (unsigned long long)_now);
    // The 31-bit sequence wraps after 2^31 schedules; same-tick
    // insertion ordering across a live window that wide is not
    // meaningful.
    const std::uint32_t slot = acquireSlot();
    slotRef(slot) = std::move(fn);
    const EventId id = (static_cast<EventId>(nextSeq) << 32) | slot;
    if (++nextSeq == (1u << 31))
        nextSeq = 1;
    slotState[slot] = id;

    const Entry e{id, when};
    heap.push_back(e);
    siftUp(heap.size() - 1, e);
    return id;
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    if (slotCount == slotChunks.size() << slotChunkShift) {
        Recycler &r = recycler();
        if (!r.chunks.empty()) {
            slotChunks.push_back(std::move(r.chunks.back()));
            r.chunks.pop_back();
        } else {
            slotChunks.push_back(std::make_unique<Event[]>(slotChunkSize));
        }
        // One reserve per chunk keeps the slot-return path realloc-free.
        freeSlots.reserve(slotChunks.size() << slotChunkShift);
        slotState.resize(slotChunks.size() << slotChunkShift, 0);
    }
    return slotCount++;
}

void
EventQueue::siftUp(std::size_t i, const Entry &e)
{
    while (i > 0) {
        const std::size_t p = (i - 1) / arity;
        if (!later(heap[p], e))
            break;
        heap[i] = heap[p];
        i = p;
    }
    heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i, const Entry &e)
{
    const std::size_t n = heap.size();
    const Entry *h = heap.data();
    for (;;) {
        const std::size_t first = arity * i + 1;
        std::size_t m;
        if (first + arity <= n) {
            // A full family: a two-round tournament of selects, so the
            // least child costs no unpredictable branch.
            const std::size_t a = first + later(h[first], h[first + 1]);
            const std::size_t b =
                first + 2 + later(h[first + 2], h[first + 3]);
            m = later(h[a], h[b]) ? b : a;
        } else {
            if (first >= n)
                break;
            m = first;
            for (std::size_t j = first + 1; j < n; ++j) {
                if (later(h[m], h[j]))
                    m = j;
            }
        }
        if (!later(e, h[m]))
            break;
        heap[i] = h[m];
        i = m;
    }
    heap[i] = e;
}

bool
EventQueue::cancel(EventId id)
{
    // Lazy cancellation, O(1): the id names its slot, whose state word
    // holds the id of the current occupant.  A fired or already
    // cancelled id no longer matches (the slot is free, reused under a
    // newer sequence, or carries the tombstone bit), so it returns
    // false.  The closure dies now; the queue entry is reclaimed when
    // it surfaces.
    if (id == invalidEvent)
        return false;
    const std::uint32_t slot = slotOf(id);
    if (slot >= slotCount || slotState[slot] != id)
        return false;
    slotState[slot] = id | tombstoneBit;
    slotRef(slot).reset();
    ++numTombstones;
    return true;
}

bool
EventQueue::dispatchTop()
{
    const Entry top = heap.front();
    const Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, last);
    const std::uint32_t slot = slotOf(top.id);
    if (slotState[slot] != top.id) {
        // Cancelled: cancel() already destroyed the closure.
        slotState[slot] = 0;
        freeSlots.push_back(slot);
        --numTombstones;
        return false;
    }
    _now = top.when;
    // Move the closure out before invoking: it may schedule (reusing
    // the slot, which the move left empty).
    Event fn = std::move(slotRef(slot));
    slotState[slot] = 0;
    freeSlots.push_back(slot);
    ++numExecuted;
    fn();
    return true;
}

Tick
EventQueue::run()
{
    while (!heap.empty())
        dispatchTop();
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty() && heap.front().when <= limit)
        dispatchTop();
    // Cancelled entries past the limit do not hold the clock back.
    if (_now < limit && pending() == 0)
        return _now;
    _now = limit;
    return _now;
}

bool
EventQueue::runUntilDone(const std::function<bool()> &done)
{
    if (done())
        return true;
    while (!heap.empty()) {
        if (dispatchTop() && done())
            return true;
    }
    return false;
}

} // namespace raid2::sim
