/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue drives all timed components.  Events
 * are closures scheduled at absolute ticks; ties are broken by
 * insertion order so a run is fully deterministic.  Components hold a
 * reference to the queue and schedule continuations on it; there is no
 * global singleton, so tests can run many independent simulations —
 * and bench sweeps can run one simulation per worker thread.
 *
 * The queue is one 4-ary min-heap over a contiguous vector, ordered
 * by (tick, sequence); the wide fanout halves the sift depth of a
 * binary heap and keeps siblings on adjacent cache lines.  Every event
 * goes through it: a monotone fast path in front of the heap once took
 * in-order schedules in O(1), but the repository benchmark sent it
 * 0.3-17.5 % of its events (interleaved service completions are not
 * monotone), so it was removed (docs/PERFORMANCE.md, "Kernel design").
 * Scheduling is O(log n) with no per-node allocations: entries are
 * 16-byte trivially-copyable (id, tick) pairs so sifts are plain
 * loads/stores, and the closures — sim::Event values (small-buffer
 * optimized) — sit still in a chunked slot arena recycled through a
 * free list.  Cancellation is lazy and O(1): cancel() destroys the
 * closure and tombstones the event's slot-state word (the id names its
 * slot directly); the dead entry is reclaimed when it reaches the top.
 * A destroyed queue donates its storage to a thread-local recycler so
 * back-to-back simulations (bench sweeps, test suites) reuse warm
 * memory instead of page-faulting a fresh working set.  This follows
 * the gem5/FlashSim lesson that the event kernel is the hot path
 * everything else stands on.
 */

#ifndef RAID2_SIM_EVENT_QUEUE_HH
#define RAID2_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace raid2::sim {

class TraceSink;

/**
 * Deterministic single-threaded event queue.
 *
 * schedule() returns an EventId that may be passed to cancel() as long
 * as the event has not yet fired.  The queue owns the closures.
 */
class EventQueue
{
  public:
    using EventId = std::uint64_t;
    static constexpr EventId invalidEvent = 0;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    EventId schedule(Tick when, Event fn);

    /** Schedule @p fn @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, Event fn)
    {
        return schedule(_now + delay, std::move(fn));
    }

    /**
     * Cancel a pending event (lazy: the node is tombstoned in place
     * and reclaimed when it surfaces; its closure is destroyed now).
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return heap.size() - numTombstones; }

    /** True if no live events remain. */
    bool empty() const { return pending() == 0; }

    /** Total events executed so far (cancelled events never count). */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Run events until the queue is empty.
     * @return the final simulated time.
     */
    Tick run();

    /**
     * Run events with timestamps <= @p limit; afterwards now() ==
     * min(limit, time queue drained).  Events scheduled during the run
     * are honored if they fall within the limit.
     */
    Tick runUntil(Tick limit);

    /**
     * Run until @p done returns true (checked after each event) or the
     * queue drains.  @return true if the predicate was satisfied.
     */
    bool runUntilDone(const std::function<bool()> &done);

    /** @{ Optional span tracer.  Components test for null before
     *  recording, so an untraced run costs one pointer check. */
    TraceSink *tracer() const { return _tracer; }
    void setTracer(TraceSink *t) { _tracer = t; }
    /** @} */

  private:
    /**
     * One heap entry; 16 bytes and trivially copyable so heap sifts
     * compile to plain loads/stores.  The EventId packs a
     * monotonically increasing 31-bit sequence in bits 62..32 (the
     * insertion-order tie-break) and the arena slot of the closure in
     * the low 32, so the entry needs no third field.  Entries are
     * immutable once queued; liveness lives in slotState (below), so
     * cancellation never reorders anything.
     */
    struct Entry
    {
        EventId id;
        Tick when;
    };

    /** Bit 63 of a slotState word marks a cancelled event; queued ids
     *  themselves never have it set (the sequence is 31 bits). */
    static constexpr EventId tombstoneBit = EventId(1) << 63;

    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    /** Min-heap order by (when, sequence), compared as one 128-bit
     *  key so the test compiles without a branch. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        using Key = unsigned __int128;
        return ((Key(a.when) << 64) | a.id) > ((Key(b.when) << 64) | b.id);
    }

    /** Heap fanout; 4 wins over 2 on sift depth and cache locality. */
    static constexpr std::size_t arity = 4;

    /** @{ Hole-based sifts: @p e is written once at its final slot. */
    void siftUp(std::size_t i, const Entry &e);
    void siftDown(std::size_t i, const Entry &e);
    /** @} */

    /** @{ Closure arena: fixed-size chunks, so growing never moves an
     *  Event and slot references stay stable. */
    static constexpr std::size_t slotChunkShift = 10;
    static constexpr std::size_t slotChunkSize = 1u << slotChunkShift;

    Event &
    slotRef(std::uint32_t s)
    {
        return slotChunks[s >> slotChunkShift][s & (slotChunkSize - 1)];
    }
    const Event &
    slotRef(std::uint32_t s) const
    {
        return slotChunks[s >> slotChunkShift][s & (slotChunkSize - 1)];
    }

    std::uint32_t acquireSlot();
    /** @} */

    /**
     * Thread-local recycler for kernel storage.  Sweeps and tests
     * build one EventQueue per measurement; without recycling each
     * queue's ~1 MB working set (heap, arena chunks, slot state) is
     * returned to the OS at destruction and page-faulted back in by
     * the next queue, which dominates short runs.  The destructor
     * donates its storage here and the constructor (or acquireSlot)
     * adopts it, so back-to-back simulations on one thread reuse warm
     * memory.  Per-thread, so parallel bench sweeps never contend.
     */
    struct Recycler;
    static Recycler &recycler();

    /** Every queued entry, tombstones included; heap[0] is the
     *  earliest. */
    std::vector<Entry> heap;

    std::vector<std::unique_ptr<Event[]>> slotChunks;
    std::uint32_t slotCount = 0;
    std::vector<std::uint32_t> freeSlots;

    /** Per-slot liveness: the id currently occupying the slot, with
     *  tombstoneBit set once cancelled; 0 when the slot is free.  The
     *  slot index inside an id makes cancel() a two-load O(1) check
     *  instead of a queue scan, and a stale id (fired, cancelled, or
     *  slot since reused under a new sequence) simply fails to match. */
    std::vector<EventId> slotState;
    std::size_t numTombstones = 0;
    Tick _now = 0;
    std::uint32_t nextSeq = 1; // 31-bit, wraps to 1
    std::uint64_t numExecuted = 0;
    TraceSink *_tracer = nullptr;

    /** Pop the earliest entry (pre: heap non-empty) and run it, or
     *  reclaim it if it was cancelled.  @return true if it ran. */
    bool dispatchTop();
};

} // namespace raid2::sim

#endif // RAID2_SIM_EVENT_QUEUE_HH
