/**
 * @file
 * Unit tests for the discrete-event kernel: EventQueue ordering and
 * cancellation, the one-shot Callback, Random determinism and
 * distribution sanity, stats containers, Service queueing math and
 * Pipeline throughput laws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"
#include "sim/random.hh"
#include "sim/service.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace {

using namespace raid2;
using sim::Tick;

TEST(Types, Conversions)
{
    EXPECT_EQ(sim::msToTicks(1.0), 1000000u);
    EXPECT_EQ(sim::usToTicks(1.0), 1000u);
    EXPECT_EQ(sim::secToTicks(1.0), 1000000000u);
    EXPECT_DOUBLE_EQ(sim::ticksToMs(2000000), 2.0);
    // 10 MB at 10 MB/s takes one second.
    EXPECT_EQ(sim::transferTicks(10 * sim::MB, 10.0), sim::nsPerSec);
    EXPECT_DOUBLE_EQ(sim::mbPerSec(10 * sim::MB, sim::nsPerSec), 10.0);
}

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, Cancel)
{
    sim::EventQueue eq;
    int fired = 0;
    auto id = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilDone)
{
    sim::EventQueue eq;
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(Tick(i) * 10, [&] { ++fired; });
    EXPECT_TRUE(eq.runUntilDone([&] { return fired >= 3; }));
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eq.runUntilDone([&] { return fired >= 100 || fired == 10; }));
    EXPECT_EQ(fired, 10);
}

TEST(Random, Deterministic)
{
    sim::Random a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    sim::Random a2(7);
    for (int i = 0; i < 100; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Random, BelowIsInRangeAndCoversIt)
{
    sim::Random r(123);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.below(10);
        ASSERT_LT(v, 10u);
        ++seen[static_cast<int>(v)];
    }
    for (int count : seen)
        EXPECT_GT(count, 700); // ~1000 expected each
}

TEST(Random, UnitAndExponential)
{
    sim::Random r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.unit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);

    double esum = 0;
    for (int i = 0; i < 10000; ++i)
        esum += r.exponential(3.0);
    EXPECT_NEAR(esum / 10000.0, 3.0, 0.15);
}

TEST(Stats, Distribution)
{
    sim::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(1.0);
    d.sample(2.0);
    d.sample(3.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_NEAR(d.stddev(), 0.8165, 1e-3);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, Utilization)
{
    sim::Utilization u;
    u.addBusy(0, 500);
    u.addBusy(600, 700);
    EXPECT_EQ(u.busy(), 600u);
    EXPECT_DOUBLE_EQ(u.fraction(1000), 0.6);
}

TEST(Service, RateAndOverheadMath)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc",
                     sim::Service::Config{10.0, sim::usToTicks(100), 1});
    // 1 MB at 10 MB/s = 100 ms (+ 0.1 ms overhead).
    EXPECT_EQ(svc.serviceTime(sim::MB),
              sim::msToTicks(100) + sim::usToTicks(100));
}

TEST(Service, FifoQueueing)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 1});
    std::vector<Tick> finishes;
    // Two 1 MB requests submitted together: 100 ms and 200 ms.
    svc.submit(sim::MB, [&] { finishes.push_back(eq.now()); });
    svc.submit(sim::MB, [&] { finishes.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(finishes.size(), 2u);
    EXPECT_EQ(finishes[0], sim::msToTicks(100));
    EXPECT_EQ(finishes[1], sim::msToTicks(200));
    EXPECT_EQ(svc.bytesServed(), 2 * sim::MB);
    EXPECT_EQ(svc.requests(), 2u);
}

TEST(Service, MultiServerConcurrency)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 4});
    int finished = 0;
    for (int i = 0; i < 4; ++i)
        svc.submit(sim::MB, [&] { ++finished; });
    eq.run();
    EXPECT_EQ(finished, 4);
    // All four in parallel: total time one service period.
    EXPECT_EQ(eq.now(), sim::msToTicks(100));
}

TEST(Service, RateOverride)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "vme", sim::Service::Config{6.9, 0, 1});
    Tick read_done = 0, write_done = 0, default_done = 0;
    svc.submitAtRate(sim::MB, 6.9, [&] { read_done = eq.now(); });
    svc.submitAtRate(sim::MB, 5.9, [&] { write_done = eq.now(); });
    // A rate of 0 takes the configured rate, as an un-overridden
    // Pipeline hop does; it is not infinitely fast.
    svc.submitAtRate(sim::MB, 0.0, [&] { default_done = eq.now(); });
    eq.run();
    EXPECT_EQ(read_done, sim::transferTicks(sim::MB, 6.9));
    EXPECT_EQ(write_done,
              read_done + sim::transferTicks(sim::MB, 5.9));
    EXPECT_EQ(default_done,
              write_done + sim::transferTicks(sim::MB, 6.9));
}

TEST(Service, UtilizationAndQueueDelayAccounting)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 1});
    // Two back-to-back 1 MB requests: the second queues for 100 ms.
    svc.submit(sim::MB, [] {});
    svc.submit(sim::MB, [] {});
    eq.run();
    EXPECT_EQ(svc.busyTicks(), sim::msToTicks(200));
    EXPECT_DOUBLE_EQ(svc.utilization(eq.now()), 1.0);
    EXPECT_EQ(svc.queueDelay().count(), 2u);
    EXPECT_DOUBLE_EQ(svc.queueDelay().min(), 0.0);
    EXPECT_NEAR(svc.queueDelay().max(), 100.0, 0.01);

    svc.resetStats();
    EXPECT_EQ(svc.requests(), 0u);
    EXPECT_EQ(svc.bytesServed(), 0u);
    EXPECT_EQ(svc.busyTicks(), 0u);
}

TEST(Service, IdleReflectsOutstandingWork)
{
    sim::EventQueue eq;
    sim::Service svc(eq, "svc", sim::Service::Config{10.0, 0, 1});
    EXPECT_TRUE(svc.idle());
    svc.submit(sim::MB, [] {});
    EXPECT_FALSE(svc.idle());
    eq.run();
    EXPECT_TRUE(svc.idle());
}

TEST(EventQueue, CancelAfterFireFails)
{
    sim::EventQueue eq;
    int fired = 0;
    const auto id = eq.schedule(5, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(Pipeline, ThroughputIsMinStageRate)
{
    sim::EventQueue eq;
    sim::Service fast(eq, "fast", sim::Service::Config{40.0, 0, 1});
    sim::Service slow(eq, "slow", sim::Service::Config{10.0, 0, 1});
    sim::Service fast2(eq, "fast2", sim::Service::Config{40.0, 0, 1});
    bool done = false;
    const std::uint64_t bytes = 10 * sim::MB;
    sim::Pipeline::start({&fast, &slow, &fast2}, bytes, 64 * 1024,
                         [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    const double mbs = sim::mbPerSec(bytes, eq.now());
    // Pipelined: close to the bottleneck's 10 MB/s, not the serial
    // 1/(1/40 + 1/10 + 1/40) = 6.67.
    EXPECT_GT(mbs, 9.0);
    EXPECT_LE(mbs, 10.01);
}

TEST(Pipeline, SmallTransferLatencyIsSumOfStages)
{
    sim::EventQueue eq;
    sim::Service a(eq, "a", sim::Service::Config{10.0, 0, 1});
    sim::Service b(eq, "b", sim::Service::Config{10.0, 0, 1});
    bool done = false;
    sim::Pipeline::start({&a, &b}, 64 * 1024, 64 * 1024,
                         [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.now(), 2 * sim::transferTicks(64 * 1024, 10.0));
}

TEST(Pipeline, SharedStageSerializesTwoTransfers)
{
    sim::EventQueue eq;
    sim::Service shared(eq, "bus", sim::Service::Config{10.0, 0, 1});
    int done = 0;
    sim::Pipeline::start({&shared}, sim::MB, 64 * 1024,
                         [&] { ++done; });
    sim::Pipeline::start({&shared}, sim::MB, 64 * 1024,
                         [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    // 2 MB through one 10 MB/s stage = 200 ms.
    EXPECT_EQ(eq.now(), sim::msToTicks(200));
}

TEST(Pipeline, ZeroByteTransferStillCompletes)
{
    sim::EventQueue eq;
    sim::Service a(eq, "a", sim::Service::Config{10.0, 0, 1});
    bool done = false;
    sim::Pipeline::start({&a}, 0, 4096, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------
// Lazy cancellation: cancel() tombstones in place and the queue
// reclaims dead entries as they surface, so the bookkeeping views
// (pending/empty) must hide tombstones at all times.
// ---------------------------------------------------------------------

TEST(EventQueueCancel, PendingExcludesTombstones)
{
    sim::EventQueue eq;
    std::vector<sim::EventQueue::EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(eq.schedule(sim::Tick(10 + i), [] {}));
    EXPECT_EQ(eq.pending(), 8u);

    EXPECT_TRUE(eq.cancel(ids[0])); // current front
    EXPECT_TRUE(eq.cancel(ids[7])); // back
    EXPECT_TRUE(eq.cancel(ids[3])); // middle
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_FALSE(eq.empty());

    for (int i = 0; i < 8; ++i)
        eq.cancel(ids[i]);
    EXPECT_EQ(eq.pending(), 0u);
    // All-tombstone queue counts as empty before anything surfaces.
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueCancel, DoubleCancelSecondFails)
{
    sim::EventQueue eq;
    const auto id = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueCancel, CancelFromInsideRunningEvent)
{
    sim::EventQueue eq;
    int fired = 0;
    sim::EventQueue::EventId victim = sim::EventQueue::invalidEvent;
    bool cancelled = false;
    eq.schedule(5, [&] { cancelled = eq.cancel(victim); });
    victim = eq.schedule(10, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.run();
    EXPECT_TRUE(cancelled);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueueCancel, CancelOwnIdFromInsideEventFails)
{
    // By the time an event runs it has been dequeued; cancelling
    // itself must be a no-op returning false.
    sim::EventQueue eq;
    sim::EventQueue::EventId self = sim::EventQueue::invalidEvent;
    bool result = true;
    self = eq.schedule(5, [&] { result = eq.cancel(self); });
    eq.run();
    EXPECT_FALSE(result);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueCancel, CancelledSlotReuseKeepsIdsDistinct)
{
    // A cancelled event's arena slot is recycled; the stale id must
    // not cancel the slot's next occupant.
    sim::EventQueue eq;
    int fired = 0;
    const auto old_id = eq.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(old_id));
    eq.run(); // surfaces the tombstone, freeing the slot
    const auto new_id = eq.schedule(20, [&] { ++fired; });
    EXPECT_NE(old_id, new_id);
    EXPECT_FALSE(eq.cancel(old_id));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueCancel, DestructionDestroysPendingClosures)
{
    // Destroying a queue with events still pending must run the
    // closures' destructors (their storage is donated to the
    // thread-local recycler, so captures must not outlive the queue),
    // and a queue built afterwards from recycled storage must start
    // fresh.
    auto token = std::make_shared<int>(7);
    {
        sim::EventQueue eq;
        for (int i = 0; i < 100; ++i)
            eq.schedule(sim::Tick(i), [token] { ++*token; });
        eq.cancel(eq.schedule(1000, [token] { ++*token; }));
        EXPECT_GT(token.use_count(), 1);
    }
    EXPECT_EQ(token.use_count(), 1);

    sim::EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(sim::Tick(10 - i), [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(EventQueueCancel, TombstonesDoNotPerturbOrder)
{
    // Interleave live and cancelled events at one tick and check the
    // survivors still fire in insertion order.
    sim::EventQueue eq;
    std::vector<int> order;
    std::vector<sim::EventQueue::EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(eq.schedule(50, [&order, i] { order.push_back(i); }));
    for (int i = 0; i < 10; i += 2)
        EXPECT_TRUE(eq.cancel(ids[i]));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(EventQueueCancel, RunUntilAcrossTombstones)
{
    sim::EventQueue eq;
    int fired = 0;
    const auto a = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    const auto c = eq.schedule(30, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_TRUE(eq.cancel(c));
    // Cancelling 30 drains the queue at 20, so the run stops there —
    // same as if the event had been eagerly erased.
    EXPECT_EQ(eq.runUntil(25), 20u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());

    // With a live event beyond the limit the clock does reach it.
    eq.schedule(40, [&] { ++fired; });
    const auto d = eq.schedule(30, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(d));
    EXPECT_EQ(eq.runUntil(35), 35u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

// ---------------------------------------------------------------------
// Reference model: one EventQueue and a std::set of (tick, schedule
// order) driven side by side through a seeded mix of schedules,
// cancels and drains.
// ---------------------------------------------------------------------

/**
 * The queue under test and its model.  Each event checks, as it fires,
 * that it is the model's earliest entry, then schedules and cancels
 * from inside; every cancel() result, now() and pending() is compared
 * with the model's.
 */
class QueueVsModel
{
  public:
    explicit QueueVsModel(std::uint64_t seed) : rng(seed) {}

    /** One round: a few schedules and cancels, then one of the three
     *  drains. */
    void
    round()
    {
        for (auto n = rng.below(8); n > 0; --n)
            schedule();
        for (auto n = rng.below(4); n > 0; --n)
            cancel();
        expectBookkeeping();
        switch (rng.below(3)) {
          case 0:
            run();
            break;
          case 1:
            runUntil();
            break;
          default:
            runUntilDone();
            break;
        }
        expectBookkeeping();
    }

    /** Drain everything; every scheduled event fired or was
     *  cancelled. */
    void
    finish()
    {
        run();
        for (const State st : states)
            EXPECT_NE(st, State::pending);
    }

    std::size_t firedCount() const { return fired; }
    std::size_t cancelledCount() const { return cancelled; }

  private:
    enum class State { pending, fired, cancelled };
    using Key = std::pair<Tick, std::size_t>; // (tick, schedule order)

    /** Stop scheduling from inside events past this many schedules,
     *  so every run() ends. */
    static constexpr std::size_t budget = 3000;
    static constexpr Tick noLimit = std::numeric_limits<Tick>::max();

    sim::EventQueue eq;
    sim::Random rng;
    std::set<Key> live;
    std::set<Key> dead; // cancelled entries the queue may still hold
    std::vector<sim::EventQueue::EventId> ids; // by schedule order
    std::vector<Tick> whens;
    std::vector<State> states;
    std::size_t fired = 0, cancelled = 0;
    Tick modelNow = 0;
    Tick limit = noLimit; // no event past it may fire

    Key
    pick(const std::set<Key> &set)
    {
        return *std::next(set.begin(),
                          static_cast<std::ptrdiff_t>(rng.below(set.size())));
    }

    /** Ties with now or a queued tick, at or after the latest queued
     *  tick (in order), or anywhere from now on (mostly out of
     *  order). */
    Tick
    pickTick()
    {
        switch (rng.below(4)) {
          case 0:
            return modelNow;
          case 1:
            return live.empty() ? modelNow : pick(live).first;
          case 2:
            return (live.empty() ? modelNow : live.rbegin()->first) +
                   rng.below(3);
          default:
            return modelNow + rng.below(40);
        }
    }

    void
    schedule()
    {
        const Tick when = pickTick();
        const std::size_t k = ids.size();
        ids.push_back(eq.schedule(when, [this, k] { fire(k); }));
        whens.push_back(when);
        states.push_back(State::pending);
        live.emplace(when, k);
    }

    /** Cancel a pending event, any id ever issued (pending, fired or
     *  cancelled), or the invalid id. */
    void
    cancel()
    {
        const auto how = rng.below(4);
        if (how == 0) {
            EXPECT_FALSE(eq.cancel(sim::EventQueue::invalidEvent));
            return;
        }
        if (ids.empty() || (how == 1 && live.empty()))
            return;
        const std::size_t k = how == 1
                                  ? pick(live).second
                                  : static_cast<std::size_t>(
                                        rng.below(ids.size()));
        const bool expected = states[k] == State::pending;
        EXPECT_EQ(eq.cancel(ids[k]), expected) << "event " << k;
        if (expected) {
            states[k] = State::cancelled;
            live.erase({whens[k], k});
            dead.emplace(whens[k], k);
            ++cancelled;
        }
    }

    void
    fire(std::size_t k)
    {
        ASSERT_FALSE(live.empty()) << "event " << k << " fired unmodelled";
        EXPECT_EQ(*live.begin(), Key(whens[k], k)) << "out of order";
        EXPECT_EQ(states[k], State::pending);
        EXPECT_EQ(eq.now(), whens[k]);
        EXPECT_LE(whens[k], limit);
        live.erase({whens[k], k});
        states[k] = State::fired;
        modelNow = whens[k];
        ++fired;
        EXPECT_EQ(eq.pending(), live.size());

        if (ids.size() < budget) {
            for (auto n = rng.below(3); n > 0; --n)
                schedule();
        }
        if (rng.chance(0.3))
            cancel();
        if (rng.chance(0.1)) {
            EXPECT_FALSE(eq.cancel(ids[k])) << "cancelled itself";
        }
    }

    void
    run()
    {
        limit = noLimit;
        EXPECT_EQ(eq.run(), modelNow);
        EXPECT_TRUE(live.empty());
    }

    /** Up to a random tick ahead, or exactly at a cancelled entry's. */
    void
    runUntil()
    {
        limit = modelNow + rng.below(60);
        if (rng.chance(0.5)) {
            dead.erase(dead.begin(), dead.lower_bound({modelNow, 0}));
            if (!dead.empty())
                limit = pick(dead).first;
        }
        const Tick got = eq.runUntil(limit);
        if (!live.empty()) {
            EXPECT_GT(live.begin()->first, limit);
        }
        // The clock stops where the queue drained, if it drained
        // before the limit, however many cancelled entries remain.
        const Tick want = live.empty() && modelNow < limit ? modelNow
                                                           : limit;
        EXPECT_EQ(got, want);
        EXPECT_EQ(eq.now(), want);
        modelNow = want;
        limit = noLimit;
    }

    /** Until a few more events have fired, or the queue drains. */
    void
    runUntilDone()
    {
        const std::size_t target = fired + rng.below(6);
        const bool done =
            eq.runUntilDone([this, target] { return fired >= target; });
        if (done) {
            EXPECT_EQ(fired, target);
        } else {
            EXPECT_LT(fired, target);
            EXPECT_TRUE(live.empty());
        }
        EXPECT_EQ(eq.now(), modelNow);
    }

    void
    expectBookkeeping()
    {
        EXPECT_EQ(eq.now(), modelNow);
        EXPECT_EQ(eq.pending(), live.size());
        EXPECT_EQ(eq.empty(), live.empty());
        EXPECT_EQ(eq.executed(), fired);
    }
};

TEST(EventQueueModel, MatchesSetOfTickAndSequence)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        QueueVsModel m(seed);
        for (int r = 0; r < 150; ++r)
            m.round();
        m.finish();
        // The mix reached every path it is meant to.
        EXPECT_GT(m.firedCount(), 500u);
        EXPECT_GT(m.cancelledCount(), 50u);
        if (HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// Pipeline against a per-chunk reference: random transfers over shared
// one- and four-server stations, some fed a chunk at a time, among
// unrelated events at the same ticks, run once through sim::Pipeline
// and once through a pipeline that schedules every chunk's completion
// at every station.  Everything observable must match.
// ---------------------------------------------------------------------

/** Every chunk schedules its completion at every station, the last one
 *  included; the transfer completes when the last of them has run. */
class PerChunkPipeline
{
  public:
    PerChunkPipeline(std::vector<sim::Stage> stages, std::uint64_t bytes,
                     std::uint64_t chunk_bytes, sim::Event done)
        : t(std::make_shared<State>())
    {
        t->stages = std::move(stages);
        t->chunkBytes = chunk_bytes;
        t->remaining = bytes == 0 ? 1 : bytes;
        t->done = std::move(done);
    }

    void feed(std::uint64_t bytes) const { hop(t, 0, bytes); }

    static void
    start(std::vector<sim::Stage> stages, std::uint64_t bytes,
          std::uint64_t chunk_bytes, sim::Event done)
    {
        const PerChunkPipeline p(std::move(stages), bytes, chunk_bytes,
                                 std::move(done));
        for (std::uint64_t left = p.t->remaining; left > 0;) {
            const std::uint64_t chunk = std::min(left, chunk_bytes);
            p.feed(chunk);
            left -= chunk;
        }
    }

  private:
    struct State
    {
        std::vector<sim::Stage> stages;
        std::uint64_t chunkBytes = 0;
        std::uint64_t remaining = 0;
        sim::Event done;
    };

    static void
    hop(std::shared_ptr<State> s, std::size_t stage, std::uint64_t bytes)
    {
        const sim::Stage st = s->stages[stage];
        st.svc->submitAtRate(bytes, st.mbPerSec, [s, stage, bytes] {
            if (stage + 1 < s->stages.size()) {
                hop(s, stage + 1, bytes);
                return;
            }
            s->remaining -= bytes;
            if (s->remaining == 0 && s->done)
                s->done();
        });
    }

    std::shared_ptr<State> t;
};

struct TransferDraw
{
    Tick at = 0;
    /** (station index, rate override) per stage. */
    std::vector<std::pair<std::size_t, double>> stages;
    std::uint64_t bytes = 0;
    std::uint64_t chunk = 0;
    /** Empty: start() feeds every chunk at @c at.  Otherwise the tick
     *  and size of each feed, the short chunk in any position. */
    std::vector<std::pair<Tick, std::uint64_t>> feeds;
};

struct PipelineScript
{
    std::vector<sim::Service::Config> stations;
    std::vector<TransferDraw> transfers;
    std::vector<Tick> markers;
    /** (tick, target): at tick, schedule a marker for target, so it
     *  lands among the target tick's events by insertion order. */
    std::vector<std::pair<Tick, Tick>> relays;
};

/** Times on a 512 ns grid (the rates take 1-8 ns a byte and sizes are
 *  multiples of 512 bytes), so completions, feeds and markers share
 *  ticks often. */
PipelineScript
drawPipelineScript(std::uint64_t seed, bool with_feeds)
{
    sim::Random rng(seed);
    constexpr Tick grid = 512;
    const double rates[] = {1000.0, 500.0, 250.0, 125.0};
    PipelineScript sc;
    for (unsigned i = 0; i < 6; ++i)
        sc.stations.push_back(sim::Service::Config{
            rates[rng.below(4)], grid * rng.below(3), i % 2 ? 4u : 1u});
    for (int k = 0; k < 30; ++k) {
        TransferDraw t;
        t.at = grid * rng.below(400);
        for (auto n = 1 + rng.below(5); n > 0; --n)
            t.stages.emplace_back(rng.below(sc.stations.size()),
                                  rng.chance(0.3) ? rates[rng.below(4)]
                                                  : 0.0);
        t.chunk = rng.chance(0.5) ? 4096 : 16384;
        const std::uint64_t chunks = 1 + rng.below(80);
        t.bytes = chunks * t.chunk;
        if (rng.chance(0.5))
            t.bytes -= grid * (1 + rng.below(t.chunk / grid - 1));
        if (with_feeds && rng.chance(0.5)) {
            const std::uint64_t shortAt = rng.below(chunks);
            Tick when = t.at;
            for (std::uint64_t c = 0; c < chunks; ++c) {
                when += grid * rng.below(12);
                t.feeds.emplace_back(
                    when, c == shortAt ? t.bytes - (chunks - 1) * t.chunk
                                       : t.chunk);
            }
        }
        sc.transfers.push_back(std::move(t));
    }
    for (int m = 0; m < 400; ++m)
        sc.markers.push_back(grid * rng.below(40000));
    return sc;
}

struct PipelineRun
{
    /** (tick, who) of every callback in the order run: transfer k's
     *  done is k, the event its done schedules at once is 1000 + k,
     *  relayed marker m is 2000 + m, marker m is -1 - m. */
    std::vector<std::pair<Tick, int>> log;
    /** Per station: busy ticks, requests, bytes, queue-delay count,
     *  total, min, max. */
    std::vector<std::tuple<Tick, std::uint64_t, std::uint64_t,
                           std::uint64_t, double, double, double>>
        stations;
    Tick end = 0;
    std::uint64_t events = 0;
};

template <typename Impl>
PipelineRun
runPipelineScript(const PipelineScript &sc)
{
    PipelineRun r;
    sim::EventQueue eq;
    std::vector<std::unique_ptr<sim::Service>> svcs;
    for (std::size_t i = 0; i < sc.stations.size(); ++i)
        svcs.push_back(std::make_unique<sim::Service>(
            eq, std::to_string(i), sc.stations[i]));
    std::vector<std::unique_ptr<Impl>> fed(sc.transfers.size());
    for (std::size_t k = 0; k < sc.transfers.size(); ++k) {
        const TransferDraw &t = sc.transfers[k];
        std::vector<sim::Stage> stages;
        for (const auto &[i, rate] : t.stages)
            stages.emplace_back(*svcs[i], rate);
        const int who = static_cast<int>(k);
        auto done = [&eq, &r, who] {
            r.log.emplace_back(eq.now(), who);
            eq.scheduleIn(0, [&eq, &r, who] {
                r.log.emplace_back(eq.now(), 1000 + who);
            });
        };
        if (t.feeds.empty()) {
            eq.schedule(t.at, [stages, &t, done] {
                Impl::start(stages, t.bytes, t.chunk, done);
            });
            continue;
        }
        eq.schedule(t.at, [stages, &t, &fed, k, done] {
            fed[k] = std::make_unique<Impl>(stages, t.bytes, t.chunk,
                                            done);
        });
        for (const auto &[when, bytes] : t.feeds)
            eq.schedule(when, [&fed, k, bytes = bytes] {
                fed[k]->feed(bytes);
            });
    }
    for (std::size_t m = 0; m < sc.markers.size(); ++m)
        eq.schedule(sc.markers[m], [&eq, &r, m] {
            r.log.emplace_back(eq.now(), -1 - static_cast<int>(m));
        });
    for (std::size_t m = 0; m < sc.relays.size(); ++m)
        eq.schedule(sc.relays[m].first,
                    [&eq, &r, m, target = sc.relays[m].second] {
                        eq.schedule(target, [&eq, &r, m] {
                            r.log.emplace_back(eq.now(),
                                               2000 + static_cast<int>(m));
                        });
                    });
    r.end = eq.run();
    r.events = eq.executed();
    for (const auto &svc : svcs) {
        const sim::Distribution &q = svc->queueDelay();
        r.stations.emplace_back(svc->busyTicks(), svc->requests(),
                                svc->bytesServed(), q.count(), q.total(),
                                q.min(), q.max());
    }
    return r;
}

/** What a comparison reached: transfers with a short last chunk on a
 *  multi-server last station, and done callbacks that share their tick
 *  with an unrelated marker. */
struct PipelineCoverage
{
    std::size_t shortOnMulti = 0;
    std::size_t tiedDones = 0;
};

/**
 * Compare sim::Pipeline with the reference on @p seeds scripts.  A dry
 * run of the reference finds every done tick, and a relayed marker is
 * aimed at each, scheduled up to 64 grid steps earlier, so the done
 * must keep its insertion-order place among that tick's events.
 */
PipelineCoverage
expectPipelineMatchesReference(std::uint64_t seeds, bool with_feeds)
{
    PipelineCoverage c;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        PipelineScript sc = drawPipelineScript(seed, with_feeds);
        sim::Random rng(seed);
        for (const auto &[tick, who] :
             runPipelineScript<PerChunkPipeline>(sc).log)
            if (who >= 0 && who < 1000)
                sc.relays.emplace_back(
                    tick - std::min<Tick>(tick, 512 * rng.below(64)), tick);
        const PipelineRun got = runPipelineScript<sim::Pipeline>(sc);
        const PipelineRun want = runPipelineScript<PerChunkPipeline>(sc);
        EXPECT_EQ(got.log, want.log);
        EXPECT_EQ(got.stations, want.stations);
        EXPECT_EQ(got.end, want.end);
        EXPECT_LE(got.events, want.events);
        // Every transfer completed exactly once.
        std::vector<int> dones(sc.transfers.size());
        std::set<Tick> markerTicks;
        for (const auto &[tick, who] : got.log) {
            if (who >= 0 && who < 1000)
                ++dones[who];
            else if (who < 0 || who >= 2000)
                markerTicks.insert(tick);
        }
        EXPECT_EQ(dones, std::vector<int>(sc.transfers.size(), 1));
        for (const auto &[tick, who] : got.log)
            c.tiedDones += who >= 0 && who < 1000 && markerTicks.count(tick);
        for (const TransferDraw &t : sc.transfers)
            c.shortOnMulti += t.bytes % t.chunk != 0 && t.bytes > t.chunk &&
                              sc.stations[t.stages.back().first].servers > 1;
        if (testing::Test::HasFailure())
            break;
    }
    return c;
}

TEST(PipelineModel, StartedTransfersMatchPerChunkReference)
{
    const PipelineCoverage c = expectPipelineMatchesReference(40, false);
    EXPECT_GT(c.shortOnMulti, 200u);
    // Every one of the 40 x 30 dones shares its tick with a marker.
    EXPECT_EQ(c.tiedDones, 1200u);
}

TEST(PipelineModel, FedTransfersMatchPerChunkReference)
{
    const PipelineCoverage c = expectPipelineMatchesReference(40, true);
    EXPECT_GT(c.shortOnMulti, 200u);
    EXPECT_EQ(c.tiedDones, 1200u);
}

TEST(Join, RunsOnceAtTheLastArrival)
{
    auto token = std::make_shared<int>(0);
    const sim::Join join(3, [token] { ++*token; });
    join();
    join();
    EXPECT_EQ(*token, 0);
    join();
    EXPECT_EQ(*token, 1);
    // The continuation, and what it captured, is gone once it has run,
    // though a copy of the join is still alive.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Join, CopiesShareOneCount)
{
    int runs = 0;
    const sim::Join join(2, [&] { ++runs; });
    std::function<void()> a = join;
    sim::Event b = join;
    a();
    EXPECT_EQ(runs, 0);
    b();
    EXPECT_EQ(runs, 1);
}

TEST(Join, ArrivalAfterTheLastDies)
{
    EXPECT_DEATH(
        {
            const sim::Join join(1, [] {});
            join();
            join();
        },
        "after the last");
    EXPECT_DEATH(sim::Join(0, [] {})(), "after the last");
}

TEST(Join, EmptyContinuationRunsNothing)
{
    const sim::Join join(2, std::function<void()>());
    join();
    join();
    EXPECT_DEATH(join(), "after the last");
}

TEST(Join, PendingJoinIsFreedWithItsQueue)
{
    // The join's copies live only in the queue's events: destroying
    // the queue mid-operation frees the count and the continuation
    // (LeakSanitizer checks the rest).
    auto token = std::make_shared<int>(0);
    {
        sim::EventQueue eq;
        {
            const sim::Join join(3, [token] { ++*token; });
            for (sim::Tick t : {10, 20, 30})
                eq.schedule(t, join);
        }
        eq.runUntil(15);
        EXPECT_EQ(*token, 0);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(*token, 0);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Event, MoveOnlyCaptureAndLargeCallable)
{
    sim::EventQueue eq;
    // Move-only capture (rejected by std::function).
    auto payload = std::make_unique<int>(41);
    int seen = 0;
    eq.schedule(1, [p = std::move(payload), &seen] { seen = *p + 1; });
    // Oversized callable takes the heap fallback but still runs.
    struct Big
    {
        char pad[200];
    } big{};
    big.pad[0] = 7;
    int big_seen = 0;
    eq.schedule(2, [big, &big_seen] { big_seen = big.pad[0]; });
    eq.run();
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(big_seen, 7);
}

TEST(Event, EmptyStdFunctionMakesEmptyEvent)
{
    std::function<void()> null_fn;
    sim::Event ev(std::move(null_fn));
    EXPECT_FALSE(static_cast<bool>(ev));
    sim::Event ev2([] {});
    EXPECT_TRUE(static_cast<bool>(ev2));
    sim::Event ev3 = std::move(ev2);
    EXPECT_TRUE(static_cast<bool>(ev3));
    EXPECT_FALSE(static_cast<bool>(ev2)); // moved-from is empty
}

TEST(Callback, NullAndBracesMakeEmptyCallbacks)
{
    sim::Callback<int> from_null = nullptr;
    sim::Callback<int> from_braces = {};
    sim::Event event_from_null(nullptr);
    EXPECT_FALSE(static_cast<bool>(from_null));
    EXPECT_FALSE(static_cast<bool>(from_braces));
    EXPECT_FALSE(static_cast<bool>(event_from_null));
    EXPECT_FALSE(
        static_cast<bool>(sim::Callback<int>(std::function<void(int)>())));
}

TEST(Callback, ForwardsItsArguments)
{
    // A reference argument reaches the callable as the same object; a
    // move-only one is moved through.
    const std::string s = "payload";
    const std::string *seen = nullptr;
    sim::Callback<const std::string &> by_ref(
        [&seen](const std::string &v) { seen = &v; });
    by_ref(s);
    EXPECT_EQ(seen, &s);

    int got = 0;
    sim::Callback<std::unique_ptr<int>, int> by_move(
        [&got](std::unique_ptr<int> p, int add) { got = *p + add; });
    by_move(std::make_unique<int>(40), 2);
    EXPECT_EQ(got, 42);
}

TEST(Callback, TakesOnlyCallablesOfItsArguments)
{
    auto no_arg = [] {};
    auto one_int = [](int) {};
    static_assert(std::is_constructible_v<sim::Event, decltype(no_arg)>);
    static_assert(
        !std::is_constructible_v<sim::Callback<int>, decltype(no_arg)>);
    static_assert(
        std::is_constructible_v<sim::Callback<int>, decltype(one_int)>);
    static_assert(!std::is_constructible_v<sim::Event, decltype(one_int)>);
    // Move-only: a completion has one owner.
    static_assert(!std::is_copy_constructible_v<sim::Callback<int>>);
    static_assert(std::is_nothrow_move_constructible_v<sim::Callback<int>>);
}

} // namespace
