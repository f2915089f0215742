/**
 * @file
 * Verifies the kernel's zero-allocation scheduling guarantee: once the
 * queue's arena and vectors are warm, scheduling and running small
 * callables performs no heap allocations at all.  The same holds for a
 * warm drive serving queued commands, a pipelined transfer costs one
 * allocation however many chunks it has, and a striped array read
 * hands each extent its completion without allocating one.
 *
 * Global operator new/delete are replaced with counting versions.
 * Sanitizer builds interpose their own allocator around these, but the
 * counters still observe every call, so the assertion holds under ASan
 * too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "disk/disk_model.hh"
#include "disk/disk_profile.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/service.hh"
#include "xbus/xbus_board.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace raid2;

/** Drive enough traffic through the queue that every internal vector
 *  and the slot arena have reached their working-set capacity. */
void
warm(sim::EventQueue &eq, int n)
{
    int sink = 0;
    for (int i = 0; i < n; ++i)
        eq.schedule(eq.now() + sim::Tick(i), [&] { ++sink; });
    eq.run();
}

TEST(EventAlloc, WarmSchedulingIsAllocationFree)
{
    sim::EventQueue eq;
    constexpr int n = 512;
    warm(eq, n);
    warm(eq, n); // second pass: capacities have stabilized

    int sink = 0;
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < n; ++i)
        eq.schedule(eq.now() + sim::Tick(i), [&] { ++sink; });
    eq.run();
    const std::uint64_t after = g_allocs.load();

    EXPECT_EQ(sink, n);
    EXPECT_EQ(after - before, 0u)
        << "scheduling small callables on a warm queue allocated";
}

TEST(EventAlloc, CancelIsAllocationFree)
{
    sim::EventQueue eq;
    warm(eq, 512);
    warm(eq, 512);

    std::vector<sim::EventQueue::EventId> ids;
    ids.reserve(256);
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 256; ++i)
        ids.push_back(eq.schedule(eq.now() + sim::Tick(i), [] {}));
    for (const auto id : ids)
        EXPECT_TRUE(eq.cancel(id));
    eq.run();
    const std::uint64_t after = g_allocs.load();

    EXPECT_EQ(after - before, 0u) << "cancel on a warm queue allocated";
}

TEST(EventAlloc, OutOfOrderSchedulingIsAllocationFreeWhenWarm)
{
    // Out-of-order schedules sift up through the heap instead of
    // landing at its end; the guarantee must hold for them too.
    sim::EventQueue eq;
    constexpr int n = 256;
    for (int round = 0; round < 2; ++round) {
        int sink = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(eq.now() + sim::Tick(1000 - 3 * (i % 300)),
                        [&] { ++sink; });
        eq.run();
    }

    int sink = 0;
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < n; ++i)
        eq.schedule(eq.now() + sim::Tick(1000 - 3 * (i % 300)),
                    [&] { ++sink; });
    eq.run();
    const std::uint64_t after = g_allocs.load();

    EXPECT_EQ(sink, n);
    EXPECT_EQ(after - before, 0u) << "heap-path scheduling allocated";
}

TEST(EventAlloc, LargeCallablesDoAllocate)
{
    // Sanity-check the counter itself: oversized callables are
    // documented to take the heap fallback.
    sim::EventQueue eq;
    warm(eq, 64);
    struct Big
    {
        char pad[200];
    } big{};
    const std::uint64_t before = g_allocs.load();
    int sink = 0;
    eq.schedule(eq.now() + 1, [big, &sink] { sink = sizeof(big); });
    eq.run();
    EXPECT_GT(g_allocs.load() - before, 0u);
    EXPECT_EQ(sink, 200);
}

TEST(EventAlloc, LargeCallbackTakesTheHeapRunsOnceAndIsFreed)
{
    auto token = std::make_shared<int>(0);
    struct Big
    {
        char pad[64];
    } big{};
    big.pad[0] = 1;
    auto large = [big, token](int v) { *token += v + big.pad[0]; };
    static_assert(sizeof(large) > sim::Callback<int>::inlineSize);

    const std::uint64_t before = g_allocs.load();
    sim::Callback<int> cb(std::move(large));
    // Moving the callback hands on the heap copy; it allocates no
    // second one.
    sim::Callback<int> moved = std::move(cb);
    EXPECT_EQ(g_allocs.load() - before, 1u);
    EXPECT_FALSE(static_cast<bool>(cb));
    moved(2);
    EXPECT_EQ(*token, 3);
    EXPECT_EQ(token.use_count(), 2);
    moved.reset();
    EXPECT_EQ(token.use_count(), 1);
}

/** Queue @p n scattered commands on @p d at once and serve them all. */
int
serveBacklog(sim::EventQueue &eq, disk::DiskModel &d, int n)
{
    int done = 0;
    for (int i = 0; i < n; ++i)
        d.submit(std::uint64_t(i) * 104729 % 500000, 16, i % 3 == 0,
                 [&done] { ++done; });
    eq.run();
    return done;
}

TEST(EventAlloc, WarmDiskServesQueuedCommandsWithoutAllocating)
{
    sim::EventQueue eq;
    disk::DiskModel d(eq, "d0", disk::ibm0661());
    constexpr int n = 64;
    serveBacklog(eq, d, n);
    serveBacklog(eq, d, n);

    const std::uint64_t before = g_allocs.load();
    const int done = serveBacklog(eq, d, n);
    const std::uint64_t after = g_allocs.load();

    EXPECT_EQ(done, n);
    EXPECT_EQ(after - before, 0u) << "a warm drive allocated per command";
}

/** Allocations of one Pipeline::start of @p chunks 16 KB chunks
 *  through @p stages, run to completion. */
std::uint64_t
transferAllocs(sim::EventQueue &eq, const std::vector<sim::Stage> &stages,
               std::uint64_t chunks)
{
    bool done = false;
    const std::uint64_t before = g_allocs.load();
    sim::Pipeline::start(stages, chunks * 16384, 16384,
                         [&done] { done = true; });
    eq.run();
    const std::uint64_t after = g_allocs.load();
    EXPECT_TRUE(done);
    return after - before;
}

TEST(EventAlloc, TransferAllocatesTheSameForOneChunkAndSixtyFour)
{
    sim::EventQueue eq;
    sim::Service one(eq, "one", sim::Service::Config{10.0, 0, 1});
    sim::Service four(eq, "four", sim::Service::Config{40.0, 0, 4});
    const std::vector<sim::Stage> stages = {sim::Stage(one),
                                            sim::Stage(four)};
    transferAllocs(eq, stages, 64);
    transferAllocs(eq, stages, 64);

    const std::uint64_t single = transferAllocs(eq, stages, 1);
    const std::uint64_t many = transferAllocs(eq, stages, 64);
    EXPECT_EQ(single, many) << "a transfer allocated per chunk";
    EXPECT_LE(single, 1u) << "a transfer is one allocation";
}

/** Allocations of one SimArray::read of @p units whole stripe units
 *  from the array's start, run to completion. */
std::uint64_t
arrayReadAllocs(sim::EventQueue &eq, raid::SimArray &array, unsigned units)
{
    bool done = false;
    const std::uint64_t before = g_allocs.load();
    array.read(0, units * array.layout().unitBytes(),
               [&done] { done = true; });
    eq.run();
    const std::uint64_t after = g_allocs.load();
    EXPECT_TRUE(done);
    return after - before;
}

TEST(EventAlloc, WarmArrayReadAllocatesNoCallbackPerExtent)
{
    // Every extent of a striped read completes into the read's one
    // sim::Join, which its disk command holds inline.  What an extent
    // still allocates is its disk command's stage list (built, then
    // grown by the string and controller) and its pipelined transfer:
    // three each, plus two for the extent list growing from one to
    // four.
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "x");
    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid5;
    raid::SimArray array(eq, board, "a", lcfg, raid::ArrayTopology{});
    arrayReadAllocs(eq, array, 4);
    arrayReadAllocs(eq, array, 4);

    const std::uint64_t one = arrayReadAllocs(eq, array, 1);
    const std::uint64_t four = arrayReadAllocs(eq, array, 4);
    EXPECT_EQ(four - one, 3u * 3 + 2)
        << "one extent: " << one << ", four: " << four;
}

} // namespace
