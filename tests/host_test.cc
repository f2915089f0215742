/**
 * @file
 * Host workstation and LRU cache tests: copy saturation at 2.3 MB/s
 * (the §1 RAID-I bottleneck), backplane cap, per-I/O CPU costs, and
 * cache replacement behaviour.
 */

#include <gtest/gtest.h>

#include "host/host_workstation.hh"
#include "host/lru_cache.hh"
#include "sim/event_queue.hh"

namespace {

using namespace raid2;
using host::HostWorkstation;
using host::LruCache;

TEST(Host, DataPathSaturatesNearTwoPointThree)
{
    sim::EventQueue eq;
    HostWorkstation h(eq, "sun4");
    bool done = false;
    const std::uint64_t bytes = 8 * sim::MB;
    sim::Pipeline::start(h.dataPathStages(), bytes, 16 * 1024,
                         [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // §1: the copies saturate the memory system at 2.3 MB/s of I/O.
    EXPECT_NEAR(sim::mbPerSec(bytes, eq.now()), 2.3, 0.1);
}

TEST(Host, BackplaneCapsWhenCopiesAreFree)
{
    sim::EventQueue eq;
    HostWorkstation::Config cfg;
    cfg.copyMBs = 100000.0;
    HostWorkstation h(eq, "sun4", cfg);
    bool done = false;
    const std::uint64_t bytes = 18 * sim::MB;
    sim::Pipeline::start(h.dataPathStages(), bytes, 16 * 1024,
                         [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim::mbPerSec(bytes, eq.now()), cal::hostBackplaneMBs,
                0.5);
}

TEST(Host, PerIoCostsSerializeOnCpu)
{
    sim::EventQueue eq;
    HostWorkstation h(eq, "sun4");
    int done = 0;
    for (int i = 0; i < 10; ++i)
        h.chargeIoCompletion(false, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(eq.now(), 10 * cal::hostPerIoCpu);
}

TEST(Host, Raid1PathCostsMore)
{
    sim::EventQueue eq;
    HostWorkstation h(eq, "sun4");
    sim::Tick plain = 0, heavy = 0;
    h.chargeIoCompletion(false, [&] { plain = eq.now(); });
    h.chargeIoCompletion(true, [&] { heavy = eq.now(); });
    eq.run();
    EXPECT_EQ(heavy - plain,
              cal::hostPerIoCpu + cal::hostRaid1ExtraPerIo);
}

TEST(Host, CopyThroughMemoryCountsPasses)
{
    sim::EventQueue eq;
    HostWorkstation h(eq, "sun4");
    bool done = false;
    h.copyThroughMemory(sim::MB, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.now(),
              sim::transferTicks(2 * sim::MB, cal::hostCopyMBs));
}

TEST(LruCache, HitMissAndRefresh)
{
    LruCache c(100);
    EXPECT_FALSE(c.lookup(1));
    c.insert(1, 40);
    c.insert(2, 40);
    EXPECT_TRUE(c.lookup(1)); // refresh 1; 2 is now coldest
    c.insert(3, 40);          // evicts 2
    EXPECT_TRUE(c.lookup(1));
    EXPECT_FALSE(c.lookup(2));
    EXPECT_TRUE(c.lookup(3));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_EQ(c.bytesUsed(), 80u);
}

TEST(LruCache, ReinsertResizes)
{
    LruCache c(100);
    c.insert(1, 30);
    c.insert(1, 60);
    EXPECT_EQ(c.bytesUsed(), 60u);
    EXPECT_EQ(c.entries(), 1u);
}

TEST(LruCache, EvictsMultipleForBigEntry)
{
    LruCache c(100);
    c.insert(1, 30);
    c.insert(2, 30);
    c.insert(3, 30);
    c.insert(4, 90);
    EXPECT_FALSE(c.lookup(1));
    EXPECT_FALSE(c.lookup(2));
    EXPECT_FALSE(c.lookup(3));
    EXPECT_TRUE(c.lookup(4));
}

TEST(LruCache, InvalidateAndClear)
{
    LruCache c(100);
    c.insert(1, 50);
    c.invalidate(1);
    EXPECT_FALSE(c.lookup(1));
    EXPECT_EQ(c.bytesUsed(), 0u);
    c.insert(2, 50);
    c.clear();
    EXPECT_EQ(c.entries(), 0u);
    EXPECT_EQ(c.bytesUsed(), 0u);
}

TEST(LruCache, HitRateAccounting)
{
    LruCache c(1000);
    c.insert(1, 10);
    c.lookup(1);
    c.lookup(1);
    c.lookup(2);
    // First lookup(2) is the third probe: 2 hits, 1 miss... plus the
    // miss recorded before insert? We never looked up before insert.
    EXPECT_DOUBLE_EQ(c.hitRate(), 2.0 / 3.0);
}

} // namespace
