/**
 * @file
 * End-to-end reliability property: under a randomly generated fault
 * campaign — latent sector errors, transient stalls and hangs,
 * whole-disk deaths with hot-spare rebuild, background scrubbing and
 * foreground timed traffic — every read of the functional array
 * matches a fault-free shadow copy byte for byte, during the campaign
 * and after it settles, and the array's redundancy is consistent once
 * rebuilt and scrubbed.
 *
 * The seed matrix starts from RAID2_FAULT_SEED (default 1) so CI can
 * re-run the property under fresh fault histories.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "fault/recovery_manager.hh"
#include "fault/scrubber.hh"
#include "net/hippi.hh"
#include "raid/raid_array.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using sim::Tick;

constexpr std::uint64_t kUnit = 64 * 1024;
constexpr std::uint64_t kDiskBytes = 4ull * 1024 * 1024;
constexpr std::uint64_t kWorkingSet = 8ull * 1024 * 1024;

std::uint64_t
baseSeed()
{
    const char *env = std::getenv("RAID2_FAULT_SEED");
    if (!env || !*env)
        return 1;
    return std::strtoull(env, nullptr, 10);
}

raid::LayoutConfig
layoutCfg(raid::RaidLevel level)
{
    raid::LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks = 16;
    cfg.stripeUnitBytes = kUnit;
    return cfg;
}

struct Campaign
{
    sim::EventQueue eq;
    xbus::XbusBoard board{eq, "x"};
    raid::SimArray timed;
    net::HippiLoopback loop{eq, board};
    raid::RaidArray functional;
    fault::FaultController faults;
    fault::RecoveryManager recovery;
    fault::Scrubber scrubber;
    std::vector<std::uint8_t> shadow;

    Campaign(raid::RaidLevel level, std::uint64_t seed)
        : timed(eq, board, "a", layoutCfg(level), topo()),
          functional(layoutCfg(level), kDiskBytes, &timed.media()),
          faults(eq, "fault", {&timed, &loop.channel()}),
          recovery(eq, "rec", timed, faults, recoveryCfg()),
          scrubber(eq, "scrub", timed, scrubCfg()),
          shadow(kWorkingSet)
    {
        timed.attachTwin(functional);
        // Seeded fill of the working set, identical in both copies.
        sim::Random rng(seed * 977 + 5);
        for (auto &b : shadow)
            b = static_cast<std::uint8_t>(rng.next());
        functional.write(0, {shadow.data(), shadow.size()});
    }

    static raid::ArrayTopology
    topo()
    {
        raid::ArrayTopology t;
        t.disksPerString = 2; // 16 disks, matching the layout
        return t;
    }
    static fault::RecoveryManager::Config
    recoveryCfg()
    {
        fault::RecoveryManager::Config c;
        c.spares = 2;
        c.spareAttachDelay = sim::msToTicks(20);
        c.rebuildWindow = 8;
        return c;
    }
    static fault::Scrubber::Config
    scrubCfg()
    {
        fault::Scrubber::Config c;
        c.chunkBytes = 2 * 1024 * 1024;
        c.interChunkDelay = 0; // scrub as fast as the datapath allows
        return c;
    }

    /** Compare @p n random extents of the functional array against the
     *  fault-free shadow. */
    void
    checkReads(sim::Random &rng, unsigned n)
    {
        std::vector<std::uint8_t> buf;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t len = 512 * (1 + rng.below(256));
            const std::uint64_t off = rng.below(kWorkingSet - len);
            buf.resize(len);
            functional.read(off, {buf.data(), buf.size()});
            ASSERT_EQ(0, std::memcmp(buf.data(), shadow.data() + off,
                                     len))
                << "functional read diverged from the fault-free "
                   "shadow at offset "
                << off << " len " << len;
        }
    }
};

void
runProperty(raid::RaidLevel level, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message()
                 << "level=" << raid::raidLevelName(level)
                 << " seed=" << seed);
    Campaign c(level, seed);

    fault::FaultPlan::CampaignConfig pc;
    pc.horizon = sim::secToTicks(8);
    pc.numDisks = 16;
    pc.diskBytes = kDiskBytes;
    pc.numStrings = 8;
    pc.diskFailsPerHour = 45.0; // ~1.6 deaths expected (capped at 2)
    pc.latentsPerHour = 120.0;
    pc.stallsPerHour = 120.0;
    pc.scsiHangsPerHour = 60.0;
    pc.xbusErrorsPerHour = 60.0;
    pc.hippiDropsPerHour = 60.0;
    pc.latentBytesMax = 64 * 1024;
    c.faults.setPlan(fault::FaultPlan::generate(pc, seed));
    c.faults.start();
    c.scrubber.start();

    // Foreground: chained timed reads over the working set surface
    // latent defects and exercise degraded reconstruction.
    sim::Random fg(seed ^ 0xf00d);
    std::uint64_t ops = 0;
    std::function<void()> next = [&] {
        ++ops;
        if (ops >= 120)
            return;
        const std::uint64_t len = 512 * 1024;
        c.timed.read(fg.below(kWorkingSet - len), len, next);
    };
    next();

    // Mid-campaign writes (functional + shadow in lockstep) and
    // byte-exactness probes while faults are still landing.
    sim::Random mid(seed ^ 0xbeef);
    for (unsigned t = 1; t <= 7; ++t) {
        c.eq.schedule(sim::secToTicks(t), [&c, &mid] {
            for (unsigned w = 0; w < 4; ++w) {
                const std::uint64_t len = 4096 * (1 + mid.below(16));
                const std::uint64_t off =
                    mid.below(kWorkingSet - len);
                for (std::uint64_t i = 0; i < len; ++i)
                    c.shadow[off + i] =
                        static_cast<std::uint8_t>(mid.next());
                c.functional.write(
                    off, {c.shadow.data() + off, len});
            }
            c.checkReads(mid, 8);
        });
    }

    const bool settled = c.eq.runUntilDone([&] {
        return c.eq.now() >= pc.horizon && ops >= 120 &&
               !c.recovery.rebuildActive() &&
               c.recovery.failuresWaiting() == 0 &&
               c.timed.media().latentBytes() == 0;
    });
    c.scrubber.stop();
    c.eq.run();
    ASSERT_TRUE(settled);

    // Settled state: whole array healthy, every byte intact.
    EXPECT_FALSE(c.timed.media().degraded());
    EXPECT_FALSE(c.functional.media().degraded());
    EXPECT_EQ(c.functional.media().latentRanges(), 0u);
    EXPECT_TRUE(c.functional.redundancyConsistent());

    std::vector<std::uint8_t> back(kWorkingSet);
    c.functional.read(0, {back.data(), back.size()});
    EXPECT_EQ(0,
              std::memcmp(back.data(), c.shadow.data(), kWorkingSet));

    // The campaign actually exercised the machinery.
    EXPECT_GT(c.faults.injectedTotal(), 0u);
}

TEST(ReliabilityProperty, Raid5ReadsMatchFaultFreeShadow)
{
    const std::uint64_t s = baseSeed();
    for (std::uint64_t seed = s; seed < s + 3; ++seed)
        runProperty(raid::RaidLevel::Raid5, seed);
}

TEST(ReliabilityProperty, Raid1ReadsMatchFaultFreeShadow)
{
    const std::uint64_t s = baseSeed();
    for (std::uint64_t seed = s; seed < s + 2; ++seed)
        runProperty(raid::RaidLevel::Raid1, seed);
}

} // namespace
