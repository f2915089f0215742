/**
 * @file
 * Reliability subsystem tests: deterministic plan generation, fault
 * injection into every layer (disk, string, XBUS port, HIPPI), the
 * latent-error repair paths (foreground read and background scrub),
 * hot-spare auto-rebuild with MTTR accounting, data-loss bookkeeping,
 * and bit-reproducible Monte Carlo campaigns.
 *
 * The campaign tests honor RAID2_FAULT_SEED so CI can re-run the whole
 * suite under different fault histories.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "fault/recovery_manager.hh"
#include "fault/scrubber.hh"
#include "net/hippi.hh"
#include "raid/raid_array.hh"
#include "raid/sim_array.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"
#include "xbus/xbus_board.hh"

namespace {

using namespace raid2;
using sim::Tick;

/** CI knob: vary the stochastic-campaign seed without recompiling. */
std::uint64_t
envSeed(std::uint64_t fallback = 1)
{
    const char *env = std::getenv("RAID2_FAULT_SEED");
    if (!env || !*env)
        return fallback;
    return std::strtoull(env, nullptr, 10);
}

constexpr std::uint64_t kUnit = 64 * 1024;
constexpr std::uint64_t kDiskBytes = 4ull * 1024 * 1024;

raid::LayoutConfig
layoutCfg(raid::RaidLevel level, unsigned disks = 16)
{
    raid::LayoutConfig cfg;
    cfg.level = level;
    cfg.numDisks = disks;
    cfg.stripeUnitBytes = kUnit;
    return cfg;
}

/** Timed + functional twin + controller wired over all hook points. */
struct Rig
{
    sim::EventQueue eq;
    xbus::XbusBoard board{eq, "x"};
    raid::SimArray timed;
    net::HippiLoopback loop{eq, board};
    raid::RaidArray functional;
    fault::FaultController faults;

    explicit Rig(raid::RaidLevel level = raid::RaidLevel::Raid5)
        : timed(eq, board, "a", layoutCfg(level), topo()),
          functional(layoutCfg(level), kDiskBytes),
          faults(eq, "fault", {&timed, &loop.channel()})
    {
        timed.attachTwin(functional);
    }

    static raid::ArrayTopology
    topo()
    {
        raid::ArrayTopology t;
        t.disksPerString = 2; // 4 cougars x 2 strings x 2 = 16 disks
        return t;
    }
};

// ---------------------------------------------------------------------
// Plan generation
// ---------------------------------------------------------------------

fault::FaultPlan::CampaignConfig
campaignCfg()
{
    fault::FaultPlan::CampaignConfig cfg;
    cfg.horizon = sim::secToTicks(60);
    cfg.numDisks = 16;
    cfg.diskBytes = kDiskBytes;
    cfg.numStrings = 8;
    cfg.diskFailsPerHour = 30.0;
    cfg.latentsPerHour = 60.0;
    cfg.stallsPerHour = 60.0;
    cfg.scsiHangsPerHour = 30.0;
    cfg.xbusErrorsPerHour = 30.0;
    cfg.hippiDropsPerHour = 60.0;
    return cfg;
}

bool
sameEvent(const fault::FaultEvent &a, const fault::FaultEvent &b)
{
    return a.at == b.at && a.kind == b.kind && a.target == b.target &&
           a.offset == b.offset && a.bytes == b.bytes &&
           a.duration == b.duration;
}

TEST(FaultPlan, GenerationIsDeterministicInTheSeed)
{
    const auto cfg = campaignCfg();
    const std::uint64_t seed = envSeed();
    const auto a = fault::FaultPlan::generate(cfg, seed);
    const auto b = fault::FaultPlan::generate(cfg, seed);
    ASSERT_FALSE(a.events.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_TRUE(sameEvent(a.events[i], b.events[i])) << i;

    const auto c = fault::FaultPlan::generate(cfg, seed + 1);
    bool differs = c.events.size() != a.events.size();
    for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = !sameEvent(a.events[i], c.events[i]);
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, GenerationIsSortedCappedAndInBounds)
{
    const auto cfg = campaignCfg();
    const auto plan = fault::FaultPlan::generate(cfg, envSeed());
    unsigned fails = 0;
    Tick prev = 0;
    for (const auto &e : plan.events) {
        EXPECT_GE(e.at, prev);
        prev = e.at;
        EXPECT_LT(e.at, cfg.horizon);
        if (e.kind == fault::FaultKind::DiskFail)
            ++fails;
        if (e.kind == fault::FaultKind::LatentError) {
            EXPECT_LT(e.target, cfg.numDisks);
            EXPECT_EQ(e.offset % 512, 0u);
            EXPECT_GE(e.bytes, 512u);
            EXPECT_LE(e.offset + e.bytes, cfg.diskBytes);
        }
    }
    EXPECT_LE(fails, cfg.maxDiskFails);
}

TEST(FaultPlan, RatingOneClassDoesNotPerturbAnother)
{
    // Per-class RNG streams: turning the HIPPI class off must leave
    // every other class's arrivals untouched.
    auto cfg = campaignCfg();
    const auto base = fault::FaultPlan::generate(cfg, envSeed());
    cfg.hippiDropsPerHour = 0.0;
    const auto pruned = fault::FaultPlan::generate(cfg, envSeed());
    auto strip = [](const fault::FaultPlan &p) {
        std::vector<fault::FaultEvent> v;
        for (const auto &e : p.events)
            if (e.kind != fault::FaultKind::HippiLinkDrop)
                v.push_back(e);
        return v;
    };
    const auto a = strip(base), b = strip(pruned);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameEvent(a[i], b[i])) << i;
}

// ---------------------------------------------------------------------
// Injection paths
// ---------------------------------------------------------------------

TEST(FaultController, TransientsReachEveryLayer)
{
    Rig rig;
    fault::FaultPlan plan;
    plan.diskStall(sim::msToTicks(1), 3, sim::msToTicks(40))
        .scsiHang(sim::msToTicks(2), 5, sim::msToTicks(30))
        .xbusPortError(sim::msToTicks(3), 1, sim::msToTicks(20))
        .hippiLinkDrop(sim::msToTicks(4), sim::msToTicks(25));
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    EXPECT_EQ(rig.faults.injected(fault::FaultKind::DiskStall), 1u);
    EXPECT_EQ(rig.faults.injected(fault::FaultKind::ScsiHang), 1u);
    EXPECT_EQ(rig.faults.injected(fault::FaultKind::XbusPortError), 1u);
    EXPECT_EQ(rig.faults.injected(fault::FaultKind::HippiLinkDrop), 1u);
    EXPECT_EQ(rig.faults.injectedTotal(), 4u);

    // Each landed in the layer it targets.
    EXPECT_EQ(rig.timed.disk(3).stalls(), 1u);
    const unsigned per = scsi::CougarController::numStrings;
    EXPECT_EQ(rig.timed.cougar(5 / per).string(5 % per).hangs(), 1u);
    EXPECT_EQ(rig.board.portErrors(), 1u);
    EXPECT_EQ(rig.loop.channel().linkDrops(), 1u);
}

TEST(FaultController, StalledDiskDelaysService)
{
    Rig rig;
    // Stall the disk holding the first data unit, then read it: the
    // read cannot complete before the stall expires.
    const unsigned d = rig.timed.layout().dataDisk(0, 0);
    fault::FaultPlan plan;
    plan.diskStall(0, d, sim::msToTicks(200));
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();

    bool done = false;
    rig.timed.read(0, kUnit, [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(rig.eq.now(), sim::msToTicks(200));
}

TEST(FaultController, ForegroundReadRepairsLatentError)
{
    Rig rig;
    const auto &layout = rig.timed.layout();
    const std::uint64_t span = layout.stripeDataBytes();

    std::vector<std::uint8_t> data(span);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    rig.functional.write(0, {data.data(), data.size()});

    // Garble part of stripe 0's first data unit.
    const unsigned d = layout.dataDisk(0, 0);
    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), d, 4096, 8192);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();

    bool done = false;
    rig.eq.scheduleIn(sim::msToTicks(5),
                      [&] { rig.timed.read(0, span, [&] { done = true; }); });
    rig.eq.run();
    ASSERT_TRUE(done);

    // The timed plane discovered the defect and ran the repair
    // sequence; the functional plane was repaired in lockstep.
    EXPECT_EQ(rig.timed.latentRepairReads(), 1u);
    EXPECT_GE(rig.timed.latentRepairBytes(), 8192u);
    EXPECT_EQ(rig.timed.readRepairedRanges(), 1u);
    EXPECT_EQ(rig.timed.latentBytesOutstanding(), 0u);
    EXPECT_EQ(rig.functional.latentCount(), 0u);
    EXPECT_TRUE(rig.functional.redundancyConsistent());

    std::vector<std::uint8_t> back(span);
    rig.functional.read(0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

TEST(Scrubber, RepairsLatentsWithoutForegroundReads)
{
    Rig rig;
    std::vector<std::uint8_t> data(rig.timed.layout().stripeDataBytes());
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    rig.functional.write(0, {data.data(), data.size()});

    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), 2, 0, 4096)
        .latent(sim::msToTicks(1), 7, 16384, 4096);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    // Land the latents before the sweep starts, or the wait predicate
    // below is satisfied trivially at t=0.
    rig.eq.runUntil(sim::msToTicks(2));
    ASSERT_EQ(rig.timed.latentRangesOutstanding(), 2u);

    fault::Scrubber::Config scfg;
    scfg.chunkBytes = 256 * 1024;
    scfg.interChunkDelay = sim::msToTicks(1);
    fault::Scrubber scrub(rig.eq, "scrub", rig.timed, scfg);
    scrub.start();
    const bool repaired = rig.eq.runUntilDone(
        [&] { return rig.timed.latentBytesOutstanding() == 0; });
    scrub.stop();
    rig.eq.run();

    EXPECT_TRUE(repaired);
    EXPECT_EQ(rig.timed.scrubRepairedRanges(), 2u);
    EXPECT_EQ(rig.timed.readRepairedRanges(), 0u);
    EXPECT_GE(scrub.rangesRepaired(), 2u);
    EXPECT_GT(scrub.bytesScanned(), 0u);
    EXPECT_EQ(rig.functional.latentCount(), 0u);
    EXPECT_TRUE(rig.functional.redundancyConsistent());

    std::vector<std::uint8_t> back(data.size());
    rig.functional.read(0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

TEST(RecoveryManager, AllocatesSpareAndRebuilds)
{
    Rig rig;
    fault::RecoveryManager::Config rcfg;
    rcfg.spares = 1;
    rcfg.spareAttachDelay = sim::msToTicks(50);
    rcfg.rebuildWindow = 8;
    fault::RecoveryManager rec(rig.eq, "rec", rig.timed, rig.faults,
                               rcfg);

    std::vector<std::uint8_t> data(64 * 1024);
    for (auto &b : data)
        b = 0xa5;
    rig.functional.write(0, {data.data(), data.size()});

    fault::FaultPlan plan;
    plan.diskFail(sim::msToTicks(10), 4);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    EXPECT_EQ(rig.faults.injected(fault::FaultKind::DiskFail), 1u);
    EXPECT_EQ(rec.sparesUsed(), 1u);
    EXPECT_EQ(rec.sparesAvailable(), 0u);
    EXPECT_EQ(rec.rebuildsCompleted(), 1u);
    EXPECT_FALSE(rec.rebuildActive());
    // The timed plane is whole again and the restore was mirrored into
    // the functional plane.
    EXPECT_FALSE(rig.timed.degraded());
    EXPECT_FALSE(rig.functional.isFailed(4));
    EXPECT_TRUE(rig.functional.redundancyConsistent());
    // MTTR covers failure -> rebuild completion, so it is at least the
    // attach delay.
    ASSERT_EQ(rec.mttrMs().count(), 1u);
    EXPECT_GT(rec.mttrMs().mean(), 50.0);
    EXPECT_EQ(rig.faults.dataLossEvents(), 0u);

    std::vector<std::uint8_t> back(data.size());
    rig.functional.read(0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

TEST(RecoveryManager, TracesEachRebuildStripe)
{
    // One span per stripe under the manager's name, from launch to the
    // replacement write, so a trace shows the rebuild cursor moving.
    Rig rig;
    sim::TraceSink sink(rig.eq);
    rig.eq.setTracer(&sink);
    fault::RecoveryManager rec(rig.eq, "srv.recovery", rig.timed,
                               rig.faults, {});
    fault::FaultPlan plan;
    plan.diskFail(0, 2);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();
    ASSERT_EQ(rec.rebuildsCompleted(), 1u);

    std::uint64_t stripes = 0;
    Tick lastBegin = 0;
    for (const auto &s : sink.spans()) {
        if (s.name != "rebuild_stripe")
            continue;
        ++stripes;
        EXPECT_EQ(s.component, "srv.recovery");
        EXPECT_EQ(s.bytes, kUnit);
        EXPECT_GT(s.end, s.begin);
        EXPECT_GE(s.begin, lastBegin);
        lastBegin = s.begin;
    }
    EXPECT_EQ(stripes, rig.timed.layout().numStripes());
    EXPECT_EQ(stripes, rec.currentJob()->stripesDone());
}

TEST(RecoveryManager, ThrottledRebuildIsSlower)
{
    auto rebuildMs = [](Tick throttle) {
        Rig rig;
        fault::RecoveryManager::Config rcfg;
        rcfg.rebuildThrottle = throttle;
        fault::RecoveryManager rec(rig.eq, "rec", rig.timed, rig.faults,
                                   rcfg);
        fault::FaultPlan plan;
        plan.diskFail(0, 1);
        rig.faults.setPlan(std::move(plan));
        rig.faults.start();
        rig.eq.run();
        EXPECT_EQ(rec.rebuildsCompleted(), 1u);
        return rec.mttrMs().mean();
    };
    // The throttle only bites once it exceeds the natural per-stripe
    // launch spacing (tens of ms on this datapath).
    const double fast = rebuildMs(0);
    const double slow = rebuildMs(sim::msToTicks(100));
    EXPECT_GT(slow, fast);
}

TEST(FaultController, DoubleFailureIsAccountedNotInjected)
{
    Rig rig;
    fault::FaultPlan plan;
    plan.diskFail(sim::msToTicks(1), 0).diskFail(sim::msToTicks(2), 9);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    // No RecoveryManager: the array is still degraded when the second
    // death arrives.  That is the classic RAID data-loss event; the
    // simulated array keeps serving with the first failure only.
    EXPECT_EQ(rig.faults.doubleFailures(), 1u);
    EXPECT_EQ(rig.faults.dataLossEvents(), 1u);
    EXPECT_TRUE(rig.timed.isFailed(0));
    EXPECT_FALSE(rig.timed.isFailed(9));
    EXPECT_FALSE(rig.functional.isFailed(9));
}

TEST(FaultController, SurvivorLatentsAtFailureAreRebuildExposure)
{
    Rig rig;
    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), 3, 0, 4096)
        .diskFail(sim::msToTicks(2), 8);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    // The latent on disk 3 makes one of disk 8's stripes
    // unreconstructable: a data-loss event, and the defect is consumed
    // so both planes stay recoverable.
    EXPECT_EQ(rig.faults.rebuildExposedRanges(), 1u);
    EXPECT_EQ(rig.faults.dataLossEvents(), 1u);
    EXPECT_EQ(rig.timed.latentBytesOutstanding(), 0u);
    EXPECT_EQ(rig.functional.latentCount(), 0u);
}

TEST(FaultController, LatentWhileDegradedIsDataLoss)
{
    Rig rig;
    fault::FaultPlan plan;
    plan.diskFail(sim::msToTicks(1), 2)
        .latent(sim::msToTicks(2), 5, 8192, 4096);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    EXPECT_EQ(rig.faults.latentsWhileDegraded(), 1u);
    EXPECT_EQ(rig.faults.dataLossEvents(), 1u);
    EXPECT_EQ(rig.timed.latentBytesOutstanding(), 0u);
}

TEST(FaultController, Raid1LatentIsLossOnlyThroughItsMirrorPartner)
{
    // RAID-1 rebuilds a disk from its mirror partner alone, so only the
    // partner decides whether a defect can be repaired: disk 5's is 13.
    Rig rig(raid::RaidLevel::Raid1);
    ASSERT_EQ(rig.timed.layout().mirrorPartner(5), 13u);
    fault::FaultPlan plan;
    plan.diskFail(sim::msToTicks(1), 2)
        // Another pair is degraded: injected.
        .latent(sim::msToTicks(2), 5, 8192, 4096)
        // Overlaps disk 5's defect, but 5 is not 6's partner: injected.
        .latent(sim::msToTicks(3), 6, 8192, 4096)
        // On partner 13, away from disk 5's defect: injected.
        .latent(sim::msToTicks(4), 13, 65536, 4096)
        // Overlaps partner 13's defect: neither copy is readable.
        .latent(sim::msToTicks(5), 5, 65536 + 1024, 4096);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    EXPECT_EQ(rig.faults.injected(fault::FaultKind::LatentError), 3u);
    EXPECT_EQ(rig.faults.latentsWhileDegraded(), 0u);
    EXPECT_EQ(rig.faults.dataLossEvents(), 1u); // the collision
    EXPECT_EQ(rig.timed.latentRangesOutstanding(), 3u);
    EXPECT_EQ(rig.functional.latentCount(), 3u);
    EXPECT_TRUE(rig.timed.hasLatent(5, 8192, 1));
    EXPECT_TRUE(rig.timed.hasLatent(6, 8192, 1));
    EXPECT_FALSE(rig.timed.hasLatent(5, 65536 + 1024, 4096));
}

TEST(FaultController, Raid0LatentsAreInjectedWithoutRedundancy)
{
    // RAID-0 holds no redundancy either way: overlapping defects on two
    // disks are injected, not counted as a collision.
    Rig rig(raid::RaidLevel::Raid0);
    fault::FaultPlan plan;
    plan.latent(sim::msToTicks(1), 0, 8192, 4096)
        .latent(sim::msToTicks(2), 1, 8192, 4096);
    rig.faults.setPlan(std::move(plan));
    rig.faults.start();
    rig.eq.run();

    EXPECT_EQ(rig.faults.injected(fault::FaultKind::LatentError), 2u);
    EXPECT_EQ(rig.faults.dataLossEvents(), 0u);
    EXPECT_EQ(rig.timed.latentRangesOutstanding(), 2u);
}

// ---------------------------------------------------------------------
// Whole-server campaigns
// ---------------------------------------------------------------------

/** Run a seeded campaign on a full Raid2Server; returns the stats
 *  snapshot and final simulated time. */
std::pair<std::string, Tick>
runCampaign(std::uint64_t seed)
{
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.withFs = false;
    cfg.withReliability = true;
    cfg.recovery.spares = 2;
    cfg.recovery.rebuildWindow = 8;
    cfg.scrub.chunkBytes = 512 * 1024;
    cfg.scrub.interChunkDelay = sim::msToTicks(2);
    cfg.topo.disksPerString = 2;
    server::Raid2Server srv(eq, "srv", cfg);

    fault::FaultPlan::CampaignConfig pc;
    pc.horizon = sim::secToTicks(10);
    pc.numDisks = srv.array().numDisks();
    pc.diskBytes = srv.array().layout().numStripes() *
                   srv.array().layout().unitBytes();
    pc.numStrings = srv.array().numCougarControllers() *
                    scsi::CougarController::numStrings;
    pc.diskFailsPerHour = 180.0;
    pc.latentsPerHour = 720.0;
    pc.stallsPerHour = 360.0;
    pc.scsiHangsPerHour = 180.0;
    pc.xbusErrorsPerHour = 180.0;
    pc.hippiDropsPerHour = 360.0;
    srv.faults().setPlan(fault::FaultPlan::generate(pc, seed));
    srv.faults().start();
    srv.scrubber().start();

    // Closed-loop foreground reads through the hardware path.
    std::uint64_t ops = 0;
    std::function<void()> next = [&] {
        ++ops;
        if (ops >= 40)
            return;
        srv.hwRead((ops % 16) * 512 * 1024, 512 * 1024, next);
    };
    srv.hwRead(0, 512 * 1024, next);

    eq.runUntilDone([&] {
        return ops >= 40 && eq.now() >= pc.horizon &&
               !srv.recovery().rebuildActive() &&
               srv.recovery().failuresWaiting() == 0;
    });
    srv.scrubber().stop();
    eq.run();

    sim::StatsRegistry reg;
    reg.setElapsed([&] { return eq.now(); });
    srv.registerStats(reg);
    return {reg.toJson(), eq.now()};
}

TEST(Campaign, SameSeedIsBitReproducible)
{
    const std::uint64_t seed = envSeed();
    const auto a = runCampaign(seed);
    const auto b = runCampaign(seed);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.first, b.first);
}

TEST(Campaign, ServerExposesReliabilityStats)
{
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.withFs = false;
    cfg.withReliability = true;
    server::Raid2Server srv(eq, "srv", cfg);
    EXPECT_TRUE(srv.hasReliability());

    sim::StatsRegistry reg;
    srv.registerStats(reg);
    EXPECT_TRUE(reg.contains("fault.data_loss_events"));
    EXPECT_TRUE(reg.contains("fault.injected.disk_fails"));
    EXPECT_TRUE(reg.contains("recovery.rebuilds_completed"));
    EXPECT_TRUE(reg.contains("recovery.mttr_ms"));
    EXPECT_TRUE(reg.contains("scrub.ranges_repaired"));

    // A fault-free server pays nothing and exposes none of it.
    sim::EventQueue eq2;
    server::Raid2Server::Config plain;
    plain.withFs = false;
    server::Raid2Server srv2(eq2, "srv", plain);
    EXPECT_FALSE(srv2.hasReliability());
    sim::StatsRegistry reg2;
    srv2.registerStats(reg2);
    EXPECT_FALSE(reg2.contains("fault.data_loss_events"));
}

} // namespace
