/**
 * @file
 * End-to-end integrity property: under seeded silent-corruption
 * campaigns — media bit rot, in-flight transfer flips, network payload
 * damage — across RAID levels and healthy/degraded arrays, every
 * client read either serves bytes that match a fault-free shadow copy
 * byte for byte or completes Status::DataCorrupt.  Zero silent wrong
 * data, ever.
 *
 * The mutation self-test closes the loop on the harness itself: with
 * verification disabled (integrityCfg.verifyReads = false) the same
 * campaigns MUST produce detectable wrong bytes within a few seeds —
 * proving the property test would notice if the checksum machinery
 * stopped working.
 *
 * The seed matrix starts from RAID2_FAULT_SEED (default 1) so CI can
 * re-run the property under fresh corruption histories.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "disk/disk_profile.hh"
#include "fault/fault_plan.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using server::Raid2Server;
using server::RequestScheduler;
using server::Status;

constexpr unsigned kFiles = 6;
constexpr std::uint64_t kFileBytes = 512 * 1024;
constexpr std::uint32_t kBlock = 4096;

std::uint64_t
baseSeed()
{
    const char *env = std::getenv("RAID2_FAULT_SEED");
    if (!env || !*env)
        return 1;
    return std::strtoull(env, nullptr, 10);
}

/** ~8 MB drives: sweeps and campaigns finish in simulated seconds. */
const disk::DiskProfile &
smallProfile()
{
    static const disk::DiskProfile p = [] {
        disk::DiskProfile s = disk::ibm0661();
        s.name = "ibm0661-small";
        s.cylinders /= 40;
        return s;
    }();
    return p;
}

/** Server + scheduler + shadow files under one corruption campaign. */
struct World
{
    sim::EventQueue eq;
    Raid2Server srv;
    RequestScheduler sched;
    std::vector<lfs::InodeNum> inos;

    std::uint64_t okReads = 0;
    std::uint64_t corruptReads = 0;
    std::uint64_t otherStatuses = 0;
    std::uint64_t opsDone = 0;
    std::uint64_t opsTotal = 0;
    /** Ok reads whose re-read bytes diverged from the shadow. */
    std::uint64_t silentMismatches = 0;

    World(raid::RaidLevel level, bool verify, bool degraded)
        : srv(eq, "s", config(level, verify)), sched(eq, srv)
    {
        srv.fs().setAutoClean(false);
        for (unsigned f = 0; f < kFiles; ++f) {
            const lfs::InodeNum ino =
                srv.createFile("/f" + std::to_string(f));
            inos.push_back(ino);
            std::vector<std::uint8_t> data(kFileBytes);
            for (std::uint64_t i = 0; i < kFileBytes; ++i)
                data[i] = shadowByte(ino, i);
            srv.fs().write(ino, 0, {data.data(), data.size()});
        }
        srv.fs().checkpoint();
        if (degraded) {
            // Hot spares exhausted: the scripted failure below keeps
            // the array degraded for the whole campaign, so corrupt
            // blocks whose redundancy leg is gone are unrepairable.
            // (spares is already 0 in config(); nothing to do here.)
        }
    }

    static Raid2Server::Config
    config(raid::RaidLevel level, bool verify)
    {
        Raid2Server::Config cfg;
        cfg.layout.level = level;
        cfg.topo.disksPerString = 2; // 16 disks
        cfg.topo.profile = &smallProfile();
        // Room for the population plus every scheduler write without
        // the cleaner (off: cleaning copy-forward is a documented
        // laundering hole, so these campaigns run without it), while
        // still fitting RAID-1's halved data capacity.
        cfg.fsDeviceBytes = 48ull * 1024 * 1024;
        cfg.withIntegrity = true;
        cfg.integrityCfg.verifyReads = verify;
        cfg.withReliability = true;
        cfg.recovery.spares = 0;
        return cfg;
    }

    /** The server's own fileWrite pattern — scheduler writes and the
     *  population agree, so the shadow is position-derived. */
    static std::uint8_t
    shadowByte(lfs::InodeNum ino, std::uint64_t pos)
    {
        return static_cast<std::uint8_t>(pos * 131 + ino);
    }

    /** Closed-loop session: one op outstanding, chained by done(). */
    void
    startSession(std::uint64_t seed, unsigned ops)
    {
        opsTotal += ops;
        const std::uint32_t session = sched.allocSession();
        auto rng = std::make_shared<sim::Random>(seed);
        auto next = std::make_shared<std::function<void()>>();
        auto remaining = std::make_shared<unsigned>(ops);
        *next = [this, session, rng, next, remaining] {
            if (*remaining == 0)
                return;
            --*remaining;
            RequestScheduler::Request r;
            r.session = session;
            const lfs::InodeNum ino =
                inos[rng->below(inos.size())];
            const bool isWrite = rng->below(10) == 0;
            if (isWrite) {
                // Whole-block writes only: a sub-block write would RMW
                // through the verifying device and could launder a
                // poisoned block's bytes (documented limitation).
                r.kind = RequestScheduler::OpKind::Write;
                const std::uint64_t blocks = 1 + rng->below(16);
                r.len = blocks * kBlock;
                r.off = kBlock * rng->below(
                    (kFileBytes - r.len) / kBlock + 1);
            } else {
                r.kind = RequestScheduler::OpKind::Read;
                // Both lenses: standard (<= 64 KB) and fast path.
                r.len = rng->below(2) == 0
                            ? 512 * (1 + rng->below(128))
                            : 65536 * (2 + rng->below(4));
                r.off = rng->below(kFileBytes - r.len);
            }
            r.ino = ino;
            const std::uint64_t off = r.off, len = r.len;
            r.done = [this, next, ino, off, len,
                      isWrite](Status st, lfs::InodeNum) {
                ++opsDone;
                if (st == Status::Ok && !isWrite) {
                    ++okReads;
                    checkBytes(ino, off, len);
                } else if (st == Status::DataCorrupt) {
                    ++corruptReads;
                } else if (st != Status::Ok) {
                    ++otherStatuses;
                }
                (*next)();
            };
            sched.submit(std::move(r));
        };
        (*next)();
    }

    /** Re-read [off, off+len) through the functional plane and count a
     *  mismatch against the shadow.  With verification on this read
     *  repairs anything repairable, so a surviving mismatch is the
     *  silent-wrong-data event the property forbids — unless the
     *  range overlaps a block the device has *poisoned*: corruption
     *  that landed after the served (verified) read and was caught
     *  and refused is detected, not silent. */
    void
    checkBytes(lfs::InodeNum ino, std::uint64_t off, std::uint64_t len)
    {
        std::vector<std::uint8_t> buf(len);
        const std::uint64_t got =
            srv.fs().read(ino, off, {buf.data(), buf.size()});
        if (got == len) {
            bool mismatch = false;
            for (std::uint64_t i = 0; i < len; ++i)
                if (buf[i] != shadowByte(ino, off + i)) {
                    mismatch = true;
                    break;
                }
            if (!mismatch)
                return;
        }
        for (const auto &e : srv.fs().mapFile(ino, off, len)) {
            if (e.hole)
                continue;
            const std::uint64_t first = e.deviceOffset / kBlock;
            const std::uint64_t last =
                (e.deviceOffset + e.bytes - 1) / kBlock;
            for (std::uint64_t b = first; b <= last; ++b)
                if (srv.integrity().isPoisoned(b))
                    return; // detected and refused — not silent
        }
        ++silentMismatches;
    }

    /** Post-campaign verify of every file: Ok bytes must match the
     *  shadow; unrepairable files complete corrupt, never wrong.
     *  @return files that completed DataCorrupt. */
    unsigned
    finalSweep()
    {
        unsigned corruptFiles = 0;
        for (const lfs::InodeNum ino : inos) {
            bool ok = false, done = false;
            srv.fileRead(ino, 0, kFileBytes, [&](Status st) {
                ok = st == Status::Ok;
                done = true;
            });
            EXPECT_TRUE(eq.runUntilDone([&] { return done; }));
            if (!ok) {
                ++corruptFiles;
                continue;
            }
            checkBytes(ino, 0, kFileBytes);
        }
        return corruptFiles;
    }
};

fault::FaultPlan::CampaignConfig
corruptionCampaign(sim::Tick horizon)
{
    fault::FaultPlan::CampaignConfig pc;
    pc.horizon = horizon;
    pc.numDisks = 16;
    pc.diskBytes = 2ull * 1024 * 1024;
    pc.numStrings = 8;
    pc.maxDiskFails = 0; // degradation is scripted, never drawn
    pc.silentCorruptionsPerHour = 18000.0; // ~20 over a 4 s horizon
    pc.corruptionBytesMax = 256;
    pc.corruptionMediaFraction = 0.6;
    pc.corruptionTransferFraction = 0.25;
    return pc;
}

/** One campaign; returns the world for post-run assertions. */
void
runProperty(raid::RaidLevel level, bool degraded, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message()
                 << "level=" << raid::raidLevelName(level)
                 << (degraded ? " degraded" : " healthy")
                 << " seed=" << seed);
    World w(level, /*verify=*/true, degraded);

    const sim::Tick horizon = sim::secToTicks(4);
    fault::FaultPlan plan =
        fault::FaultPlan::generate(corruptionCampaign(horizon), seed);
    if (degraded)
        plan.diskFail(sim::msToTicks(1), 3);
    plan.sortByTime();
    w.srv.faults().setPlan(std::move(plan));
    w.srv.faults().start();
    w.srv.scrubber().start();

    for (unsigned s = 0; s < 4; ++s)
        w.startSession(seed * 131 + s * 7 + 1, 30);

    const bool settled = w.eq.runUntilDone([&] {
        return w.eq.now() >= horizon && w.opsDone == w.opsTotal;
    });
    ASSERT_TRUE(settled);

    const unsigned corruptFiles = w.finalSweep();
    w.srv.scrubber().stop();
    w.eq.run();

    // The property: zero silent wrong data, campaign-long and after.
    EXPECT_EQ(w.silentMismatches, 0u)
        << "a read served bytes that differ from the fault-free shadow";
    EXPECT_GT(w.okReads, 0u);
    EXPECT_GT(w.srv.faults().injected(fault::FaultKind::SilentCorruption),
              0u);
    if (!degraded) {
        // Healthy redundancy repairs everything: corruption is never
        // client-visible at all.
        EXPECT_EQ(w.corruptReads, 0u);
        EXPECT_EQ(corruptFiles, 0u);
        EXPECT_EQ(w.srv.corruptReads(), 0u);
    }
}

TEST(IntegrityProperty, Raid5HealthyServesOnlyVerifiedBytes)
{
    const std::uint64_t s = baseSeed();
    for (std::uint64_t seed = s; seed < s + 2; ++seed)
        runProperty(raid::RaidLevel::Raid5, false, seed);
}

TEST(IntegrityProperty, Raid5DegradedNeverServesWrongBytes)
{
    runProperty(raid::RaidLevel::Raid5, true, baseSeed());
}

TEST(IntegrityProperty, Raid1HealthyServesOnlyVerifiedBytes)
{
    runProperty(raid::RaidLevel::Raid1, false, baseSeed());
}

TEST(IntegrityProperty, Raid1DegradedNeverServesWrongBytes)
{
    runProperty(raid::RaidLevel::Raid1, true, baseSeed());
}

TEST(IntegrityProperty, Raid3HealthyServesOnlyVerifiedBytes)
{
    runProperty(raid::RaidLevel::Raid3, false, baseSeed());
}

TEST(IntegrityProperty, Raid3DegradedNeverServesWrongBytes)
{
    runProperty(raid::RaidLevel::Raid3, true, baseSeed());
}

/**
 * Mutation self-test: disable verification and re-run media-heavy
 * campaigns.  If the harness cannot catch wrong bytes now, the
 * property above is vacuous — require a detection within 4 seeds.
 */
TEST(IntegrityProperty, MutationSelfTestFlagsWrongDataWithinFourSeeds)
{
    const std::uint64_t s = baseSeed();
    std::uint64_t totalMismatches = 0;
    for (std::uint64_t seed = s; seed < s + 4 && totalMismatches == 0;
         ++seed) {
        World w(raid::RaidLevel::Raid5, /*verify=*/false, false);

        const sim::Tick horizon = sim::secToTicks(4);
        auto pc = corruptionCampaign(horizon);
        // Media-only, long runs: damage that persists to the sweep.
        pc.silentCorruptionsPerHour = 36000.0;
        pc.corruptionBytesMax = 4096;
        pc.corruptionMediaFraction = 1.0;
        pc.corruptionTransferFraction = 0.0;
        w.srv.faults().setPlan(
            fault::FaultPlan::generate(pc, seed ^ 0x5eed));
        w.srv.faults().start();

        for (unsigned c = 0; c < 4; ++c)
            w.startSession(seed * 977 + c + 1, 30);
        ASSERT_TRUE(w.eq.runUntilDone([&] {
            return w.eq.now() >= horizon && w.opsDone == w.opsTotal;
        }));
        w.finalSweep();
        w.eq.run();

        // Verification is off: nothing detects, nothing repairs, and
        // no read is ever refused.
        EXPECT_EQ(w.srv.integrity().detected(), 0u);
        EXPECT_EQ(w.srv.integrity().repairs(), 0u);
        EXPECT_EQ(w.corruptReads, 0u);
        totalMismatches += w.silentMismatches;
    }
    EXPECT_GT(totalMismatches, 0u)
        << "the mutation self-test never observed wrong bytes: the "
           "integrity property has lost its teeth";
}

} // namespace
