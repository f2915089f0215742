/**
 * @file
 * Reliability campaign: seeded Monte Carlo fault injection sweeping
 * scrub rate x rebuild throttle.
 *
 * §2.3 defers reliability policy; this bench studies it with the
 * fault subsystem.  Each trial replays a generated fault plan (disk
 * deaths, latent sector errors, transient stalls/hangs) into a server
 * with hot-spare auto-rebuild and optional background scrubbing, under
 * closed-loop foreground reads.  Identical trial seeds across settings
 * give paired comparisons: the same fault history, different policy.
 *
 * Reported per setting: probability a trial hits a data-loss event
 * (double failure, latent-while-degraded, or rebuild exposure), mean
 * MTTR, foreground throughput while degraded, and overall throughput.
 * Accelerated failure rates and scaled-down member disks keep trials
 * short; what matters is the *relative* movement across settings — the
 * classic result that scrubbing shrinks rebuild exposure and a rebuild
 * throttle trades MTTR for foreground service (Thomasian,
 * arXiv:1801.08873).
 */

#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "disk/disk_profile.hh"
#include "fault/fault_plan.hh"
#include "scsi/cougar_controller.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"

using namespace raid2;

namespace {

/** Scaled-down IBM 0661 (1/40th the cylinders, ~8 MB): a full
 *  rebuild completes well inside a trial horizon (whole fail ->
 *  rebuild -> healthy cycles, not one unfinished rebuild), and a
 *  media-bound scrub sweep of the array takes ~70 s, so a 300 s
 *  campaign sees several sweeps. */
const disk::DiskProfile &
scaledProfile()
{
    static const disk::DiskProfile p = [] {
        disk::DiskProfile s = disk::ibm0661();
        s.name = "ibm0661-scaled";
        s.cylinders /= 40;
        return s;
    }();
    return p;
}

struct Setting
{
    const char *scrubName;
    sim::Tick scrubDelay; // meaningful when scrubOn
    bool scrubOn;
    sim::Tick throttle;
};

struct TrialRow
{
    double loss;        // 1 if any data-loss event
    double mttrMs;      // sum of MTTR samples
    double rebuilds;    // completed rebuilds
    double degradedMB;  // foreground MB completed while degraded
    double degradedSec; // time spent degraded (from MTTR sums)
    double overallMB;   // foreground MB inside the horizon
    double lossEvents;
    /** @{ Loss-class and repair breakdown. */
    double exposed;
    double whileDegraded;
    double doubleFails;
    double scrubRepaired;
    double readRepaired;
    /** @} */
};

constexpr sim::Tick kHorizon = sim::secToTicks(300);

fault::FaultPlan
trialPlan(server::Raid2Server &srv, std::uint64_t seed)
{
    const auto &layout = srv.array().layout();
    fault::FaultPlan::CampaignConfig pc;
    pc.horizon = kHorizon;
    pc.numDisks = layout.numDisks();
    pc.diskBytes = layout.numStripes() * layout.unitBytes();
    pc.numStrings = 8;
    // Accelerated rates: ~1.6 whole-disk deaths expected per trial
    // (capped at 2), a steady drizzle of latent defects and
    // transients.
    pc.diskFailsPerHour = 1.2;
    pc.latentsPerHour = 12.0;
    pc.stallsPerHour = 12.0;
    pc.scsiHangsPerHour = 6.0;
    pc.xbusErrorsPerHour = 6.0;
    pc.hippiDropsPerHour = 12.0;
    pc.latentBytesMax = 32 * 1024;
    return fault::FaultPlan::generate(pc, seed);
}

TrialRow
runTrial(const Setting &st, std::uint64_t seed)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    cfg.withFs = false;
    cfg.withReliability = true;
    cfg.topo.profile = &scaledProfile();
    cfg.recovery.spares = 2;
    cfg.recovery.rebuildWindow = 8;
    cfg.recovery.rebuildThrottle = st.throttle;
    cfg.scrub.chunkBytes = 256 * 1024;
    cfg.scrub.interChunkDelay = st.scrubDelay;
    server::Raid2Server srv(eq, "srv", cfg);

    srv.faults().setPlan(trialPlan(srv, seed));
    srv.faults().start();
    if (st.scrubOn)
        srv.scrubber().start();

    double degradedSec = 0.0;
    srv.recovery().onRebuildDone(
        [&](unsigned, double mttr_ms) { degradedSec += mttr_ms / 1e3; });

    // Closed-loop foreground reads (2 outstanding) until the horizon.
    const std::uint64_t reqBytes = 512 * 1024;
    // A hot set an eighth of the array: latent defects in the cold
    // majority are the scrubber's to find, as in a real file server.
    const std::uint64_t region = srv.array().capacity() / 8;
    sim::Random rng(seed ^ 0x6d74746cull); // "mttl"
    std::uint64_t bytesDone = 0, degradedBytes = 0;
    std::function<void()> issue = [&] {
        if (eq.now() >= kHorizon)
            return;
        const std::uint64_t off =
            rng.below(region / reqBytes) * reqBytes;
        srv.array().read(off, reqBytes, [&] {
            if (eq.now() <= kHorizon) {
                bytesDone += reqBytes;
                if (srv.array().degraded())
                    degradedBytes += reqBytes;
            }
            issue();
        });
    };
    issue();
    issue();

    eq.runUntilDone([&] {
        return eq.now() >= kHorizon &&
               !srv.recovery().rebuildActive() &&
               srv.recovery().failuresWaiting() == 0;
    });
    if (st.scrubOn)
        srv.scrubber().stop();
    eq.run();

    TrialRow r{};
    r.loss = srv.faults().dataLossEvents() > 0 ? 1.0 : 0.0;
    r.lossEvents = static_cast<double>(srv.faults().dataLossEvents());
    r.exposed = static_cast<double>(srv.faults().rebuildExposedRanges());
    r.whileDegraded =
        static_cast<double>(srv.faults().latentsWhileDegraded());
    r.doubleFails = static_cast<double>(srv.faults().doubleFailures());
    r.scrubRepaired =
        static_cast<double>(srv.array().scrubRepairedRanges());
    r.readRepaired =
        static_cast<double>(srv.array().readRepairedRanges());
    const auto &mttr = srv.recovery().mttrMs();
    r.rebuilds = static_cast<double>(mttr.count());
    r.mttrMs = mttr.count() ? mttr.mean() * mttr.count() : 0.0;
    r.degradedMB = static_cast<double>(degradedBytes) / 1e6;
    r.degradedSec = degradedSec;
    r.overallMB = static_cast<double>(bytesDone) / 1e6;
    return r;
}

/** Trials per setting, and the first trial's fault seed. */
constexpr unsigned kTrials = 6;
constexpr std::uint64_t kSeedBase = 1;

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("reliability_mttdl", argc, argv);
    rep.header("Reliability: Monte Carlo fault campaigns, scrub rate "
               "x rebuild throttle",
               "policy study; the paper defers it (§2.3)");

    const std::vector<Setting> settings = {
        {"off", 0, false, 0},
        {"slow", sim::msToTicks(100), true, 0},
        {"fast", 0, true, 0},
        {"off", 0, false, sim::msToTicks(250)},
        {"slow", sim::msToTicks(100), true, sim::msToTicks(250)},
        {"fast", 0, true, sim::msToTicks(250)},
    };
    const unsigned trials = kTrials;
    const std::uint64_t base = kSeedBase;

    // One simulation per (setting, trial), swept across the pool.
    // Trial seeds repeat across settings: paired fault histories.
    const auto rows = bench::runSweepParallel(
        settings.size() * trials, [&](std::size_t i) {
            const Setting &st = settings[i / trials];
            const TrialRow r = runTrial(st, base + i % trials);
            return std::vector<double>{
                r.loss,       r.mttrMs,        r.rebuilds,
                r.degradedMB, r.degradedSec,   r.overallMB,
                r.lossEvents, r.exposed,       r.whileDegraded,
                r.doubleFails, r.scrubRepaired, r.readRepaired};
        });

    rep.seriesHeader({"scrub ms", "throttle ms", "trials", "loss prob",
                      "MTTR s", "degr MB/s", "overall MB/s",
                      "loss events", "exposed", "while degr",
                      "dbl fail", "scrub rep", "read rep"});
    for (std::size_t s = 0; s < settings.size(); ++s) {
        const Setting &st = settings[s];
        double acc[12] = {};
        for (unsigned t = 0; t < trials; ++t) {
            const auto &r = rows[s * trials + t];
            for (std::size_t k = 0; k < 12; ++k)
                acc[k] += r[k];
        }
        const double horizonSec =
            sim::ticksToMs(kHorizon) / 1e3 * trials;
        rep.seriesRow(
            {st.scrubOn ? sim::ticksToMs(st.scrubDelay) : -1.0,
             sim::ticksToMs(st.throttle), static_cast<double>(trials),
             acc[0] / trials,
             acc[2] ? acc[1] / acc[2] / 1e3 : 0.0,
             acc[4] > 0 ? acc[3] / acc[4] : 0.0, acc[5] / horizonSec,
             acc[6], acc[7], acc[8], acc[9], acc[10], acc[11]});
    }

    // Exemplar campaign snapshot: the full fault/recovery/scrub stats
    // tree for one trial of the fast-scrub, unthrottled setting.
    {
        sim::EventQueue eq;
        auto cfg = bench::lfsConfig();
        cfg.withFs = false;
        cfg.withReliability = true;
        cfg.topo.profile = &scaledProfile();
        cfg.recovery.spares = 2;
        cfg.scrub.interChunkDelay = 0;
        server::Raid2Server srv(eq, "srv", cfg);
        srv.faults().setPlan(trialPlan(srv, base));
        srv.faults().start();
        srv.scrubber().start();
        eq.runUntilDone([&] {
            return eq.now() >= kHorizon &&
                   !srv.recovery().rebuildActive() &&
                   srv.recovery().failuresWaiting() == 0;
        });
        srv.scrubber().stop();
        eq.run();
        sim::StatsRegistry reg;
        reg.setElapsed([&] { return eq.now(); });
        srv.registerStats(reg);
        rep.snapshotRegistry(reg);
    }

    std::printf("\n  Expected shape: scrubbing cuts rebuild-exposure "
                "loss (fewer latents\n  outstanding when a disk "
                "dies); the throttle lengthens MTTR, widening\n  the "
                "double-failure window, but preserves foreground "
                "throughput while\n  degraded.  -1 scrub ms = "
                "scrubbing off.\n");
    return 0;
}
