/**
 * @file
 * The repository benchmark: one named server workload per process.
 *
 *   raid2_suite --workload <fleet_read|fleet_write|stream|degraded>
 *               --seed <n> [--seconds <s>] [--trace] [--smoke]
 *
 * Prints one "<workload> <metric> <value> <unit>" line per metric, then
 * "verify=ok" or "verify=fail", and exits non-zero when an output check
 * fails.  Simulated-time metrics are a pure function of (workload,
 * seed); host metrics time the simulator itself in CPU seconds of its
 * thread, scaled by a reference computation (see Calibration).  Without
 * --trace the end-to-end metrics are printed; with --trace the
 * fixed-load phase is run once untraced and once with a TraceSink
 * attached, and the per-layer metrics are printed.  --smoke shrinks
 * every window.  --seconds repeats the fixed-load phase on the same
 * seed until that much wall time has passed, for steadier host-time
 * medians and a determinism check.  README.md documents workloads and
 * metrics.
 *
 * Everything is read from outside the server: the public stats
 * registry, component accessors, the FsOp observer, and host timing of
 * the benchmark's own calls into Raid2Server.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "config/calibration.hh"
#include "disk/disk_profile.hh"
#include "fault/fault_plan.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"
#include "workload/client_fleet.hh"

using namespace raid2;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
quantile(std::vector<double> v, double q)
{
    return sim::exactQuantile(v, q);
}

/** CPU seconds this thread has run: unlike wall time, it leaves out the
 *  time the thread waits for a processor. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * A fixed reference computation, timed before and after every world to
 * track how fast the host's core runs at the moment.  On a shared
 * virtual machine, other tenants slow the simulator by up to 40 % for
 * minutes at a time, in CPU time as well as in wall time, and a
 * compute-bound loop slows with it.  The host metrics are scaled by the
 * reference's nominal time over its median time in the run.  The work
 * belongs to the benchmark and must never change: an FNV-1a hash of a
 * 16 KB buffer, which stays in the cache, so its time depends on the
 * core's speed and not on where the buffer lies in memory.
 */
class Calibration
{
  public:
    /** Median time of one chunk, in microseconds, on the machine the
     *  baseline in README.md was measured on, a quiet 2.0 GHz Xeon
     *  virtual machine.  Host metrics are reported in seconds of that
     *  machine. */
    static constexpr double nominalUs = 23.0;

    Calibration() : buf(16 * sim::KiB)
    {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }

    /** Time a batch of chunks. */
    void
    sample()
    {
        for (unsigned i = 0; i < chunksPerSample; ++i) {
            const double t0 = cpuSeconds();
            std::uint64_t h = 1469598103934665603ull;
            for (const std::uint8_t b : buf)
                h = (h ^ b) * 1099511628211ull;
            sink = h;
            chunkUs.push_back((cpuSeconds() - t0) * 1e6);
        }
    }

    double medianUs() const { return quantile(chunkUs, 0.5); }

    /** Converts measured CPU seconds into seconds of the nominal
     *  machine. */
    double scale() const { return nominalUs / medianUs(); }

  private:
    static constexpr unsigned chunksPerSample = 256;

    std::vector<std::uint8_t> buf;
    std::vector<double> chunkUs;
    volatile std::uint64_t sink = 0;
};

Calibration &
calibration()
{
    static Calibration c;
    return c;
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/** An open-loop ClientFleet workload and its capacity search. */
struct FleetShape
{
    double readFraction;
    unsigned files;   ///< each fleetFileBytes long
    double rate;      ///< offered ops/s of the fixed-load phase
    double windowS;   ///< simulated seconds of the fixed-load phase
    bool degraded;    ///< disk 3 fails at t = 1 s, rebuild to a spare
    /** @{ Capacity search: bisection over [searchLo, searchHi]
     *  offered ops/s in @c probes fresh worlds of about probeOps ops,
     *  each passing when p99 <= limitMs with no growing backlog. */
    double searchLo;
    double searchHi;
    unsigned probes;
    double probeOps;
    double limitMs;
    /** @} */
};

constexpr std::uint64_t fleetFileBytes = 2 * sim::MiB;

/* The fixed rates sit well below each workload's capacity, where p99
 * has a stable tail.  Each probe offers >= 1000 ops, so its p99 has
 * >= 10 samples beyond it.  Degraded mode gets a 2 s limit: at 1 s the
 * crossing falls where degraded p99 barely rises with load, and the
 * capacity it gives swings with the seed. */
const FleetShape fleetRead{0.8, 32, 28.0, 300.0, false,
                           8.0, 72.0, 5, 1200, 1000};
const FleetShape fleetWrite{0.2, 64, 24.0, 300.0, false,
                            8.0, 72.0, 5, 1200, 1000};
const FleetShape degradedRead{0.8, 32, 8.0, 300.0, true,
                              4.0, 36.0, 4, 1500, 2000};

/** Latency charged to a dropped or corrupt op: it misses any limit. */
constexpr double failedOpMs = 1e12;

/** @{ stream: a closed loop of 2 MB requests, in random order half
 *  random reads of a 96 MB file and half sequential writes over a 64 MB
 *  region of a second file.  Read and write latencies then interleave,
 *  so every quantile depends on the seed.  It runs in streamWorlds
 *  worlds, each with its own seed, so set-up is timed more than once;
 *  the fleets time set-up in their capacity probes. */
constexpr std::uint64_t streamReadFile = 96 * sim::MiB;
constexpr std::uint64_t streamWriteRegion = 64 * sim::MiB;
constexpr std::uint64_t streamRequestBytes = 2 * sim::MiB;
constexpr double streamReadShare = 0.5;
constexpr unsigned streamWorlds = 3;
constexpr unsigned streamOpsPerWorld = 344;
/** @} */

/** The degraded workload's failed disk and failure time. */
constexpr unsigned failedDisk = 3;
constexpr double failAtS = 1.0;

/** @{ --smoke sizes. */
constexpr double smokeWindowS = 20.0;
constexpr double smokeProbeOps = 120;
constexpr unsigned smokeStreamOps = 24;
/** @} */

/**
 * The §3.4 LFS setup: 16 IBM 0661 disks on 4 Cougars, RAID-5, 64 KB
 * stripe unit, 960 KB segments, pipeline depth 8, 256 MB log.  The
 * server configuration is part of the workload definition, so it is
 * fixed here rather than shared with the figure benches.
 */
server::Raid2Server::Config
serverConfig(bool degraded)
{
    server::Raid2Server::Config cfg;
    cfg.layout.level = raid::RaidLevel::Raid5;
    cfg.layout.stripeUnitBytes = cal::lfsStripeUnitBytes;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 2;
    cfg.topo.profile = &disk::ibm0661();
    cfg.withFs = true;
    cfg.fsDeviceBytes = 256 * sim::MiB;
    cfg.pipelineDepth = 8;
    cfg.withIntegrity = degraded;
    cfg.withReliability = degraded;
    return cfg;
}

/** Population pattern; the same one ClientFleet::run lays down. */
std::vector<std::uint8_t>
populationBytes(std::uint64_t bytes)
{
    std::vector<std::uint8_t> buf(bytes);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 13 + 7);
    return buf;
}

// ---------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------

/**
 * The bytes every file should hold: its population pattern overlaid
 * with every write the server applied, as the public FsOp observer
 * reports them.  Raid2Server::fileWrite stores (pos * 131 + ino) at
 * file byte pos whatever the order of the writes, so the shadow only
 * records which ranges were written and builds the expected bytes when
 * it checks, outside the measured phase.
 */
class Shadow
{
  public:
    void add(lfs::InodeNum ino, std::uint64_t populated)
    {
        files[ino].populated = populated;
    }

    void
    write(lfs::InodeNum ino, std::uint64_t off, std::uint64_t len)
    {
        files[ino].writes.emplace_back(off, len);
        written += len;
    }

    std::uint64_t bytesWritten() const { return written; }

    /** fsck plus a byte-for-byte read-back of every file; returns the
     *  number of failures (an unclean fsck counts as one). */
    std::uint64_t
    check(const lfs::Lfs &fs) const
    {
        std::uint64_t failures = 0;
        const lfs::FsckReport report = fs.fsck();
        if (!report.ok) {
            ++failures;
            for (const auto &p : report.problems())
                std::fprintf(stderr, "fsck: %s\n", p.c_str());
        }
        std::vector<std::uint8_t> got;
        for (const auto &[ino, file] : files) {
            std::vector<std::uint8_t> expect =
                populationBytes(file.populated);
            // Sorted, each byte is filled once however often the
            // ranges overlap.
            auto writes = file.writes;
            std::sort(writes.begin(), writes.end());
            std::uint64_t filled = 0;
            for (const auto &[off, len] : writes) {
                if (expect.size() < off + len)
                    expect.resize(off + len);
                for (std::uint64_t p = std::max(off, filled); p < off + len;
                     ++p)
                    expect[p] = static_cast<std::uint8_t>(p * 131 + ino);
                filled = std::max(filled, off + len);
            }
            got.assign(expect.size(), 0);
            const bool same =
                fs.statIno(ino).size == expect.size() &&
                fs.read(ino, 0, {got.data(), got.size()}) ==
                    expect.size() &&
                got == expect;
            if (!same) {
                ++failures;
                std::fprintf(stderr, "verify: inode %llu differs\n",
                             static_cast<unsigned long long>(ino));
            }
        }
        return failures;
    }

  private:
    struct File
    {
        std::uint64_t populated = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> writes;
    };
    std::map<lfs::InodeNum, File> files;
    std::uint64_t written = 0;
};

// ---------------------------------------------------------------------
// Registry views
// ---------------------------------------------------------------------

/**
 * Registry values parsed from StatsRegistry::dump() lines
 * ("name = value" or "name = key=value, key=value, ...").
 */
class Snapshot
{
  public:
    explicit Snapshot(const sim::StatsRegistry &reg)
    {
        std::ostringstream os;
        os << std::setprecision(17);
        reg.dump(os);
        std::istringstream is(os.str());
        std::string line;
        while (std::getline(is, line)) {
            const auto eq = line.find(" = ");
            if (eq != std::string::npos)
                entries[line.substr(0, eq)] = line.substr(eq + 3);
        }
    }

    /** A plain counter or gauge, or one field ("busy_ms", "mean",
     *  "n", ...) of a structured entry; 0 when not registered. */
    double
    get(const std::string &name, const std::string &key = {}) const
    {
        const auto it = entries.find(name);
        if (it == entries.end())
            return 0.0;
        const std::string &s = it->second;
        if (key.empty())
            return std::strtod(s.c_str(), nullptr);
        for (std::size_t at = s.find(key + "="); at != std::string::npos;
             at = s.find(key + "=", at + 1)) {
            if (at == 0 || s[at - 1] == ' ' || s[at - 1] == '(')
                return std::strtod(s.c_str() + at + key.size() + 1,
                                   nullptr);
        }
        return 0.0;
    }

    /** Names of the form <prefix><anything><suffix>. */
    std::vector<std::string>
    names(const std::string &prefix, const std::string &suffix) const
    {
        std::vector<std::string> out;
        for (auto it = entries.lower_bound(prefix);
             it != entries.end() && it->first.rfind(prefix, 0) == 0; ++it) {
            const std::string &n = it->first;
            if (n.size() >= prefix.size() + suffix.size() &&
                n.compare(n.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
                out.push_back(n);
        }
        return out;
    }

  private:
    std::map<std::string, std::string> entries;
};

/**
 * Registry deltas over the measured window: counters as differences,
 * utilizations as busy time over the window, distribution means over
 * the samples taken in the window.  So the population drain that
 * precedes the window is not charged to any layer.
 */
class WindowView
{
  public:
    WindowView(Snapshot open, Snapshot close, sim::Tick window)
        : a(std::move(open)), b(std::move(close)),
          windowMs(sim::ticksToMs(window))
    {
    }

    /** Change of a counter, or of one field of a structured entry. */
    double
    count(const std::string &n, const std::string &key = {}) const
    {
        return b.get(n, key) - a.get(n, key);
    }

    double
    util(const std::string &n) const
    {
        return ratio(count(n, "busy_ms"), windowMs);
    }

    /** Mean of the Distribution samples taken in the window. */
    double
    mean(const std::string &n) const
    {
        return ratio(total(n), count(n, "n"));
    }

    /** Sample-weighted mean over the matching Distribution entries. */
    double
    pooledMean(const std::string &prefix, const std::string &suffix) const
    {
        double sum = 0, n = 0;
        for (const auto &name : b.names(prefix, suffix)) {
            sum += total(name);
            n += count(name, "n");
        }
        return ratio(sum, n);
    }

    double
    maxUtil(const std::string &prefix, const std::string &suffix) const
    {
        double m = 0;
        for (const auto &n : b.names(prefix, suffix))
            m = std::max(m, util(n));
        return m;
    }

    double
    meanUtil(const std::string &prefix, const std::string &suffix) const
    {
        const auto ns = b.names(prefix, suffix);
        double s = 0;
        for (const auto &n : ns)
            s += util(n);
        return ratio(s, static_cast<double>(ns.size()));
    }

    /** Change summed over the matching counters. */
    double
    countAll(const std::string &prefix, const std::string &suffix) const
    {
        double s = 0;
        for (const auto &n : b.names(prefix, suffix))
            s += count(n);
        return s;
    }

    /** Change of a counter per simulated second of the window. */
    double
    rate(const std::string &n) const
    {
        return ratio(count(n), windowMs / 1e3);
    }

    /** Sum of a Distribution's samples taken in the window. */
    double
    total(const std::string &n) const
    {
        return b.get(n, "n") * b.get(n, "mean") -
               a.get(n, "n") * a.get(n, "mean");
    }

  private:

    Snapshot a, b;
    double windowMs;
};

// ---------------------------------------------------------------------
// One simulated world
// ---------------------------------------------------------------------

/** One server plus the benchmark's view of it. */
struct World
{
    double builtCpu = cpuSeconds(); ///< CPU time when building began
    sim::EventQueue eq;
    server::Raid2Server srv;
    server::RequestScheduler sched;
    double constructedCpu;
    sim::StatsRegistry reg;
    Shadow shadow;
    std::unique_ptr<sim::TraceSink> sink;

    /** @{ State when the measured window opened. */
    std::optional<Snapshot> atOpen;
    double openCpu = 0;
    sim::Tick openTick = 0;
    std::uint64_t openEvents = 0;
    std::uint64_t openArrayBytesWritten = 0;
    bool openClean = false;
    /** @} */

    World(bool degraded, bool traced)
        : srv(eq, "srv", serverConfig(degraded)), sched(eq, srv),
          constructedCpu(cpuSeconds())
    {
        srv.registerStats(reg);
        sched.registerStats(reg);
        if (traced) {
            sink = std::make_unique<sim::TraceSink>(eq);
            eq.setTracer(sink.get());
        }
    }

    ~World() { eq.setTracer(nullptr); }

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Mark the start of the measured window; set-up writes must be
     *  on the array by now. */
    void
    openWindow()
    {
        openCpu = cpuSeconds();
        openClean =
            srv.array().writes() == srv.array().writeLatencyMs().count();
        atOpen.emplace(reg);
        openTick = eq.now();
        openEvents = eq.executed();
        openArrayBytesWritten = srv.array().bytesWritten();
    }

    WindowView
    window() const
    {
        return WindowView(*atOpen, Snapshot(reg), eq.now() - openTick);
    }
};

/** What the measured phase of one or more worlds produced. */
struct RunFacts
{
    double setupS = 0;    ///< CPU s: build + populate + drain
    double layoutS = 0;   ///< CPU s of populate + drain alone
    double measuredS = 0; ///< CPU s of the measured phase
    sim::Tick windowTicks = 0; ///< simulated length of the measured phase
    std::uint64_t ops = 0;
    std::uint64_t retries = 0;
    std::uint64_t failedOps = 0; ///< dropped + corrupt
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t arrayBytesWritten = 0; ///< in the window
    std::uint64_t events = 0;            ///< in the window
    std::vector<double> latencyMs;       ///< failed ops as failedOpMs
    std::vector<double> fastMs, stdMs;
    double callS = 0; ///< CPU s inside the benchmark's server calls
    std::uint64_t checkFailures = 0;
    bool windowClean = true;

    double
    goodputMBps() const
    {
        return sim::mbPerSec(readBytes + writeBytes, windowTicks);
    }

    /** Pool another world's measured phase into this one. */
    void
    absorb(const RunFacts &o)
    {
        measuredS += o.measuredS;
        windowTicks += o.windowTicks;
        ops += o.ops;
        retries += o.retries;
        failedOps += o.failedOps;
        readBytes += o.readBytes;
        writeBytes += o.writeBytes;
        arrayBytesWritten += o.arrayBytesWritten;
        events += o.events;
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        callS += o.callS;
        checkFailures += o.checkFailures;
        windowClean = windowClean && o.windowClean;
    }

    /** Simulated results that must repeat exactly on the same seed. */
    bool
    sameSimulation(const RunFacts &o) const
    {
        return events == o.events && windowTicks == o.windowTicks &&
               latencyMs == o.latencyMs && readBytes == o.readBytes &&
               writeBytes == o.writeBytes;
    }
};

/** Called on the finished world before it is torn down. */
using Inspect = std::function<void(World &, const RunFacts &)>;

/** Close the window, check the files, hand the world to @p inspect. */
void
finish(World &w, RunFacts &f, const Inspect &inspect)
{
    f.measuredS = cpuSeconds() - w.openCpu;
    f.events = w.eq.executed() - w.openEvents;
    f.arrayBytesWritten =
        w.srv.array().bytesWritten() - w.openArrayBytesWritten;
    f.windowClean = w.openClean;
    f.checkFailures = w.shadow.check(w.srv.fs());
    w.srv.setFsOpObserver(nullptr);
    if (inspect)
        inspect(w, f);
}

/**
 * Run @p shape at @p rate offered ops/s for @p window_s simulated
 * seconds in a fresh world.  ClientFleet::run populates the files and
 * drains them with fsSync before it opens its sessions; set-up ends at
 * the first FsOp::Sync the server reports, and the measured window
 * opens at the first client write.
 */
RunFacts
runFleet(const FleetShape &shape, double rate, double window_s,
         std::uint64_t seed, bool traced, const Inspect &inspect = {})
{
    calibration().sample();
    World w(shape.degraded, traced);
    RunFacts f;
    if (shape.degraded) {
        fault::FaultPlan plan;
        plan.diskFail(sim::secToTicks(failAtS), failedDisk);
        w.srv.faults().setPlan(std::move(plan));
        w.srv.faults().start();
    }

    bool synced = false;
    w.srv.setFsOpObserver([&](const server::Raid2Server::FsOp &op) {
        using Kind = server::Raid2Server::FsOp::Kind;
        if (op.kind == Kind::Sync && !synced) {
            synced = true;
            f.setupS = cpuSeconds() - w.builtCpu;
            f.layoutS = cpuSeconds() - w.constructedCpu;
            for (unsigned i = 0; i < shape.files; ++i)
                w.shadow.add(
                    w.srv.fs().lookup("/fleet" + std::to_string(i)),
                    fleetFileBytes);
        } else if (op.kind == Kind::Write) {
            if (!w.atOpen)
                w.openWindow();
            w.shadow.write(op.ino, op.off, op.len);
        }
    });

    workload::ClientFleet::Config fc;
    fc.mode = workload::ClientFleet::Mode::Open;
    fc.sessions = 256;
    fc.fileCount = shape.files;
    fc.fileBytes = fleetFileBytes;
    fc.readFraction = shape.readFraction;
    fc.offeredOpsPerSec = rate;
    fc.duration = sim::secToTicks(window_s);
    fc.seed = seed;

    const auto res = workload::ClientFleet::run(w.eq, w.srv, w.sched, fc);
    if (!synced || !w.atOpen)
        sim::fatal("benchmark: fleet run never synced or never wrote");
    f.windowTicks = res.elapsed;
    f.ops = res.ops;
    f.retries = res.retries;
    f.failedOps = res.dropped + res.corruptOps;
    f.writeBytes = w.shadow.bytesWritten();
    f.readBytes = res.bytes - std::min(res.bytes, f.writeBytes);
    f.fastMs = res.fast.latencyMs;
    f.stdMs = res.standard.latencyMs;
    f.latencyMs = f.fastMs;
    f.latencyMs.insert(f.latencyMs.end(), f.stdMs.begin(), f.stdMs.end());
    f.latencyMs.insert(f.latencyMs.end(), f.failedOps, failedOpMs);
    finish(w, f, inspect);
    calibration().sample();
    return f;
}

/**
 * One stream world: one process in a closed loop (§3.4).  Set-up lays
 * both files down through the functional file system and drains them
 * to the array with fsSync; the measured phase is @p ops requests and
 * a final fsSync.
 */
RunFacts
runStream(std::uint64_t seed, unsigned ops, bool traced,
          const Inspect &inspect = {})
{
    calibration().sample();
    World w(false, traced);
    RunFacts f;

    const lfs::InodeNum rd = w.srv.createFile("/stream_read");
    const lfs::InodeNum wr = w.srv.createFile("/stream_write");
    for (auto [ino, bytes] : {std::pair{rd, streamReadFile},
                              std::pair{wr, streamWriteRegion}}) {
        const auto data = populationBytes(bytes);
        w.srv.fs().write(ino, 0, {data.data(), data.size()});
        w.shadow.add(ino, bytes);
    }
    w.srv.fs().checkpoint();
    bool synced = false;
    w.srv.fsSync([&synced] { synced = true; });
    w.eq.runUntilDone([&synced] { return synced; });
    f.setupS = cpuSeconds() - w.builtCpu;
    f.layoutS = cpuSeconds() - w.constructedCpu;
    w.openWindow();

    w.srv.setFsOpObserver([&w](const server::Raid2Server::FsOp &op) {
        if (op.kind == server::Raid2Server::FsOp::Kind::Write)
            w.shadow.write(op.ino, op.off, op.len);
    });

    sim::Random rng(seed);
    const std::uint64_t len = streamRequestBytes;
    const std::uint64_t readSlots = (streamReadFile - len) / 4096 + 1;
    std::uint64_t writeOff = 0;
    for (unsigned i = 0; i < ops; ++i) {
        const bool read = rng.chance(streamReadShare);
        bool done = false;
        const sim::Tick issued = w.eq.now();
        const double callStart = cpuSeconds();
        if (read) {
            w.srv.fileRead(rd, rng.below(readSlots) * 4096, len,
                           [&done] { done = true; });
        } else {
            w.srv.fileWrite(wr, writeOff, len, [&done] { done = true; });
            writeOff = (writeOff + len) % streamWriteRegion;
        }
        f.callS += cpuSeconds() - callStart;
        w.eq.runUntilDone([&done] { return done; });
        if (!done)
            sim::fatal("benchmark: stream request never completed");
        if (w.sink)
            w.sink->complete("bench", read ? "fileRead" : "fileWrite",
                             issued, w.eq.now(), len);
        f.latencyMs.push_back(sim::ticksToMs(w.eq.now() - issued));
        ++f.ops;
        (read ? f.readBytes : f.writeBytes) += len;
    }
    synced = false;
    w.srv.fsSync([&synced] { synced = true; });
    w.eq.runUntilDone([&synced] { return synced; });
    f.windowTicks = w.eq.now() - w.openTick;
    finish(w, f, inspect);
    calibration().sample();
    return f;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Prints metric lines for one workload. */
class Output
{
  public:
    explicit Output(std::string workload) : wl(std::move(workload)) {}

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        std::printf("%s %s %.17g %s\n", wl.c_str(), name.c_str(), value,
                    unit.c_str());
    }

  private:
    std::string wl;
};

/** Run totals behind attempted / failed and the set-up median. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool clean = true;
    std::vector<double> setupS;

    void
    add(const RunFacts &f)
    {
        attempted += f.ops + f.failedOps;
        failed += f.failedOps + f.checkFailures;
        clean = clean && f.windowClean;
        setupS.push_back(f.setupS);
    }
};

/** Per-layer metrics of one finished, untraced world. */
void
layerMetrics(World &w, const RunFacts &f, Output &out)
{
    const WindowView v = w.window();

    out.add("sim.events", static_cast<double>(f.events), "count");
    out.add("sim.events_per_host_s",
            ratio(static_cast<double>(f.events), f.measuredS), "1/s");
    out.add("sim.host_us_per_event",
            ratio(f.measuredS * 1e6, static_cast<double>(f.events)), "us");

    out.add("workload.ops", static_cast<double>(f.ops), "count");
    out.add("workload.retry_frac",
            ratio(static_cast<double>(f.retries), static_cast<double>(f.ops)),
            "frac");
    out.add("workload.fast_p99_ms", quantile(f.fastMs, 0.99), "ms");
    out.add("workload.std_p99_ms", quantile(f.stdMs, 0.99), "ms");
    out.add("workload.read_MBps", sim::mbPerSec(f.readBytes, f.windowTicks),
            "MB/s");
    out.add("workload.write_MBps",
            sim::mbPerSec(f.writeBytes, f.windowTicks), "MB/s");

    out.add("sched.fast.wait_ms", v.mean("server.sched.fast.queue_delay_ms"),
            "ms");
    out.add("sched.fast.service_ms", v.mean("server.sched.fast.service_ms"),
            "ms");
    out.add("sched.std.wait_ms", v.mean("server.sched.std.queue_delay_ms"),
            "ms");
    out.add("sched.std.service_ms", v.mean("server.sched.std.service_ms"),
            "ms");
    out.add("sched.rejected",
            v.count("server.sched.fast.rejected") +
                v.count("server.sched.std.rejected"),
            "count");

    out.add("server.fs_cpu.util", v.util("server.fs_cpu.busy"), "frac");
    out.add("server.fs_cpu.wait_ms", v.mean("server.fs_cpu.queue_delay_ms"),
            "ms");
    out.add("server.segment_flushes", v.count("server.segment_flushes"),
            "count");
    out.add("server.call_host_us",
            ratio(f.callS * 1e6, static_cast<double>(f.ops)), "us");

    out.add("lfs.write_amp",
            ratio(static_cast<double>(f.arrayBytesWritten),
                  static_cast<double>(f.writeBytes)),
            "ratio");
    out.add("lfs.cleaner.segments", v.count("lfs.cleaner.segments_cleaned"),
            "count");
    out.add("lfs.cleaner.blocks_copied", v.count("lfs.cleaner.blocks_copied"),
            "count");
    out.add("lfs.layout_host_s", f.layoutS, "s");

    out.add("raid.read_amp",
            ratio(v.count("raid.bytes_read"),
                  static_cast<double>(f.readBytes)),
            "ratio");
    out.add("raid.read_ms", v.mean("raid.read_ms"), "ms");
    out.add("raid.write_ms", v.mean("raid.write_ms"), "ms");
    const double full = v.count("raid.full_stripe_writes");
    out.add("raid.full_stripe_frac",
            ratio(full, full + v.count("raid.rmw_stripes") +
                            v.count("raid.reconstruct_write_stripes")),
            "frac");
    out.add("raid.lock_wait_ms", v.total("raid.stripe_lock_wait_ms"), "ms");
    out.add("raid.degraded_reads", v.count("raid.degraded_reads"), "count");
    out.add("raid.degraded_MB", v.count("raid.degraded_bytes") / 1e6, "MB");

    out.add("xbus.memory.util", v.util("xbus.memory.busy"), "frac");
    out.add("xbus.memory.wait_ms", v.mean("xbus.memory.queue_delay_ms"),
            "ms");
    out.add("xbus.vme.util_max", v.maxUtil("xbus.port.vme", ".busy"),
            "frac");
    out.add("xbus.vme.wait_ms",
            v.pooledMean("xbus.port.vme", ".queue_delay_ms"), "ms");
    out.add("xbus.parity.util", v.util("xbus.port.parity.busy"), "frac");
    out.add("xbus.hippi_src.util", v.util("xbus.port.hippi_src.busy"),
            "frac");
    out.add("xbus.dram.peak_MB",
            static_cast<double>(w.srv.board().buffers().peakUse()) / 1e6,
            "MB");

    out.add("scsi.string.util_max", v.maxUtil("scsi.", ".bus.busy"), "frac");
    out.add("scsi.string.wait_ms",
            v.pooledMean("scsi.", ".bus.queue_delay_ms"), "ms");
    out.add("scsi.ctrl.util_max", v.maxUtil("scsi.", ".ctrl.busy"), "frac");

    out.add("disk.util_mean", v.meanUtil("disk.", ".busy"), "frac");
    out.add("disk.util_max", v.maxUtil("disk.", ".busy"), "frac");
    out.add("disk.queue_depth", v.pooledMean("disk.", ".queue_depth"),
            "count");
    out.add("disk.position_ms", v.pooledMean("disk.", ".position_ms"), "ms");
    out.add("disk.service_ms", v.pooledMean("disk.", ".service_ms"), "ms");
    out.add("disk.readahead_frac",
            ratio(v.countAll("disk.", ".readahead_hits"),
                  v.countAll("disk.", ".requests")),
            "frac");

    out.add("ether.util", v.util("ether.wire.busy"), "frac");
    out.add("ether.wait_ms", v.mean("ether.wire.queue_delay_ms"), "ms");
    out.add("host.cpu.util", v.util("host.cpu.busy"), "frac");
    out.add("host.cache_hit_frac", w.srv.hostCache().hitRate(), "frac");

    out.add("integrity.verified_blocks", v.count("integrity.verified_blocks"),
            "count");

    // Each rebuilt stripe writes one stripe unit to the spare.
    out.add("rebuild.stripes_done", v.count("recovery.rebuild.stripes_done"),
            "count");
    out.add("rebuild.MBps",
            v.rate("recovery.rebuild.stripes_done") *
                static_cast<double>(cal::lfsStripeUnitBytes) / 1e6,
            "MB/s");
}

/** Union length, in ms, of the closed spans @p pick selects, clipped to
 *  the measured window. */
double
busyMs(const World &w,
       const std::function<bool(const sim::TraceSink::Span &)> &pick)
{
    std::vector<std::pair<sim::Tick, sim::Tick>> iv;
    for (const auto &s : w.sink->spans())
        if (s.closed && s.end > w.openTick && pick(s))
            iv.emplace_back(std::max(s.begin, w.openTick), s.end);
    std::sort(iv.begin(), iv.end());
    sim::Tick total = 0, runBegin = 0, runEnd = 0;
    for (const auto &[b, e] : iv) {
        if (b > runEnd) {
            total += runEnd - runBegin;
            runBegin = b;
            runEnd = e;
        } else {
            runEnd = std::max(runEnd, e);
        }
    }
    total += runEnd - runBegin;
    return sim::ticksToMs(total);
}

/** Per-layer busy time from the traced world's spans. */
void
traceMetrics(const World &w, double untracedS, double tracedS, Output &out)
{
    using Span = sim::TraceSink::Span;
    using Pick = std::function<bool(const Span &)>;
    out.add("trace.spans", static_cast<double>(w.sink->spanCount()),
            "count");
    out.add("trace.overhead_frac", ratio(tracedS, untracedS) - 1.0, "frac");
    const std::vector<std::pair<const char *, Pick>> layers = {
        {"sched.fast",
         [](const Span &s) { return s.component == "sched.fast"; }},
        {"sched.std",
         [](const Span &s) { return s.component == "sched.std"; }},
        {"pipeline",
         [](const Span &s) {
             return s.component == "pipeline" && s.name == "prefetch";
         }},
        {"array", [](const Span &s) { return s.component == "srv.array"; }},
        {"disk",
         [](const Span &s) {
             return s.component.rfind("srv.array.disk", 0) == 0;
         }},
        // Fast-path egress is the pipeline's send stage (XBUS memory ->
        // HIPPI source); loopback transfers trace as hippi packets.
        {"hippi",
         [](const Span &s) {
             return (s.component == "pipeline" && s.name == "send") ||
                    s.component.find("hippi") != std::string::npos;
         }},
        {"segment_flush",
         [](const Span &s) { return s.name == "segment_flush"; }},
        // The benchmark's own spans around each call into Raid2Server.
        {"bench", [](const Span &s) { return s.component == "bench"; }},
    };
    for (const auto &[name, pick] : layers)
        out.add(std::string("trace.") + name + ".busy_ms", busyMs(w, pick),
                "ms");
}

/**
 * Bisection for the highest offered rate whose probe meets the p99
 * limit (dropped and corrupt ops count as infinite latency) with no
 * growing backlog (achieved >= 0.95 x offered).  Every probe uses the
 * run's seed, so probes differ only in rate.  The result is
 * interpolated between the highest passing and the lowest failing
 * probe at the rate where p99 crosses the limit.
 */
double
searchCapacity(const FleetShape &shape, std::uint64_t seed, bool smoke,
               Tally &t)
{
    const unsigned probes = smoke ? 1 : shape.probes;
    const double ops = smoke ? smokeProbeOps : shape.probeOps;
    double lo = shape.searchLo, hi = shape.searchHi;
    double loP99 = -1, hiP99 = -1;
    for (unsigned i = 0; i < probes; ++i) {
        const double mid = (lo + hi) / 2;
        const RunFacts f = runFleet(shape, mid, ops / mid, seed, false);
        t.add(f);
        const double achieved =
            static_cast<double>(f.ops) / sim::ticksToSec(f.windowTicks);
        const double p99 = quantile(f.latencyMs, 0.99);
        const bool pass = p99 <= shape.limitMs && achieved >= 0.95 * mid;
        (pass ? lo : hi) = mid;
        (pass ? loP99 : hiP99) = p99;
    }
    if (loP99 >= 0 && hiP99 > shape.limitMs)
        return lo + (hi - lo) * (shape.limitMs - loP99) / (hiP99 - loP99);
    return lo;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: raid2_suite --workload <fleet_read|fleet_write|"
                 "stream|degraded> --seed <n> [--seconds <s>] [--trace] "
                 "[--smoke]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        char *end = nullptr;
        if (arg == "--workload" && hasValue) {
            a.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            a.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                usage();
        } else if (arg == "--seconds" && hasValue) {
            a.seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(a.seconds >= 0))
                usage();
        } else if (arg == "--trace") {
            a.trace = true;
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else {
            usage();
        }
    }
    return a;
}

double
peakRssMB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const FleetShape *shape = a.workload == "fleet_read"    ? &fleetRead
                              : a.workload == "fleet_write" ? &fleetWrite
                              : a.workload == "degraded"    ? &degradedRead
                                                            : nullptr;
    if (!shape && a.workload != "stream")
        usage();

    const auto start = Clock::now();
    Output out(a.workload);
    Tally t;

    // The fixed-load phase: one fleet world, or the stream worlds
    // pooled (only the first in a traced or smoke run).  Every world is
    // tallied here.
    const unsigned worlds = shape || a.smoke || a.trace ? 1 : streamWorlds;
    auto fixedLoad = [&](bool traced, const Inspect &inspect) {
        RunFacts pooled;
        for (unsigned k = 0; k < worlds; ++k) {
            const RunFacts f =
                shape ? runFleet(*shape, shape->rate,
                                 a.smoke ? smokeWindowS : shape->windowS,
                                 a.seed, traced, inspect)
                      : runStream(a.seed * streamWorlds + k,
                                  a.smoke ? smokeStreamOps
                                          : streamOpsPerWorld,
                                  traced, inspect);
            t.add(f);
            pooled.absorb(f);
        }
        return pooled;
    };

    bool deterministic = true;
    if (a.trace) {
        const RunFacts plain =
            fixedLoad(false, [&](World &w, const RunFacts &f) {
                layerMetrics(w, f, out);
            });
        const RunFacts traced =
            fixedLoad(true, [&](World &w, const RunFacts &f) {
                traceMetrics(w, plain.measuredS, f.measuredS, out);
            });
        deterministic = plain.sameSimulation(traced);
        out.add("calib.chunk_us", calibration().medianUs(), "us");
    } else {
        const auto phaseStart = Clock::now();
        const RunFacts first = fixedLoad(false, {});
        const double phaseS = secondsSince(phaseStart);
        std::vector<double> cpuS{first.measuredS};
        const double maxRate =
            shape ? searchCapacity(*shape, a.seed, a.smoke, t)
                  : static_cast<double>(first.ops) /
                        sim::ticksToSec(first.windowTicks);
        // Repeat the fixed-load phase while the time budget lasts.
        while (secondsSince(start) + phaseS < a.seconds) {
            const RunFacts again = fixedLoad(false, {});
            cpuS.push_back(again.measuredS);
            deterministic = deterministic && first.sameSimulation(again);
        }
        const double scale = calibration().scale();
        out.add("lat_p50_ms", quantile(first.latencyMs, 0.50), "ms");
        out.add("lat_p99_ms", quantile(first.latencyMs, 0.99), "ms");
        out.add("goodput_MBps", first.goodputMBps(), "MB/s");
        out.add("max_rate_ops", maxRate, "ops/s");
        out.add("cpu_s", quantile(cpuS, 0.5) * scale, "s");
        out.add("setup_s", quantile(t.setupS, 0.5) * scale, "s");
        out.add("peak_rss_MB", peakRssMB(), "MB");
    }

    if (!deterministic)
        std::fprintf(stderr, "determinism: repeated runs on one seed "
                             "differ\n");
    const bool ok = t.clean && t.failed == 0 && deterministic;
    out.add("attempted", static_cast<double>(t.attempted), "count");
    out.add("failed", static_cast<double>(t.failed), "count");
    out.add("fail_frac",
            ratio(static_cast<double>(t.failed),
                  static_cast<double>(t.attempted)),
            "frac");
    std::printf("verify=%s\n", ok ? "ok" : "fail");
    return ok ? 0 : 1;
}
