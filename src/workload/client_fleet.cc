#include "workload/client_fleet.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace raid2::workload {

namespace {

using server::RaidFileClient;
using server::RequestScheduler;
using server::Status;

/** Share of ops that are small (ClientFleet::Config::smallBytes). */
constexpr double smallFraction = 0.25;
/** Ceiling of the Busy/Throttled retry backoff. */
constexpr sim::Tick retryBackoffMax = sim::msToTicks(50.0);
/** Attempts before an op is abandoned (Results::dropped). */
constexpr unsigned maxRetries = 10000;

/** One drawn operation; a retry reissues the identical spec. */
struct OpSpec
{
    bool read = true;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
};

struct Session
{
    std::uint32_t index = 0;
    sim::Random rng{0};
    std::unique_ptr<net::ClientModel> nic;
    std::unique_ptr<RaidFileClient> lib;
    RaidFileClient::Handle handle = RaidFileClient::invalidHandle;
    std::uint64_t opsIssued = 0; // closed loop
};

/**
 * Whole-run state shared by the per-session closures.
 *
 * pendingWork counts everything that still owes the run a completion:
 * un-acknowledged opens, scheduled-but-unfired arrival events, and
 * in-flight ops (across all their retries).  The run is over when it
 * reaches zero, which makes the termination predicate immune to
 * momentary quiet spells while an arrival event is pending.
 */
struct Fleet
{
    sim::EventQueue &eq;
    const ClientFleet::Config &cfg;

    net::UltranetFabric ring;
    std::vector<Session> sessions;
    ClientFleet::Results results;

    sim::Tick issueDeadline = 0; // open loop: last admissible arrival
    std::uint64_t pendingWork = 0;

    Fleet(sim::EventQueue &eq_, const ClientFleet::Config &cfg_)
        : eq(eq_), cfg(cfg_), ring(eq_, "fleet.ring")
    {
    }

    ClientFleet::ClassBreakdown &
    slice(RequestScheduler::ServiceClass cls)
    {
        return cls == RequestScheduler::ServiceClass::FastPath
                   ? results.fast
                   : results.standard;
    }

    OpSpec
    drawOp(Session &s)
    {
        OpSpec op;
        op.read = s.rng.chance(cfg.readFraction);
        op.len =
            s.rng.chance(smallFraction) ? cfg.smallBytes : cfg.bulkBytes;
        op.len = std::min(op.len, cfg.fileBytes);
        const std::uint64_t slots = cfg.fileBytes / op.len;
        op.off = s.rng.below(slots) * op.len;
        return op;
    }

    /** Jittered exponential backoff; returns the wait, advances the
     *  backoff for the next round. */
    sim::Tick
    backoffWait(Session &s, sim::Tick &backoff)
    {
        const sim::Tick wait = static_cast<sim::Tick>(
            static_cast<double>(backoff) * (0.5 + s.rng.unit()));
        backoff = std::min<sim::Tick>(backoff * 2, retryBackoffMax);
        return wait;
    }

    /**
     * Issue @p op; retries on Busy/Throttled until it completes or
     * exhausts maxRetries.  Fires at most once into the run's
     * bookkeeping, then (closed loop) chains the session's next op.
     */
    void
    issueOp(Session &s, const OpSpec &op, sim::Tick arrival,
            unsigned attempt, unsigned corrupt_attempt,
            sim::Tick backoff)
    {
        auto completion = [this, &s, op, arrival, attempt,
                           corrupt_attempt,
                           backoff](const RaidFileClient::Result &r) {
            if (r.status == Status::Busy ||
                r.status == Status::Throttled) {
                slice(r.cls).rejects++;
                if (attempt + 1 >= maxRetries) {
                    results.dropped++;
                    finishOp(s);
                    return;
                }
                results.retries++;
                sim::Tick next = backoff;
                const sim::Tick wait = backoffWait(s, next);
                eq.scheduleIn(wait, [this, &s, op, arrival, attempt,
                                     corrupt_attempt, next] {
                    issueOp(s, op, arrival, attempt + 1,
                            corrupt_attempt, next);
                });
                return;
            }
            if (r.status == Status::DataCorrupt) {
                // The server refused to ship wrong bytes.  Retry a
                // bounded number of times (a scrub or rewrite may
                // have healed the block), then give up honestly.
                if (corrupt_attempt + 1 >= cfg.corruptRetryMax) {
                    results.corruptOps++;
                    finishOp(s);
                    return;
                }
                results.corruptRetries++;
                sim::Tick next = backoff;
                const sim::Tick wait = backoffWait(s, next);
                eq.scheduleIn(wait, [this, &s, op, arrival, attempt,
                                     corrupt_attempt, next] {
                    issueOp(s, op, arrival, attempt,
                            corrupt_attempt + 1, next);
                });
                return;
            }
            if (r.status != Status::Ok)
                sim::fatal("fleet op failed: %s",
                           server::statusName(r.status));
            auto &cb = slice(r.cls);
            cb.ops++;
            cb.bytes += r.bytes;
            cb.latencyMs.push_back(sim::ticksToMs(eq.now() - arrival));
            results.ops++;
            results.bytes += r.bytes;
            finishOp(s);
        };
        if (op.read)
            s.lib->raidPRead(s.handle, op.off, op.len,
                             std::move(completion));
        else
            s.lib->raidPWrite(s.handle, op.off, op.len,
                              std::move(completion));
    }

    void
    finishOp(Session &s)
    {
        --pendingWork;
        if (cfg.mode == ClientFleet::Mode::Closed)
            closedNext(s);
    }

    /** Closed loop: one outstanding op per session. */
    void
    closedNext(Session &s)
    {
        if (s.opsIssued >= cfg.opsPerSession)
            return;
        ++s.opsIssued;
        ++pendingWork;
        issueOp(s, drawOp(s), eq.now(), 0, 0, cfg.retryBackoff);
    }

    /** @{ Open loop: Poisson arrivals, independent of completions. */
    void
    scheduleArrival(Session &s)
    {
        if (cfg.offeredOpsPerSec <= 0.0)
            return;
        const double mean_gap_s =
            static_cast<double>(cfg.sessions) / cfg.offeredOpsPerSec;
        const sim::Tick at =
            eq.now() + sim::secToTicks(s.rng.exponential(mean_gap_s));
        if (at > issueDeadline)
            return;
        ++pendingWork;
        eq.schedule(at, [this, &s] {
            // The arrival slot becomes the op slot.
            issueOp(s, drawOp(s), eq.now(), 0, 0, cfg.retryBackoff);
            scheduleArrival(s);
        });
    }
    /** @} */

    void
    openSession(Session &s, sim::Tick backoff)
    {
        const std::string path =
            "/fleet" + std::to_string(s.index % cfg.fileCount);
        s.lib->raidOpen(
            path, /*create=*/false,
            [this, &s, backoff](const RaidFileClient::Result &r) {
                if (r.status == Status::Busy ||
                    r.status == Status::Throttled) {
                    results.retries++;
                    sim::Tick next = backoff;
                    const sim::Tick wait = backoffWait(s, next);
                    eq.scheduleIn(wait, [this, &s, next] {
                        openSession(s, next);
                    });
                    return;
                }
                if (r.status != Status::Ok)
                    sim::fatal("fleet open failed: %s",
                               server::statusName(r.status));
                s.handle = r.handle;
                --pendingWork; // the open
                if (cfg.mode == ClientFleet::Mode::Closed)
                    closedNext(s);
                else
                    scheduleArrival(s);
            });
    }
};

} // namespace

std::vector<std::uint8_t>
ClientFleet::populationBytes(std::size_t bytes)
{
    // The pattern repeats every 256 bytes (13 * 256 = 0 mod 256): write
    // one period, then double the filled prefix with memcpy.
    std::vector<std::uint8_t> buf(bytes);
    const std::size_t period = std::min<std::size_t>(bytes, 256);
    for (std::size_t i = 0; i < period; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 13 + 7);
    for (std::size_t have = period; have < bytes; have *= 2)
        std::memcpy(buf.data() + have, buf.data(),
                    std::min(have, bytes - have));
    return buf;
}

ClientFleet::Results
ClientFleet::run(sim::EventQueue &eq, server::Raid2Server &srv,
                 server::RequestScheduler &sched, const Config &cfg)
{
    if (cfg.sessions == 0 || cfg.fileCount == 0)
        sim::fatal("ClientFleet: sessions and fileCount must be > 0");

    auto fleet = std::make_unique<Fleet>(eq, cfg);

    // File population, functional-plane only (setup, not measured).
    {
        const std::vector<std::uint8_t> buf =
            populationBytes(cfg.fileBytes);
        for (unsigned f = 0; f < cfg.fileCount; ++f) {
            const std::string path = "/fleet" + std::to_string(f);
            const lfs::InodeNum ino = srv.fs().exists(path)
                                          ? srv.fs().lookup(path)
                                          : srv.fs().create(path);
            srv.fs().write(ino, 0, {buf.data(), buf.size()});
        }
        srv.fs().checkpoint();
        // Drain the timed plane's segment-flush backlog from the
        // population before the measured run begins — otherwise the
        // fleet's first write queues it all inside the window and
        // every early op measures the setup, not the workload.
        bool synced = false;
        srv.fsSync([&synced] { synced = true; });
        eq.runUntilDone([&synced] { return synced; });
    }

    const sim::Tick start = eq.now();
    fleet->issueDeadline = start + cfg.duration;
    fleet->sessions.resize(cfg.sessions);
    for (unsigned i = 0; i < cfg.sessions; ++i) {
        Session &s = fleet->sessions[i];
        s.index = i;
        s.rng = sim::Random(cfg.seed * 0x9e3779b97f4a7c15ull + i);
        s.nic = std::make_unique<net::ClientModel>(
            eq, "fleet.c" + std::to_string(i));
        s.lib = std::make_unique<RaidFileClient>(eq, sched, *s.nic,
                                                 fleet->ring);
        ++fleet->pendingWork; // the open
        eq.schedule(start + cfg.startStagger * i,
                    [f = fleet.get(), &s] {
                        f->openSession(s, f->cfg.retryBackoff);
                    });
    }

    eq.runUntilDone([f = fleet.get()] { return f->pendingWork == 0; });
    if (fleet->pendingWork != 0)
        sim::fatal("ClientFleet: event queue drained with %llu units "
                   "of work outstanding",
                   static_cast<unsigned long long>(fleet->pendingWork));

    fleet->results.elapsed = eq.now() - start;
    return std::move(fleet->results);
}

} // namespace raid2::workload
