#include "server/request_scheduler.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::server {

namespace {

/** Deficit round robin quantum added per scheduling visit. */
constexpr std::uint64_t quantumBytes = 256 * 1024;
/** @{ A metadata batch costs metaOpCpu for the first op plus
 *  metaBatchedOpCpu for each further one. */
constexpr sim::Tick metaOpCpu = sim::usToTicks(500);
constexpr sim::Tick metaBatchedOpCpu = sim::usToTicks(100);
/** @} */
/** Server-side turnaround of a rejected request. */
constexpr sim::Tick rejectLatency = sim::usToTicks(100);

} // namespace

const char *
RequestScheduler::className(ServiceClass c)
{
    return c == ServiceClass::FastPath ? "fast" : "std";
}

const char *
RequestScheduler::kindName(OpKind k)
{
    switch (k) {
    case OpKind::Open:
        return "open";
    case OpKind::Read:
        return "read";
    case OpKind::Write:
        return "write";
    }
    return "?";
}

RequestScheduler::RequestScheduler(sim::EventQueue &eq_, Raid2Server &srv_,
                                   const Config &cfg_)
    : eq(eq_), srv(srv_), cfg(cfg_)
{
    fast.cls = ServiceClass::FastPath;
    fast.queueCap = cfg.fastQueueCap;
    fast.inflightCap = std::max(1u, cfg.fastInFlight);
    standard.cls = ServiceClass::Standard;
    standard.queueCap = cfg.stdQueueCap;
    standard.inflightCap = std::max(1u, cfg.stdInFlight);
}

RequestScheduler::RequestScheduler(sim::EventQueue &eq_, Raid2Server &srv_)
    : RequestScheduler(eq_, srv_, Config{})
{
}

RequestScheduler::ClassState &
RequestScheduler::state(ServiceClass c)
{
    return c == ServiceClass::FastPath ? fast : standard;
}

const RequestScheduler::ClassState &
RequestScheduler::state(ServiceClass c) const
{
    return c == ServiceClass::FastPath ? fast : standard;
}

RequestScheduler::ServiceClass
RequestScheduler::classify(OpKind kind, std::uint64_t len)
{
    if (kind == OpKind::Open || len <= smallOpBytes)
        return ServiceClass::Standard;
    return ServiceClass::FastPath;
}

std::uint64_t
RequestScheduler::costOf(const Request &r) const
{
    // Metadata and tiny transfers still cost a scheduling slot: floor
    // at 4 KB so DRR fairness is in requests, not epsilon-bytes.
    return std::max<std::uint64_t>(r.len, 4096);
}

void
RequestScheduler::reject(ClassState &cs, Request &&r, Status st)
{
    ++cs.rejected;
    eq.scheduleIn(rejectLatency,
                  [done = std::move(r.done), st]() mutable {
                      if (done)
                          done(st, 0);
                  });
}

void
RequestScheduler::submit(Request r)
{
    ClassState &cs = state(classify(r));
    // A restore is rewriting the array underneath the file system;
    // admitting anything would race the restore writer.  Complete
    // asynchronously with Busy so clients back off and retry.
    if (srv.restoreActive()) {
        reject(cs, std::move(r), Status::Busy);
        return;
    }
    if (cs.depth >= cs.queueCap) {
        reject(cs, std::move(r), Status::Busy);
        return;
    }
    SessionQueue &s = cs.sessions[r.session];
    s.id = r.session;
    if (cfg.sessionQueueCap && s.q.size() >= cfg.sessionQueueCap) {
        reject(cs, std::move(r), Status::Throttled);
        return;
    }
    ++cs.admitted;
    ++cs.depth;
    s.q.push_back(std::move(r));
    s.enqueuedAt.push_back(eq.now());
    if (!s.active) {
        s.active = true;
        cs.active.push_back(&s);
    }
    pump(cs);
}

void
RequestScheduler::pump(ClassState &cs)
{
    // Deficit round robin: visit the head session, top up its deficit
    // by one quantum, and serve from its queue while the deficit
    // covers the head request.  A session that still has backlog goes
    // to the back of the ring; an emptied session leaves it (and
    // forfeits its deficit, per classic DRR).
    while (cs.inflight < cs.inflightCap && !cs.active.empty()) {
        SessionQueue *s = cs.active.front();
        cs.active.pop_front();
        s->deficit += quantumBytes;
        while (!s->q.empty() && cs.inflight < cs.inflightCap) {
            const std::uint64_t cost = costOf(s->q.front());
            if (s->deficit < cost)
                break;
            s->deficit -= cost;
            grant(cs, *s);
        }
        if (s->q.empty()) {
            s->deficit = 0;
            s->active = false;
        } else {
            cs.active.push_back(s);
        }
    }
}

void
RequestScheduler::grant(ClassState &cs, SessionQueue &s)
{
    Request r = std::move(s.q.front());
    s.q.pop_front();
    const sim::Tick enq = s.enqueuedAt.front();
    s.enqueuedAt.pop_front();
    --cs.depth;
    ++cs.inflight;
    s.servedBytes += r.len;
    cs.queueDelayMs.sample(sim::ticksToMs(eq.now() - enq));

    std::uint64_t span = 0;
    if (auto *tr = eq.tracer())
        span = tr->begin(std::string("sched.") + className(cs.cls),
                         kindName(r.kind), r.len);

    if (r.hostBusyTicks)
        srv.host().cpu().submitBusyTime(r.hostBusyTicks, nullptr);

    dispatch(cs, std::move(r), eq.now(), span);
}

void
RequestScheduler::dispatch(ClassState &cs, Request &&r,
                           sim::Tick granted_at, std::uint64_t span)
{
    if (r.kind == OpKind::Open) {
        enqueueOpen(std::move(r), granted_at, span);
        return;
    }

    // The datapath's completion owns the client's callback.  Reads
    // pass the server's status through: verify-on-read failures
    // (integrity subsystem) reach the client as DataCorrupt; writes
    // complete Ok through the default argument.
    auto done = [this, &cs, done = std::move(r.done), ino = r.ino,
                 granted_at, span](Status st = Status::Ok) mutable {
        finish(cs, done, granted_at, span, st, ino);
    };

    if (cs.cls == ServiceClass::FastPath) {
        if (r.kind == OpKind::Read) {
            srv.fileRead(r.ino, r.off, r.len,
                         Raid2Server::ReadDone(std::move(done)),
                         std::move(r.outStages), cal::hippiSetupOverhead);
        } else if (r.inStages.empty()) {
            srv.fileWrite(r.ino, r.off, r.len, std::move(done));
        } else {
            sim::Pipeline::start(
                r.inStages, r.len, cal::xbusChunkBytes,
                [this, ino = r.ino, off = r.off, len = r.len,
                 done = std::move(done)]() mutable {
                    srv.fileWrite(ino, off, len, std::move(done));
                });
        }
        return;
    }
    // Standard mode: small transfers ride the Ethernet through the
    // host (§2.1.1).
    if (r.kind == OpKind::Read)
        srv.standardRead(r.ino, r.off, r.len, std::move(done));
    else
        srv.standardWrite(r.ino, r.off, r.len, std::move(done));
}

void
RequestScheduler::finish(ClassState &cs, Request::Done &done,
                         sim::Tick granted_at, std::uint64_t span, Status st,
                         lfs::InodeNum ino)
{
    cs.serviceMs.sample(sim::ticksToMs(eq.now() - granted_at));
    ++cs.completed;
    --cs.inflight;
    if (span) {
        if (auto *tr = eq.tracer())
            tr->end(span);
    }
    if (done)
        done(st, ino);
    pump(cs);
}

void
RequestScheduler::enqueueOpen(Request &&r, sim::Tick granted_at,
                              std::uint64_t span)
{
    batch.push_back(BatchedOpen{std::move(r), granted_at, span});
    if (batch.size() >= metaBatchMax) {
        if (batchTimer != sim::EventQueue::invalidEvent) {
            eq.cancel(batchTimer);
            batchTimer = sim::EventQueue::invalidEvent;
        }
        flushBatch();
        return;
    }
    if (batch.size() == 1)
        batchTimer = eq.scheduleIn(metaBatchWindow, [this] {
            batchTimer = sim::EventQueue::invalidEvent;
            flushBatch();
        });
}

void
RequestScheduler::flushBatch()
{
    if (batch.empty())
        return;
    ++_batches;
    _batchedOps += batch.size();

    // One kernel entry per batch: full per-op cost for the first,
    // amortized cost for the rest.
    const sim::Tick cpu =
        metaOpCpu +
        metaBatchedOpCpu * static_cast<sim::Tick>(batch.size() - 1);
    // The moved-from batch is left empty for the next one.
    srv.host().cpu().submitBusyTime(
        cpu, [this, ops = std::move(batch)]() mutable {
            for (BatchedOpen &b : ops) {
                Status st = Status::Ok;
                lfs::InodeNum ino = 0;
                if (srv.fs().exists(b.req.path)) {
                    ino = srv.fs().lookup(b.req.path);
                } else if (b.req.create) {
                    // Through the server so its FsOp observer sees the
                    // mutation (model checking).
                    ino = srv.createFile(b.req.path);
                } else {
                    st = Status::NotFound;
                }
                finish(standard, b.req.done, b.grantedAt, b.span, st, ino);
            }
        });
}

std::size_t
RequestScheduler::queueDepth(ServiceClass c) const
{
    return state(c).depth;
}

unsigned
RequestScheduler::inFlight(ServiceClass c) const
{
    return state(c).inflight;
}

std::uint64_t
RequestScheduler::admitted(ServiceClass c) const
{
    return state(c).admitted;
}

std::uint64_t
RequestScheduler::rejected(ServiceClass c) const
{
    return state(c).rejected;
}

std::uint64_t
RequestScheduler::completed(ServiceClass c) const
{
    return state(c).completed;
}

std::uint64_t
RequestScheduler::sessionServedBytes(ServiceClass c,
                                     std::uint32_t session) const
{
    const auto &sessions = state(c).sessions;
    const auto it = sessions.find(session);
    return it == sessions.end() ? 0 : it->second.servedBytes;
}

const sim::Distribution &
RequestScheduler::serviceMs(ServiceClass c) const
{
    return state(c).serviceMs;
}

void
RequestScheduler::registerStats(sim::StatsRegistry &reg) const
{
    for (const ClassState *cs : {&fast, &standard}) {
        const std::string p =
            std::string("server.sched.") + className(cs->cls) + ".";
        reg.add(p + "depth", cs->depth);
        reg.addGauge(p + "sessions", [cs] {
            return static_cast<double>(cs->sessions.size());
        });
        reg.add(p + "admitted", cs->admitted);
        reg.add(p + "rejected", cs->rejected);
        reg.add(p + "completed", cs->completed);
        reg.add(p + "queue_delay_ms", cs->queueDelayMs);
        reg.add(p + "service_ms", cs->serviceMs);
    }
    reg.add("server.sched.std.batches", _batches);
    reg.add("server.sched.std.batched_ops", _batchedOps);
}

} // namespace raid2::server
