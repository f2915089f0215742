#include "server/request_scheduler.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::server {

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
RequestScheduler::classify(const Request &r) const
{
    if (r.kind == OpKind::Open)
        return ServiceClass::Standard;
    return r.len <= cfg.smallOpBytes ? ServiceClass::Standard
                                     : ServiceClass::FastPath;
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
    cs.rejected.inc();
    eq.scheduleIn(cfg.rejectLatency,
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
    cs.admitted.inc();
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
        s->deficit += cfg.quantumBytes;
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

    // The request record lives until its datapath completes.
    auto req = std::make_shared<Request>(std::move(r));
    auto on_done = [this, &cs, req, granted_at, span] {
        finish(cs, *req, granted_at, span, Status::Ok, req->ino);
    };
    // Reads pass the server's status through: verify-on-read failures
    // (integrity subsystem) reach the client as DataCorrupt.
    auto on_read_done = [this, &cs, req, granted_at, span](Status st) {
        finish(cs, *req, granted_at, span, st, req->ino);
    };

    if (cs.cls == ServiceClass::FastPath) {
        if (req->kind == OpKind::Read) {
            srv.fileRead(req->ino, req->off, req->len, on_read_done,
                         req->outStages, cal::hippiSetupOverhead);
        } else if (req->inStages.empty()) {
            srv.fileWrite(req->ino, req->off, req->len,
                          std::move(on_done));
        } else {
            sim::Pipeline::start(
                eq, req->inStages, req->len, cal::xbusChunkBytes,
                [this, req, on_done]() mutable {
                    srv.fileWrite(req->ino, req->off, req->len,
                                  std::move(on_done));
                });
        }
        return;
    }
    // Standard mode: small transfers ride the Ethernet through the
    // host (§2.1.1).
    if (req->kind == OpKind::Read)
        srv.standardRead(req->ino, req->off, req->len, on_read_done);
    else
        srv.standardWrite(req->ino, req->off, req->len, on_done);
}

void
RequestScheduler::finish(ClassState &cs, Request &r, sim::Tick granted_at,
                         std::uint64_t span, Status st, lfs::InodeNum ino)
{
    cs.serviceMs.sample(sim::ticksToMs(eq.now() - granted_at));
    cs.completed.inc();
    --cs.inflight;
    if (span) {
        if (auto *tr = eq.tracer())
            tr->end(span);
    }
    if (r.done)
        r.done(st, ino);
    pump(cs);
}

void
RequestScheduler::enqueueOpen(Request &&r, sim::Tick granted_at,
                              std::uint64_t span)
{
    batch.push_back(BatchedOpen{std::move(r), granted_at, span});
    if (batch.size() >= cfg.metaBatchMax) {
        if (batchTimer != sim::EventQueue::invalidEvent) {
            eq.cancel(batchTimer);
            batchTimer = sim::EventQueue::invalidEvent;
        }
        flushBatch();
        return;
    }
    if (batch.size() == 1)
        batchTimer = eq.scheduleIn(cfg.metaBatchWindow, [this] {
            batchTimer = sim::EventQueue::invalidEvent;
            flushBatch();
        });
}

void
RequestScheduler::flushBatch()
{
    if (batch.empty())
        return;
    auto ops = std::make_shared<std::vector<BatchedOpen>>(
        std::move(batch));
    batch.clear();
    _batches.inc();
    _batchedOps.inc(ops->size());

    // One kernel entry per batch: full per-op cost for the first,
    // amortized cost for the rest.
    const sim::Tick cpu =
        cfg.metaOpCpu +
        cfg.metaBatchedOpCpu * static_cast<sim::Tick>(ops->size() - 1);
    srv.host().cpu().submitBusyTime(cpu, [this, ops] {
        for (BatchedOpen &b : *ops) {
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
            finish(standard, b.req, b.grantedAt, b.span, st, ino);
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
    return state(c).admitted.value();
}

std::uint64_t
RequestScheduler::rejected(ServiceClass c) const
{
    return state(c).rejected.value();
}

std::uint64_t
RequestScheduler::completed(ServiceClass c) const
{
    return state(c).completed.value();
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
RequestScheduler::registerStats(sim::StatsRegistry &reg,
                                const std::string &prefix)
{
    for (ClassState *cs : {&fast, &standard}) {
        const std::string p =
            prefix + "." + className(cs->cls) + ".";
        reg.addGauge(p + "depth", [cs] {
            return static_cast<double>(cs->depth);
        });
        reg.addGauge(p + "sessions", [cs] {
            return static_cast<double>(cs->sessions.size());
        });
        reg.add(p + "admitted", cs->admitted);
        reg.add(p + "rejected", cs->rejected);
        reg.add(p + "completed", cs->completed);
        reg.add(p + "queue_delay_ms", cs->queueDelayMs);
        reg.add(p + "service_ms", cs->serviceMs);
    }
    reg.add(prefix + ".std.batches", _batches);
    reg.add(prefix + ".std.batched_ops", _batchedOps);
}

} // namespace raid2::server
