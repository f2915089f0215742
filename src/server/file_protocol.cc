#include "server/file_protocol.hh"

#include <utility>

namespace raid2::server {

RaidFileClient::RaidFileClient(sim::EventQueue &eq_,
                               RequestScheduler &sched_,
                               net::ClientModel &client_,
                               net::UltranetFabric &net_,
                               const Config &cfg_)
    : eq(eq_), sched(sched_), client(client_), net(net_), cfg(cfg_),
      _session(sched_.allocSession())
{
}

RaidFileClient::RaidFileClient(sim::EventQueue &eq_,
                               RequestScheduler &sched_,
                               net::ClientModel &client_,
                               net::UltranetFabric &net_)
    : RaidFileClient(eq_, sched_, client_, net_, Config{})
{
}

void
RaidFileClient::completeLocal(Result res, Completion done)
{
    eq.scheduleIn(commandRtt,
                  [this, res, done = std::move(done)]() mutable {
                      res.completed = eq.now();
                      if (done)
                          done(res);
                  });
}

void
RaidFileClient::submit(RequestScheduler::Request r)
{
    r.session = _session;
    eq.scheduleIn(commandRtt, [this, r = std::move(r)]() mutable {
        sched.submit(std::move(r));
    });
}

// ---------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------

void
RaidFileClient::raidOpen(const std::string &path, bool create,
                         Completion done)
{
    client.chargeRequestCost();
    Result res;
    res.issued = eq.now();
    res.cls = RequestScheduler::classify(OpKind::Open, 0);

    RequestScheduler::Request r;
    r.kind = OpKind::Open;
    r.path = path;
    r.create = create;
    r.done = [this, res, done = std::move(done)](
                 Status st, lfs::InodeNum ino) mutable {
        res.status = st;
        res.completed = eq.now();
        if (st == Status::Ok) {
            const Handle h = nextHandle++;
            open[h] = OpenFile{ino, 0};
            res.handle = h;
        }
        if (done)
            done(res);
    };
    submit(std::move(r));
}

// ---------------------------------------------------------------------
// Read and write
// ---------------------------------------------------------------------

void
RaidFileClient::transfer(OpKind kind, Handle h,
                         std::optional<std::uint64_t> at,
                         std::uint64_t len, Completion done)
{
    client.chargeRequestCost();
    Result res;
    res.issued = eq.now();
    res.cls = RequestScheduler::classify(kind, len);

    const auto it = open.find(h);
    if (it == open.end()) {
        res.status = Status::BadHandle;
        completeLocal(res, std::move(done));
        return;
    }
    const lfs::InodeNum ino = it->second.ino;
    const std::uint64_t off = at ? *at : it->second.pos;

    RequestScheduler::Request r;
    r.kind = kind;
    r.ino = ino;
    r.off = off;
    r.len = len;
    Raid2Server &server = sched.server();
    if (kind == OpKind::Read) {
        const std::uint64_t size = server.fs().statIno(ino).size;
        r.len = off >= size ? 0 : std::min<std::uint64_t>(len, size - off);
        if (r.len == 0) {
            // Reading at EOF is a success with zero bytes; it never
            // travels the data path.
            completeLocal(res, std::move(done));
            return;
        }
        // Array -> XBUS memory -> HIPPI source -> Ultranet -> client
        // NIC.
        r.outStages = {sim::Stage(server.board().hippiSrcPort()),
                       sim::Stage(net.ring()), client.rxStage()};
        if (cfg.pollingDriver) {
            // The host busy-waits while the source board transmits.
            r.hostBusyTicks = sim::transferTicks(r.len, cal::clientReadMBs);
        }
    } else {
        // Client NIC -> Ultranet -> HIPPI destination -> XBUS memory,
        // then the LFS write path buffers and flushes segments.
        r.inStages = {client.txStage(), sim::Stage(net.ring()),
                      sim::Stage(server.board().hippiDstPort())};
    }

    r.done = [this, h, advance = !at, off, n = r.len, res,
              done = std::move(done)](Status st, lfs::InodeNum) mutable {
        res.status = st;
        res.bytes = st == Status::Ok ? n : 0;
        res.completed = eq.now();
        if (st == Status::Ok && advance) {
            const auto it = open.find(h);
            if (it != open.end())
                it->second.pos = off + n;
        }
        if (done)
            done(res);
    };
    submit(std::move(r));
}

void
RaidFileClient::raidRead(Handle h, std::uint64_t len, Completion done)
{
    transfer(OpKind::Read, h, std::nullopt, len, std::move(done));
}

void
RaidFileClient::raidPRead(Handle h, std::uint64_t off, std::uint64_t len,
                          Completion done)
{
    transfer(OpKind::Read, h, off, len, std::move(done));
}

void
RaidFileClient::raidWrite(Handle h, std::uint64_t len, Completion done)
{
    transfer(OpKind::Write, h, std::nullopt, len, std::move(done));
}

void
RaidFileClient::raidPWrite(Handle h, std::uint64_t off, std::uint64_t len,
                           Completion done)
{
    transfer(OpKind::Write, h, off, len, std::move(done));
}

// ---------------------------------------------------------------------
// Handle state
// ---------------------------------------------------------------------

Status
RaidFileClient::raidSeek(Handle h, std::uint64_t pos)
{
    const auto it = open.find(h);
    if (it == open.end())
        return Status::BadHandle;
    it->second.pos = pos;
    return Status::Ok;
}

Status
RaidFileClient::raidClose(Handle h)
{
    return open.erase(h) ? Status::Ok : Status::BadHandle;
}

std::optional<std::uint64_t>
RaidFileClient::position(Handle h) const
{
    const auto it = open.find(h);
    if (it == open.end())
        return std::nullopt;
    return it->second.pos;
}

} // namespace raid2::server
