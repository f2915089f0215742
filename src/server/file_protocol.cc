#include "server/file_protocol.hh"

#include <utility>

#include "sim/logging.hh"

namespace raid2::server {

namespace {

using ServiceClass = RequestScheduler::ServiceClass;
using OpKind = RequestScheduler::OpKind;

ServiceClass
classFor(const RequestScheduler *sched, OpKind kind, std::uint64_t len)
{
    if (kind == OpKind::Open)
        return ServiceClass::Standard;
    if (sched && len <= sched->config().smallOpBytes)
        return ServiceClass::Standard;
    return ServiceClass::FastPath;
}

} // namespace

RaidFileClient::RaidFileClient(sim::EventQueue &eq_, Raid2Server &server_,
                               net::ClientModel &client_,
                               net::UltranetFabric &net_,
                               const Config &cfg_)
    : eq(eq_), server(server_), client(client_), net(net_), cfg(cfg_)
{
    if (cfg.scheduler)
        _session = cfg.scheduler->allocSession();
}

RaidFileClient::RaidFileClient(sim::EventQueue &eq_, Raid2Server &server_,
                               net::ClientModel &client_,
                               net::UltranetFabric &net_)
    : RaidFileClient(eq_, server_, client_, net_, Config{})
{
}

void
RaidFileClient::completeLocal(Result res, Completion done)
{
    eq.scheduleIn(cfg.commandRtt,
                  [this, res, done = std::move(done)]() mutable {
                      res.completed = eq.now();
                      if (done)
                          done(res);
                  });
}

std::vector<sim::Stage>
RaidFileClient::readOutStages()
{
    return {sim::Stage(server.board().hippiSrcPort()),
            sim::Stage(net.ring()), client.rxStage()};
}

std::vector<sim::Stage>
RaidFileClient::writeInStages()
{
    return {client.txStage(), sim::Stage(net.ring()),
            sim::Stage(server.board().hippiDstPort())};
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
    res.cls = ServiceClass::Standard;

    if (cfg.scheduler) {
        RequestScheduler::Request r;
        r.session = _session;
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
        eq.scheduleIn(cfg.commandRtt,
                      [this, r = std::move(r)]() mutable {
                          cfg.scheduler->submit(std::move(r));
                      });
        return;
    }

    eq.scheduleIn(cfg.commandRtt, [this, path, create, res,
                                   done = std::move(done)]() mutable {
        lfs::InodeNum ino;
        if (server.fs().exists(path)) {
            ino = server.fs().lookup(path);
        } else if (create) {
            ino = server.fs().create(path);
        } else {
            res.status = Status::NotFound;
            res.completed = eq.now();
            if (done)
                done(res);
            return;
        }
        const Handle h = nextHandle++;
        open[h] = OpenFile{ino, 0};
        res.handle = h;
        res.completed = eq.now();
        if (done)
            done(res);
    });
}

// ---------------------------------------------------------------------
// Read
// ---------------------------------------------------------------------

void
RaidFileClient::directRead(lfs::InodeNum ino, std::uint64_t off,
                           std::uint64_t n, Raid2Server::ReadDone done)
{
    // Command exchange already paid; the server reads through the
    // high-bandwidth path: array -> XBUS memory -> HIPPI source ->
    // Ultranet -> client NIC.
    if (cfg.pollingDriver) {
        // The host busy-waits while the source board transmits.
        server.host().cpu().submitBusyTime(
            sim::transferTicks(n, cal::clientReadMBs), nullptr);
    }
    server.fileRead(ino, off, n, std::move(done), readOutStages(),
                    cal::hippiSetupOverhead);
}

void
RaidFileClient::issueRead(Handle h, lfs::InodeNum ino, std::uint64_t off,
                          std::uint64_t len, bool advance,
                          Completion done)
{
    Result res;
    res.issued = eq.now();
    res.cls = classFor(cfg.scheduler, OpKind::Read, len);

    const std::uint64_t size = server.fs().statIno(ino).size;
    const std::uint64_t n =
        off >= size ? 0 : std::min<std::uint64_t>(len, size - off);
    if (n == 0) {
        // Reading at EOF is a success with zero bytes; it never
        // travels the data path.
        res.bytes = 0;
        completeLocal(res, std::move(done));
        return;
    }

    auto complete = [this, h, off, n, advance, res,
                     done = std::move(done)](Status st) mutable {
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

    if (cfg.scheduler) {
        RequestScheduler::Request r;
        r.session = _session;
        r.kind = OpKind::Read;
        r.ino = ino;
        r.off = off;
        r.len = n;
        r.outStages = readOutStages();
        if (cfg.pollingDriver)
            r.hostBusyTicks = sim::transferTicks(n, cal::clientReadMBs);
        r.done = [complete = std::move(complete)](
                     Status st, lfs::InodeNum) mutable { complete(st); };
        eq.scheduleIn(cfg.commandRtt,
                      [this, r = std::move(r)]() mutable {
                          cfg.scheduler->submit(std::move(r));
                      });
        return;
    }

    eq.scheduleIn(cfg.commandRtt, [this, ino, off, n,
                                   complete =
                                       std::move(complete)]() mutable {
        directRead(ino, off, n, std::move(complete));
    });
}

void
RaidFileClient::raidRead(Handle h, std::uint64_t len, Completion done)
{
    client.chargeRequestCost();
    const auto it = open.find(h);
    if (it == open.end()) {
        Result res;
        res.issued = eq.now();
        res.status = Status::BadHandle;
        res.cls = classFor(cfg.scheduler, OpKind::Read, len);
        completeLocal(res, std::move(done));
        return;
    }
    issueRead(h, it->second.ino, it->second.pos, len, /*advance=*/true,
              std::move(done));
}

void
RaidFileClient::raidPRead(Handle h, std::uint64_t off, std::uint64_t len,
                          Completion done)
{
    client.chargeRequestCost();
    const auto it = open.find(h);
    if (it == open.end()) {
        Result res;
        res.issued = eq.now();
        res.status = Status::BadHandle;
        res.cls = classFor(cfg.scheduler, OpKind::Read, len);
        completeLocal(res, std::move(done));
        return;
    }
    issueRead(h, it->second.ino, off, len, /*advance=*/false,
              std::move(done));
}

// ---------------------------------------------------------------------
// Write
// ---------------------------------------------------------------------

void
RaidFileClient::directWrite(lfs::InodeNum ino, std::uint64_t off,
                            std::uint64_t len, std::function<void()> done)
{
    // Client NIC -> Ultranet -> HIPPI destination -> XBUS memory, then
    // the LFS write path buffers and flushes segments.
    sim::Pipeline::start(eq, writeInStages(), len, cal::xbusChunkBytes,
                         [this, ino, off, len,
                          done = std::move(done)]() mutable {
                             server.fileWrite(ino, off, len,
                                              std::move(done));
                         });
}

void
RaidFileClient::issueWrite(Handle h, lfs::InodeNum ino, std::uint64_t off,
                           std::uint64_t len, bool advance,
                           Completion done)
{
    Result res;
    res.issued = eq.now();
    res.cls = classFor(cfg.scheduler, OpKind::Write, len);

    auto complete = [this, h, off, len, advance, res,
                     done = std::move(done)](Status st) mutable {
        res.status = st;
        res.bytes = st == Status::Ok ? len : 0;
        res.completed = eq.now();
        if (st == Status::Ok && advance) {
            const auto it = open.find(h);
            if (it != open.end())
                it->second.pos = off + len;
        }
        if (done)
            done(res);
    };

    if (cfg.scheduler) {
        RequestScheduler::Request r;
        r.session = _session;
        r.kind = OpKind::Write;
        r.ino = ino;
        r.off = off;
        r.len = len;
        r.inStages = writeInStages();
        r.done = [complete = std::move(complete)](
                     Status st, lfs::InodeNum) mutable { complete(st); };
        eq.scheduleIn(cfg.commandRtt,
                      [this, r = std::move(r)]() mutable {
                          cfg.scheduler->submit(std::move(r));
                      });
        return;
    }

    eq.scheduleIn(cfg.commandRtt, [this, ino, off, len,
                                   complete =
                                       std::move(complete)]() mutable {
        directWrite(ino, off, len,
                    [complete = std::move(complete)]() mutable {
                        complete(Status::Ok);
                    });
    });
}

void
RaidFileClient::raidWrite(Handle h, std::uint64_t len, Completion done)
{
    client.chargeRequestCost();
    const auto it = open.find(h);
    if (it == open.end()) {
        Result res;
        res.issued = eq.now();
        res.status = Status::BadHandle;
        res.cls = classFor(cfg.scheduler, OpKind::Write, len);
        completeLocal(res, std::move(done));
        return;
    }
    issueWrite(h, it->second.ino, it->second.pos, len, /*advance=*/true,
               std::move(done));
}

void
RaidFileClient::raidPWrite(Handle h, std::uint64_t off, std::uint64_t len,
                           Completion done)
{
    client.chargeRequestCost();
    const auto it = open.find(h);
    if (it == open.end()) {
        Result res;
        res.issued = eq.now();
        res.status = Status::BadHandle;
        res.cls = classFor(cfg.scheduler, OpKind::Write, len);
        completeLocal(res, std::move(done));
        return;
    }
    issueWrite(h, it->second.ino, off, len, /*advance=*/false,
               std::move(done));
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
