#include "check/server_explorer.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "disk/disk_profile.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"
#include "snap/snapshot_manager.hh"

namespace raid2::check {

const char *
sessionOpKindName(SessionOp::Kind k)
{
    switch (k) {
      case SessionOp::Kind::Open:
        return "open";
      case SessionOp::Kind::PWrite:
        return "pwrite";
      case SessionOp::Kind::BurstWrite:
        return "burst_write";
      case SessionOp::Kind::PRead:
        return "pread";
      case SessionOp::Kind::Seek:
        return "seek";
      case SessionOp::Kind::Close:
        return "close";
      case SessionOp::Kind::Sync:
        return "sync";
      case SessionOp::Kind::SnapCreate:
        return "snap_create";
      case SessionOp::Kind::SnapDelete:
        return "snap_delete";
    }
    return "?";
}

std::string
SessionOp::str() const
{
    std::string s = std::string(sessionOpKindName(kind)) + " " +
                    std::to_string(client);
    switch (kind) {
      case Kind::Open:
      case Kind::SnapCreate:
      case Kind::SnapDelete:
        s += " " + path;
        break;
      case Kind::PWrite:
      case Kind::BurstWrite:
      case Kind::PRead:
        s += " " + std::to_string(off) + " " + std::to_string(len);
        break;
      case Kind::Seek:
        s += " " + std::to_string(off);
        break;
      case Kind::Close:
      case Kind::Sync:
        break;
    }
    return s;
}

namespace {

/** 1/40-scale drives (~8 MB): a mid-history disk death rebuilds onto
 *  its hot spare well inside the simulated run. */
const disk::DiskProfile &
checkProfile()
{
    static const disk::DiskProfile p = [] {
        disk::DiskProfile s = disk::ibm0661();
        s.name = "ibm0661-check";
        s.cylinders /= 40;
        return s;
    }();
    return p;
}

ServerCheckStats &
mutableStats()
{
    static ServerCheckStats s;
    return s;
}

constexpr unsigned maxRetries = 8;
constexpr unsigned maxClients = 16;

void
treeCreate(Tree &t, const std::string &path)
{
    TreeNode f;
    f.isDir = false;
    f.bytes = std::make_shared<std::vector<std::uint8_t>>();
    t[path] = std::move(f);
    const auto slash = path.find_last_of('/');
    const std::string parent =
        slash == 0 ? "/" : path.substr(0, slash);
    t[parent].entries.insert(path.substr(slash + 1));
}

void
treeWrite(Tree &t, const std::string &path, std::uint64_t off,
          std::uint64_t len, lfs::InodeNum ino)
{
    auto it = t.find(path);
    if (it == t.end() || it->second.isDir)
        sim::panic("ServerExplorer: write to unknown path %s",
                   path.c_str());
    auto nb = std::make_shared<std::vector<std::uint8_t>>(
        *it->second.bytes);
    if (nb->size() < off + len)
        nb->resize(off + len, 0); // holes read back as zeros
    for (std::uint64_t i = 0; i < len; ++i)
        (*nb)[off + i] = server::payloadByte(off + i, ino);
    it->second.bytes = std::move(nb);
}

/** One live history run against a full server. */
struct Runner
{
    using Handle = server::RaidFileClient::Handle;
    using Status = server::Status;

    const CheckConfig &cfg;
    ServerHistory hist; // sanitized
    Capture cap;

    sim::EventQueue eq;
    std::unique_ptr<server::Raid2Server> srv;
    std::unique_ptr<server::RequestScheduler> sched;
    std::unique_ptr<snap::SnapshotManager> snapMgr;
    std::unique_ptr<net::UltranetFabric> ring;
    std::vector<std::unique_ptr<net::ClientModel>> nics;
    std::vector<std::unique_ptr<server::RaidFileClient>> libs;

    /** @{ Oracle state. */
    Tree tree;
    std::map<lfs::InodeNum, std::string> inoPath;
    std::vector<std::string> unresolved; // created, ino not yet known
    /** @} */

    /** @{ Execution state. */
    struct Session
    {
        std::vector<SessionOp> ops;
        std::size_t next = 0;
        Handle h = server::RaidFileClient::invalidHandle;
        unsigned retries = 0;
        unsigned burstPending = 0;
    };
    std::vector<Session> sessions; // [0] = admin
    unsigned sessionsDone = 0;
    bool finished = false;
    /** @} */

    static constexpr sim::Tick opGap = sim::usToTicks(50);

    Runner(ServerHistory h, const CheckConfig &c)
        : cfg(c), hist(std::move(h))
    {
    }

    Capture
    run()
    {
        build();
        cap.cfg = cfg;
        cap.base.resize(std::size_t(cfg.numBlocks) * cfg.blockSize);
        srv->rawFsDevice().readRange(0, cfg.numBlocks,
                                     {cap.base.data(), cap.base.size()});

        TreeNode root;
        root.isDir = true;
        tree["/"] = root;
        cap.versions.push_back(tree);

        srv->fsHookDevice().attachWriteLog(&cap.log);
        srv->setFsOpObserver(
            [this](const server::Raid2Server::FsOp &op) {
                onFsOp(op);
            });

        if (!hist.faults.events.empty()) {
            srv->faults().setPlan(hist.faults);
            srv->faults().start();
        }

        for (unsigned c = 1; c <= hist.clients; ++c)
            eq.scheduleIn(sim::usToTicks(100) * c,
                          [this, c] { step(c); });
        eq.scheduleIn(sim::usToTicks(150), [this] { stepAdmin(); });

        if (!eq.runUntilDone([this] { return finished; }))
            sim::panic("ServerExplorer: history deadlocked (%zu/%zu "
                       "sessions done)",
                       std::size_t(sessionsDone),
                       std::size_t(hist.clients + 1));

        mutableStats().faultFirings += srv->faults().injectedTotal();
        ++mutableStats().histories;

        srv->setFsOpObserver(nullptr);
        srv->fsHookDevice().attachWriteLog(nullptr);
        return std::move(cap);
    }

    void
    build()
    {
        server::Raid2Server::Config scfg;
        scfg.topo.disksPerString = 2; // 16 disks
        scfg.topo.profile = &checkProfile();
        scfg.fsParams.blockSize = cfg.blockSize;
        scfg.fsParams.segBlocks = cfg.segBlocks;
        scfg.fsParams.maxInodes = cfg.maxInodes;
        // Explicit: the server defaults 0 to the stripe width, which
        // would blow the small checker geometry up.
        scfg.fsParams.alignSegmentsTo = cfg.blockSize;
        scfg.fsDeviceBytes =
            std::uint64_t(cfg.numBlocks) * cfg.blockSize;
        scfg.withReliability = true;
        scfg.withIntegrity = true;
        srv = std::make_unique<server::Raid2Server>(eq, "check",
                                                    scfg);
        srv->fs().setAutoClean(cfg.autoClean);

        // Tiny admission caps: Busy/Throttled rejections on every
        // seeded run, so the retry paths are checked surface.
        server::RequestScheduler::Config rcfg;
        rcfg.fastQueueCap = 2;
        rcfg.stdQueueCap = 2;
        rcfg.sessionQueueCap = 1;
        rcfg.fastInFlight = 1;
        rcfg.stdInFlight = 1;
        sched = std::make_unique<server::RequestScheduler>(eq, *srv,
                                                           rcfg);
        snapMgr = std::make_unique<snap::SnapshotManager>(*srv);
        ring = std::make_unique<net::UltranetFabric>(eq, "check.ring");

        sessions.resize(hist.clients + 1);
        for (const SessionOp &op : hist.ops)
            sessions[op.client].ops.push_back(op);
        for (unsigned c = 1; c <= hist.clients; ++c) {
            nics.push_back(std::make_unique<net::ClientModel>(
                eq, "check.c" + std::to_string(c)));
            libs.push_back(std::make_unique<server::RaidFileClient>(
                eq, *sched, *nics.back(), *ring));
        }
    }

    // -----------------------------------------------------------------
    // Oracle capture (fires in LFS apply order)
    // -----------------------------------------------------------------

    const std::string &
    pathOf(lfs::InodeNum ino)
    {
        auto it = inoPath.find(ino);
        if (it == inoPath.end()) {
            for (auto u = unresolved.begin(); u != unresolved.end();) {
                if (srv->fs().exists(*u)) {
                    inoPath[srv->fs().lookup(*u)] = *u;
                    u = unresolved.erase(u);
                } else {
                    ++u;
                }
            }
            it = inoPath.find(ino);
        }
        if (it == inoPath.end())
            sim::panic("ServerExplorer: write to unknown inode %llu",
                       static_cast<unsigned long long>(ino));
        return it->second;
    }

    void
    onFsOp(const server::Raid2Server::FsOp &fop)
    {
        using K = server::Raid2Server::FsOp::Kind;
        cap.log.setTag(static_cast<std::uint32_t>(cap.ops.size()));
        Op o;
        switch (fop.kind) {
          case K::Create:
            o.kind = Op::Kind::Create;
            o.path = fop.path;
            treeCreate(tree, fop.path);
            unresolved.push_back(fop.path);
            break;
          case K::Write:
            o.kind = Op::Kind::Write;
            o.path = pathOf(fop.ino);
            o.off = fop.off;
            o.len = fop.len;
            o.dataSeed = fop.ino; // payload = server formula, not
                                  // patternBytes — versions are built
                                  // here, never by RefFs::apply
            treeWrite(tree, o.path, fop.off, fop.len, fop.ino);
            break;
          case K::Sync:
            o.kind = Op::Kind::Sync;
            break;
        }
        cap.ops.push_back(std::move(o));
        cap.versions.push_back(tree);
    }

    /** Record a snapshot-table op the explorer issues itself (the
     *  manager's create/remove are synchronous functional calls that
     *  bypass the server's observer). */
    void
    recordSnapOp(Op::Kind k, const std::string &name)
    {
        cap.log.setTag(static_cast<std::uint32_t>(cap.ops.size()));
        Op o;
        o.kind = k;
        o.path = name;
        cap.ops.push_back(std::move(o));
        if (k == Op::Kind::SnapCreate)
            snapMgr->create(name);
        else
            snapMgr->remove(name);
        cap.versions.push_back(tree); // live tree unchanged
    }

    // -----------------------------------------------------------------
    // History execution (closed loop per session)
    // -----------------------------------------------------------------

    void
    sessionDone()
    {
        if (++sessionsDone == hist.clients + 1) {
            // Trailing sync: the log ends at a barrier, anchoring
            // everything the clients saw complete.
            srv->fsSync([this] { finished = true; });
        }
    }

    void
    advance(unsigned c)
    {
        Session &s = sessions[c];
        s.retries = 0;
        ++s.next;
        eq.scheduleIn(opGap, [this, c] {
            if (c == 0)
                stepAdmin();
            else
                step(c);
        });
    }

    static bool
    rejected(Status st)
    {
        return st == Status::Busy || st == Status::Throttled;
    }

    /** True if the op should be re-issued (and the backoff charged). */
    bool
    shouldRetry(Session &s, Status st)
    {
        if (!rejected(st) || s.retries >= maxRetries)
            return false;
        ++s.retries;
        if (st == Status::Busy)
            ++mutableStats().busyRetries;
        else
            ++mutableStats().throttledRetries;
        return true;
    }

    sim::Tick
    backoff(unsigned attempt)
    {
        return sim::usToTicks(400) << std::min(attempt, 4u);
    }

    void
    stepAdmin()
    {
        Session &s = sessions[0];
        if (s.next >= s.ops.size()) {
            sessionDone();
            return;
        }
        const SessionOp &op = s.ops[s.next];
        ++mutableStats().opMix[static_cast<int>(op.kind)];
        switch (op.kind) {
          case SessionOp::Kind::Sync:
            srv->fsSync([this] {
                ++mutableStats().opsVerified;
                advance(0);
            });
            return;
          case SessionOp::Kind::SnapCreate:
            recordSnapOp(Op::Kind::SnapCreate, op.path);
            ++mutableStats().opsVerified;
            advance(0);
            return;
          case SessionOp::Kind::SnapDelete:
            recordSnapOp(Op::Kind::SnapDelete, op.path);
            ++mutableStats().opsVerified;
            advance(0);
            return;
          default: // client kinds routed to the admin: skip
            advance(0);
            return;
        }
    }

    void
    step(unsigned c)
    {
        Session &s = sessions[c];
        if (s.next >= s.ops.size()) {
            sessionDone();
            return;
        }
        ++mutableStats().opMix[static_cast<int>(s.ops[s.next].kind)];
        issueCurrent(c);
    }

    void
    issueCurrent(unsigned c)
    {
        Session &s = sessions[c];
        const SessionOp &op = s.ops[s.next];
        server::RaidFileClient &lib = *libs[c - 1];
        const bool haveHandle =
            s.h != server::RaidFileClient::invalidHandle;

        switch (op.kind) {
          case SessionOp::Kind::Open:
            if (haveHandle) {
                lib.raidClose(s.h);
                s.h = server::RaidFileClient::invalidHandle;
            }
            lib.raidOpen(
                op.path, /*create=*/true,
                [this, c](const server::RaidFileClient::Result &r) {
                    Session &s2 = sessions[c];
                    if (shouldRetry(s2, r.status)) {
                        eq.scheduleIn(backoff(s2.retries), [this, c] {
                            issueCurrent(c);
                        });
                        return;
                    }
                    if (r.ok()) {
                        s2.h = r.handle;
                        ++mutableStats().opsVerified;
                    }
                    advance(c);
                });
            return;

          case SessionOp::Kind::PWrite:
          case SessionOp::Kind::PRead: {
            if (!haveHandle) {
                advance(c); // handle lost to a dropped open: no-op
                return;
            }
            auto done = [this,
                         c](const server::RaidFileClient::Result &r) {
                Session &s2 = sessions[c];
                if (shouldRetry(s2, r.status)) {
                    eq.scheduleIn(backoff(s2.retries),
                                  [this, c] { issueCurrent(c); });
                    return;
                }
                if (r.ok())
                    ++mutableStats().opsVerified;
                advance(c);
            };
            if (op.kind == SessionOp::Kind::PWrite)
                lib.raidPWrite(s.h, op.off, op.len, std::move(done));
            else
                lib.raidPRead(s.h, op.off, op.len, std::move(done));
            return;
          }

          case SessionOp::Kind::BurstWrite:
            if (!haveHandle) {
                advance(c);
                return;
            }
            s.burstPending = 2;
            burstPart(c, op.off, op.len);
            burstPart(c, op.off + op.len, op.len);
            return;

          case SessionOp::Kind::Seek:
            if (haveHandle &&
                lib.raidSeek(s.h, op.off) == Status::Ok)
                ++mutableStats().opsVerified;
            advance(c);
            return;

          case SessionOp::Kind::Close:
            if (haveHandle && lib.raidClose(s.h) == Status::Ok)
                ++mutableStats().opsVerified;
            s.h = server::RaidFileClient::invalidHandle;
            advance(c);
            return;

          default: // admin kinds routed to a client: skip
            advance(c);
            return;
        }
    }

    /** One half of a BurstWrite: both halves are outstanding at once,
     *  so the second can draw Status::Throttled from the per-session
     *  backlog cap; each half retries independently. */
    void
    burstPart(unsigned c, std::uint64_t off, std::uint64_t len)
    {
        libs[c - 1]->raidPWrite(
            sessions[c].h, off, len,
            [this, c, off,
             len](const server::RaidFileClient::Result &r) {
                Session &s = sessions[c];
                if (shouldRetry(s, r.status)) {
                    eq.scheduleIn(backoff(s.retries),
                                  [this, c, off, len] {
                                      burstPart(c, off, len);
                                  });
                    return;
                }
                if (r.ok())
                    ++mutableStats().opsVerified;
                if (--s.burstPending == 0)
                    advance(c);
            });
    }
};

} // namespace

// ---------------------------------------------------------------------
// History generation
// ---------------------------------------------------------------------

namespace {

constexpr unsigned filePool = 4; // names /f0../f{n-1}, shared by clients
/** Write offsets stay under this (bounds live bytes per file). */
constexpr std::uint64_t maxOffset = 24 * 1024;
constexpr std::uint64_t maxWrite = 12 * 1024;
/** Odds a write is bulk-sized (> smallOpBytes: rides the HIPPI fast
 *  path, so its completion is write-behind, not synced). */
constexpr double pBulkWrite = 0.10;
constexpr std::uint64_t bulkWrite = 96 * 1024;
constexpr unsigned maxLiveSnapshots = 2;

} // namespace

ServerHistory
generateServerHistory(std::uint64_t seed, const ServerGenConfig &cfg)
{
    sim::Random rng(seed * 0x9e3779b97f4a7c15ull + 2);
    ServerHistory hist;
    hist.clients = std::max(1u, std::min(cfg.clients, maxClients));

    std::vector<bool> open(hist.clients + 1, false);
    unsigned snapCounter = 0;
    std::set<std::string> live;

    auto fileName = [&] {
        return "/f" + std::to_string(rng.below(filePool));
    };

    // Every client opens a file up front so handles exist early.
    for (unsigned c = 1; c <= hist.clients; ++c) {
        SessionOp op;
        op.kind = SessionOp::Kind::Open;
        op.client = c;
        op.path = fileName();
        open[c] = true;
        hist.ops.push_back(std::move(op));
    }

    while (hist.ops.size() < cfg.numOps) {
        SessionOp op;
        const std::uint64_t roll = rng.below(100);
        if (roll < 14) { // admin session
            op.client = 0;
            const std::uint64_t a = rng.below(100);
            if (a < 55) {
                op.kind = SessionOp::Kind::Sync;
            } else if (a < 80) {
                if (live.size() >= maxLiveSnapshots)
                    continue;
                op.kind = SessionOp::Kind::SnapCreate;
                op.path = "s" + std::to_string(snapCounter++);
                live.insert(op.path);
            } else {
                if (live.empty())
                    continue;
                const std::vector<std::string> v(live.begin(),
                                                 live.end());
                op.kind = SessionOp::Kind::SnapDelete;
                op.path = v[rng.below(v.size())];
                live.erase(op.path);
            }
        } else {
            op.client = 1 + static_cast<unsigned>(
                                rng.below(hist.clients));
            const std::uint64_t a = rng.below(100);
            if (!open[op.client]) {
                op.kind = SessionOp::Kind::Open;
                op.path = fileName();
                open[op.client] = true;
            } else if (a < 40) {
                op.kind = SessionOp::Kind::PWrite;
                if (rng.chance(pBulkWrite)) {
                    // Fast-path sized: completion is write-behind.
                    op.off = rng.below(8 * 1024);
                    op.len = bulkWrite;
                } else {
                    op.off = rng.below(maxOffset);
                    op.len = 1 + rng.below(maxWrite);
                }
            } else if (a < 52) {
                op.kind = SessionOp::Kind::BurstWrite;
                op.off = rng.below(maxOffset);
                op.len = 1 + rng.below(maxWrite / 2);
            } else if (a < 72) {
                op.kind = SessionOp::Kind::PRead;
                op.off = rng.below(maxOffset + 16 * 1024);
                op.len = 1 + rng.below(maxWrite);
            } else if (a < 80) {
                op.kind = SessionOp::Kind::Seek;
                op.off = rng.below(maxOffset);
            } else if (a < 88) {
                op.kind = SessionOp::Kind::Close;
                open[op.client] = false;
            } else {
                op.kind = SessionOp::Kind::Open;
                op.path = fileName();
            }
        }
        hist.ops.push_back(std::move(op));
    }

    if (cfg.withFaults) {
        // A short scripted campaign inside the history's time window
        // (clients run closed-loop at ~1 ms command RTT, so a few
        // dozen ops span tens of simulated milliseconds).
        const unsigned n = 1 + static_cast<unsigned>(rng.below(3));
        bool diskFailed = false;
        for (unsigned i = 0; i < n; ++i) {
            const sim::Tick at =
                sim::msToTicks(1.0 + double(rng.below(25)));
            const std::uint64_t f = rng.below(100);
            if (f < 35) {
                hist.faults.hippiLinkDrop(
                    at, sim::msToTicks(1.0 + double(rng.below(4))));
            } else if (f < 60) {
                hist.faults.diskStall(
                    at, static_cast<unsigned>(rng.below(16)),
                    sim::msToTicks(0.5 + double(rng.below(3))));
            } else if (f < 70) {
                hist.faults.latent(
                    at, static_cast<unsigned>(rng.below(16)),
                    512 * rng.below(1024), 512 * (1 + rng.below(8)));
            } else if (f < 82) {
                // Silent corruption: media flips dominate, with the
                // transfer and network surfaces sampled too.
                const std::uint64_t s = rng.below(10);
                const fault::CorruptionSurface surface =
                    s < 5   ? fault::CorruptionSurface::Media
                    : s < 7 ? fault::CorruptionSurface::TransferRead
                    : s < 9 ? fault::CorruptionSurface::TransferWrite
                            : fault::CorruptionSurface::Network;
                hist.faults.silentCorruption(
                    at, surface, static_cast<unsigned>(rng.below(16)),
                    512 * rng.below(1024), 1 + rng.below(16));
            } else if (f < 92) {
                hist.faults.scsiHang(
                    at, static_cast<unsigned>(rng.below(8)),
                    sim::msToTicks(1.0 + double(rng.below(3))));
            } else if (!diskFailed) {
                hist.faults.diskFail(
                    at, static_cast<unsigned>(rng.below(16)));
                diskFailed = true;
            } else {
                hist.faults.hippiLinkDrop(at, sim::msToTicks(1.0));
            }
        }
        hist.faults.sortByTime();
    }
    return hist;
}

// ---------------------------------------------------------------------
// ServerExplorer
// ---------------------------------------------------------------------

ServerHistory
ServerExplorer::sanitize(const ServerHistory &hist)
{
    ServerHistory out;
    out.clients = std::max(1u, std::min(hist.clients, maxClients));
    out.faults = hist.faults;

    std::vector<bool> open(out.clients + 1, false);
    std::set<std::string> live, used;

    for (const SessionOp &op : hist.ops) {
        const bool clientOk =
            op.client >= 1 && op.client <= out.clients;
        switch (op.kind) {
          case SessionOp::Kind::Open:
            // Root-level leaf names only (no parent directories to
            // create through the open path).
            if (!clientOk || op.path.size() < 2 ||
                op.path.front() != '/' ||
                op.path.find('/', 1) != std::string::npos)
                continue;
            open[op.client] = true;
            break;
          case SessionOp::Kind::PWrite:
          case SessionOp::Kind::BurstWrite:
            if (!clientOk || !open[op.client] || op.len == 0)
                continue;
            break;
          case SessionOp::Kind::PRead:
          case SessionOp::Kind::Seek:
            if (!clientOk || !open[op.client])
                continue;
            break;
          case SessionOp::Kind::Close:
            if (!clientOk || !open[op.client])
                continue;
            open[op.client] = false;
            break;
          case SessionOp::Kind::Sync:
            if (op.client != 0)
                continue;
            break;
          case SessionOp::Kind::SnapCreate:
            // Unique-forever names keep the per-name table oracle
            // unambiguous; 8 is the lfs live-snapshot limit.
            if (op.client != 0 || op.path.empty() ||
                op.path.size() > 64 || used.count(op.path) ||
                live.size() >= 8)
                continue;
            used.insert(op.path);
            live.insert(op.path);
            break;
          case SessionOp::Kind::SnapDelete:
            if (op.client != 0 || !live.count(op.path))
                continue;
            live.erase(op.path);
            break;
        }
        out.ops.push_back(op);
    }
    return out;
}

Capture
ServerExplorer::capture(const ServerHistory &hist, const CheckConfig &cfg)
{
    Runner r(sanitize(hist), cfg);
    return r.run();
}

const ServerCheckStats &
ServerExplorer::stats()
{
    return mutableStats();
}

void
ServerExplorer::resetStats()
{
    mutableStats() = ServerCheckStats{};
}

void
ServerExplorer::registerStats(sim::StatsRegistry &reg)
{
    const ServerCheckStats &s = mutableStats();
    reg.add("check.server.histories", s.histories);
    reg.add("check.server.crash_points", s.crashPoints);
    reg.add("check.server.fault_firings", s.faultFirings);
    reg.add("check.server.ops_verified", s.opsVerified);
    reg.add("check.server.busy_retries", s.busyRetries);
    reg.add("check.server.throttled_retries", s.throttledRetries);
    for (int k = 0; k <= int(SessionOp::Kind::SnapDelete); ++k) {
        reg.add(std::string("check.server.op_mix.") +
                    sessionOpKindName(static_cast<SessionOp::Kind>(k)),
                s.opMix[k]);
    }
}

// ---------------------------------------------------------------------
// The front end both checkers share
// ---------------------------------------------------------------------

Capture
capture(const Program &prog, const CheckConfig &cfg)
{
    if (const auto *hist = std::get_if<ServerHistory>(&prog))
        return ServerExplorer::capture(*hist, cfg);
    return CrashExplorer::capture(std::get<std::vector<Op>>(prog), cfg);
}

ExploreReport
explore(const Program &prog, const Capture &cap, const ExploreOptions &opt)
{
    const ExploreReport rep = CrashExplorer::explore(cap, opt);
    if (std::holds_alternative<ServerHistory>(prog))
        mutableStats().crashPoints += rep.trials;
    return rep;
}

ExploreReport
explore(const Program &prog, const CheckConfig &cfg,
        const ExploreOptions &opt)
{
    return explore(prog, capture(prog, cfg), opt);
}

} // namespace raid2::check
