#include "snap/snapshot_manager.hh"

#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::snap {

SnapshotManager::SnapshotManager(server::Raid2Server &srv_) : srv(srv_)
{
}

void
SnapshotManager::traceOp(const char *op, const std::string &name,
                         sim::Tick began) const
{
    if (auto *tr = srv.eventQueue().tracer())
        tr->complete("snap", std::string(op) + ":" + name, began,
                     srv.eventQueue().now());
}

std::uint32_t
SnapshotManager::create(const std::string &name)
{
    const sim::Tick began = srv.eventQueue().now();
    const std::uint32_t id = srv.fs().takeSnapshot(name);
    ++_created;
    traceOp("create", name, began);
    return id;
}

void
SnapshotManager::createTimed(const std::string &name,
                             sim::Callback<std::uint32_t> done)
{
    const std::uint32_t id = create(name);
    // takeSnapshot() synced and checkpointed through the hooked
    // device; fsSync() pushes those mirrored writes through the timed
    // array so the snapshot's durability cost is on the clock.
    srv.fsSync([id, done = std::move(done)]() mutable {
        if (done)
            done(id);
    });
}

void
SnapshotManager::remove(const std::string &name)
{
    const sim::Tick began = srv.eventQueue().now();
    srv.fs().deleteSnapshot(name);
    ++_deleted;
    traceOp("delete", name, began);
}

const std::vector<lfs::SnapshotRecord> &
SnapshotManager::list() const
{
    return srv.fs().listSnapshots();
}

const lfs::SnapshotRecord *
SnapshotManager::find(const std::string &name) const
{
    return srv.fs().findSnapshot(name);
}

std::unique_ptr<const lfs::Lfs>
SnapshotManager::open(const std::string &name) const
{
    const lfs::SnapshotRecord *rec = srv.fs().findSnapshot(name);
    if (rec == nullptr)
        throw lfs::LfsError(lfs::Errno::NoEntry,
                            "no snapshot named " + name);
    ++_views;
    return lfs::Lfs::mountSnapshot(srv.rawFsDevice(), *rec);
}

std::uint64_t
SnapshotManager::pinnedSegments() const
{
    const lfs::Lfs &fs = srv.fs();
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < fs.totalSegments(); ++s)
        n += fs.segmentPinned(s) ? 1 : 0;
    return n;
}

void
SnapshotManager::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("snap.created", _created);
    reg.add("snap.deleted", _deleted);
    reg.add("snap.views", _views);
    reg.addGauge("snap.count", [this] {
        return static_cast<double>(list().size());
    });
    reg.addGauge("snap.pinned_segments", [this] {
        return static_cast<double>(pinnedSegments());
    });
}

} // namespace raid2::snap
