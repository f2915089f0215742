/**
 * @file
 * Snapshot lifecycle for a running RAID-II server.
 *
 * SnapshotManager fronts lfs::Lfs's snapshot table with server-level
 * concerns: per-operation trace spans, the "snap.*" stats tree, a
 * timed variant of create that drains the mirrored checkpoint writes
 * through the simulated array, and read-only snapshot mounts
 * (lfs::Lfs::mountSnapshot) for reading files as of a snapshot while
 * the live file system keeps moving.
 */

#ifndef RAID2_SNAP_SNAPSHOT_MANAGER_HH
#define RAID2_SNAP_SNAPSHOT_MANAGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/raid2_server.hh"

namespace raid2::snap {

/** Named instant snapshots of a server's file system. */
class SnapshotManager
{
  public:
    explicit SnapshotManager(server::Raid2Server &srv);

    /** Take a snapshot (functional; durable via checkpoint).
     *  @return the snapshot id. */
    std::uint32_t create(const std::string &name);

    /** Like create(), then drain the mirrored checkpoint/segment
     *  writes through the timed array before @p done fires. */
    void createTimed(const std::string &name,
                     sim::Callback<std::uint32_t> done);

    /** Delete a snapshot (durable before the pins release). */
    void remove(const std::string &name);

    const std::vector<lfs::SnapshotRecord> &list() const;
    const lfs::SnapshotRecord *find(const std::string &name) const;

    /** Mount @p name read-only on the server's raw device, so its
     *  reads stay off the timed plane.
     *  @throw lfs::LfsError(NoEntry) if it does not exist. */
    std::unique_ptr<const lfs::Lfs> open(const std::string &name) const;

    /** Segments currently pinned by at least one snapshot. */
    std::uint64_t pinnedSegments() const;

    /** @{ Counters. */
    std::uint64_t created() const { return _created; }
    std::uint64_t deleted() const { return _deleted; }
    std::uint64_t viewsOpened() const { return _views; }
    /** @} */

    /** Register "snap.*": created/deleted/views/count/pinned_segments. */
    void registerStats(sim::StatsRegistry &reg) const;

  private:
    void traceOp(const char *op, const std::string &name,
                 sim::Tick began) const;

    server::Raid2Server &srv;
    std::uint64_t _created = 0;
    std::uint64_t _deleted = 0;
    mutable std::uint64_t _views = 0;
};

} // namespace raid2::snap

#endif // RAID2_SNAP_SNAPSHOT_MANAGER_HH
