/**
 * @file
 * High-bandwidth online backup/restore between two RAID-II servers.
 *
 * The engine streams snapshot segments from a source server to a
 * backup server over a dedicated HIPPI channel (source board's HIPPI
 * source port to the target board's destination port), the
 * configuration §2.2 describes for server-to-server transfers.  A
 * full backup ships every segment the snapshot pins; an incremental
 * backup ships only segments pinned by the new snapshot and not by
 * the base — valid because pinned segments are immutable, so the
 * base's segments are still byte-identical on the target.
 *
 * Each in-flight segment holds an XBUS buffer-pool reservation on the
 * source board, bounding the window: disk-array read into board
 * memory, HIPPI transfer, array write on the target, release.  The
 * source keeps serving fleet traffic throughout — backup reads simply
 * compete in the timed array like any other I/O.  Link drops injected
 * through fault::FaultPlan/HippiChannel::injectLinkDown are survived
 * by deterministic exponential backoff before each send.
 *
 * restore() rebuilds a mountable file system on the (empty) target
 * from previously shipped segments: it writes the checkpoint
 * lfs::Lfs::restoreCheckpoint builds from the snapshot record (imap
 * chunk addresses, a usage table from the shipped segment summaries,
 * and the record itself so the restored file system keeps the pins),
 * then remounts and fscks the target.
 */

#ifndef RAID2_SNAP_BACKUP_ENGINE_HH
#define RAID2_SNAP_BACKUP_ENGINE_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "net/hippi.hh"
#include "server/raid2_server.hh"

namespace raid2::snap {

/** Streams snapshots between two servers over HIPPI. */
class BackupEngine
{
  public:
    struct Config
    {
        /** Segments in flight at once; each holds one segment-sized
         *  XBUS buffer on the source board. */
        std::uint64_t windowSegments = 4;
    };

    /** restore() + verify() outcome against the source snapshot. */
    struct VerifyReport
    {
        bool ok = true;
        std::uint64_t files = 0;
        std::uint64_t directories = 0;
        std::uint64_t bytes = 0;
        std::vector<std::string> mismatches;
    };

    BackupEngine(sim::EventQueue &eq, server::Raid2Server &src,
                 server::Raid2Server &dst, const Config &cfg);
    BackupEngine(sim::EventQueue &eq, server::Raid2Server &src,
                 server::Raid2Server &dst);

    /** Ship every segment snapshot @p snap_name pins. */
    void backupFull(const std::string &snap_name, sim::Event done);

    /**
     * Ship only segments pinned by @p snap_name and not by
     * @p base_name.  The base must already be on the target.
     */
    void backupIncremental(const std::string &snap_name,
                           const std::string &base_name, sim::Event done);

    /**
     * Rebuild the target file system at snapshot @p snap_name from
     * shipped segments: write the restore checkpoint, remount, fsck.
     * The target rejects scheduler traffic (Status::Busy) while the
     * rewrite is in progress.
     */
    void restore(const std::string &snap_name,
                 sim::Callback<const lfs::FsckReport &> done);

    /** Byte-compare the restored target tree against a read-only
     *  mount of the source snapshot (both directions; functional, off
     *  the clock). */
    VerifyReport verify(const std::string &snap_name) const;

    /** The backup HIPPI channel (fault injection hooks here). */
    net::HippiChannel &channel() { return chan; }

    bool busy() const { return active; }

    /** @{ Counters. */
    std::uint64_t segmentsSent() const { return _segments; }
    std::uint64_t bytesSent() const { return _bytes; }
    std::uint64_t retries() const { return _retries; }
    std::uint64_t segmentsSkipped() const { return _skipped; }
    std::uint64_t fullBackups() const { return _full; }
    std::uint64_t incrementalBackups() const { return _incremental; }
    std::uint64_t restoresDone() const { return _restores; }
    /** @} */

    /** Register "backup.*" (plus the channel under
     *  "backup.hippi.*"). */
    void registerStats(sim::StatsRegistry &reg) const;

  private:
    void startStream(const lfs::SnapshotRecord &rec,
                     std::vector<std::uint64_t> segs, sim::Event done);
    void issueNext();
    void issueSegment(std::uint64_t seg);
    void finishSegment(std::uint64_t seg, std::uint64_t off,
                       std::uint64_t bytes, sim::Tick began);
    void finishStream();
    /** linkDown-aware send with deterministic exponential backoff. */
    void sendWithRetry(std::uint64_t bytes, unsigned attempt, sim::Event done);

    std::uint64_t segmentBytes() const;
    std::uint64_t segmentByteOffset(std::uint64_t seg) const;
    const lfs::SnapshotRecord &findSnap(const std::string &name) const;

    sim::EventQueue &eq;
    server::Raid2Server &src;
    server::Raid2Server &dst;
    Config cfg;
    net::HippiChannel chan;
    lfs::Superblock sb; // shared geometry (checked at construction)

    /** @{ One stream at a time. */
    bool active = false;
    std::vector<std::uint64_t> streamSegs;
    std::size_t nextIssue = 0;
    std::size_t completedSegs = 0;
    unsigned inFlight = 0;
    sim::Event streamDone;
    /** @} */

    /** Segments whose images are present on the target. */
    std::set<std::uint64_t> shipped;

    std::uint64_t _segments = 0;
    std::uint64_t _bytes = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _skipped = 0;
    std::uint64_t _full = 0;
    std::uint64_t _incremental = 0;
    std::uint64_t _restores = 0;
};

} // namespace raid2::snap

#endif // RAID2_SNAP_BACKUP_ENGINE_HH
