#include "snap/backup_engine.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::snap {

using lfs::BlockAddr;
using lfs::Errno;
using lfs::LfsError;

namespace {

/** Exponential backoff when the link is down at send time: starts at
 *  retryBackoff and doubles per attempt up to retryBackoffMax. */
constexpr sim::Tick retryBackoff = sim::msToTicks(1.0);
constexpr sim::Tick retryBackoffMax = sim::msToTicks(64.0);
/** After this many backoffs the packet is handed to the channel anyway
 *  (it defers internally until link-up). */
constexpr unsigned maxRetries = 16;

} // namespace

BackupEngine::BackupEngine(sim::EventQueue &eq_,
                           server::Raid2Server &src_,
                           server::Raid2Server &dst_, const Config &cfg_)
    : eq(eq_), src(src_), dst(dst_), cfg(cfg_),
      chan(eq_, src_.board().name() + "-backup",
           src_.board().hippiSrcPort(), dst_.board().hippiDstPort())
{
    if (!src.config().withFs || !dst.config().withFs)
        sim::panic("BackupEngine: both servers need a file system");

    // The stream rewrites target segments in place, so the two file
    // systems must share a geometry.
    sb = src.fs().superblock();
    const lfs::Superblock &dsb = dst.fs().superblock();
    if (dsb.blockSize != sb.blockSize || dsb.segBlocks != sb.segBlocks ||
        dsb.numSegments != sb.numSegments ||
        dsb.firstSegBlock != sb.firstSegBlock ||
        dsb.maxInodes != sb.maxInodes) {
        sim::panic("BackupEngine: source/target geometry mismatch");
    }

    if (cfg.windowSegments == 0)
        cfg.windowSegments = 1;
    const std::uint64_t cap = src.board().buffers().capacity();
    const std::uint64_t fit =
        std::max<std::uint64_t>(1, cap / segmentBytes());
    cfg.windowSegments = std::min(cfg.windowSegments, fit);
}

BackupEngine::BackupEngine(sim::EventQueue &eq_,
                           server::Raid2Server &src_,
                           server::Raid2Server &dst_)
    : BackupEngine(eq_, src_, dst_, Config{})
{
}

std::uint64_t
BackupEngine::segmentBytes() const
{
    return std::uint64_t(sb.segBlocks) * sb.blockSize;
}

std::uint64_t
BackupEngine::segmentByteOffset(std::uint64_t seg) const
{
    return sb.segmentStartBlock(seg) * sb.blockSize;
}

const lfs::SnapshotRecord &
BackupEngine::findSnap(const std::string &name) const
{
    const lfs::SnapshotRecord *rec = src.fs().findSnapshot(name);
    if (rec == nullptr)
        throw LfsError(Errno::NoEntry, "no snapshot named " + name);
    return *rec;
}

void
BackupEngine::sendWithRetry(std::uint64_t bytes, unsigned attempt,
                            sim::Event done)
{
    if (chan.linkDown() && attempt < maxRetries) {
        // Deterministic exponential backoff: the link is down right
        // now, so burning a send on it would only defer inside the
        // channel; back off and probe again.
        ++_retries;
        sim::Tick delay = retryBackoff;
        for (unsigned i = 0; i < attempt && delay < retryBackoffMax; ++i)
            delay *= 2;
        delay = std::min(delay, retryBackoffMax);
        eq.scheduleIn(delay, [this, bytes, attempt,
                              done = std::move(done)]() mutable {
            sendWithRetry(bytes, attempt + 1, std::move(done));
        });
        return;
    }
    chan.send(bytes, {src.board().memory()}, {dst.board().memory()},
              std::move(done));
}

void
BackupEngine::backupFull(const std::string &snap_name, sim::Event done)
{
    const lfs::SnapshotRecord rec = findSnap(snap_name);
    std::vector<std::uint64_t> segs;
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (rec.pinned[s])
            segs.push_back(s);
    }
    ++_full;
    startStream(rec, std::move(segs), std::move(done));
}

void
BackupEngine::backupIncremental(const std::string &snap_name,
                                const std::string &base_name, sim::Event done)
{
    const lfs::SnapshotRecord rec = findSnap(snap_name);
    const lfs::SnapshotRecord base = findSnap(base_name);

    std::vector<std::uint64_t> segs;
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (!rec.pinned[s])
            continue;
        if (base.pinned[s]) {
            // Pinned segments are immutable: the base already shipped
            // this exact image.
            if (shipped.count(s) == 0) {
                throw LfsError(Errno::Invalid,
                               "base snapshot " + base_name +
                                   " is not on the backup target");
            }
            ++_skipped;
            continue;
        }
        segs.push_back(s);
    }
    ++_incremental;
    startStream(rec, std::move(segs), std::move(done));
}

void
BackupEngine::startStream(const lfs::SnapshotRecord &rec,
                          std::vector<std::uint64_t> segs, sim::Event done)
{
    if (active)
        throw LfsError(Errno::Invalid, "backup engine busy");
    active = true;
    streamSegs = std::move(segs);
    nextIssue = 0;
    completedSegs = 0;
    inFlight = 0;
    streamDone = std::move(done);

    // Manifest frame first: superblock + the serialized snapshot
    // record, so the receiver can interpret the segments that follow.
    const std::uint64_t manifest_bytes =
        sb.blockSize + lfs::snapshotRecordBytes(rec.name.size(),
                                                sb.numImapChunks(),
                                                sb.numSegments);
    const sim::Tick began = eq.now();
    sendWithRetry(manifest_bytes, 0, [this, began, manifest_bytes] {
        if (auto *tr = eq.tracer())
            tr->complete("backup", "manifest", began, eq.now(),
                         manifest_bytes);
        if (streamSegs.empty())
            finishStream();
        else
            issueNext();
    });
}

void
BackupEngine::issueNext()
{
    while (inFlight < cfg.windowSegments &&
           nextIssue < streamSegs.size())
        issueSegment(streamSegs[nextIssue++]);
}

void
BackupEngine::issueSegment(std::uint64_t seg)
{
    ++inFlight;
    const std::uint64_t off = segmentByteOffset(seg);
    const std::uint64_t n = segmentBytes();
    src.board().buffers().alloc(n, [this, seg, off, n] {
        const sim::Tick began = eq.now();
        src.array().read(off, n, [this, seg, off, n, began] {
            sendWithRetry(n, 0, [this, seg, off, n, began] {
                dst.array().write(off, n, [this, seg, off, n, began] {
                    finishSegment(seg, off, n, began);
                });
            });
        });
    });
}

void
BackupEngine::finishSegment(std::uint64_t seg, std::uint64_t off,
                            std::uint64_t bytes, sim::Tick began)
{
    // Functional twin of the transfer: the segment image lands at the
    // same address on the target.  Pinned segments are immutable on
    // the source, so reading them now (after the timed transfer) sees
    // the same bytes the timed reads moved.
    const std::uint64_t bno = off / sb.blockSize;
    const std::uint64_t count = bytes / sb.blockSize;
    std::vector<std::uint8_t> buf(bytes);
    src.rawFsDevice().readRange(bno, count, {buf.data(), buf.size()});
    dst.rawFsDevice().writeRange(bno, count, {buf.data(), buf.size()});

    src.board().buffers().free(bytes);
    shipped.insert(seg);
    ++_segments;
    _bytes += bytes;
    if (auto *tr = eq.tracer())
        tr->complete("backup", "segment", began, eq.now(), bytes);

    --inFlight;
    ++completedSegs;
    if (completedSegs == streamSegs.size())
        finishStream();
    else
        issueNext();
}

void
BackupEngine::finishStream()
{
    active = false;
    auto done = std::move(streamDone);
    if (done)
        done();
}

void
BackupEngine::restore(const std::string &snap_name,
                      sim::Callback<const lfs::FsckReport &> done)
{
    if (active)
        throw LfsError(Errno::Invalid, "backup engine busy");
    const lfs::SnapshotRecord rec = findSnap(snap_name);
    for (std::uint64_t s = 0; s < sb.numSegments; ++s) {
        if (rec.pinned[s] && shipped.count(s) == 0) {
            throw LfsError(Errno::Invalid,
                           "snapshot " + snap_name +
                               " is not fully on the backup target");
        }
    }

    active = true;
    dst.beginRestore();
    const sim::Tick began = eq.now();

    // Write the restore checkpoint to both regions so mount picks it
    // regardless of which one the target's old state favored.
    const std::vector<std::uint8_t> region =
        lfs::Lfs::restoreCheckpoint(dst.rawFsDevice(), rec);
    dst.rawFsDevice().writeRange(sb.cp0Block, sb.cpBlocks,
                                 {region.data(), region.size()});
    dst.rawFsDevice().writeRange(sb.cp1Block, sb.cpBlocks,
                                 {region.data(), region.size()});

    const std::uint64_t cp_bytes = region.size();
    dst.array().write(sb.cp0Block * sb.blockSize, cp_bytes,
                      [this, cp_bytes, began,
                       done = std::move(done)]() mutable {
        dst.array().write(
            sb.cp1Block * sb.blockSize, cp_bytes,
            [this, began, done = std::move(done)]() mutable {
                dst.remountFs();
                const lfs::FsckReport rep = dst.fs().fsck();
                dst.endRestore();
                ++_restores;
                active = false;
                if (auto *tr = eq.tracer())
                    tr->complete("backup", "restore", began, eq.now());
                if (done)
                    done(rep);
            });
    });
}

BackupEngine::VerifyReport
BackupEngine::verify(const std::string &snap_name) const
{
    VerifyReport vr;
    const auto snap =
        lfs::Lfs::mountSnapshot(src.rawFsDevice(), findSnap(snap_name));
    const lfs::Lfs &tfs = dst.fs();

    // Snapshot -> target: every node exists with identical type, size
    // and contents.
    std::set<std::string> snap_paths;
    snap->walk([&](const std::string &path, const lfs::Stat &st) {
        snap_paths.insert(path);
        if (st.type == lfs::FileType::Directory) {
            ++vr.directories;
            if (!tfs.exists(path) ||
                tfs.stat(path).type != lfs::FileType::Directory) {
                vr.ok = false;
                vr.mismatches.push_back("missing directory " + path);
            }
            return;
        }
        ++vr.files;
        if (!tfs.exists(path)) {
            vr.ok = false;
            vr.mismatches.push_back("missing file " + path);
            return;
        }
        const lfs::Stat tst = tfs.stat(path);
        if (tst.type != st.type || tst.size != st.size) {
            vr.ok = false;
            vr.mismatches.push_back("stat mismatch " + path);
            return;
        }
        std::vector<std::uint8_t> want(st.size), got(st.size);
        snap->read(st.ino, 0, {want.data(), want.size()});
        tfs.read(tst.ino, 0, {got.data(), got.size()});
        vr.bytes += st.size;
        if (want != got) {
            vr.ok = false;
            vr.mismatches.push_back("content mismatch " + path);
        }
    });

    // Target -> snapshot: no extra nodes appeared.
    tfs.walk([&](const std::string &path, const lfs::Stat &) {
        if (snap_paths.count(path) == 0) {
            vr.ok = false;
            vr.mismatches.push_back("unexpected node " + path);
        }
    });
    return vr;
}

void
BackupEngine::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("backup.segments", _segments);
    reg.add("backup.bytes", _bytes);
    reg.add("backup.retries", _retries);
    reg.add("backup.skipped_segments", _skipped);
    reg.add("backup.full", _full);
    reg.add("backup.incremental", _incremental);
    reg.add("backup.restores", _restores);
    reg.add("backup.window", cfg.windowSegments);
    chan.registerStats(reg, "backup.hippi");
}

} // namespace raid2::snap
