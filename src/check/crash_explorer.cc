#include "check/crash_explorer.hh"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "fs/fault_device.hh"
#include "fs/mem_block_device.hh"
#include "lfs/format.hh"
#include "lfs/lfs.hh"

namespace raid2::check {

namespace {

/** Copy-on-write view over a base image: trial writes stay local. */
class OverlayDevice : public fs::BlockDevice
{
  public:
    OverlayDevice(std::uint32_t block_size,
                  const std::vector<std::uint8_t> &base_image)
        : bs(block_size), base(base_image)
    {
    }

    std::uint32_t blockSize() const override { return bs; }
    std::uint64_t numBlocks() const override
    {
        return base.size() / bs;
    }

    void
    readRange(std::uint64_t bno, std::uint64_t count,
              std::span<std::uint8_t> out) override
    {
        if (count == 0)
            return;
        checkExtent(bno, count, out.size());
        noteRead(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = dirty.find(bno + i);
            const std::uint8_t *src = it != dirty.end()
                                          ? it->second.data()
                                          : base.data() + (bno + i) * bs;
            std::copy(src, src + bs, out.begin() + i * bs);
        }
    }

    void
    writeRange(std::uint64_t bno, std::uint64_t count,
               std::span<const std::uint8_t> data) override
    {
        if (count == 0)
            return;
        checkExtent(bno, count, data.size());
        noteWrite(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            auto blk = data.subspan(i * bs, bs);
            dirty[bno + i].assign(blk.begin(), blk.end());
        }
    }

  private:
    std::uint32_t bs;
    const std::vector<std::uint8_t> &base;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> dirty;
};

lfs::Lfs::Params
fsParams(const CheckConfig &cfg)
{
    lfs::Lfs::Params p;
    p.blockSize = cfg.blockSize;
    p.segBlocks = cfg.segBlocks;
    p.maxInodes = cfg.maxInodes;
    return p;
}

/** Apply one workload op to a live file system. */
void
applyToLfs(lfs::Lfs &fs, const Op &op)
{
    switch (op.kind) {
      case Op::Kind::Create:
        fs.create(op.path);
        break;
      case Op::Kind::Mkdir:
        fs.mkdir(op.path);
        break;
      case Op::Kind::Write: {
        const auto data = patternBytes(op.len, op.dataSeed);
        fs.write(fs.lookup(op.path), op.off,
                 {data.data(), data.size()});
        break;
      }
      case Op::Kind::Truncate:
        fs.truncate(fs.lookup(op.path), op.len);
        break;
      case Op::Kind::Rename:
        fs.rename(op.path, op.path2);
        break;
      case Op::Kind::Link:
        fs.link(op.path, op.path2);
        break;
      case Op::Kind::Unlink:
        fs.unlink(op.path);
        break;
      case Op::Kind::Rmdir:
        fs.rmdir(op.path);
        break;
      case Op::Kind::Sync:
        fs.sync();
        break;
      case Op::Kind::Checkpoint:
        fs.checkpoint();
        break;
      case Op::Kind::Clean:
        fs.clean(static_cast<unsigned>(op.len));
        break;
      case Op::Kind::SnapCreate:
        fs.takeSnapshot(op.path);
        break;
      case Op::Kind::SnapDelete:
        fs.deleteSnapshot(op.path);
        break;
    }
}

/** Read the whole recovered tree (paths, types, file bytes). */
Tree
recoverTree(const lfs::Lfs &fs)
{
    Tree out;
    fs.walk([&](const std::string &path, const lfs::Stat &st) {
        TreeNode node;
        if (st.type == lfs::FileType::Directory) {
            node.isDir = true;
            for (const auto &e : fs.readdir(path))
                node.entries.insert(e.name);
        } else {
            auto bytes =
                std::make_shared<std::vector<std::uint8_t>>(st.size);
            if (st.size > 0)
                fs.read(st.ino, 0, {bytes->data(), bytes->size()});
            node.bytes = std::move(bytes);
        }
        out.emplace(path, std::move(node));
    });
    return out;
}

std::string
describeNode(const TreeNode &n)
{
    if (!n.isDir)
        return "file size=" + std::to_string(n.bytes->size());
    std::string s = "dir {";
    bool first = true;
    for (const auto &e : n.entries) {
        if (!first)
            s += ",";
        s += e;
        first = false;
    }
    return s + "}";
}

/**
 * The oracle comparison: every recovered path must match some legal
 * version, and every path present in all legal versions must have
 * been recovered.
 */
std::vector<std::string>
compareAgainstOracle(const Tree &recovered,
                     const std::vector<Tree> &versions, std::size_t lo,
                     std::size_t hi)
{
    std::vector<std::string> diffs;
    const std::string range =
        "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";

    for (const auto &[path, node] : recovered) {
        bool matched = false;
        bool everExists = false;
        for (std::size_t j = lo; j <= hi && !matched; ++j) {
            auto it = versions[j].find(path);
            if (it == versions[j].end())
                continue;
            everExists = true;
            if (it->second == node)
                matched = true;
        }
        if (matched)
            continue;
        if (!everExists) {
            diffs.push_back("path " + path + ": recovered (" +
                            describeNode(node) +
                            ") but absent from every legal version " +
                            range);
        } else {
            diffs.push_back("path " + path + ": recovered " +
                            describeNode(node) +
                            " matches no legal version " + range);
        }
    }

    // Paths present in *all* legal versions are durable: they must
    // have been recovered (content equality was checked above).
    for (const auto &[path, node] : versions[lo]) {
        bool everywhere = true;
        for (std::size_t j = lo + 1; j <= hi && everywhere; ++j)
            everywhere = versions[j].count(path) != 0;
        if (everywhere && !recovered.count(path)) {
            diffs.push_back("path " + path +
                            ": durable but missing after recovery "
                            "(present in all legal versions " +
                            range + ")");
        }
    }
    return diffs;
}

/**
 * The snapshot-table oracle: every recovered snapshot must be one the
 * workload created, created snapshots must survive once durable, and
 * deleted ones must stay gone — never a torn table.
 *
 * Durability is checkpoint-bound, not sync-bound: a snap op syncs
 * (recording a barrier) *before* writing the checkpoint that carries
 * the table, so at lo == createVersion the table write may still be
 * in flight and the snapshot is optional.  The first later barrier
 * (any tag > create's op) implies the checkpoint landed — writes are
 * ordered — so with c/d the create/delete versions of a name:
 * present required iff c < lo and d > hi; absent required iff c > hi
 * or d < lo; optional in between.  (Names are never reused, which
 * keeps the per-name rule unambiguous.)
 */
std::vector<std::string>
compareSnapshotTable(const std::set<std::string> &recovered,
                     const std::vector<Op> &ops, std::size_t lo,
                     std::size_t hi)
{
    constexpr std::size_t never = static_cast<std::size_t>(-1);
    struct Life
    {
        std::size_t create = never;
        std::size_t destroy = never;
        bool reused = false;
    };
    std::map<std::string, Life> names;
    for (std::size_t j = 0; j < ops.size(); ++j) {
        if (ops[j].kind == Op::Kind::SnapCreate) {
            Life &l = names[ops[j].path];
            if (l.create != never)
                l.reused = true; // ambiguous; skip its checks
            l.create = j + 1;
        } else if (ops[j].kind == Op::Kind::SnapDelete) {
            names[ops[j].path].destroy = j + 1;
        }
    }

    std::vector<std::string> diffs;
    const std::string range =
        "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    for (const std::string &n : recovered) {
        if (!names.count(n))
            diffs.push_back("snapshot " + n +
                            ": recovered but never created");
    }
    for (const auto &[n, l] : names) {
        if (l.reused)
            continue;
        const std::size_t d = l.destroy;
        const bool present = recovered.count(n) != 0;
        if (l.create < lo && (d == never || d > hi) && !present) {
            diffs.push_back("snapshot " + n +
                            ": durable but missing after recovery " +
                            range);
        } else if ((l.create > hi || (d != never && d < lo)) &&
                   present) {
            diffs.push_back("snapshot " + n +
                            ": recovered but not legal in " + range);
        }
    }
    return diffs;
}

} // namespace

const char *
TrialSpec::modeName(Mode m)
{
    switch (m) {
      case Mode::Cut:
        return "cut";
      case Mode::Torn:
        return "torn";
      case Mode::Dropped:
        return "dropped";
      case Mode::Corrupt:
        return "corrupt";
    }
    return "?";
}

std::string
TrialSpec::str() const
{
    return std::string(modeName(mode)) + " cut=" + std::to_string(cut) +
           " target=" + std::to_string(target) +
           " xor=" + std::to_string(xorMask) +
           " barrier=" + std::to_string(forceBarrier);
}

// ---------------------------------------------------------------------
// Live capture
// ---------------------------------------------------------------------

Capture
CrashExplorer::capture(const std::vector<Op> &ops,
                       const CheckConfig &cfg)
{
    Capture cap;
    cap.cfg = cfg;
    cap.ops = ops;

    fs::MemBlockDevice media(cfg.blockSize, cfg.numBlocks);
    fs::FaultDevice dev(media);
    lfs::Lfs::format(dev, fsParams(cfg));
    lfs::Lfs fs(dev); // creates the root directory + first checkpoint

    cap.base.resize(std::size_t(cfg.numBlocks) * cfg.blockSize);
    media.readRange(0, cfg.numBlocks,
                    {cap.base.data(), cap.base.size()});

    dev.attachWriteLog(&cap.log);
    fs.setAutoClean(cfg.autoClean);

    RefFs model;
    cap.versions.push_back(model.tree());
    for (std::size_t j = 0; j < ops.size(); ++j) {
        cap.log.setTag(static_cast<std::uint32_t>(j));
        applyToLfs(fs, ops[j]);
        model.apply(ops[j]);
        cap.versions.push_back(model.tree());
    }
    dev.attachWriteLog(nullptr);
    return cap;
}

// ---------------------------------------------------------------------
// Oracle bounds
// ---------------------------------------------------------------------

std::pair<std::size_t, std::size_t>
CrashExplorer::versionRange(const Capture &cap, const TrialSpec &spec)
{
    // cut/target and Barrier::at all index the log's flat block space
    // (WriteLog::numBlocks), independent of how writes coalesced into
    // extent entries.
    const auto &barriers = cap.log.barriers();

    // Durability lower bound: the newest barrier whose writes all
    // survive this trial.  A Cut at exactly a barrier keeps it; a
    // torn/dropped write invalidates any barrier recorded after it.
    std::size_t lo = 0; // version 0 = the freshly formatted tree
    if (spec.forceBarrier >= 0) {
        lo = barriers.at(static_cast<std::size_t>(spec.forceBarrier))
                 .tag +
             1;
    } else {
        const std::size_t anchor = (spec.mode == TrialSpec::Mode::Torn ||
                                    spec.mode ==
                                        TrialSpec::Mode::Dropped)
                                       ? spec.target
                                       : spec.cut;
        for (const auto &b : barriers) {
            if (b.at <= anchor && b.at <= spec.cut)
                lo = b.tag + 1;
        }
    }

    // Upper bound: the op that issued the last write that could have
    // landed.
    std::size_t hi = lo;
    if (spec.cut > 0) {
        std::size_t last = spec.cut - 1;
        if (spec.mode == TrialSpec::Mode::Dropped &&
            spec.target == last && last > 0) {
            --last;
        }
        hi = std::max<std::size_t>(lo, cap.log.blockAt(last).tag + 1);
    }
    return {lo, hi};
}

// ---------------------------------------------------------------------
// One trial
// ---------------------------------------------------------------------

namespace {

TrialResult
runTrialFrom(const Capture &cap, const TrialSpec &spec,
             const std::vector<std::uint8_t> &base_image,
             std::size_t base_count)
{
    TrialResult result;

    OverlayDevice overlay(cap.cfg.blockSize, base_image);
    fs::FaultDevice dev(overlay);

    // Rebuild the post-crash image: blocks [base_count, cut) of the
    // flat log with the spec's perturbation, injected through the
    // FaultDevice.  Crash points index blocks, not extent entries, so
    // coalesced captures enumerate the same states per-block captures
    // did.
    cap.log.forEachBlockIn(
        base_count, spec.cut,
        [&](std::size_t i, std::uint64_t bno,
            std::span<const std::uint8_t> data) {
            if (i == spec.target && spec.mode != TrialSpec::Mode::Cut) {
                switch (spec.mode) {
                  case TrialSpec::Mode::Torn:
                    dev.setWriteLimit(0);
                    dev.setTearOnCrash(true);
                    dev.writeRange(bno, 1, data);
                    dev.heal();
                    dev.setTearOnCrash(false);
                    break;
                  case TrialSpec::Mode::Dropped:
                    dev.setWriteLimit(0);
                    dev.writeRange(bno, 1, data);
                    dev.heal();
                    break;
                  case TrialSpec::Mode::Corrupt: {
                    std::vector<std::uint8_t> bad(data.begin(),
                                                  data.end());
                    const std::size_t n =
                        std::min<std::size_t>(64, bad.size());
                    for (std::size_t k = 0; k < n; ++k)
                        bad[k] ^= spec.xorMask;
                    dev.writeRange(bno, 1, {bad.data(), bad.size()});
                    break;
                  }
                  case TrialSpec::Mode::Cut:
                    break;
                }
                return;
            }
            dev.writeRange(bno, 1, data);
        });

    // Remount: checkpoint load + roll-forward recovery.
    const auto [lo, hi] = CrashExplorer::versionRange(cap, spec);
    try {
        lfs::Lfs fs(dev);
        const auto fsck = fs.fsck();
        if (!fsck.ok) {
            for (const auto &issue : fsck.issues)
                result.diffs.push_back("fsck: " + issue.str());
        } else {
            const Tree recovered = recoverTree(fs);
            result.diffs = compareAgainstOracle(recovered,
                                                cap.versions, lo, hi);
            std::set<std::string> rsnaps;
            for (const auto &rec : fs.listSnapshots())
                rsnaps.insert(rec.name);
            const auto sdiffs =
                compareSnapshotTable(rsnaps, cap.ops, lo, hi);
            result.diffs.insert(result.diffs.end(), sdiffs.begin(),
                                sdiffs.end());
        }
    } catch (const std::exception &e) {
        result.diffs.push_back(std::string("mount failed: ") +
                               e.what());
    }

    result.ok = result.diffs.empty();
    return result;
}

} // namespace

TrialResult
CrashExplorer::runTrial(const Capture &cap, const TrialSpec &spec)
{
    return runTrialFrom(cap, spec, cap.base, 0);
}

// ---------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------

ExploreReport
CrashExplorer::explore(const Capture &cap, const ExploreOptions &opt)
{
    ExploreReport report;
    const auto &barriers = cap.log.barriers();
    const std::size_t n = cap.log.numBlocks();

    auto run = [&](const TrialSpec &spec,
                   const std::vector<std::uint8_t> &base,
                   std::size_t base_count) -> bool {
        ++report.trials;
        const TrialResult r = runTrialFrom(cap, spec, base, base_count);
        if (!r.ok)
            report.failures.push_back(Failure{spec, r.diffs});
        return !r.ok && opt.stopAtFirst;
    };

    // Window boundaries: the implicit barrier at write 0 (the base
    // image is a checkpointed state), every recorded barrier, the end
    // of the log.
    std::vector<std::size_t> bounds{0};
    for (const auto &b : barriers) {
        if (b.at != bounds.back())
            bounds.push_back(b.at);
    }
    if (bounds.back() != n)
        bounds.push_back(n);

    // The empty prefix: crash before anything after the mount landed.
    if (run(TrialSpec{TrialSpec::Mode::Cut, 0, 0, 0xff, -1}, cap.base, 0))
        return report;

    // Advance a shared base image window by window so each trial only
    // replays writes from its own window.
    std::vector<std::uint8_t> base = cap.base;
    for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
        const std::size_t start = bounds[w];
        const std::size_t end = bounds[w + 1];

        for (std::size_t i = start; i < end; ++i) {
            // Crash point after write i: either write i+1 never
            // starts (Cut — also the "dropped in flight" variant of
            // crash point i+1 under ordered writes) ...
            if (run(TrialSpec{TrialSpec::Mode::Cut, i + 1, 0, 0xff, -1},
                    base, start)) {
                return report;
            }
            // ... or write i itself lands torn mid-transfer.
            if (run(TrialSpec{TrialSpec::Mode::Torn, i + 1, i, 0xff,
                              -1},
                    base, start)) {
                return report;
            }
        }

        cap.log.forEachBlockIn(
            start, end,
            [&](std::size_t, std::uint64_t bno,
                std::span<const std::uint8_t> data) {
                std::copy(data.begin(), data.end(),
                          base.begin() +
                              std::size_t(bno) * cap.cfg.blockSize);
            });
    }

    return report;
}

std::optional<Failure>
CrashExplorer::findAckedDrop(const Capture &cap)
{
    OverlayDevice image(cap.cfg.blockSize, cap.base);
    const lfs::Superblock sb = lfs::Lfs::loadSuperblock(image);
    const auto &barriers = cap.log.barriers();
    for (std::size_t k = barriers.size(); k-- > 0;) {
        // The last summary write since the barrier before this one.
        std::optional<std::size_t> target;
        cap.log.forEachBlockIn(
            k > 0 ? barriers[k - 1].at : 0, barriers[k].at,
            [&](std::size_t i, std::uint64_t bno,
                std::span<const std::uint8_t>) {
                if (bno >= sb.firstSegBlock &&
                    bno < sb.firstSegBlock +
                              sb.numSegments * sb.segBlocks &&
                    (bno - sb.firstSegBlock) % sb.segBlocks == 0)
                    target = i;
            });
        if (!target)
            continue;
        const TrialSpec spec{TrialSpec::Mode::Dropped, barriers[k].at,
                             *target, 0xff, static_cast<int>(k)};
        const TrialResult r = runTrial(cap, spec);
        if (!r.ok)
            return Failure{spec, r.diffs};
    }
    return std::nullopt;
}

} // namespace raid2::check
