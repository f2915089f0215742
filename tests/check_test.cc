/**
 * @file
 * Crash-consistency model checker tests: the RefFs oracle, workload
 * generator determinism, oracle-differential equivalence without
 * crashes, the full crash-point sweep over several seeds (ctest label
 * `check`), the illegal-device self-tests proving the oracle flags
 * real durability violations, and the Shrinker + Artifact round trip.
 *
 * Set RAID2_CHECK_SEEDS=N for the extended sweep (N extra seeds);
 * unset it runs the standard 8-seed enumeration only.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "check/artifact.hh"
#include "check/server_explorer.hh"
#include "check/shrinker.hh"
#include "check/workload_gen.hh"
#include "fs/mem_block_device.hh"
#include "lfs/format.hh"
#include "lfs/lfs.hh"

namespace {

using namespace raid2;
using namespace raid2::check;

Op
op(Op::Kind kind, std::string path = {}, std::string path2 = {},
   std::uint64_t off = 0, std::uint64_t len = 0,
   std::uint64_t seed = 0)
{
    Op o;
    o.kind = kind;
    o.path = std::move(path);
    o.path2 = std::move(path2);
    o.off = off;
    o.len = len;
    o.dataSeed = seed;
    return o;
}

/** Apply one checker op through the public Lfs API. */
void
applyToLfs(lfs::Lfs &fs, const Op &o)
{
    switch (o.kind) {
      case Op::Kind::Create:
        fs.create(o.path);
        break;
      case Op::Kind::Mkdir:
        fs.mkdir(o.path);
        break;
      case Op::Kind::Write: {
        const auto data = patternBytes(o.len, o.dataSeed);
        fs.write(fs.lookup(o.path), o.off, {data.data(), data.size()});
        break;
      }
      case Op::Kind::Truncate:
        fs.truncate(fs.lookup(o.path), o.len);
        break;
      case Op::Kind::Rename:
        fs.rename(o.path, o.path2);
        break;
      case Op::Kind::Link:
        fs.link(o.path, o.path2);
        break;
      case Op::Kind::Unlink:
        fs.unlink(o.path);
        break;
      case Op::Kind::Rmdir:
        fs.rmdir(o.path);
        break;
      case Op::Kind::Sync:
        fs.sync();
        break;
      case Op::Kind::Checkpoint:
        fs.checkpoint();
        break;
      case Op::Kind::Clean:
        fs.clean(static_cast<unsigned>(o.len));
        break;
      case Op::Kind::SnapCreate:
        fs.takeSnapshot(o.path);
        break;
      case Op::Kind::SnapDelete:
        fs.deleteSnapshot(o.path);
        break;
    }
}

/** Materialize a live Lfs namespace as a checker Tree. */
Tree
lfsTree(const lfs::Lfs &fs)
{
    Tree out;
    std::vector<std::string> stack{"/"};
    while (!stack.empty()) {
        const std::string path = std::move(stack.back());
        stack.pop_back();
        const auto st = fs.stat(path);
        TreeNode node;
        if (st.type == lfs::FileType::Directory) {
            node.isDir = true;
            for (const auto &e : fs.readdir(path)) {
                node.entries.insert(e.name);
                stack.push_back(path == "/" ? "/" + e.name
                                            : path + "/" + e.name);
            }
        } else {
            auto bytes =
                std::make_shared<std::vector<std::uint8_t>>(st.size);
            if (st.size > 0)
                fs.read(st.ino, 0, {bytes->data(), bytes->size()});
            node.bytes = std::move(bytes);
        }
        out.emplace(path, std::move(node));
    }
    return out;
}

// ---------------------------------------------------------------------
// RefFs oracle
// ---------------------------------------------------------------------

TEST(RefFs, TracksNamespaceAndContent)
{
    RefFs m;
    m.apply(op(Op::Kind::Mkdir, "/d"));
    m.apply(op(Op::Kind::Create, "/d/a"));
    m.apply(op(Op::Kind::Write, "/d/a", {}, 0, 100, 7));
    m.apply(op(Op::Kind::Link, "/d/a", "/hard"));
    m.apply(op(Op::Kind::Create, "/b"));
    m.apply(op(Op::Kind::Write, "/b", {}, 50, 10, 8)); // hole at 0..49

    const Tree t = m.tree();
    ASSERT_TRUE(t.count("/d/a"));
    ASSERT_TRUE(t.count("/hard"));
    EXPECT_EQ(*t.at("/d/a").bytes, *t.at("/hard").bytes);
    EXPECT_EQ(t.at("/d/a").bytes->size(), 100u);
    EXPECT_EQ(t.at("/b").bytes->size(), 60u);
    EXPECT_EQ(t.at("/b").bytes->at(0), 0u); // hole reads as zero
    EXPECT_EQ(t.at("/").entries,
              (std::set<std::string>{"b", "d", "hard"}));

    // Snapshots are copy-on-write: later mutations don't bleed back.
    m.apply(op(Op::Kind::Write, "/d/a", {}, 0, 100, 9));
    EXPECT_EQ(t.at("/d/a").bytes->size(), 100u);
    EXPECT_NE(*m.tree().at("/d/a").bytes, *t.at("/d/a").bytes);

    // Unlink keeps the other hard link alive.
    m.apply(op(Op::Kind::Unlink, "/d/a"));
    EXPECT_FALSE(m.exists("/d/a"));
    EXPECT_TRUE(m.exists("/hard"));
    EXPECT_EQ(m.fileSize("/hard"), 100u);
}

TEST(RefFs, RenameOverExistingReplacesTarget)
{
    RefFs m;
    m.apply(op(Op::Kind::Create, "/a"));
    m.apply(op(Op::Kind::Write, "/a", {}, 0, 10, 1));
    m.apply(op(Op::Kind::Create, "/b"));
    m.apply(op(Op::Kind::Write, "/b", {}, 0, 20, 2));
    m.apply(op(Op::Kind::Rename, "/a", "/b"));

    EXPECT_FALSE(m.exists("/a"));
    EXPECT_EQ(m.fileSize("/b"), 10u);
    EXPECT_EQ(*m.tree().at("/b").bytes, patternBytes(10, 1));
}

TEST(RefFs, ValidityMirrorsLfsErrors)
{
    RefFs m;
    m.apply(op(Op::Kind::Mkdir, "/d"));
    m.apply(op(Op::Kind::Mkdir, "/d/sub"));
    m.apply(op(Op::Kind::Create, "/f"));

    EXPECT_FALSE(m.valid(op(Op::Kind::Create, "/f")));    // exists
    EXPECT_FALSE(m.valid(op(Op::Kind::Create, "/no/x"))); // no parent
    EXPECT_FALSE(m.valid(op(Op::Kind::Rename, "/d", "/d/sub/in")));
    EXPECT_FALSE(m.valid(op(Op::Kind::Rename, "/f", "/d"))); // file->dir
    EXPECT_FALSE(m.valid(op(Op::Kind::Rmdir, "/d")));     // not empty
    EXPECT_FALSE(m.valid(op(Op::Kind::Rmdir, "/")));
    EXPECT_FALSE(m.valid(op(Op::Kind::Unlink, "/d")));    // directory
    EXPECT_FALSE(m.valid(op(Op::Kind::Link, "/d", "/x"))); // dir link
    EXPECT_TRUE(m.valid(op(Op::Kind::Rename, "/d/sub", "/d2")));
    EXPECT_TRUE(m.valid(op(Op::Kind::Rename, "/f", "/f"))); // no-op
}

TEST(RefFs, SnapshotTableMirrorsLfsLimits)
{
    RefFs m;
    EXPECT_FALSE(m.valid(op(Op::Kind::SnapDelete, "s0"))); // absent
    EXPECT_FALSE(m.valid(op(Op::Kind::SnapCreate, "")));   // bad name
    m.apply(op(Op::Kind::SnapCreate, "s0"));
    EXPECT_FALSE(m.valid(op(Op::Kind::SnapCreate, "s0"))); // duplicate
    EXPECT_TRUE(m.valid(op(Op::Kind::SnapDelete, "s0")));
    for (unsigned i = 1; i < 8; ++i)
        m.apply(op(Op::Kind::SnapCreate, "s" + std::to_string(i)));
    EXPECT_FALSE(m.valid(op(Op::Kind::SnapCreate, "s8"))); // full
    m.apply(op(Op::Kind::SnapDelete, "s3"));
    EXPECT_TRUE(m.valid(op(Op::Kind::SnapCreate, "s8")));
    EXPECT_EQ(m.snapshots().size(), 7u);
}

TEST(PatternBytes, DeterministicWithPrefixProperty)
{
    const auto full = patternBytes(1000, 42);
    const auto half = patternBytes(500, 42);
    EXPECT_EQ(full, patternBytes(1000, 42));
    EXPECT_TRUE(std::equal(half.begin(), half.end(), full.begin()));
    EXPECT_NE(full, patternBytes(1000, 43));
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

TEST(WorkloadGen, BitReproducibleFromSeed)
{
    const auto a = generateWorkload(5);
    const auto b = generateWorkload(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].str(), b[i].str()) << "op " << i;
    EXPECT_NE(generateWorkload(6)[0].str() +
                  generateWorkload(6).back().str(),
              a[0].str() + a.back().str());
}

TEST(WorkloadGen, EmitsOnlyValidOps)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RefFs m;
        for (const Op &o : generateWorkload(seed)) {
            ASSERT_TRUE(m.valid(o)) << "seed " << seed << ": "
                                    << o.str();
            m.apply(o);
        }
    }
}

TEST(WorkloadGen, EmitsSnapshotOpsWithUniqueNames)
{
    unsigned creates = 0, deletes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::set<std::string> seen;
        for (const Op &o : generateWorkload(seed)) {
            if (o.kind == Op::Kind::SnapCreate) {
                ++creates;
                EXPECT_TRUE(seen.insert(o.path).second)
                    << "seed " << seed << " reused name " << o.path;
            } else if (o.kind == Op::Kind::SnapDelete) {
                ++deletes;
            }
        }
    }
    EXPECT_GT(creates, 0u);
    EXPECT_GT(deletes, 0u);
}

// ---------------------------------------------------------------------
// Oracle-differential equivalence (no crash)
// ---------------------------------------------------------------------

TEST(Differential, LiveTreeMatchesOracleAfterEveryWorkload)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const CheckConfig cfg;
        fs::MemBlockDevice dev(cfg.blockSize, cfg.numBlocks);
        lfs::Lfs::Params p;
        p.blockSize = cfg.blockSize;
        p.segBlocks = cfg.segBlocks;
        p.maxInodes = cfg.maxInodes;
        lfs::Lfs::format(dev, p);
        lfs::Lfs fs(dev);
        fs.setAutoClean(true);

        RefFs model;
        for (const Op &o : generateWorkload(seed)) {
            applyToLfs(fs, o);
            model.apply(o);
        }
        EXPECT_EQ(lfsTree(fs), model.tree()) << "seed " << seed;
        EXPECT_TRUE(fs.fsck().ok) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Crash-point enumeration
// ---------------------------------------------------------------------

/** Full enumeration for one workload seed must find no violations. */
class CrashSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CrashSweep, FullEnumerationFindsNoViolations)
{
    const auto ops = generateWorkload(
        static_cast<std::uint64_t>(GetParam()));
    const Capture cap = CrashExplorer::capture(ops, CheckConfig{});

    const ExploreReport rep = CrashExplorer::explore(cap);
    // Every write boundary gets a Cut and a Torn trial, plus the
    // empty prefix.
    EXPECT_EQ(rep.trials, 2 * cap.log.numBlocks() + 1);
    EXPECT_TRUE(rep.failures.empty());
    for (const Failure &f : rep.failures) {
        ADD_FAILURE() << f.spec.str() << ": "
                      << (f.diffs.empty() ? "" : f.diffs.front());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweep, ::testing::Range(1, 9));

TEST(CrashSweep, SnapshotTableSurvivesOrIsCleanlyAbsent)
{
    // Crash points across snapshot-table updates: each snap op syncs
    // and checkpoints internally, so cuts and torn writes land
    // before, inside, and after every table rewrite.  A snapshot must
    // either survive whole or be cleanly absent — never a torn table.
    const std::vector<Op> ops = {
        op(Op::Kind::Create, "/a"),
        op(Op::Kind::Write, "/a", {}, 0, 3000, 1),
        op(Op::Kind::SnapCreate, "base"),
        op(Op::Kind::Write, "/a", {}, 0, 3000, 2),
        op(Op::Kind::Create, "/b"),
        op(Op::Kind::Write, "/b", {}, 0, 12 * 1024, 3),
        op(Op::Kind::SnapCreate, "delta"),
        op(Op::Kind::Unlink, "/a"),
        op(Op::Kind::SnapDelete, "base"),
        op(Op::Kind::Write, "/b", {}, 0, 2000, 4),
        op(Op::Kind::Checkpoint),
    };
    const Capture cap = CrashExplorer::capture(ops, CheckConfig{});
    const ExploreReport rep = CrashExplorer::explore(cap);
    EXPECT_EQ(rep.trials, 2 * cap.log.numBlocks() + 1);
    EXPECT_TRUE(rep.failures.empty());
    for (const Failure &f : rep.failures) {
        ADD_FAILURE() << f.spec.str() << ": "
                      << (f.diffs.empty() ? "" : f.diffs.front());
    }
}

TEST(ExtendedSweep, RunsWhenRequestedViaEnv)
{
    const char *env = std::getenv("RAID2_CHECK_SEEDS");
    if (!env || !*env)
        GTEST_SKIP() << "set RAID2_CHECK_SEEDS=N to run";
    const unsigned extra =
        static_cast<unsigned>(std::strtoul(env, nullptr, 0));
    for (std::uint64_t seed = 101; seed < 101 + extra; ++seed) {
        const auto ops = generateWorkload(seed);
        const Capture cap = CrashExplorer::capture(ops, CheckConfig{});
        const ExploreReport rep = CrashExplorer::explore(cap);
        EXPECT_TRUE(rep.failures.empty()) << "seed " << seed;
        for (const Failure &f : rep.failures) {
            ADD_FAILURE() << "seed " << seed << " " << f.spec.str()
                          << ": "
                          << (f.diffs.empty() ? "" : f.diffs.front());
        }
    }
}

// ---------------------------------------------------------------------
// Illegal-device self-tests: the oracle must flag real violations
// ---------------------------------------------------------------------

TEST(OracleSelfTest, FlagsDroppedAcknowledgedSummaryWrite)
{
    GenConfig gcfg;
    gcfg.numOps = 40;
    const auto ops = generateWorkload(7, gcfg);
    const Capture cap = CrashExplorer::capture(ops, CheckConfig{});

    const auto f = CrashExplorer::findAckedDrop(cap);
    ASSERT_TRUE(f.has_value())
        << "acked-write drops went unnoticed by the oracle";
    EXPECT_EQ(f->spec.mode, TrialSpec::Mode::Dropped);
}

// Mutation self-test for the whole-server checker: replay captured
// server histories on a deliberately illegal device (findAckedDrop
// drops acknowledged writes) and require the oracle to flag a
// violation within a handful of seeds.
// If this goes green-to-red-free, the server checker has lost its
// teeth.
TEST(OracleSelfTest, ServerCheckerFlagsDroppedAckedWrites)
{
    ServerGenConfig gcfg;
    gcfg.withFaults = false; // the oracle alone must catch it
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 4 && !caught; ++seed) {
        const auto f = CrashExplorer::findAckedDrop(
            ServerExplorer::capture(generateServerHistory(seed, gcfg)));
        caught = f.has_value();
        if (caught) {
            EXPECT_EQ(f->spec.mode, TrialSpec::Mode::Dropped);
        }
    }
    EXPECT_TRUE(caught)
        << "server-level acked-write drops went unnoticed within 4 "
           "seeds";
}

TEST(OracleSelfTest, FlagsCorruptedCheckpointedBlocks)
{
    // Everything durable via an explicit checkpoint; then flip bits in
    // each landed write in turn.  At least some of those blocks carry
    // live state, and corrupting them must produce a verdict.
    const std::vector<Op> ops = {
        op(Op::Kind::Create, "/f0"),
        op(Op::Kind::Write, "/f0", {}, 0, 4096, 11),
        op(Op::Kind::Checkpoint),
    };
    const Capture cap = CrashExplorer::capture(ops, CheckConfig{});
    const std::size_t n = cap.log.numBlocks();
    ASSERT_GT(n, 0u);

    std::size_t flagged = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TrialSpec spec;
        spec.mode = TrialSpec::Mode::Corrupt;
        spec.cut = n;
        spec.target = i;
        if (!CrashExplorer::runTrial(cap, spec).ok)
            ++flagged;
    }
    EXPECT_GT(flagged, 0u)
        << "no corrupted block changed the recovered state";
}

// ---------------------------------------------------------------------
// Shrinker + artifact round trip
// ---------------------------------------------------------------------

TEST(Shrinker, SanitizeCascadesDrops)
{
    const std::vector<Op> ops = {
        op(Op::Kind::Create, "/a"),
        op(Op::Kind::Rename, "/a", "/b"),
        op(Op::Kind::Write, "/b", {}, 0, 10, 1),
    };
    // Removing the create invalidates the rename, which invalidates
    // the write.
    const auto rest = Shrinker::sanitize({ops[1], ops[2]});
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(Shrinker::sanitize(ops).size(), 3u);
}

TEST(Shrinker, MinimizesInjectedViolationAndArtifactRoundTrips)
{
    GenConfig gcfg;
    gcfg.numOps = 40;
    const auto ops = generateWorkload(7, gcfg);
    const CheckConfig cfg;

    auto pred = [&](const Program &cand) {
        return CrashExplorer::findAckedDrop(capture(cand, cfg));
    };
    ASSERT_TRUE(pred(ops).has_value());

    const Shrinker::Result res = Shrinker::shrink(ops, pred);
    EXPECT_LT(std::get<std::vector<Op>>(res.program).size(), ops.size());
    EXPECT_FALSE(res.witness.diffs.empty());

    // Serialize, parse, serialize again: byte-identical.
    const Artifact art{cfg, res.program, res.witness.spec,
                       res.witness.diffs};
    const std::string text = art.serialize();
    const Artifact back = Artifact::parse(text);
    EXPECT_EQ(back.serialize(), text);

    // The same shrink as `check_replay --demo`: the artifact file that command
    // writes has this XXH64 (lfs::blockChecksum).
    EXPECT_EQ(lfs::blockChecksum({reinterpret_cast<const std::uint8_t *>(
                                      text.data()),
                                  text.size()}),
              0xec1581a434cea55aull);

    // Replaying the parsed artifact reproduces the exact verdict.
    const TrialResult r = CrashExplorer::runTrial(
        capture(back.program, back.cfg), back.trial);
    EXPECT_EQ(r.diffs, back.diffs);
}

TEST(Artifact, RejectsMalformedInput)
{
    EXPECT_THROW(Artifact::parse("nonsense"), std::runtime_error);
    EXPECT_THROW(Artifact::parse("raid2-check v1\nconfig oops\n"),
                 std::runtime_error);
    Artifact art;
    art.program = std::vector<Op>{op(Op::Kind::Sync)};
    const std::string text = art.serialize();
    EXPECT_THROW(
        Artifact::parse(text.substr(0, text.size() - 5)),
        std::runtime_error); // truncated before "end"
}

} // namespace
