/**
 * @file
 * Whole-server consistency checker tests (ctest label `servercheck`):
 * history generator determinism, sanitize canonicalization, capture
 * determinism, the 8-seed full crash-point enumeration of concurrent
 * fault-injected histories, retry/fault coverage assertions, the
 * "raid2-check v2" artifact round trip with byte-for-byte replay, the
 * shrinker on a history, and the check.server.* counter registration.
 *
 * Set RAID2_CHECK_SEEDS=N for the extended server sweep (N extra
 * seeds); unset it runs the standard 8-seed enumeration only.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifact.hh"
#include "check/server_explorer.hh"
#include "check/shrinker.hh"
#include "lfs/format.hh"
#include "sim/stats_registry.hh"

namespace {

using namespace raid2;
using namespace raid2::check;

SessionOp
sop(SessionOp::Kind kind, unsigned client, std::string path = {},
    std::uint64_t off = 0, std::uint64_t len = 0)
{
    SessionOp o;
    o.kind = kind;
    o.client = client;
    o.path = std::move(path);
    o.off = off;
    o.len = len;
    return o;
}

std::string
historyFingerprint(const ServerHistory &h)
{
    std::ostringstream out;
    out << h.clients << "\n";
    for (const SessionOp &op : h.ops)
        out << op.str() << "\n";
    for (const auto &e : h.faults.events)
        out << e.at << " " << fault::faultKindName(e.kind) << " "
            << e.target << "\n";
    return out.str();
}

/** Everything a trial depends on, rendered to a comparable string. */
std::string
captureFingerprint(const Capture &cap)
{
    std::ostringstream out;
    out << cap.ops.size() << " ops, " << cap.versions.size()
        << " versions\n";
    for (const Op &op : cap.ops)
        out << op.str() << "\n";
    for (const auto &b : cap.log.barriers())
        out << "barrier " << b.at << " " << b.tag << "\n";
    for (std::size_t i = 0; i < cap.log.numBlocks(); ++i) {
        const auto blk = cap.log.blockAt(i);
        unsigned sum = 0;
        for (const std::uint8_t v : blk.data)
            sum = sum * 131 + v;
        out << blk.bno << ":" << blk.tag << ":" << sum << "\n";
    }
    return out.str();
}

// ---------------------------------------------------------------------
// History generation and canonicalization
// ---------------------------------------------------------------------

TEST(ServerHistoryGen, BitReproducibleFromSeed)
{
    for (std::uint64_t seed : {1, 7, 42}) {
        const ServerHistory a = generateServerHistory(seed);
        const ServerHistory b = generateServerHistory(seed);
        EXPECT_EQ(historyFingerprint(a), historyFingerprint(b))
            << "seed " << seed;
    }
    EXPECT_NE(historyFingerprint(generateServerHistory(1)),
              historyFingerprint(generateServerHistory(2)));
}

TEST(ServerHistoryGen, EmitsCanonicalHistories)
{
    // The generator only emits ops sanitize() keeps: generated
    // histories are already in canonical form (and sanitize is
    // idempotent on them).
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const ServerHistory h = generateServerHistory(seed);
        const ServerHistory s = ServerExplorer::sanitize(h);
        EXPECT_EQ(historyFingerprint(h), historyFingerprint(s))
            << "seed " << seed;
    }
}

TEST(ServerSanitize, DropsInvalidOps)
{
    ServerHistory h;
    h.clients = 2;
    h.ops = {
        sop(SessionOp::Kind::PWrite, 1, {}, 0, 64),   // no handle yet
        sop(SessionOp::Kind::Open, 1, "/f0"),         // keep
        sop(SessionOp::Kind::Open, 9, "/f0"),         // client oor
        sop(SessionOp::Kind::Open, 2, "/d/f0"),       // nested path
        sop(SessionOp::Kind::PWrite, 1, {}, 0, 0),    // zero length
        sop(SessionOp::Kind::PWrite, 1, {}, 0, 64),   // keep
        sop(SessionOp::Kind::Close, 2),               // never opened
        sop(SessionOp::Kind::Sync, 1),                // not admin
        sop(SessionOp::Kind::Sync, 0),                // keep
        sop(SessionOp::Kind::SnapCreate, 0, "s0"),    // keep
        sop(SessionOp::Kind::SnapCreate, 0, "s0"),    // duplicate name
        sop(SessionOp::Kind::SnapDelete, 0, "nope"),  // not live
        sop(SessionOp::Kind::Close, 1),               // keep
        sop(SessionOp::Kind::PRead, 1, {}, 0, 64),    // closed handle
    };
    const ServerHistory s = ServerExplorer::sanitize(h);
    ASSERT_EQ(s.ops.size(), 5u);
    EXPECT_EQ(s.ops[0].kind, SessionOp::Kind::Open);
    EXPECT_EQ(s.ops[1].kind, SessionOp::Kind::PWrite);
    EXPECT_EQ(s.ops[2].kind, SessionOp::Kind::Sync);
    EXPECT_EQ(s.ops[3].kind, SessionOp::Kind::SnapCreate);
    EXPECT_EQ(s.ops[4].kind, SessionOp::Kind::Close);

    // Idempotent: sanitize of the canonical form is the identity.
    EXPECT_EQ(historyFingerprint(ServerExplorer::sanitize(s)),
              historyFingerprint(s));
}

// ---------------------------------------------------------------------
// Capture determinism
// ---------------------------------------------------------------------

TEST(ServerCapture, DeterministicForEqualHistories)
{
    const ServerHistory h = generateServerHistory(3);
    const Capture a = ServerExplorer::capture(h);
    const Capture b = ServerExplorer::capture(h);
    EXPECT_EQ(captureFingerprint(a), captureFingerprint(b));
    EXPECT_GT(a.ops.size(), 0u);
    EXPECT_GT(a.log.barriers().size(), 0u);
    EXPECT_EQ(a.versions.size(), a.ops.size() + 1);
}

// ---------------------------------------------------------------------
// The main event: full enumeration over concurrent faulted histories
// ---------------------------------------------------------------------

TEST(ServerSweep, EightSeedsEnumerateCleanWithFaults)
{
    ServerExplorer::resetStats();
    std::size_t trials = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const ServerHistory h = generateServerHistory(seed);
        EXPECT_FALSE(h.faults.events.empty()) << "seed " << seed;
        const ExploreReport rep = explore(h);
        trials += rep.trials;
        EXPECT_GT(rep.trials, 0u) << "seed " << seed;
        EXPECT_TRUE(rep.failures.empty()) << "seed " << seed;
        for (const Failure &f : rep.failures) {
            ADD_FAILURE() << "seed " << seed << " " << f.spec.str()
                          << ": "
                          << (f.diffs.empty() ? "" : f.diffs.front());
        }
    }

    // Coverage the sweep must have exercised: scheduler rejects on
    // both admission paths, injected faults, verified completions.
    const ServerCheckStats &st = ServerExplorer::stats();
    EXPECT_EQ(st.histories, 8u);
    EXPECT_EQ(st.crashPoints, trials);
    EXPECT_GT(st.busyRetries, 0u);
    EXPECT_GT(st.throttledRetries, 0u);
    EXPECT_GT(st.faultFirings, 0u);
    EXPECT_GT(st.opsVerified, 0u);
    EXPECT_GT(st.opMix[static_cast<int>(SessionOp::Kind::PWrite)], 0u);
    EXPECT_GT(st.opMix[static_cast<int>(SessionOp::Kind::PRead)], 0u);
    EXPECT_GT(st.opMix[static_cast<int>(SessionOp::Kind::Sync)], 0u);
}

TEST(ServerSweep, ExtendedRunsWhenRequestedViaEnv)
{
    const char *env = std::getenv("RAID2_CHECK_SEEDS");
    if (!env || !*env)
        GTEST_SKIP() << "set RAID2_CHECK_SEEDS=N to run";
    const unsigned extra =
        static_cast<unsigned>(std::strtoul(env, nullptr, 0));
    for (std::uint64_t seed = 201; seed < 201 + extra; ++seed) {
        const ExploreReport rep = explore(generateServerHistory(seed));
        EXPECT_TRUE(rep.failures.empty()) << "seed " << seed;
        for (const Failure &f : rep.failures) {
            ADD_FAILURE() << "seed " << seed << " " << f.spec.str()
                          << ": "
                          << (f.diffs.empty() ? "" : f.diffs.front());
        }
    }
}

// ---------------------------------------------------------------------
// Shrinker + artifact v2 round trip
// ---------------------------------------------------------------------

TEST(ServerShrinker, MinimizesInjectedViolationAndArtifactReplays)
{
    // Faults off: the injected acked-drop must be flagged by the
    // durability oracle alone.
    ServerGenConfig gcfg;
    gcfg.withFaults = false;
    const ServerHistory hist = generateServerHistory(7, gcfg);
    const CheckConfig cfg;

    auto pred = [&](const Program &cand) {
        return CrashExplorer::findAckedDrop(capture(cand, cfg));
    };
    ASSERT_TRUE(pred(hist).has_value())
        << "injected acked-drop not flagged at server level";

    const Shrinker::Result res = Shrinker::shrink(hist, pred);
    EXPECT_LT(std::get<ServerHistory>(res.program).ops.size(),
              hist.ops.size());
    EXPECT_GT(res.attempts, 0u);

    // Serialize -> parse -> serialize is the identity.
    const Artifact art{cfg, res.program, res.witness.spec,
                       res.witness.diffs};
    const std::string text = art.serialize();
    const Artifact back = Artifact::parse(text);
    EXPECT_TRUE(std::holds_alternative<ServerHistory>(back.program));
    EXPECT_EQ(back.serialize(), text);

    // The same shrink as `check_replay --server --demo`: the artifact
    // file that command writes has this XXH64 (lfs::blockChecksum).
    EXPECT_EQ(lfs::blockChecksum({reinterpret_cast<const std::uint8_t *>(
                                      text.data()),
                                  text.size()}),
              0x9c486c877b695e81ull);

    // And the parsed artifact replays byte-for-byte.
    const TrialResult r = CrashExplorer::runTrial(
        capture(back.program, back.cfg), back.trial);
    EXPECT_EQ(r.diffs, art.diffs);
}

TEST(HistoryArtifact, HeaderPicksTheProgramKind)
{
    // The header line picks the program kind: a v1 artifact parses
    // back to an op list, a v2 one to a server history.
    Artifact v1;
    v1.trial.mode = TrialSpec::Mode::Cut;
    const std::string text = v1.serialize();
    EXPECT_EQ(text.rfind("raid2-check v1\n", 0), 0u);
    const Artifact back = Artifact::parse(text);
    EXPECT_TRUE(std::holds_alternative<std::vector<Op>>(back.program));
    EXPECT_EQ(back.serialize(), text);

    Artifact v2 = v1;
    v2.program = ServerHistory{};
    const std::string text2 = v2.serialize();
    EXPECT_EQ(text2.rfind("raid2-check v2\n", 0), 0u);
    EXPECT_TRUE(std::holds_alternative<ServerHistory>(
        Artifact::parse(text2).program));

    // A v1 body under a v2 header is malformed.
    EXPECT_THROW(Artifact::parse("raid2-check v2" +
                                 text.substr(text.find('\n'))),
                 std::runtime_error);
}

TEST(HistoryArtifact, RejectsMalformedInput)
{
    EXPECT_THROW(Artifact::parse(""), std::runtime_error);
    EXPECT_THROW(Artifact::parse("raid2-check v2\n"),
                 std::runtime_error);
    EXPECT_THROW(Artifact::parse("raid2-check v2\n"
                                 "config 1024 4096 16 256 1\n"
                                 "clients 2\n"
                                 "history 1\n"
                                 "warble 1 /f0\n"),
                 std::runtime_error);
    EXPECT_THROW(Artifact::parse("raid2-check v2\n"
                                 "config 1024 4096 16 256 1\n"
                                 "clients 2\n"
                                 "history 0\n"
                                 "faults 1\n"
                                 "5 not_a_fault 0 0 0 0\n"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Counter registration
// ---------------------------------------------------------------------

TEST(ServerCheckStats, RegistersUnderCheckServerPrefix)
{
    sim::StatsRegistry reg;
    ServerExplorer::registerStats(reg);
    for (const char *name :
         {"check.server.histories", "check.server.crash_points",
          "check.server.fault_firings", "check.server.ops_verified",
          "check.server.busy_retries", "check.server.throttled_retries",
          "check.server.op_mix.pwrite", "check.server.op_mix.pread",
          "check.server.op_mix.burst_write",
          "check.server.op_mix.snap_create"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }

    ServerExplorer::resetStats();
    ServerExplorer::capture(generateServerHistory(1));
    EXPECT_EQ(ServerExplorer::stats().histories, 1u);

    std::ostringstream out;
    reg.dump(out);
    EXPECT_NE(out.str().find("check.server.histories = 1"),
              std::string::npos)
        << out.str();
}

} // namespace
