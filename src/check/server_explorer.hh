/**
 * @file
 * Whole-server crash-consistency checking.
 *
 * ServerExplorer lifts the src/check/ machinery from lfs::Lfs in
 * isolation to a full server::Raid2Server: seeded concurrent client
 * sessions drive positional reads/writes, seeks, closes and snapshot
 * ops through the RequestScheduler (with deliberately tiny admission
 * caps so Status::Busy / Status::Throttled retries happen on every
 * run), while fault::FaultPlan events — disk deaths, latent sectors,
 * stalls, link drops — fire mid-history in the timed plane.  The
 * functional LFS mutations the server applies are observed in apply
 * order (Raid2Server::setFsOpObserver), every device write is captured
 * in a fs::WriteLog attached to the server's hook device, and an
 * oracle tree is maintained alongside; the result is a standard
 * check::Capture, so CrashExplorer enumerates crash points and renders
 * verdicts with the exact same trial machinery the single-node checker
 * uses.
 *
 * Durability model (the oracle rule, restated at the server level):
 * an operation whose completion a client observed on the *standard*
 * path persisted — standard-mode writes sync before replying, so their
 * completion is barrier-anchored; a fast-path write is write-behind
 * (completion means "buffered", per §3.4) and becomes durable at the
 * next server sync.  A crashed server may roll an un-synced op back or
 * surface it whole, never a blend: recovery must land every file at
 * some op boundary inside the crash window (per-op atomicity), and
 * anything behind the last surviving barrier must persist exactly
 * (prefix consistency).  That is a restricted linearizability
 * condition over the observed-completion order, and it is precisely
 * what CrashExplorer::versionRange + the tree comparison check.
 *
 * The two checkers share one front end.  A Program is either kind of
 * run, a bare-Lfs op list or a server history; capture() and explore()
 * hand it to its own capture runner, and everything after capture —
 * the crash-point trials, CrashExplorer::findAckedDrop, the Shrinker,
 * the Artifact and tools/check_replay — is the same code for both.
 */

#ifndef RAID2_CHECK_SERVER_EXPLORER_HH
#define RAID2_CHECK_SERVER_EXPLORER_HH

#include <cstdint>
#include <variant>
#include <vector>

#include "check/crash_explorer.hh"
#include "check/server_history.hh"

namespace raid2::sim {
class StatsRegistry;
}

namespace raid2::check {

/** Shape knobs for generateServerHistory() (the op mix is fixed). */
struct ServerGenConfig
{
    unsigned numOps = 48;
    unsigned clients = 3;
    /** Emit a scripted fault schedule alongside the ops. */
    bool withFaults = true;
};

/** Generate a valid concurrent history, bit-reproducible from seed. */
ServerHistory generateServerHistory(std::uint64_t seed,
                                    const ServerGenConfig &cfg = {});

/** Process-wide coverage counters (see registerStats). */
struct ServerCheckStats
{
    std::uint64_t histories = 0;    // capture() runs
    std::uint64_t crashPoints = 0;  // trials enumerated
    std::uint64_t faultFirings = 0; // injected fault events
    std::uint64_t opsVerified = 0;  // client completions with Ok
    std::uint64_t busyRetries = 0;
    std::uint64_t throttledRetries = 0;
    /** Executed session ops by SessionOp::Kind (the op mix). */
    std::uint64_t opMix[9] = {};
};

class ServerExplorer
{
  public:
    /** Canonical form of a history: exactly the ops capture() will
     *  execute (handle-less ops dropped, duplicate or over-budget
     *  snapshot ops dropped, out-of-range clients dropped).  capture()
     *  sanitizes internally; sanitize(sanitize(h)) == sanitize(h). */
    static ServerHistory sanitize(const ServerHistory &hist);

    /** Run @p hist live against a full Raid2Server — scheduler, fault
     *  controller, snapshot manager — recording the write log, apply-
     *  order op list, and oracle trees.  @p cfg is mirrored into the
     *  server's fsParams (alignSegmentsTo is pinned to blockSize so
     *  the tiny test geometry survives the server's stripe-width
     *  default).  Deterministic: equal (history, cfg) give equal
     *  captures. */
    static Capture capture(const ServerHistory &hist,
                           const CheckConfig &cfg = {});

    /** @{ Coverage counters, accumulated process-wide across runs
     *  ("check.server.*" once registered). */
    static const ServerCheckStats &stats();
    static void resetStats();
    static void registerStats(sim::StatsRegistry &reg);
    /** @} */
};

/** What a crash checker runs: a bare-Lfs op list (CrashExplorer,
 *  artifact format v1) or a concurrent server history
 *  (ServerExplorer, v2). */
using Program = std::variant<std::vector<Op>, ServerHistory>;

/** Run @p prog live under its own kind's capture runner. */
Capture capture(const Program &prog, const CheckConfig &cfg = {});

/** CrashExplorer::explore over every crash point of @p cap, a capture
 *  of @p prog; a server history's trials count as
 *  check.server.crash_points. */
ExploreReport explore(const Program &prog, const Capture &cap,
                      const ExploreOptions &opt = {});

/** capture() + the explore() above. */
ExploreReport explore(const Program &prog, const CheckConfig &cfg = {},
                      const ExploreOptions &opt = {});

} // namespace raid2::check

#endif // RAID2_CHECK_SERVER_EXPLORER_HH
