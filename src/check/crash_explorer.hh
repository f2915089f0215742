/**
 * @file
 * Crash-point enumeration and oracle verdicts.
 *
 * The explorer runs a workload once against a real lfs::Lfs on a
 * RAM-backed device, capturing every block write (with the index of
 * the op that issued it) and every flush barrier, plus a RefFs oracle
 * snapshot after each op.  It then enumerates crash points: for every
 * barrier window it cuts the write log after each write, and injects
 * torn and dropped writes via fs::FaultDevice.  Each trial rebuilds
 * the media image a crash would leave behind, remounts (running LFS
 * roll-forward recovery), runs the structured fsck, and compares the
 * recovered tree against the oracle's set of legal durable states:
 * everything acknowledged-and-synced must persist byte-for-byte; an
 * unsynced op may surface at any op-boundary version inside the window
 * (independently per path).
 *
 * Device model: the log device writes in order (the FaultDevice
 * power-loss model), so the legal crash states are exactly the write
 * prefixes, with the final in-flight write either absent (Cut) or
 * landing torn (Torn).  Dropping an *earlier* write while later ones
 * land (Dropped) or silently flipping bits (Corrupt) is a device
 * violating its contract — the checker uses those modes as
 * self-tests proving the oracle detects real durability violations
 * (see CrashExplorer::findAckedDrop and tools/check_replay --demo).
 *
 * Trials are pure functions of (ops, config, spec), which is what
 * makes shrunk artifacts replayable byte-for-byte by check_replay.
 */

#ifndef RAID2_CHECK_CRASH_EXPLORER_HH
#define RAID2_CHECK_CRASH_EXPLORER_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/ref_fs.hh"
#include "fs/write_log.hh"

namespace raid2::check {

/** File-system geometry for a checker run (small and fast). */
struct CheckConfig
{
    std::uint32_t blockSize = 1024;
    std::uint64_t numBlocks = 4096; // 4 MB device
    std::uint32_t segBlocks = 16;   // 16 KB segments
    std::uint32_t maxInodes = 256;
    bool autoClean = true;
};

/** One crash trial: how to rebuild the post-crash media image. */
struct TrialSpec
{
    enum class Mode {
        Cut,     // writes [0, cut) land, nothing else
        Torn,    // writes [0, cut); the last one (target) lands torn
        Dropped, // writes [0, cut) except target — an acknowledged
                 // write lost out of order (illegal device behavior,
                 // used to self-test the oracle)
        Corrupt, // writes [0, cut); target lands bit-flipped (illegal
                 // device behavior — used to self-test the oracle)
    };

    Mode mode = Mode::Cut;
    std::size_t cut = 0;
    std::size_t target = 0;
    std::uint8_t xorMask = 0xff; // Corrupt only
    /** Anchor the durability lower bound at this recorded barrier
     *  index instead of deriving it from cut/target.  Used to assert
     *  that an *acknowledged* barrier survives a later illegal drop
     *  (-1 = derive). */
    int forceBarrier = -1;

    /** Stable lower-case token for @p m (also the artifact's tag). */
    static const char *modeName(Mode m);

    std::string str() const;
};

/** Recorded run: everything a trial needs, replayable from (ops,cfg). */
struct Capture
{
    CheckConfig cfg;
    std::vector<Op> ops;
    std::vector<std::uint8_t> base; // image after format + first mount
    fs::WriteLog log;               // tagged writes + barriers
    std::vector<Tree> versions;     // versions[j] = tree after j ops
};

/** Verdict of one trial. */
struct TrialResult
{
    bool ok = true;
    std::vector<std::string> diffs; // deterministic, one line each
};

/** A failing trial with its verdict. */
struct Failure
{
    TrialSpec spec;
    std::vector<std::string> diffs;
};

struct ExploreOptions
{
    bool stopAtFirst = false;
};

struct ExploreReport
{
    std::size_t trials = 0;
    std::vector<Failure> failures;
};

class CrashExplorer
{
  public:
    /** Run @p ops live, recording the write log and oracle
     *  snapshots.  Deterministic: equal inputs give equal captures. */
    static Capture capture(const std::vector<Op> &ops,
                           const CheckConfig &cfg);

    /** Rebuild the media image @p spec describes, remount, fsck, and
     *  compare against the legal-state set. */
    static TrialResult runTrial(const Capture &cap,
                                const TrialSpec &spec);

    /** Full crash-point enumeration over every barrier window: the
     *  legal crash states, Cut and Torn at every write. */
    static ExploreReport explore(const Capture &cap,
                                 const ExploreOptions &opt = {});

    /**
     * The oracle self-test: for each recorded barrier, newest first,
     * drop the last acknowledged segment-summary write before it and
     * cut there.  Dropping it severs the roll-forward chain, an
     * illegal device behavior the oracle must flag.
     * @return the first flagged trial, or nullopt if no drop was.
     */
    static std::optional<Failure> findAckedDrop(const Capture &cap);

    /** Legal oracle version range [lo, hi] for @p spec. */
    static std::pair<std::size_t, std::size_t>
    versionRange(const Capture &cap, const TrialSpec &spec);
};

} // namespace raid2::check

#endif // RAID2_CHECK_CRASH_EXPLORER_HH
