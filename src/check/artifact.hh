/**
 * @file
 * Replayable text artifact for a failing checker trial.
 *
 * Everything a trial needs is (config, program, spec): trials are pure
 * functions of those, so an artifact replays byte-for-byte on any
 * build of the same source.  The expected diffs are stored too, which
 * lets tools/check_replay verify an exact reproduction rather than
 * just "still fails".  The format is a line-oriented text file:
 *
 *     raid2-check v1
 *     config <blockSize> <numBlocks> <segBlocks> <maxInodes> <autoClean>
 *     ops <N>
 *     <one Op::str() line per op>
 *     trial <mode> <cut> <target> <xorMask> <forceBarrier>
 *     diffs <M>
 *     <one diff line per entry>
 *     end
 *
 * Version 2 carries a whole-server counterexample instead of a bare
 * op list: the concurrent multi-session history plus its fault
 * schedule (ServerExplorer replays are pure functions of those plus
 * the config), with the same trial/diffs tail:
 *
 *     raid2-check v2
 *     config <blockSize> <numBlocks> <segBlocks> <maxInodes> <autoClean>
 *     clients <C>
 *     history <N>
 *     <one SessionOp::str() line per op>
 *     faults <K>
 *     <at> <kind> <target> <offset> <bytes> <duration>   (one per event)
 *     trial <mode> <cut> <target> <xorMask> <forceBarrier>
 *     diffs <M>
 *     <one diff line per entry>
 *     end
 *
 * One Artifact type holds either: the program's kind picks the header
 * it writes, and the header line picks the kind parse() reads.
 */

#ifndef RAID2_CHECK_ARTIFACT_HH
#define RAID2_CHECK_ARTIFACT_HH

#include <string>
#include <vector>

#include "check/server_explorer.hh"

namespace raid2::check {

/** A self-contained failing trial. */
struct Artifact
{
    CheckConfig cfg;
    Program program; // an op list (v1) or a server history (v2)
    TrialSpec trial;
    std::vector<std::string> diffs; // expected verdict

    std::string serialize() const;

    /** Parse @p text of either version; throws std::runtime_error on
     *  malformed input. */
    static Artifact parse(const std::string &text);
};

} // namespace raid2::check

#endif // RAID2_CHECK_ARTIFACT_HH
