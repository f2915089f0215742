/**
 * @file
 * Greedy program minimization for failing checker trials.
 *
 * Given a program (either kind: a bare-Lfs op list or a server
 * history) and a predicate that re-runs the checker and reports
 * whether a failure (any failure) still reproduces, the shrinker
 * removes chunks of ops (ddmin-style, halving chunk sizes down to
 * single ops) and then halves write lengths, keeping every change that
 * preserves the failure.  Removing ops can invalidate later ones
 * (unlink of a never-created file, a write after its handle's open
 * went); candidates pass through their kind's sanitizer (sanitize()
 * below, or ServerExplorer::sanitize, which keeps a history's clients
 * and fault schedule), which cascade-drops the invalid ops, so the
 * predicate only ever sees valid programs.  The shrunk program plus
 * the surviving trial forms the replayable artifact.
 */

#ifndef RAID2_CHECK_SHRINKER_HH
#define RAID2_CHECK_SHRINKER_HH

#include <functional>
#include <optional>
#include <vector>

#include "check/server_explorer.hh"

namespace raid2::check {

class Shrinker
{
  public:
    /** Re-run the checker over a candidate program; return the
     *  failure it still provokes, or nullopt if it passes. */
    using Predicate =
        std::function<std::optional<Failure>(const Program &)>;

    struct Result
    {
        Program program; // minimized, of the seed's kind
        Failure witness; // the failure the final program provokes
        std::size_t attempts = 0; // predicate invocations
    };

    /** Drop every op a sequential RefFs replay rejects (cascading:
     *  a drop can invalidate later ops, which are dropped too). */
    static std::vector<Op> sanitize(const std::vector<Op> &ops);

    /** Minimize @p prog, preserving failure per @p pred.  @p prog
     *  must already fail once sanitized (the predicate is consulted
     *  first; panics otherwise). */
    static Result shrink(const Program &prog, const Predicate &pred);
};

} // namespace raid2::check

#endif // RAID2_CHECK_SHRINKER_HH
