/**
 * @file
 * Concurrent multi-client histories for the server-level checker.
 *
 * A ServerHistory is the program the ServerExplorer runs against a
 * full server::Raid2Server: an interleaved list of per-session client
 * operations (positional reads/writes, seeks, closes, open/create)
 * plus an admin session (client 0) issuing server-wide syncs and
 * snapshot lifecycle ops, and a fault::FaultPlan whose events fire
 * mid-history.  Histories are plain data — generated from a seed,
 * shrunk by the Shrinker, and serialized into "raid2-check v2"
 * artifacts — so this header stays free of server dependencies.
 */

#ifndef RAID2_CHECK_SERVER_HISTORY_HH
#define RAID2_CHECK_SERVER_HISTORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"

namespace raid2::check {

/** One client-visible operation in a concurrent server history. */
struct SessionOp
{
    enum class Kind {
        Open,       // open-or-create path on this client's handle
        PWrite,     // positional write [off, off+len)
        BurstWrite, // two concurrent positional writes: [off, off+len)
                    // and [off+len, off+2len) — provokes per-session
                    // Status::Throttled under a tight backlog cap
        PRead,      // positional read [off, off+len)
        Seek,       // set the handle position to off
        Close,      // close this client's handle
        Sync,       // admin (client 0): server-wide fsSync
        SnapCreate, // admin: take snapshot named path
        SnapDelete, // admin: delete snapshot named path
    };

    Kind kind = Kind::Sync;
    /** Session index: 0 = admin, 1..clients = RaidFileClient fleets. */
    unsigned client = 0;
    std::string path;      // Open / SnapCreate / SnapDelete
    std::uint64_t off = 0; // PWrite / BurstWrite / PRead / Seek
    std::uint64_t len = 0; // PWrite / BurstWrite / PRead

    /** One-line rendering, parseable by Artifact. */
    std::string str() const;
};

/** Stable lower-case token for @p k (also the artifact line tag). */
const char *sessionOpKindName(SessionOp::Kind k);

/** A seeded concurrent history plus its fault schedule. */
struct ServerHistory
{
    unsigned clients = 3;
    std::vector<SessionOp> ops;
    fault::FaultPlan faults;
};

} // namespace raid2::check

#endif // RAID2_CHECK_SERVER_HISTORY_HH
