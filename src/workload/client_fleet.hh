/**
 * @file
 * A fleet of RaidFileClient sessions driving one server front end.
 *
 * The paper's server exists to be shared: Fig 1 hangs supercomputers,
 * client workstations, and an Ethernet full of NFS clients off one
 * RAID-II.  This runner spawns N client sessions (N >= 256 is the
 * bench default), each with its own NIC model, scheduler session, and
 * seeded workload mix, and drives them in either of the two classic
 * load-generation shapes:
 *
 *  - closed loop: each session keeps one request outstanding —
 *    throughput is self-limiting;
 *  - open loop: arrivals are a Poisson process at a configured offered
 *    rate, independent of completions — the shape used to sweep a
 *    server from underload through saturation (Gug's iSCSI disk-server
 *    comparison and Dagenais's Linux-RAID study both plot this curve).
 *
 * Admission rejections (Status::Busy / Status::Throttled) are retried
 * with jittered exponential backoff; latency is measured from first
 * issue to final completion, so queueing *and* retry delay show up in
 * the tail percentiles.  Runs are bit-reproducible from (config,
 * seed): every random draw comes from a per-session xoshiro stream.
 */

#ifndef RAID2_WORKLOAD_CLIENT_FLEET_HH
#define RAID2_WORKLOAD_CLIENT_FLEET_HH

#include <cstdint>
#include <vector>

#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"

namespace raid2::workload {

/** N-session client fleet over one scheduler. */
class ClientFleet
{
  public:
    enum class Mode { Closed, Open };

    struct Config
    {
        unsigned sessions = 256;
        Mode mode = Mode::Closed;

        /** @{ Shared file population, pre-created before the run.
         *  Session i works against file (i % fileCount). */
        unsigned fileCount = 32;
        std::uint64_t fileBytes = 2ull * 1024 * 1024;
        /** @} */

        /** @{ Per-op mix, drawn per arrival from the session's RNG:
         *  read with readFraction, small one time in four; small ops
         *  ride the Ethernet standard path, bulk ops the HIPPI fast
         *  path (the scheduler's §2.1.1 split). */
        double readFraction = 0.8;
        std::uint64_t bulkBytes = 512 * 1024;
        std::uint64_t smallBytes = 8 * 1024;
        /** @} */

        /** Closed loop: each session issues its next op as soon as
         *  the last one completes. */
        std::uint64_t opsPerSession = 32;

        /** @{ Open loop: aggregate Poisson arrival rate, sustained for
         *  @c duration after the fleet's sessions are open. */
        double offeredOpsPerSec = 100.0;
        sim::Tick duration = sim::secToTicks(10.0);
        /** @} */

        /** Busy/Throttled retry: jittered exponential backoff,
         *  starting here. */
        sim::Tick retryBackoff = sim::msToTicks(1.0);

        /** DataCorrupt retry bound: a read that hit unrepairable
         *  corruption is retried with the same backoff (a scrub or a
         *  rewrite may have healed the block since), but only this
         *  many times — the op then completes as corrupt instead of
         *  spinning forever on a permanently poisoned block. */
        unsigned corruptRetryMax = 4;

        /** Session i opens its file at i * startStagger. */
        sim::Tick startStagger = sim::usToTicks(100);

        std::uint64_t seed = 0x524149;
    };

    /** Per-service-class slice of the results. */
    struct ClassBreakdown
    {
        std::uint64_t ops = 0;
        std::uint64_t bytes = 0;
        /** Busy/Throttled completions that led to a retry. */
        std::uint64_t rejects = 0;
        /** Final first-issue-to-completion latency of each op. */
        std::vector<double> latencyMs;
    };

    struct Results
    {
        sim::Tick elapsed = 0;
        std::uint64_t ops = 0;
        std::uint64_t bytes = 0;
        std::uint64_t retries = 0;
        /** Ops abandoned after 10000 attempts (should stay 0). */
        std::uint64_t dropped = 0;
        /** DataCorrupt completions that led to a retry. */
        std::uint64_t corruptRetries = 0;
        /** Reads still DataCorrupt after corruptRetryMax attempts;
         *  the server refused to return wrong bytes and the client
         *  gave up.  Excluded from @c ops. */
        std::uint64_t corruptOps = 0;
        ClassBreakdown fast;
        ClassBreakdown standard;

        double
        goodputMBs() const
        {
            return sim::mbPerSec(bytes, elapsed);
        }
        double
        opsPerSec() const
        {
            return elapsed ? static_cast<double>(ops) /
                                 sim::ticksToSec(elapsed)
                           : 0.0;
        }
    };

    /**
     * Create the file population, open one handle per session through
     * the scheduler (exercising metadata batching), drive the
     * configured load shape to completion, and return the aggregated
     * results.  Runs the event queue.
     */
    static Results run(sim::EventQueue &eq, server::Raid2Server &srv,
                       server::RequestScheduler &sched,
                       const Config &cfg);

    /** The @p bytes every population file holds: byte i is
     *  (i * 13 + 7) mod 256. */
    static std::vector<std::uint8_t> populationBytes(std::size_t bytes);
};

} // namespace raid2::workload

#endif // RAID2_WORKLOAD_CLIENT_FLEET_HH
