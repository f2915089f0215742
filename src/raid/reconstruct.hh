/**
 * @file
 * Timed on-line reconstruction of a failed member disk.
 *
 * Sweeps the array stripe by stripe with SimArray::rebuildStripe:
 * reconstruct the dead unit (the mirror partner's copy for RAID-1,
 * every survivor plus a parity pass for RAID-3/5), write it to the
 * replacement drive, and mark it live, so reads behind the cursor are
 * served by the replacement instead of the survivors (read redirection,
 * Holland, Gibson & Siewiorek 1994).  A window of concurrent stripes
 * keeps the datapath busy while bounding XBUS buffer use, and an
 * optional inter-stripe delay throttles the sweep so foreground traffic
 * keeps a share of the datapath — the classic rebuild-rate vs. MTTR
 * trade (Thomasian, arXiv:1801.08873).  Each stripe is traced as one
 * "rebuild_stripe" span, from its launch to its replacement write.
 * (Reliability policy itself is out of the paper's scope —
 * "Techniques for maximizing reliability are beyond the scope of
 * this paper" §2.3 — but degraded operation is needed by the examples
 * and the RAID-3-vs-5 comparison of §4.2.)
 */

#ifndef RAID2_RAID_RECONSTRUCT_HH
#define RAID2_RAID_RECONSTRUCT_HH

#include <cstdint>
#include <string>

#include "raid/sim_array.hh"

namespace raid2::raid {

/** One timed rebuild of a failed disk in a SimArray. */
class RebuildJob
{
  public:
    /**
     * @param name    trace component of the per-stripe spans
     * @param array   degraded array (disk @p dead must be failed)
     * @param dead    the disk being rebuilt in place
     * @param window  concurrent stripes in flight
     * @param inter_stripe_delay  minimum tick spacing between stripe
     *                launches (0 = rebuild at full datapath speed)
     */
    RebuildJob(sim::EventQueue &eq, std::string name, SimArray &array,
               unsigned dead, unsigned window = 4,
               sim::Tick inter_stripe_delay = 0);

    /** Begin; @p done fires when the last stripe is written. */
    void start(sim::Event done);

    std::uint64_t stripesDone() const { return _stripesDone; }
    std::uint64_t stripesTotal() const { return total; }
    bool finished() const { return _finished; }

    /** @{ Timing, valid once start() has run (live values while the
     *  rebuild is still in flight). */
    /** Wall-clock of the rebuild so far (total once finished), ms. */
    double durationMs() const;
    /** Average rebuild rate in stripes per simulated second. */
    double stripesPerSec() const;
    /** @} */

  private:
    void pump();
    void rebuildStripe(std::uint64_t stripe);

    sim::EventQueue &eq;
    std::string _name;
    SimArray &array;
    unsigned dead;
    unsigned window;
    sim::Tick delay;
    std::uint64_t next = 0;
    std::uint64_t total = 0;
    std::uint64_t _stripesDone = 0;
    unsigned inFlight = 0;
    bool _finished = false;
    /** @{ Launch pacing for the throttle. */
    sim::Tick nextLaunchAt = 0;
    bool wakeupPending = false;
    /** @} */
    sim::Tick _startTick = 0;
    sim::Tick _endTick = 0;
    sim::Event done;
};

} // namespace raid2::raid

#endif // RAID2_RAID_RECONSTRUCT_HH
