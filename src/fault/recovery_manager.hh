/**
 * @file
 * Automatic failure recovery: hot spares + throttled rebuild.
 *
 * The paper's prototype left reliability policy to the operator
 * (§2.3); this is the policy layer a production RAID-II would need.
 * The RecoveryManager listens for whole-disk failures from the
 * FaultController, allocates a drive from a hot-spare pool, and drives
 * a raid::RebuildJob onto it with a configurable window and
 * inter-stripe throttle — the rebuild-rate vs. foreground-interference
 * trade that dominates MTTR (Thomasian, arXiv:1801.08873).  Reads the
 * rebuild has passed are already served by the spare.  The pool never
 * refills: failures that arrive while it is empty wait for good.  MTTR
 * is measured from the failure to the rebuild's completion, including
 * any time spent waiting for a spare.  The finished RebuildJob brings
 * the disk back with SimArray::restoreDisk, which also finishes the
 * functional twin's copy.  The job's per-stripe spans are traced under
 * this manager's name.
 */

#ifndef RAID2_FAULT_RECOVERY_MANAGER_HH
#define RAID2_FAULT_RECOVERY_MANAGER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault_controller.hh"
#include "raid/reconstruct.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"

namespace raid2::fault {

/** Detect -> allocate spare -> rebuild. */
class RecoveryManager
{
  public:
    struct Config
    {
        /** Hot spares initially in the pool. */
        unsigned spares = 1;
        /** Swap-in time before the rebuild can start. */
        sim::Tick spareAttachDelay = sim::msToTicks(100);
        /** Concurrent stripes in flight during rebuild. */
        unsigned rebuildWindow = 4;
        /** Minimum tick spacing between rebuild stripe launches
         *  (0 = rebuild at full datapath speed). */
        sim::Tick rebuildThrottle = 0;
    };

    /** Registers itself as @p faults' disk-failure listener. */
    RecoveryManager(sim::EventQueue &eq, std::string name,
                    raid::SimArray &array, FaultController &faults,
                    const Config &cfg);

    /** Failure notification (normally via the FaultController). */
    void diskFailed(unsigned d);

    /** Fires after each completed rebuild. */
    void onRebuildDone(std::function<void(unsigned disk, double mttr_ms)> cb)
    {
        _onDone = std::move(cb);
    }

    /** @{ State and statistics. */
    bool rebuildActive() const { return _job && !_job->finished(); }
    const raid::RebuildJob *currentJob() const { return _job.get(); }
    std::uint64_t sparesAvailable() const { return _spares; }
    std::uint64_t sparesUsed() const { return _sparesUsed; }
    std::uint64_t rebuildsCompleted() const { return _rebuildsCompleted; }
    std::size_t failuresWaiting() const { return pending.size(); }
    /** Failure -> rebuild-complete, includes spare wait + attach. */
    const sim::Distribution &mttrMs() const { return _mttrMs; }
    /** @} */

    /** Register recovery stats under "recovery.*". */
    void registerStats(sim::StatsRegistry &reg) const;

  private:
    void tryStart();
    void startRebuild(unsigned disk, sim::Tick failed_at);

    sim::EventQueue &eq;
    std::string _name;
    raid::SimArray &array;
    Config cfg;

    struct PendingFailure
    {
        unsigned disk;
        sim::Tick at;
    };
    std::deque<PendingFailure> pending;
    std::unique_ptr<raid::RebuildJob> _job;
    bool attaching = false;

    std::uint64_t _spares;
    std::uint64_t _sparesUsed = 0;
    std::uint64_t _rebuildsStarted = 0;
    std::uint64_t _rebuildsCompleted = 0;
    sim::Distribution _mttrMs;
    std::function<void(unsigned, double)> _onDone;
};

} // namespace raid2::fault

#endif // RAID2_FAULT_RECOVERY_MANAGER_HH
