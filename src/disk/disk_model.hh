/**
 * @file
 * Mechanical disk drive model.
 *
 * Simulates the media phase of a disk command: per-command firmware
 * overhead, a three-point-fitted seek curve, true rotational-position
 * tracking (the platter angle is a function of simulated time), media
 * transfer at the geometry-implied rate with head-switch costs at
 * track boundaries, and a track read-ahead buffer that lets strictly
 * sequential reads stream without positioning — the asymmetry behind
 * the paper's sequential read-vs-write gap (Table 1) and the Wren IV
 * vs IBM 0661 I/O-rate gap (Table 2).
 *
 * The model covers mechanics only.  Bus transfer (SCSI string, Cougar
 * controller, VME port) is layered on by the scsi module: for reads
 * the media phase fills the drive's buffer, after which bytes drain
 * over the bus; for writes the bus fills the buffer and the media
 * phase commits it.
 *
 * A drive keeps the command on its media in a member and its callback
 * is a move-only sim::Event, so a warm drive serves queued commands
 * without allocating.
 */

#ifndef RAID2_DISK_DISK_MODEL_HH
#define RAID2_DISK_DISK_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "disk/disk_profile.hh"
#include "disk/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace raid2::disk {

/** A single simulated disk drive. */
class DiskModel
{
  public:
    DiskModel(sim::EventQueue &eq, std::string name,
              const DiskProfile &profile,
              std::unique_ptr<Scheduler> sched = nullptr);

    /**
     * Queue a media command.  @p done fires when the media phase
     * completes (read: data in drive buffer; write: data committed).
     */
    void submit(std::uint64_t start_sector, std::uint32_t sectors,
                bool write, sim::Event done);

    /** Convenience: byte-addressed submit (must be sector aligned). */
    void submitBytes(std::uint64_t offset, std::uint64_t bytes, bool write,
                     sim::Event done);

    const DiskProfile &profile() const { return prof; }
    const std::string &name() const { return _name; }
    std::uint64_t capacityBytes() const { return prof.capacityBytes(); }

    /** True if no command is queued or in flight. */
    bool idle() const { return !busy && sched->empty(); }

    /**
     * Fault-injection hook: stall the drive for @p duration ticks,
     * modeling a transient firmware timeout or retry storm.  A command
     * already on the media finishes normally; the next command does
     * not start until the stall expires.  Overlapping stalls extend,
     * they do not stack.
     */
    void stall(Tick duration);

    /** @{ Statistics. */
    std::uint64_t requests() const { return _requests; }
    std::uint64_t sectorsRead() const { return _sectorsRead; }
    std::uint64_t sectorsWritten() const { return _sectorsWritten; }
    std::uint64_t readAheadHits() const { return _readAheadHits; }
    std::uint64_t stalls() const { return _stalls; }
    /** Per-command service time in ms (positioning + transfer). */
    const sim::Distribution &serviceMs() const { return _serviceMs; }
    const sim::Distribution &queueDepth() const { return _queueDepth; }
    sim::Tick busyTicks() const { return busyTime.busy(); }
    /** Register all drive stats under @p prefix (e.g. "disk.0"). */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;
    /** @} */

  private:
    /** Start servicing the head of the queue. */
    void startNext();

    /** The in-service command's media phase is over: update the
     *  read-ahead state, run its callback, start the next command. */
    void finishCommand();

    /**
     * Compute the media service time of @p req starting at @p start and
     * update head position / read-ahead state.
     * @param position_out seek + rotational component, for stats.
     */
    Tick computeService(const DiskRequest &req, Tick start,
                        Tick &position_out);

    sim::EventQueue &eq;
    std::string _name;
    const DiskProfile &prof;
    std::unique_ptr<Scheduler> sched;

    bool busy = false;
    /** The command on the media while busy (and not stalled). */
    DiskRequest inService;
    std::uint32_t curCylinder = 0;
    std::uint64_t headSector = 0;    // absolute sector under the head
    Tick rotPhase = 0;               // per-drive rotation phase offset

    /** Next sector the read-ahead buffer holds (one past last read). */
    std::uint64_t readAheadPos = ~std::uint64_t(0);
    /** Simulated time of the last read completion. */
    Tick lastReadDone = 0;

    /** @{ Injected-stall state: commands queued before this tick wait;
     *  stallPending guards against scheduling duplicate wakeups. */
    Tick stallUntil = 0;
    bool stallPending = false;
    /** @} */

    std::uint64_t _requests = 0;
    std::uint64_t _sectorsRead = 0;
    std::uint64_t _sectorsWritten = 0;
    std::uint64_t _readAheadHits = 0;
    std::uint64_t _stalls = 0;
    Tick _stallTicks = 0;
    sim::Distribution _serviceMs;
    sim::Distribution _positionMs;
    sim::Distribution _queueDepth;
    sim::Utilization busyTime;
};

} // namespace raid2::disk

#endif // RAID2_DISK_DISK_MODEL_HH
