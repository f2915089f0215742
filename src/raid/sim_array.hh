/**
 * @file
 * Timed RAID array: the full RAID-II datapath.
 *
 * SimArray owns the member disks, SCSI strings and Cougar controllers
 * of one XBUS board's array and maps logical array operations onto
 * timed per-disk commands flowing disk <-> string <-> controller <->
 * VME port <-> XBUS memory.  Every write runs one plan: pre-reads,
 * then at most one parity-engine pass, then writes.  A RAID-5 plan is
 * built per stripe from the parity update RaidLayout::mapStripes picks
 * for it (full-stripe, read-modify-write or reconstruct-write), under
 * the stripe lock — the machinery behind Fig 5, Table 1 and Fig 8.
 *
 * Disk numbering is string-major: disks 0..(S-1) sit on the *first*
 * string of each controller in round-robin, then the second strings.
 * This matches the prototype's striping order: a 768 KB request (12 x
 * 64 KB units) spans exactly the first strings, and slightly larger or
 * unaligned requests spill onto "a second string on one of the
 * controllers" — the cause of Fig 5's dip.
 *
 * The array also owns the media state (MediaState): which disks have
 * failed, how far each failed disk's rebuild has got, and where latent
 * defects lie.  A timed read that lands on a defect runs the
 * reconstruct-and-rewrite sequence.  A functional twin (RaidArray) is
 * built on the same record, and when one is attached it applies each
 * change, doing its byte work in the same call; without one the array
 * applies the change to the record alone.  Degraded reads, latent
 * repairs, rebuild stripes and scrub repairs all run through one timed
 * reconstruct(), and the last three write the range back through one
 * restoreRange().
 *
 * A range is live when its disk is healthy or the rebuild has written
 * it to the replacement.  Reads of a live range go to the disk; only
 * the rest of a failed disk is reconstructed from the survivors.
 * Writes reach the replacement once the rebuild has reached them.
 */

#ifndef RAID2_RAID_SIM_ARRAY_HH
#define RAID2_RAID_SIM_ARRAY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "disk/disk_model.hh"
#include "raid/media_state.hh"
#include "raid/raid_layout.hh"
#include "scsi/cougar_controller.hh"
#include "sim/stats.hh"
#include "xbus/xbus_board.hh"

namespace raid2::raid {

/** Physical wiring of an array behind one XBUS board. */
struct ArrayTopology
{
    /** Controllers on the four XBUS VME ports (at most 4). */
    unsigned numCougars = 4;
    /** Drives per SCSI string (2 strings per controller). */
    unsigned disksPerString = 3;
    /** Drive model for every member disk. */
    const disk::DiskProfile *profile = &disk::ibm0661();
    /** Use C-SCAN elevator queues in the drives instead of FCFS (the
     *  prototype's policy); an ablation knob. */
    bool elevatorScheduling = false;

    unsigned numDisks() const
    {
        return numCougars * scsi::CougarController::numStrings *
               disksPerString;
    }
};

class RaidArray;

/** Timed disk array attached to one XBUS board. */
class SimArray
{
  public:
    /**
     * @param layout_cfg level and stripe unit; numDisks is overwritten
     *                   from the topology.
     */
    SimArray(sim::EventQueue &eq, xbus::XbusBoard &board, std::string name,
             LayoutConfig layout_cfg, const ArrayTopology &topo);
    ~SimArray();

    const RaidLayout &layout() const { return *_layout; }
    unsigned numDisks() const { return static_cast<unsigned>(disks.size()); }
    std::uint64_t capacity() const { return _layout->dataCapacity(); }
    xbus::XbusBoard &board() { return _board; }

    /** Read [off, off+len) from the array into XBUS memory. */
    void read(std::uint64_t off, std::uint64_t len, sim::Event done);

    /** Write [off, off+len) from XBUS memory to the array. */
    void write(std::uint64_t off, std::uint64_t len, sim::Event done);

    /** Take a disk offline; subsequent reads reconstruct on the fly.
     *  Its latent defects go with it. */
    void failDisk(unsigned d);
    /**
     * One on-line rebuild step of failed disk @p d: reconstruct its unit
     * of @p stripe, write it to the replacement, then mark it live (the
     * twin rebuilds its copy in the same call).  RAID-5 holds the stripe
     * lock throughout, so a write racing the step waits and then
     * reaches the replacement.  @p done fires after the mark.
     */
    void rebuildStripe(unsigned d, std::uint64_t stripe, sim::Event done);
    /** Bring a (rebuilt) disk back online; the twin rebuilds the ranges
     *  rebuildStripe() did not. */
    void restoreDisk(unsigned d);

    /** The media record; a twin is built on it. */
    MediaState &media() { return *_media; }
    const MediaState &media() const { return *_media; }

    /** Attach the functional twin, built on media(), once; every media
     *  change then goes through it. */
    void attachTwin(RaidArray &twin);
    RaidArray *twin() const { return _twin; }

    /** @{ Latent media defects. */
    /** Per-disk bytes a media fault can land in: the striped region,
     *  clipped to the twin's disks. */
    std::uint64_t mediaSpan() const;
    /** Mark [off, off+bytes) of disk @p d unreadable (the twin garbles
     *  its copy). */
    void injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    /** Consume every defect of disk @p d without a timed repair (media
     *  reallocation; the twin repairs its copy).  @return ranges
     *  dropped. */
    std::uint64_t dropLatents(unsigned d);
    /** A timed repair rewrote [off, off+bytes) of disk @p d: repair
     *  the defects inside it and count the repair. */
    void noteRepaired(unsigned d, std::uint64_t off, std::uint64_t bytes,
                      bool by_scrub);
    /** Ranges repaired by foreground reads / by the scrubber, and the
     *  defective bytes those repairs cleared; by reference, so the
     *  fault controller registers them as "fault.*" counters. */
    const std::uint64_t &readRepairedRanges() const { return _readRepairs; }
    const std::uint64_t &scrubRepairedRanges() const { return _scrubRepairs; }
    const std::uint64_t &latentRepairedBytes() const { return _repairedBytes; }
    /** @} */

    /**
     * Timed reconstruction of [off, off+bytes) of disk @p d from
     * redundancy into XBUS memory.  It reads the range of each of
     * RaidLayout::forEachSource's disks in that order: RAID-1 copies
     * the mirror partner, and RAID-3/5 then run one parity pass of
     * (bytes * (n-1), bytes) over the n-1 others.
     * @return false, issuing nothing (@p done never fires), when no
     * redundancy is left to read: RAID-0, or a failed source (even
     * where its rebuild has written the range).
     */
    bool reconstruct(unsigned d, std::uint64_t off, std::uint64_t bytes,
                     sim::Event done);
    /**
     * Timed rewrite of [off, off+bytes) of disk @p d from redundancy:
     * reconstruct() it, write it back to disk @p d, then run @p then.
     * The latent read repair, the scrubber's repair and the rebuild step
     * all restore a range through this call.
     * @return false, issuing nothing, when no redundancy is left.
     */
    bool restoreRange(unsigned d, std::uint64_t off, std::uint64_t bytes,
                      sim::Event then);

    /** @{ Raw per-disk transfers through the full bus chain (used by
     *  rebuild, the scrubber and benches that bypass the RAID
     *  mapping). */
    void rawDiskRead(unsigned d, std::uint64_t disk_offset,
                     std::uint64_t bytes, sim::Event done);
    void rawDiskWrite(unsigned d, std::uint64_t disk_offset,
                      std::uint64_t bytes, sim::Event done);
    /** @} */

    disk::DiskModel &disk(unsigned i) { return *disks.at(i); }
    scsi::CougarController &cougar(unsigned c) { return *cougars.at(c); }
    unsigned numCougarControllers() const
    {
        return static_cast<unsigned>(cougars.size());
    }

    /** Controller index a disk hangs off. */
    unsigned cougarOf(unsigned d) const;
    /** String index (0/1) within that controller. */
    unsigned stringOf(unsigned d) const;

    /** @{ Statistics. */
    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }
    std::uint64_t bytesRead() const { return _bytesRead; }
    std::uint64_t bytesWritten() const { return _bytesWritten; }
    const sim::Distribution &readLatencyMs() const { return _readMs; }
    const sim::Distribution &writeLatencyMs() const { return _writeMs; }
    std::uint64_t rmwStripes() const { return _rmwStripes; }
    std::uint64_t reconstructWriteStripes() const { return _rwStripes; }
    std::uint64_t fullStripeWrites() const { return _fullStripes; }
    /** Reads served by reconstructing a failed disk from survivors. */
    std::uint64_t degradedReads() const { return _degradedReads; }
    std::uint64_t degradedBytes() const { return _degradedBytes; }
    /** Reads that hit a latent defect and triggered a timed repair. */
    std::uint64_t latentRepairReads() const { return _latentRepairReads; }
    std::uint64_t latentRepairBytes() const { return _latentRepairBytes; }
    /** Writes that had to queue behind a stripe lock. */
    std::uint64_t stripeLockWaits() const { return _stripeLockWaits; }
    /** Time writes spent queued behind stripe locks (ms). */
    const sim::Distribution &stripeLockWaitMs() const
    {
        return _stripeLockWaitMs;
    }

    /**
     * Register array-level stats under "raid" plus the member disks
     * under "disk.N" and the Cougar controllers/strings under
     * "scsi.cougarN".
     */
    void registerStats(sim::StatsRegistry &reg) const;
    /** @} */

  private:
    /** Issue a timed read of @p e into XBUS memory. */
    void issueExtentRead(const DiskExtent &e, sim::Event done);
    /** Issue a timed write of @p e from XBUS memory. */
    void issueExtentWrite(const DiskExtent &e, sim::Event done);

    /** Degraded read: reconstruct @p e from the survivors (a mirror
     *  read of the partner at RAID-1). */
    void issueDegradedRead(const DiskExtent &e, sim::Event done);

    /** A read of disk @p d hit a latent defect: run the timed
     *  reconstruct-and-rewrite sequence, then note the repair. */
    void issueLatentRepairRead(const DiskExtent &e, unsigned d,
                               sim::Event done);

    /** Repair latent [off, off+bytes) of disk @p d (via the twin). */
    void repairLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);

    /** One timed write: its pre-reads, then at most one parity-engine
     *  pass, then its writes. */
    struct WritePlan
    {
        std::vector<DiskExtent> reads;
        /** Parity-engine pass of (passIn, passOut) bytes; none when
         *  passIn is 0. */
        std::uint64_t passIn = 0;
        std::uint64_t passOut = 0;
        std::vector<DiskExtent> writes;
    };
    /** Plan a Level 0/1/3 write of [off, off+len) as a whole: the
     *  mapped extents, each mirror write right after its primary,
     *  and Level 3's on-the-fly parity. */
    WritePlan rangePlan(std::uint64_t off, std::uint64_t len) const;
    /** Plan the Level 5 write of one stripe span from its update. */
    WritePlan stripePlan(const StripeSpan &s) const;
    /** Issue @p plan; @p done fires when its last write completes. */
    void runWrite(WritePlan plan, sim::Event done);

    /** @{ Per-stripe write serialization: concurrent updates to one
     *  stripe's parity must not interleave (the classic RAID-5 stripe
     *  lock), or the read-modify-write sequences would race. */
    void lockStripe(std::uint64_t stripe, sim::Event run);
    void unlockStripe(std::uint64_t stripe);
    /** @} */

    sim::EventQueue &eq;
    xbus::XbusBoard &_board;
    std::string _name;
    std::unique_ptr<RaidLayout> _layout;
    std::unique_ptr<MediaState> _media;
    ArrayTopology topo;

    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<std::unique_ptr<scsi::CougarController>> cougars;
    std::vector<std::unique_ptr<scsi::DiskChannel>> channels;
    RaidArray *_twin = nullptr;

    /** Stripes with a write in flight -> queued waiters. */
    std::unordered_map<std::uint64_t, std::deque<sim::Event>> stripeLocks;

    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _bytesRead = 0;
    std::uint64_t _bytesWritten = 0;
    std::uint64_t _rmwStripes = 0;
    std::uint64_t _degradedReads = 0;
    std::uint64_t _degradedBytes = 0;
    std::uint64_t _latentRepairReads = 0;
    std::uint64_t _latentRepairBytes = 0;
    std::uint64_t _unrecoverableReads = 0;
    /** @{ Media-state counters. */
    std::uint64_t _readRepairs = 0;
    std::uint64_t _scrubRepairs = 0;
    std::uint64_t _repairedBytes = 0;
    /** @} */
    std::uint64_t _stripeLockWaits = 0;
    std::uint64_t _rwStripes = 0;
    std::uint64_t _fullStripes = 0;
    sim::Distribution _readMs;
    sim::Distribution _writeMs;
    sim::Distribution _stripeLockWaitMs;
};

} // namespace raid2::raid

#endif // RAID2_RAID_SIM_ARRAY_HH
