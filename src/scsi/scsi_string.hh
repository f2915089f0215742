/**
 * @file
 * SCSI string (shared bus) model.
 *
 * A "string" is one SCSI bus hanging off one port of a Cougar disk
 * controller.  §2.3/Fig 7: "Cougar string bandwidth is limited to
 * about 3 megabytes/second, less than that of three disks" — the
 * string is the first-level bottleneck of the RAID-II datapath, and
 * the cause of both Fig 7's saturation and Fig 5's 768 KB dip.
 *
 * Disks disconnect from the bus during positioning, so only data
 * transfer (plus a small arbitration/selection cost per command)
 * occupies the string.
 */

#ifndef RAID2_SCSI_SCSI_STRING_HH
#define RAID2_SCSI_SCSI_STRING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/calibration.hh"
#include "disk/disk_model.hh"
#include "sim/service.hh"
#include "sim/stats_registry.hh"

namespace raid2::scsi {

/** One SCSI bus with its attached drives. */
class ScsiString
{
  public:
    ScsiString(sim::EventQueue &eq, std::string name,
               double mb_per_sec = cal::scsiStringMBs);

    /** Attach a drive (ownership stays with the caller). */
    void attach(disk::DiskModel *drive);

    /** The shared-bus service stage. */
    sim::Service &bus() { return _bus; }
    const sim::Service &bus() const { return _bus; }

    /** Charge per-command arbitration/selection/reselection cost. */
    void chargeCommandOverhead();

    /**
     * Fault-injection hook: seize the bus for @p duration ticks,
     * modeling a target hanging the string mid-handshake.  Transfers
     * already queued behind the hang wait it out; drives themselves
     * keep positioning (they are disconnected during seeks).
     */
    void injectHang(sim::Tick duration);

    std::uint64_t hangs() const { return _hangs; }

    const std::vector<disk::DiskModel *> &disks() const { return _disks; }
    const std::string &name() const { return _name; }

    /** Register the shared bus's stats under "<prefix>.bus". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const
    {
        _bus.registerStats(reg, prefix + ".bus");
        reg.add(prefix + ".hangs", _hangs);
        reg.addGauge(prefix + ".hang_ms",
                     [this] { return sim::ticksToMs(_hangTicks); });
    }

  private:
    sim::EventQueue &eq;
    std::string _name;
    sim::Service _bus;
    std::vector<disk::DiskModel *> _disks;
    std::uint64_t _hangs = 0;
    sim::Tick _hangTicks = 0;
};

} // namespace raid2::scsi

#endif // RAID2_SCSI_SCSI_STRING_HH
