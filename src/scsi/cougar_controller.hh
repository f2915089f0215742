/**
 * @file
 * Interphase Cougar VME dual-string SCSI disk controller.
 *
 * §2.2: "The Cougar disk controllers can transfer data at 8 megabytes/
 * second" across its two SCSI strings.  The controller-level cap is
 * what causes Fig 5's dip at 768 KB requests: once a request's stripe
 * span wraps onto the *second* string of a controller, the two strings
 * contend inside the controller.
 */

#ifndef RAID2_SCSI_COUGAR_CONTROLLER_HH
#define RAID2_SCSI_COUGAR_CONTROLLER_HH

#include <array>
#include <memory>
#include <string>

#include "config/calibration.hh"
#include "scsi/scsi_string.hh"
#include "sim/service.hh"

namespace raid2::scsi {

/** A dual-string VME SCSI controller. */
class CougarController
{
  public:
    static constexpr unsigned numStrings = 2;

    CougarController(sim::EventQueue &eq, std::string name,
                     double mb_per_sec = cal::cougarMBs);

    ScsiString &string(unsigned idx);
    const ScsiString &string(unsigned idx) const;

    /** Controller-level aggregate service stage. */
    sim::Service &svc() { return _svc; }
    const sim::Service &svc() const { return _svc; }

    const std::string &name() const { return _name; }

    /** Total drives attached across both strings. */
    unsigned numDisks() const;

    /** Register controller + per-string stats under @p prefix. */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    std::string _name;
    sim::Service _svc;
    std::array<std::unique_ptr<ScsiString>, numStrings> strings;
};

/**
 * One drive together with its path through string and controller.
 * read()/write() run the complete datapath for a single disk command:
 * the drive's media phase overlapped with the chunked bus phase
 * through string -> controller -> caller-supplied downstream stages
 * (VME port, XBUS memory, ...).  Each command is one sim::Pipeline
 * transfer: a read feeds it one 16 KB media chunk at a time as the
 * drive buffers them, a write feeds it every chunk at once.
 */
class DiskChannel
{
  public:
    DiskChannel(disk::DiskModel &drive, ScsiString &string,
                CougarController &cougar);

    /**
     * Read @p bytes at @p offset: media phase first (drive buffer),
     * then bytes drain over [string, controller] + @p downstream, each
     * media chunk as soon as the drive has buffered it.
     */
    void read(std::uint64_t offset, std::uint64_t bytes,
              std::vector<sim::Stage> downstream, sim::Event done);

    /**
     * Write @p bytes at @p offset: bytes flow through @p upstream +
     * [controller, string] into the drive buffer while the drive
     * positions; completion when both bus and media phases finish.
     */
    void write(std::uint64_t offset, std::uint64_t bytes,
               std::vector<sim::Stage> upstream, sim::Event done);

    disk::DiskModel &drive() { return _drive; }
    ScsiString &string() { return _string; }
    CougarController &cougar() { return _cougar; }

  private:
    disk::DiskModel &_drive;
    ScsiString &_string;
    CougarController &_cougar;
};

} // namespace raid2::scsi

#endif // RAID2_SCSI_COUGAR_CONTROLLER_HH
