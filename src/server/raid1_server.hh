/**
 * @file
 * RAID-I baseline server.
 *
 * The first Berkeley prototype (§1): a Sun 4/280 with four dual-string
 * SCSI controllers and 28 Wren IV drives, with *all* data passing
 * through host memory — DMA across the 9 MB/s VME backplane, then
 * kernel-to-user copies that saturate the memory system at 2.3 MB/s
 * of delivered bandwidth.  This server exists to reproduce the §1
 * numbers and the Table 2 comparison.
 */

#ifndef RAID2_SERVER_RAID1_SERVER_HH
#define RAID2_SERVER_RAID1_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/host_workstation.hh"
#include "raid/raid_layout.hh"
#include "scsi/cougar_controller.hh"

namespace raid2::server {

/** Host-centric disk-array file server (the RAID-I prototype). */
class Raid1Server
{
  public:
    struct Config
    {
        unsigned numDisks = 28;
        std::uint64_t stripeUnitBytes = 32 * 1024;
        const disk::DiskProfile *profile = &disk::wrenIV();
        host::HostWorkstation::Config hostCfg;
    };

    Raid1Server(sim::EventQueue &eq, std::string name, const Config &cfg);
    ~Raid1Server();

    /**
     * Read [off, len) of the striped array to a user buffer: disks ->
     * SCSI -> backplane DMA -> kernel buffer -> user copy.
     */
    void read(std::uint64_t off, std::uint64_t len, sim::Event done);

    /** The reverse path. */
    void write(std::uint64_t off, std::uint64_t len, sim::Event done);

    /** Raw single-disk read (Table 2 single-disk row). */
    void diskRead(unsigned d, std::uint64_t disk_off, std::uint64_t len,
                  sim::Event done);

    host::HostWorkstation &host() { return *_host; }
    const raid::RaidLayout &layout() const { return *_layout; }
    unsigned numDisks() const
    {
        return static_cast<unsigned>(channels.size());
    }
    disk::DiskModel &disk(unsigned d) { return *disks.at(d); }

  private:
    /** A per-disk command: DiskChannel::read or DiskChannel::write. */
    using Command = void (scsi::DiskChannel::*)(std::uint64_t,
                                                std::uint64_t,
                                                std::vector<sim::Stage>,
                                                sim::Event);
    /** Run @p cmd on every one of @p extents through host memory, then
     *  charge the host's request completion and run @p done. */
    void transfer(Command cmd, const std::vector<raid::DiskExtent> &extents,
                  sim::Event done);

    sim::EventQueue &eq;
    std::string _name;
    Config cfg;

    std::unique_ptr<host::HostWorkstation> _host;
    std::vector<std::unique_ptr<scsi::CougarController>> cougars;
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<std::unique_ptr<scsi::DiskChannel>> channels;
    std::unique_ptr<raid::RaidLayout> _layout;
};

} // namespace raid2::server

#endif // RAID2_SERVER_RAID1_SERVER_HH
