#include "server/raid1_server.hh"

#include <functional>
#include <memory>
#include <string>

#include "sim/join.hh"
#include "sim/logging.hh"

namespace raid2::server {

namespace {

/** SCSI controllers in the RAID-I host's VME backplane. */
constexpr unsigned numControllers = 4;

} // namespace

Raid1Server::Raid1Server(sim::EventQueue &eq_, std::string name,
                         const Config &cfg_)
    : eq(eq_), _name(std::move(name)), cfg(cfg_)
{
    _host = std::make_unique<host::HostWorkstation>(eq, _name + ".host",
                                                    cfg.hostCfg);
    for (unsigned c = 0; c < numControllers; ++c) {
        cougars.push_back(std::make_unique<scsi::CougarController>(
            eq, _name + ".ctrl" + std::to_string(c)));
    }
    const unsigned strings =
        numControllers * scsi::CougarController::numStrings;
    for (unsigned i = 0; i < cfg.numDisks; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            eq, _name + ".disk" + std::to_string(i), *cfg.profile));
        // Round-robin across strings so load spreads like the
        // prototype's.
        const unsigned g = i % strings;
        auto &ctrl = *cougars[g % numControllers];
        auto &str = ctrl.string(g / numControllers);
        str.attach(disks.back().get());
        channels.push_back(std::make_unique<scsi::DiskChannel>(
            *disks.back(), str, ctrl));
    }

    raid::LayoutConfig lcfg;
    lcfg.level = raid::RaidLevel::Raid0; // striping software, no parity
    lcfg.numDisks = cfg.numDisks;
    lcfg.stripeUnitBytes = cfg.stripeUnitBytes;
    _layout = std::make_unique<raid::RaidLayout>(
        lcfg, cfg.profile->capacityBytes());
}

Raid1Server::~Raid1Server() = default;

void
Raid1Server::read(std::uint64_t off, std::uint64_t len, sim::Event done)
{
    transfer(&scsi::DiskChannel::read, _layout->mapRange(off, len),
             std::move(done));
}

void
Raid1Server::write(std::uint64_t off, std::uint64_t len, sim::Event done)
{
    transfer(&scsi::DiskChannel::write, _layout->mapRange(off, len),
             std::move(done));
}

void
Raid1Server::diskRead(unsigned d, std::uint64_t disk_off,
                      std::uint64_t len, sim::Event done)
{
    transfer(&scsi::DiskChannel::read,
             {{.disk = d, .diskOffset = disk_off, .bytes = len}},
             std::move(done));
}

void
Raid1Server::transfer(Command cmd,
                      const std::vector<raid::DiskExtent> &extents,
                      sim::Event done)
{
    // Request completion: context switches + kernel work, charged even
    // when nobody waits.
    if (!done)
        done = [] {};
    const sim::Join all(extents.size(),
                        [this, done = std::move(done)]() mutable {
        _host->chargeIoCompletion(true, std::move(done));
    });
    for (const auto &e : extents)
        std::invoke(cmd, *channels.at(e.disk), e.diskOffset, e.bytes,
                    _host->dataPathStages(), all);
}

} // namespace raid2::server
