#include "server/raid1_server.hh"

#include <memory>
#include <string>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

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

std::vector<sim::Stage>
Raid1Server::hostStages()
{
    return _host->dataPathStages();
}

void
Raid1Server::read(std::uint64_t off, std::uint64_t len,
                  std::function<void()> done)
{
    auto extents = _layout->mapRange(off, len);
    auto remaining = std::make_shared<std::size_t>(extents.size());
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    auto finish = [this, remaining, done_ptr] {
        if (--*remaining > 0)
            return;
        // Request completion: context switches + kernel work.
        _host->chargeIoCompletion(true, [done_ptr] {
            if (*done_ptr)
                (*done_ptr)();
        });
    };
    for (const auto &e : extents)
        channels[e.disk]->read(e.diskOffset, e.bytes, hostStages(),
                               finish);
}

void
Raid1Server::write(std::uint64_t off, std::uint64_t len,
                   std::function<void()> done)
{
    auto extents = _layout->mapRange(off, len);
    auto remaining = std::make_shared<std::size_t>(extents.size());
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    auto finish = [this, remaining, done_ptr] {
        if (--*remaining > 0)
            return;
        _host->chargeIoCompletion(true, [done_ptr] {
            if (*done_ptr)
                (*done_ptr)();
        });
    };
    for (const auto &e : extents)
        channels[e.disk]->write(e.diskOffset, e.bytes, hostStages(),
                                finish);
}

void
Raid1Server::registerStats(sim::StatsRegistry &reg) const
{
    _host->registerStats(reg, "host");
    for (std::size_t c = 0; c < cougars.size(); ++c)
        cougars[c]->registerStats(reg,
                                  "scsi.cougar" + std::to_string(c));
    for (std::size_t d = 0; d < disks.size(); ++d)
        disks[d]->registerStats(reg, "disk." + std::to_string(d));
}

void
Raid1Server::diskRead(unsigned d, std::uint64_t disk_off,
                      std::uint64_t len, std::function<void()> done)
{
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    channels.at(d)->read(disk_off, len, hostStages(), [this, done_ptr] {
        _host->chargeIoCompletion(true, [done_ptr] {
            if (*done_ptr)
                (*done_ptr)();
        });
    });
}

} // namespace raid2::server
