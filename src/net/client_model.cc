#include "net/client_model.hh"

#include <utility>

#include "sim/stats_registry.hh"

namespace raid2::net {

ClientModel::ClientModel(sim::EventQueue &eq, std::string name)
    : _name(std::move(name)),
      _nic(eq, _name + ".nic",
           sim::Service::Config{cal::clientReadMBs, 0, 1})
{
}

void
ClientModel::registerStats(sim::StatsRegistry &reg,
                           const std::string &prefix) const
{
    _nic.registerStats(reg, prefix + ".nic");
}

} // namespace raid2::net
